"""The ``qcollide simulate`` run as one library call that returns its values."""

from dataclasses import dataclass

import numpy as np

from . import collision, entangle, noisytomo, nonmarkov, qmat

__all__ = ["SimulateReport", "check_inputs", "simulate"]


@dataclass(frozen=True, eq=False)
class SimulateReport:
    """A run over n = 0..N, its arrays indexed by n.  ``bloch`` needs a 1-qubit
    system, and the BLP pair and volumes also N >= 4; else they are None."""

    exact: bool  # Wootters C and C♯; else C's lower and C♯'s upper bound
    conc: np.ndarray
    assist: np.ndarray
    conc_err: np.ndarray  # bootstrap standard errors; 0 without shots
    assist_err: np.ndarray
    fidelity: np.ndarray  # of each state (estimate) to the ideal state
    rhp_series: tuple  # ((n, C), ...)
    rhp_increase: bool
    bloch: np.ndarray | None = None  # (N+1, 60, 3) images of a Bloch-sphere mesh
    blp_pair: tuple[int, int] | None = None  # argmin C, then argmax C from there
    blp_delta: float | None = None  # the pair's trace-distance backflow
    blp_argmax: tuple[float, float, float] | None = None  # a of the best pair (a, -a)
    volumes: tuple[float, float] | None = None  # Bloch volume ratios at the pair


def check_inputs(model, n_max=None, noise=None, shots=0, seed=0, mitigate=False) -> int:
    """The N to run (``n_max`` or the model's default), or ``ValueError`` naming a bad flag."""
    n_max = (model.max_steps or 10) if n_max is None else n_max
    if seed < 0:
        raise ValueError("--seed must be nonnegative")
    if shots >= 2**63:
        raise ValueError("--shots must be below 2^63 (a 64-bit count)")
    if noise is not None:
        noise.check_readout_labels(model.register.labels)
        if shots <= 0:
            raise ValueError("--shots must be positive when noise is enabled")
    elif shots != 0 or mitigate:
        raise ValueError("--shots and --mitigate need --noise")
    if mitigate:
        try:
            noise.check_mitigable((*model.ancilla_labels, *model.system_labels))
        except ValueError as exc:
            raise ValueError(f"--mitigate: {exc}") from exc
    try:
        model.check_collisions(n_max)
    except ValueError as exc:
        raise ValueError(f"--collisions {n_max}: {exc}") from exc
    return n_max


def simulate(model, n_max=None, noise=None, shots=0, seed=0, mitigate=False) -> SimulateReport:
    """Evolve ``model`` (ideal and under ``noise``), estimate and diagnose its states."""
    n_max = check_inputs(model, n_max, noise, shots, seed, mitigate)
    ideal_series = collision.evolve_series(model, n_max)
    used_series = ideal_series if noise is None else collision.evolve_series(model, n_max, noise)
    register = used_series[0].joint_state.register
    # Each state, [:, 0], and its bootstrap replicas: one (N+1, R+1, d, d) stack.
    mats = noisytomo.tomography_estimates([rec.joint_state for rec in used_series],
                                          register.labels, shots, seed, noise, mitigate)
    exact, conc, assist = entangle.quantifiers(mats, model.system_labels, register=register)
    fids = qmat.state_fidelity_mat(np.stack([r.joint_state.mat for r in ideal_series]),
                                   mats[:, 0])
    errs = (np.stack([conc[:, 1:], assist[:, 1:]]).std(axis=-1, ddof=1) if shots > 0
            else np.zeros((2, n_max + 1)))
    series, increase = nonmarkov.rhp_of_concurrence(range(n_max + 1), conc[:, 0])
    report = dict(exact=exact, conc=conc[:, 0], assist=assist[:, 0], conc_err=errs[0],
                  assist_err=errs[1], fidelity=fids, rhp_series=series, rhp_increase=increase)
    if len(model.system_labels) == 1:
        report["bloch"] = np.stack([collision.bloch_image_samples(rec, mesh=60)
                                    for rec in used_series])
    if len(model.system_labels) == 1 and n_max >= 4:
        t1 = min(range(n_max + 1), key=lambda i: conc[i, 0])
        t2 = max(range(t1, n_max + 1), key=lambda i: conc[i, 0])
        ch1, ch2 = used_series[t1].reduced_channel, used_series[t2].reduced_channel
        delta, (a, _) = nonmarkov.blp_max_increase(ch1, ch2)
        report.update(blp_pair=(t1, t2), blp_delta=delta, blp_argmax=tuple(a.tolist()),
                      volumes=(nonmarkov.bloch_volume(ch1), nonmarkov.bloch_volume(ch2)))
    return SimulateReport(**report)

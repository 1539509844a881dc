"""NISQ-style noise injection, shot-based Pauli tomography, readout-error
mitigation, and state reconstruction.

Noise model (per native gate):
* a depolarizing channel on the gate's qubits (``depol_1q`` / ``depol_2q``),
* thermal relaxation on each touched qubit for the gate duration: amplitude
  damping with gamma = 1 - exp(-d/T1) plus extra pure dephasing so the
  off-diagonal decay is exp(-d/T2) overall,
* RZ is virtual: zero duration and noiseless.

Each noisy native kind has one compressed Kraus set
(``NoiseConfig.native_kraus``): the depolarized gate's Choi matrix, relaxed
on each output qubit, through the one Choi→Kraus routine of ``channel``.  The
circuit channel on kept qubits (``noisy_channel_of_circuit``) runs the
circuit once on the stack of all inputs |i><j| and reads its Choi matrix off
the traced-out images.

Sampling runs the reconstruction tables below forward: the measured qubits'
4^k Pauli expectations give the (3^k settings × 2^k outcomes) table of every
setting at once.  With noise, each outcome bit then goes through one 2x2
readout matrix per qubit: relaxation for the measurement duration, then the
confusion flips (p01 = P(read 1 | true 0), p10 = P(read 0 | true 1)).  The
setting at position idx draws its shots from ``default_rng([seed, idx])``, so
sampling is deterministic; outcome bitstrings follow the ``measured`` order.

Reconstruction is linear: for k measured qubits, tables built once per k map
the (3^k settings × 2^k outcomes) frequency table to the 4^k Pauli-string
expectations (outcome signs, weighted by 1/#compatible settings) and those to
the estimate Σ_P <P> P / 2^k.  The estimate is projected onto the density
matrices (Smolin–Gambetta–Smith).  Many frequency tables, such as bootstrap
replicas, go through the same maps in one batched call.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import circuit as circ
from .channel import (
    KrausChannel,
    _choi_matrix,
    _kraus_of_choi,
    amplitude_damping_channel,
    apply_at,
    compose,
    depolarizing_channel,
    phase_damping_channel,
)
from .qmat import (
    DensityMatrix,
    PAULIS,
    QubitRegister,
    nkron,
    partial_trace,
    partial_trace_mat,
)

__all__ = [
    "NoiseConfig",
    "TomographyJob",
    "ShotCounts",
    "noisy_channel_of_circuit",
    "apply_noisy_circuit",
    "sample",
    "calibration_jobs",
    "mitigate_readout",
    "reconstruct",
    "ReconstructionResult",
    "counts_to_csv",
    "counts_from_csv",
    "all_settings",
]

DEFAULT_DURATIONS_NS = {"SX": 57.0, "X": 57.0, "ECR": 533.0, "RZ": 0.0, "MEASURE": 1216.0}


@dataclass(frozen=True)
class NoiseConfig:
    """Per-gate error parameters, relaxation times, and readout flips."""

    t1_us: float = 280.0
    t2_us: float = 180.0
    gate_duration_ns: dict = field(default_factory=lambda: dict(DEFAULT_DURATIONS_NS))
    depol_1q: float = 2e-4
    depol_2q: float = 7e-3
    readout: dict = field(default_factory=lambda: {"default": (0.01, 0.01)})

    def __post_init__(self):
        if self.t2_us > 2 * self.t1_us + 1e-12:
            raise ValueError("t2 must not exceed 2*t1")
        for p in (self.depol_1q, self.depol_2q):
            if not 0.0 <= p <= 1.0:
                raise ValueError("depolarizing probabilities must be in [0, 1]")
        for v in self.readout.values():
            if not (0.0 <= v[0] <= 1.0 and 0.0 <= v[1] <= 1.0):
                raise ValueError("readout probabilities must be in [0, 1]")
        for d in self.gate_duration_ns.values():
            if d < 0:
                raise ValueError("durations must be nonnegative")

    def readout_probs(self, label: str) -> tuple[float, float]:
        return tuple(self.readout.get(label, self.readout.get("default", (0.0, 0.0))))

    def duration(self, kind: str) -> float:
        return float(self.gate_duration_ns.get(kind, 0.0))

    @cached_property
    def native_kraus(self) -> dict:
        """Compressed Kraus set of each noisy native kind, on the gate's own
        qubits (RZ is virtual and noiseless)."""
        return {
            kind: _noisy_gate_kraus(self, kind, u)
            for kind, u in (("SX", circ.SX_MATRIX), ("X", circ.X_MATRIX),
                            ("ECR", circ.ECR_MATRIX))
        }

    def to_text(self) -> str:
        lines = [
            f"t1_us = {self.t1_us!r}",
            f"t2_us = {self.t2_us!r}",
            f"depol_1q = {self.depol_1q!r}",
            f"depol_2q = {self.depol_2q!r}",
        ]
        for k, v in sorted(self.gate_duration_ns.items()):
            lines.append(f"duration.{k} = {v!r}")
        for k, v in sorted(self.readout.items()):
            lines.append(f"readout.{k} = {v[0]!r},{v[1]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "NoiseConfig":
        kwargs: dict = {"gate_duration_ns": dict(DEFAULT_DURATIONS_NS), "readout": {}}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key in ("t1_us", "t2_us", "depol_1q", "depol_2q"):
                kwargs[key] = float(val)
            elif key.startswith("duration."):
                kwargs["gate_duration_ns"][key.split(".", 1)[1]] = float(val)
            elif key.startswith("readout."):
                probs = val.split(",")
                if len(probs) != 2:
                    raise ValueError(f"{key} needs two comma-separated probabilities")
                kwargs["readout"][key.split(".", 1)[1]] = (float(probs[0]), float(probs[1]))
            else:
                raise ValueError(f"unknown noise config key {key!r}")
        if not kwargs["readout"]:
            kwargs["readout"] = {"default": (0.01, 0.01)}
        return cls(**kwargs)


def _thermal_kraus(noise: NoiseConfig, duration_ns: float):
    """Amplitude damping + extra dephasing for one qubit over a duration."""
    if duration_ns <= 0:
        return None
    t1 = noise.t1_us * 1000.0
    t2 = noise.t2_us * 1000.0
    gamma = 1.0 - np.exp(-duration_ns / t1)
    rate_phi = 1.0 / t2 - 1.0 / (2.0 * t1)
    lam = 1.0 - np.exp(-2.0 * duration_ns * max(rate_phi, 0.0))
    ch = amplitude_damping_channel(gamma)
    if lam > 0:
        ch = compose(phase_damping_channel(lam), ch)
    return ch


def _gate_kraus(gate: circ.Gate, noise: NoiseConfig | None):
    """Kraus operators (on the gate's own qubits) for the noisy gate."""
    if noise is None or gate.kind == "RZ":
        return [gate.unitary()]
    if gate.kind not in circ.NATIVE_KINDS:
        raise ValueError(f"noise model requires native gates, got {gate.kind!r}")
    return noise.native_kraus[gate.kind]


def _noisy_gate_kraus(noise: NoiseConfig, kind: str, u: np.ndarray):
    """Depolarizing then thermal relaxation on each qubit, after the gate u.

    The relaxation acts on the output qubits of the gate's Choi matrix; the
    result is compressed to at most 4^nq Kraus operators."""
    nq = int(np.log2(u.shape[0]))
    p = noise.depol_1q if nq == 1 else noise.depol_2q
    choi = _choi_matrix([k @ u for k in depolarizing_channel(p, nq).kraus_ops])
    thermal = _thermal_kraus(noise, noise.duration(kind))
    if thermal is not None:
        for pos in range(nq):
            choi = apply_at(thermal.kraus_ops, choi, [pos], 2 * nq)
    return _kraus_of_choi(choi, 2**nq).kraus_ops


def _apply_circuit_to_matrix(c: circ.Circuit, mat: np.ndarray,
                             noise: NoiseConfig | None) -> np.ndarray:
    """Propagate an arbitrary matrix through the (noisy) circuit channel."""
    reg = c.register
    out = np.asarray(mat, dtype=complex)
    for g in c.gates:
        out = apply_at(_gate_kraus(g, noise), out, reg.indices(g.qubits), reg.n)
    return out


def apply_noisy_circuit(c: circ.Circuit, rho: DensityMatrix | None = None,
                        noise: NoiseConfig | None = None) -> DensityMatrix:
    """Run the circuit channel on rho (default |0...0>) and return the state."""
    if rho is None:
        mat = np.zeros((c.register.dim, c.register.dim), dtype=complex)
        mat[0, 0] = 1.0
        rho = DensityMatrix(c.register, mat, validate=False)
    if rho.register.labels != c.register.labels:
        raise ValueError("state register does not match circuit register")
    out = _apply_circuit_to_matrix(c, rho.mat, noise)
    return DensityMatrix(c.register, out, validate=False)


def noisy_channel_of_circuit(c: circ.Circuit, noise: NoiseConfig | None,
                             keep=None) -> KrausChannel:
    """The circuit's CPT map on the ``keep`` qubits (default: all) as a Kraus
    channel, built from one run of the circuit on the stack of all d² inputs
    |i><j|.

    The other qubits start in |0> and are traced out at the end.  At most 3
    qubits may be kept; the channel orders them as the register does."""
    reg = c.register
    pos = sorted(reg.indices(reg.labels if keep is None else keep))
    k = len(pos)
    if k > 3:
        raise ValueError("noisy_channel_of_circuit keeps at most 3 qubits")
    d = 2**k
    # Register index of kept basis state i, the other qubits in |0>.
    full = [sum(((i >> (k - 1 - b)) & 1) << (reg.n - 1 - p) for b, p in enumerate(pos))
            for i in range(d)]
    inputs = np.zeros((d * d, reg.dim, reg.dim), dtype=complex)
    inputs[np.arange(d * d), np.repeat(full, d), np.tile(full, d)] = 1.0
    out = partial_trace_mat(_apply_circuit_to_matrix(c, inputs, noise), pos, reg.n)
    # out[i*d + j, a, b] is the image of |i><j|; the Choi entry is [(a, i), (b, j)].
    choi = out.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return _kraus_of_choi(choi, d)


# --------------------------------------------------------------------------
# Tomography
# --------------------------------------------------------------------------

def all_settings(k: int) -> tuple[str, ...]:
    """All 3^k Pauli settings in canonical order (X < Y < Z per qubit)."""
    return tuple("".join(s) for s in itertools.product("XYZ", repeat=k))


@dataclass(frozen=True)
class TomographyJob:
    """A complete Pauli tomography job over the measured labels."""

    circuit: circ.Circuit
    measured: tuple[str, ...]
    shots: int = 4096
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "measured", tuple(str(q) for q in self.measured))
        for q in self.measured:
            if q not in self.circuit.register:
                raise ValueError(f"measured label {q!r} not in circuit register")
        if self.shots <= 0:
            raise ValueError("shots must be positive")

    @property
    def settings(self) -> tuple[str, ...]:
        return all_settings(len(self.measured))


@dataclass(frozen=True)
class ShotCounts:
    """Measured (or mitigated, real-valued) counts per setting and bitstring."""

    measured: tuple[str, ...]
    shots: int
    counts: dict  # setting -> {bitstring: count}

    def frequencies(self, setting: str) -> np.ndarray:
        k = len(self.measured)
        vec = np.zeros(2**k)
        for bits, cnt in self.counts[setting].items():
            vec[int(bits, 2)] = cnt
        total = vec.sum()
        return vec / total if total > 0 else vec


def _apply_per_qubit(mats, table: np.ndarray) -> np.ndarray:
    """Apply one 2x2 matrix per measured qubit (``mats[i]`` on outcome bit i,
    most significant first) along the outcome axes of a (..., 2^k) table."""
    lead = table.ndim - 1
    out = table.reshape(table.shape[:-1] + (2,) * len(mats))
    for axis, m in enumerate(mats, start=lead):
        out = np.moveaxis(np.tensordot(m, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis)
    return out.reshape(table.shape)


def _measurement_probs(rho: DensityMatrix, measured, noise: NoiseConfig | None) -> np.ndarray:
    """Outcome table (3^k, 2^k) of every setting, rows in ``all_settings(k)``
    order and outcome bits in ``measured`` order.  A qubit's readout matrix
    is its confusion times the population transfer Σ_K |K_ab|² of the
    measurement relaxation, which is exact: amplitude damping plus dephasing
    never feeds coherences into populations."""
    k = len(measured)
    marg = partial_trace(rho, list(measured))
    order = marg.register.indices(measured)
    mat = marg.mat.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order])
    signs, weights, paulis = _tomography_tables(k)
    exps = np.einsum("pij,ji->p", paulis, mat.reshape(2**k, 2**k)).real * 2**k
    probs = ((weights > 0) * exps) @ signs.T / 2**k
    if noise is not None:
        thermal = _thermal_kraus(noise, noise.duration("MEASURE"))
        pop = np.eye(2) if thermal is None else sum(abs(op) ** 2 for op in thermal.kraus_ops)
        mats = [np.array([[1 - p01, p10], [p01, 1 - p10]]) @ pop
                for p01, p10 in map(noise.readout_probs, measured)]
        probs = _apply_per_qubit(mats, probs)
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def sample(job: TomographyJob, noise: NoiseConfig | None = None,
           settings=None) -> ShotCounts:
    """Simulate the tomography job; deterministic given (job, seed)."""
    c = job.circuit
    if noise is not None and any(g.kind not in circ.NATIVE_KINDS for g in c.gates):
        c = circ.transpile(c)
    settings = job.settings if settings is None else tuple(settings)
    return _sample_state(apply_noisy_circuit(c, noise=noise), job.measured, job.shots,
                         job.seed, noise, settings)


def _sample_state(rho: DensityMatrix, measured, shots: int, seed: int,
                  noise: NoiseConfig | None, settings) -> ShotCounts:
    """Shot counts of the given settings on rho: the setting at position idx
    of ``settings`` draws from ``default_rng([seed, idx])``."""
    k = len(measured)
    row = {s: i for i, s in enumerate(all_settings(k))}
    if not set(settings) <= row.keys():
        raise ValueError(f"{sorted(set(settings) - row.keys())} are not {k}-qubit settings")
    probs = _measurement_probs(rho, measured, noise)
    counts: dict = {}
    for idx, setting in enumerate(settings):
        draw = np.random.default_rng([seed, idx]).multinomial(shots, probs[row[setting]])
        counts[setting] = {
            format(b, f"0{k}b"): int(n) for b, n in enumerate(draw) if n > 0
        }
    return ShotCounts(tuple(measured), shots, counts)


def calibration_jobs(register, measured, shots: int = 4096, seed: int = 0):
    """The two 'empty' readout-calibration circuits: all-|0> and all-|1>."""
    reg = register if isinstance(register, QubitRegister) else QubitRegister(register)
    zero = circ.Circuit(reg, [])
    one = circ.Circuit(reg, [circ.Gate("X", (q,)) for q in measured])
    return (
        TomographyJob(zero, measured, shots, seed),
        TomographyJob(one, measured, shots, seed + 1),
    )


def sample_calibration(job: TomographyJob, noise: NoiseConfig | None = None) -> ShotCounts:
    """Sample a calibration circuit in the Z basis only."""
    return sample(job, noise=noise, settings=("Z" * len(job.measured),))


def mitigate_readout(counts: ShotCounts, calib0: ShotCounts, calib1: ShotCounts) -> ShotCounts:
    """Invert per-qubit confusion matrices estimated from the two calibration
    runs; negative entries are clipped and frequencies renormalized."""
    if calib0.measured != counts.measured or calib1.measured != counts.measured:
        raise ValueError("calibration runs must measure the same qubits")
    k = len(counts.measured)
    zkey = "Z" * k
    f0 = calib0.frequencies(zkey).reshape([2] * k)
    f1 = calib1.frequencies(zkey).reshape([2] * k)
    invs = []
    for axis in range(k):
        other = tuple(a for a in range(k) if a != axis)
        m0 = f0.sum(axis=other)  # P(read b | prepared 0)
        m1 = f1.sum(axis=other)  # P(read b | prepared 1)
        conf = np.column_stack([m0, m1])
        if abs(np.linalg.det(conf)) < 1e-9:
            raise ValueError("singular confusion matrix (flip probability >= 0.5)")
        invs.append(np.linalg.inv(conf))
    out: dict = {}
    for setting in counts.counts:
        vec = np.clip(_apply_per_qubit(invs, counts.frequencies(setting)), 0.0, None)
        vec = vec / vec.sum()
        out[setting] = {
            format(b, f"0{k}b"): float(v * counts.shots)
            for b, v in enumerate(vec)
            if v > 0
        }
    return ShotCounts(counts.measured, counts.shots, out)


@dataclass(frozen=True)
class ReconstructionResult:
    state: DensityMatrix
    projection_distance: float


def reconstruct(counts: ShotCounts) -> ReconstructionResult:
    """Linear-inversion tomography followed by PSD/trace-1 projection.

    Each Pauli-string expectation is the mean over the settings compatible
    with it; the estimate Σ_P <P> P / 2^k is projected onto the density
    matrices by the eigenvalue simplex projection of Smolin, Gambetta and
    Smith (PRL 108, 070502 (2012)).  The linear maps behind this are tables
    built once per k (``_tomography_tables``)."""
    settings = all_settings(len(counts.measured))
    missing = [s for s in settings if s not in counts.counts]
    if missing:
        raise ValueError(f"incomplete settings, missing {missing[:3]}...")
    freqs = np.stack([counts.frequencies(s) for s in settings])
    mat, dist = _reconstruct_frequencies(freqs)
    return ReconstructionResult(
        DensityMatrix(QubitRegister(counts.measured), mat, validate=False), float(dist)
    )


@lru_cache(maxsize=None)
def _tomography_tables(k: int):
    """Linear maps of k-qubit tomography, over the 4^k Pauli strings in
    ``itertools.product("IXYZ", repeat=k)`` order:

    * ``signs`` (2^k, 4^k): the eigenvalue ±1 of each string on each outcome;
    * ``weights`` (3^k, 4^k): 1/#compatible for each setting that measures
      every non-identity factor of the string, else 0;
    * ``paulis`` (4^k, 2^k, 2^k): the strings scaled by 1/2^k."""
    dim = 2**k
    pstrings = np.array(list(itertools.product(range(4), repeat=k))).reshape(-1, k)
    settings = np.array(list(itertools.product(range(1, 4), repeat=k))).reshape(-1, k)
    bits = (np.arange(dim)[:, None] >> (k - 1 - np.arange(k))) & 1
    identity = pstrings == 0
    signs = np.where(identity[None], 1.0, 1.0 - 2.0 * bits[:, None, :]).prod(axis=-1)
    compatible = (identity[None] | (pstrings[None] == settings[:, None])).all(axis=-1)
    weights = compatible / compatible.sum(axis=0)
    paulis = np.stack([nkron(*(PAULIS["IXYZ"[c]] for c in p)) for p in pstrings]) / dim
    for table in (signs, weights, paulis):
        table.setflags(write=False)
    return signs, weights, paulis


def _reconstruct_frequencies(freqs: np.ndarray):
    """Projected states and projection distances for a frequency table of
    shape (..., 3^k, 2^k): one matrix of shape (..., 2^k, 2^k) and one
    distance per table."""
    freqs = np.asarray(freqs, dtype=float)
    dim = freqs.shape[-1]
    signs, weights, paulis = _tomography_tables(dim.bit_length() - 1)
    flat = freqs.reshape((-1,) + freqs.shape[-2:])
    # One table at a time keeps the (3^k, 4^k) temporary small.
    exps = np.stack([((f @ signs) * weights).sum(axis=0) for f in flat])
    exps[:, 0] = 1.0  # <I...I> is 1 exactly, whatever the frequency sums round to
    est = np.tensordot(exps, paulis, axes=(1, 0))
    est = (est + est.conj().swapaxes(-1, -2)) / 2
    ev, vecs = np.linalg.eigh(est)
    projected = np.stack([_project_simplex(e) for e in ev])
    mats = (vecs * projected[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    dists = np.abs(projected - ev).sum(axis=-1)
    batch = freqs.shape[:-2]
    return mats.reshape(batch + (dim, dim)), dists.reshape(batch)


def _project_simplex(ev: np.ndarray) -> np.ndarray:
    """Euclidean projection of eigenvalues onto {x >= 0, sum x = 1}."""
    u = np.sort(ev)[::-1]
    css = np.cumsum(u)
    rho_idx = np.nonzero(u + (1.0 - css) / np.arange(1, len(u) + 1) > 0)[0][-1]
    theta = (1.0 - css[rho_idx]) / (rho_idx + 1)
    return np.clip(ev + theta, 0.0, None)


def counts_to_csv(counts: ShotCounts) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["setting", "bitstring", "count"])
    for setting in sorted(counts.counts):
        for bits in sorted(counts.counts[setting]):
            w.writerow([setting, bits, repr(counts.counts[setting][bits])])
    return buf.getvalue()


def counts_from_csv(text: str, measured, shots: int) -> ShotCounts:
    rows = list(csv.reader(io.StringIO(text)))
    out: dict = {}
    for setting, bits, cnt in rows[1:]:
        out.setdefault(setting, {})[bits] = float(cnt)
    return ShotCounts(tuple(measured), shots, out)

"""Non-Markovianity diagnostics: entanglement revival (RHP), trace-distance
backflow (BLP), and Bloch-volume growth.

BLP and volume read the qubit channel's Bloch block A, the 3x3 block of its
Pauli transfer matrix.  The BLP search runs over antipodal pure pairs ±r,
which is optimal for qubit trace-distance criteria; their images lie at
unnormalised trace distance 2‖A r‖.  The objective 2(‖A₂r‖ − ‖A₁r‖) is
evaluated on a 2-degree (θ, φ) grid in one array operation, with the first
point better by more than 1e-12 winning, then refined by Nelder-Mead.  The
refined point is kept only if it beats the grid by more than 1e-12, so a
plateau maximum (the ideal channel's) reports its grid point.  At a smooth
maximum the refined argmax (``blp_argmax_a``) is fixed only to ~1e-8: channel
round-off of 1e-15 moves it that far while the maximum moves by ~1e-15.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .channel import KrausChannel, transfer_of_channel
from .entangle import concurrence_2q, concurrence_lower

__all__ = [
    "rhp_series",
    "blp_max_increase",
    "bloch_volume",
]


def rhp_series(records, system_labels) -> tuple[tuple[tuple[int, float], ...], bool, bool]:
    """Per-record system-ancilla concurrence; any strict increase flags
    CP-indivisibility.  Returns (series, used_lower_bound, increase_found).

    For joint states larger than two qubits the trace-norm lower bound across
    the ``system_labels`` | rest cut is used and flagged."""
    series = []
    lower_bound = False
    for rec in records:
        rho = rec.joint_state
        if rho.register.n == 2:
            val = concurrence_2q(rho)
        else:
            lower_bound = True
            val = concurrence_lower(rho, system_labels)
        series.append((rec.n, float(val)))
    increase = any(b[1] > a[1] + 1e-9 for a, b in zip(series, series[1:]))
    return tuple(series), lower_bound, increase


def _direction(theta, phi) -> np.ndarray:
    """Unit Bloch vectors (..., 3) at polar angle theta and azimuth phi."""
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                        np.cos(theta)), axis=-1)


def _backflow(a1: np.ndarray, a2: np.ndarray, r: np.ndarray):
    """2(‖A₂r‖ − ‖A₁r‖): the change in trace distance between the images of
    ±r under two qubit maps with Bloch blocks A₁, A₂ (the shift cancels)."""
    return 2 * (np.linalg.norm(r @ a2.T, axis=-1) - np.linalg.norm(r @ a1.T, axis=-1))


def blp_max_increase(ch1: KrausChannel, ch2: KrausChannel):
    """Maximum over antipodal pure pairs of d_tr(ch2(a), ch2(b)) - d_tr(ch1(a),
    ch1(b)); returns (delta, (bloch_a, bloch_b))."""
    if ch1.in_dim != 2 or ch2.in_dim != 2:
        raise ValueError("qubit channels required")
    a1 = transfer_of_channel(ch1).bloch_block()
    a2 = transfer_of_channel(ch2).bloch_block()

    step = np.deg2rad(2.0)
    thetas = np.arange(0.0, np.pi + 1e-12, step)
    phis = np.arange(0.0, 2 * np.pi, step)
    grid = _backflow(a1, a2, _direction(thetas[:, None], phis[None, :]))
    best_i, best_val = 0, -np.inf
    for i, v in enumerate(grid.ravel().tolist()):
        if v > best_val + 1e-12:
            best_i, best_val = i, v
    best = (thetas[best_i // len(phis)], phis[best_i % len(phis)])
    res = minimize(
        lambda p: -_backflow(a1, a2, _direction(*p)),
        x0=np.array(best),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 500},
    )
    if -res.fun > best_val + 1e-12:
        best_val = -res.fun
        best = tuple(res.x)
    r = _direction(*best)
    return max(0.0, float(best_val)), (r, -r)


def bloch_volume(ch: KrausChannel) -> float:
    """|det| of the 3x3 Bloch block, the product of its singular values (the
    image ellipsoid's semi-axes): the image volume as a fraction of the full
    Bloch-ball volume V0 = 4*pi/3.  Singular values below 1e-12 count as 0,
    so a rank-deficient block gives exactly 0 rather than round-off."""
    if ch.in_dim != 2 or ch.out_dim != 2:
        raise ValueError("qubit channel required")
    sv = np.linalg.svd(transfer_of_channel(ch).bloch_block(), compute_uv=False)
    return float(np.prod(np.where(sv < 1e-12, 0.0, sv)))

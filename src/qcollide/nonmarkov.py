"""Non-Markovianity diagnostics: entanglement revival (RHP), trace-distance
backflow (BLP), and Bloch-volume growth.

The BLP search is restricted to antipodal pure-state pairs, which is optimal
for qubit trace-distance criteria; a coarse 2-degree grid is followed by a
local Nelder-Mead refinement, with a deterministic lexicographic tie-break.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from .channel import KrausChannel, apply, transfer_of_channel
from .entangle import concurrence_2q, concurrence_lower
from .qmat import bloch_to_state, trace_distance

__all__ = [
    "rhp_series",
    "blp_max_increase",
    "bloch_volume",
]


def rhp_series(records) -> tuple[tuple[tuple[int, float], ...], bool, bool]:
    """Per-record system-ancilla concurrence; any strict increase flags
    CP-indivisibility.  Returns (series, used_lower_bound, increase_found).

    For joint states larger than two qubits the trace-norm lower bound is used
    and flagged."""
    series = []
    lower_bound = False
    for rec in records:
        rho = rec.joint_state
        if rho.register.n == 2:
            val = concurrence_2q(rho)
        else:
            lower_bound = True
            # split off the system labels: by convention the ancilla labels
            # come first in the joint state register
            half = rho.register.n // 2
            val = concurrence_lower(rho, rho.register.labels[half:])
        series.append((rec.n, float(val)))
    increase = any(b[1] > a[1] + 1e-9 for a, b in zip(series, series[1:]))
    return tuple(series), lower_bound, increase


def _antipodal_pair(theta: float, phi: float):
    r = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    return bloch_to_state(r), bloch_to_state(-r)


def blp_max_increase(ch1: KrausChannel, ch2: KrausChannel):
    """Maximum over antipodal pure pairs of d_tr(ch2(a), ch2(b)) - d_tr(ch1(a),
    ch1(b)); returns (delta, (bloch_a, bloch_b))."""
    if ch1.in_dim != 2 or ch2.in_dim != 2:
        raise ValueError("qubit channels required")

    def objective(params) -> float:
        theta, phi = params
        a, b = _antipodal_pair(theta, phi)
        return trace_distance(apply(ch2, a), apply(ch2, b)) - trace_distance(
            apply(ch1, a), apply(ch1, b)
        )

    step = np.deg2rad(2.0)
    best_val = -np.inf
    best = (0.0, 0.0)
    for theta in np.arange(0.0, np.pi + 1e-12, step):
        for phi in np.arange(0.0, 2 * np.pi, step):
            v = objective((theta, phi))
            if v > best_val + 1e-12:
                best_val = v
                best = (theta, phi)
    res = minimize(
        lambda p: -objective(p),
        x0=np.array(best),
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 500},
    )
    if -res.fun > best_val:
        best_val = -res.fun
        best = tuple(res.x)
    delta = max(0.0, float(best_val))
    a, b = _antipodal_pair(*best)
    from .qmat import state_to_bloch

    return delta, (state_to_bloch(a), state_to_bloch(b))


def bloch_volume(ch: KrausChannel) -> float:
    """|det| of the 3x3 Bloch block: the image-ellipsoid volume as a fraction
    of the full Bloch-ball volume V0 = 4*pi/3."""
    if ch.in_dim != 2 or ch.out_dim != 2:
        raise ValueError("qubit channel required")
    block = transfer_of_channel(ch).bloch_block()
    return float(abs(np.linalg.det(block)))

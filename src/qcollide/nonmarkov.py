"""Non-Markovianity diagnostics: entanglement revival (RHP), trace-distance
backflow (BLP), and Bloch-volume growth.

BLP and volume read the qubit channel's Bloch block A, the 3x3 block of its
Pauli transfer matrix.  The BLP search runs over antipodal pure pairs ±r,
which is optimal for qubit trace-distance criteria; their images lie at
unnormalised trace distance 2‖A r‖.  The objective 2(‖A₂r‖ − ‖A₁r‖) is
evaluated on a 2-degree (θ, φ) grid, stored as the columns of one (3, 16,380)
array, in one array operation (``_grid_backflow``), and the first point
better by more than 1e-12 wins.  That rule only ever adopts a point above
every earlier one, so ``_first_better`` applies it to the grid's strict
running-maximum records alone, found by one ``np.fmax.accumulate`` (1 to 4 of
the 16,380 points on the ideal single model's channel pairs, ~50 to ~340 on
the noisy ones).  The grid point is then refined by Newton's method on the
unit sphere (analytic gradient and Hessian in the tangent plane, retraction
by normalising).  Newton starts from the grid point and, where A₁ is nearly
rank-deficient, also from the maximiser of ‖A₂r‖ on A₁'s near-kernel, the
crest of a ridge of the objective narrower than the grid.  A refined point
is kept only if it beats the grid by more than 1e-12, so a plateau maximum
(the ideal channel's) reports its grid point.  At a smooth maximum the
refined argmax (``blp_argmax_a``) is fixed to round-off: a 1e-15 change of
the channel moves it by ~1e-13.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .channel import Channel, transfer_of_channel
from .entangle import quantifiers

__all__ = [
    "rhp_series",
    "rhp_of_concurrence",
    "blp_max_increase",
    "bloch_volume",
]


def rhp_series(records, system_labels) -> tuple[tuple[tuple[int, float], ...], bool, bool]:
    """Per-record system-ancilla concurrence; any strict increase flags
    CP-indivisibility.  Returns (series, used_lower_bound, increase_found).

    The records' joint states go through ``entangle.quantifiers`` as one
    stack.  For joint states larger than two qubits the trace-norm lower
    bound across the ``system_labels`` | rest cut is used and flagged."""
    records = list(records)
    if not records:
        return (), False, False
    exact, conc, _ = quantifiers(np.stack([rec.joint_state.mat for rec in records]),
                                 system_labels, register=records[0].joint_state.register)
    series, increase = rhp_of_concurrence([rec.n for rec in records], conc)
    return series, not exact, increase


def rhp_of_concurrence(ns, conc) -> tuple[tuple[tuple[int, float], ...], bool]:
    """The RHP series ((n, C), ...) of collision counts ``ns`` and their
    concurrences ``conc``, and whether C ever rises by more than 1e-9 from
    one entry to the next (CP-indivisibility)."""
    series = tuple((int(n), float(c)) for n, c in zip(ns, conc))
    increase = any(b[1] > a[1] + 1e-9 for a, b in zip(series, series[1:]))
    return series, increase


def _direction(theta, phi, axis=-1) -> np.ndarray:
    """Unit Bloch vectors at polar angle theta and azimuth phi, their
    components along ``axis``."""
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi),
                                        np.cos(theta)), axis=axis)


@cache
def _grid():
    """The 2° search grid's polar angles θ, azimuths φ, and unit vectors,
    θ-major, as the columns of one read-only (3, 16,380) array."""
    thetas = np.arange(0.0, np.pi + 1e-12, np.deg2rad(2.0))
    phis = np.arange(0.0, 2 * np.pi, np.deg2rad(2.0))
    grid = _direction(thetas[:, None], phis[None, :], axis=0).reshape(3, -1)
    grid.flags.writeable = False
    return thetas, phis, grid


def _norm3(v: np.ndarray):
    """Euclidean norms of (..., 3) vectors along the last axis.

    ``np.linalg.norm(v, axis=-1)`` adds the three squares in this order, so
    this is the same number bit for bit, without the cost of a ufunc
    reduction over a length-3 axis."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def _backflow(a1: np.ndarray, a2: np.ndarray, r: np.ndarray):
    """2(‖A₂r‖ − ‖A₁r‖): the change in trace distance between the images of
    ±r under two qubit maps with Bloch blocks A₁, A₂ (the shift cancels)."""
    return 2 * (_norm3(r @ a2.T) - _norm3(r @ a1.T))


def _grid_backflow(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """``_backflow`` at every grid point, in grid order, bit for bit; the
    norms of each (3, 16,380) product of A and the grid add its rows."""
    return 2 * (_norm3((a2 @ _grid()[2]).T) - _norm3((a1 @ _grid()[2]).T))


def _bloch_block(ch: Channel) -> np.ndarray:
    """The 3x3 block A of a qubit channel's Pauli transfer matrix,
    ``transfer_of_channel(ch)[1:, 1:]``: a strided view into the transfer
    product, not a copy, since the search's bits depend on that layout."""
    if ch.superop.shape != (4, 4):
        raise ValueError("qubit channels required")
    return transfer_of_channel(ch)[1:, 1:]


def blp_max_increase(ch1: Channel, ch2: Channel):
    """Maximum over antipodal pure pairs of d_tr(ch2(a), ch2(b)) - d_tr(ch1(a),
    ch1(b)); returns (delta, (bloch_a, bloch_b))."""
    a1, a2 = _bloch_block(ch1), _bloch_block(ch2)

    thetas, phis, _ = _grid()
    best_i, best_val = _first_better(_grid_backflow(a1, a2))
    r = _direction(thetas[best_i // len(phis)], phis[best_i % len(phis)])
    for start in (r, *_kernel_start(a1, a2)):
        cand, val = _newton_refine(a1, a2, start)
        if val > best_val + 1e-12:
            best_val, r = val, cand
    return max(0.0, float(best_val)), (r, -r)


def _first_better(flat: np.ndarray) -> tuple[int, float]:
    """The (index, value) on which this scan of ``flat`` ends: from index 0
    and best = -inf, adopt each value v in order with v > best + 1e-12.

    An adopted value exceeds every earlier one (each skipped value is at most
    1e-12 above the best so far, and the best only grows), so the scan runs
    over the strict running-maximum records alone.  ``np.fmax`` skips NaN
    points, which are never adopted, as the comparison does."""
    prior_max = np.fmax.accumulate(np.concatenate(([-np.inf], flat[:-1])))
    records = np.flatnonzero(flat > prior_max)
    best_i, best_val = 0, -np.inf
    for i, v in zip(records.tolist(), flat[records].tolist()):
        if v > best_val + 1e-12:
            best_i, best_val = i, v
    return best_i, best_val


def _backflow_derivatives(a1: np.ndarray, a2: np.ndarray, r: np.ndarray):
    """Gradient and Hessian of f(r) = 2(‖A₂r‖ − ‖A₁r‖) in R³.

    With v = A r, ‖v‖ has gradient g = Aᵀv/‖v‖ and Hessian (AᵀA − g gᵀ)/‖v‖.
    A term with ‖v‖ < 1e-12 (on a kernel of Aᵢ, where ‖Aᵢr‖ is not smooth) is
    left out of both."""
    grad = np.zeros(3)
    hess = np.zeros((3, 3))
    for sign, a in ((-2.0, a1), (2.0, a2)):
        v = a @ r
        norm = np.linalg.norm(v)
        if norm >= 1e-12:
            g = a.T @ v / norm
            grad += sign * g
            hess += sign * (a.T @ a - np.outer(g, g)) / norm
    return grad, hess


def _newton_refine(a1: np.ndarray, a2: np.ndarray, r: np.ndarray):
    """Newton ascent of f(r) = 2(‖A₂r‖ − ‖A₁r‖) on the unit sphere from r;
    returns the final (r, f(r)).

    On the sphere the tangent Hessian is the Hessian projected on the tangent
    plane minus (r·∇f) times the identity.  Each step divides the tangent
    gradient by the absolute eigenvalues of the tangent Hessian (Newton's step
    at a maximum, an ascent step elsewhere), skipping eigenvalues below 1e-12
    times the Hessian's scale, retracts r + step onto the sphere, and is
    halved while it lowers f by more than 1e-14 (which also keeps r on a
    kernel ridge whose term ``_backflow_derivatives`` leaves out).  The ascent
    stops at the first of: no curved direction (a plateau), no halving that
    helps, a step below 1e-12, or 30 steps."""
    val = _backflow(a1, a2, r)
    for _ in range(30):
        grad, hess = _backflow_derivatives(a1, a2, r)
        basis = np.linalg.qr(r[:, None], mode="complete")[0][:, 1:]
        radial = r @ grad
        ev, vecs = np.linalg.eigh(basis.T @ hess @ basis - radial * np.eye(2))
        curved = np.abs(ev) > 1e-12 * (np.abs(hess).max() + abs(radial))
        if not curved.any():
            break
        step = vecs[:, curved] @ ((vecs[:, curved].T @ (basis.T @ grad)) / np.abs(ev[curved]))
        for _ in range(50):
            trial = r + basis @ step
            trial /= np.linalg.norm(trial)
            trial_val = _backflow(a1, a2, trial)
            if trial_val >= val - 1e-14:
                break
            step = step / 2
        else:
            break
        r, val = trial, trial_val
        if np.linalg.norm(step) < 1e-12:
            break
    return r, val


def _kernel_start(a1: np.ndarray, a2: np.ndarray) -> list:
    """[r] maximising ‖A₂r‖ over the unit vectors of A₁'s near-kernel (its
    right singular vectors with singular value below 1e-3 times the largest,
    plus 1e-12), or [] if there are none.  Near that kernel ‖A₁r‖ makes a
    ridge of f narrower than the grid, on whose crest r starts Newton."""
    _, sv, vt = np.linalg.svd(a1)
    kernel = vt[sv < 1e-3 * sv[0] + 1e-12]
    if not len(kernel):
        return []
    return [kernel.T @ np.linalg.svd(a2 @ kernel.T)[2][0]]


def bloch_volume(ch: Channel) -> float:
    """|det| of the 3x3 Bloch block, the product of its singular values (the
    image ellipsoid's semi-axes): the image volume as a fraction of the full
    Bloch-ball volume V0 = 4*pi/3.  Singular values below 1e-12 count as 0,
    so a rank-deficient block gives exactly 0 rather than round-off (qubit
    channels only)."""
    sv = np.linalg.svd(_bloch_block(ch), compute_uv=False)
    return float(np.prod(np.where(sv < 1e-12, 0.0, sv)))

"""Entanglement quantifiers and the quantum-memory witness.

For two single-qubit parties the exact Wootters concurrence and concurrence of
assistance are used.  For larger bipartitions the witness falls back to the
bound pair: an upper bound on the concurrence of assistance at the earlier
time and a trace-norm lower bound on the concurrence at the later time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import (
    DensityMatrix,
    SY,
    herm_sqrt,
    partial_trace,
    partial_transpose,
    trace_norm,
)

__all__ = [
    "WitnessReport",
    "concurrence_2q",
    "assistance_2q",
    "assistance_upper",
    "concurrence_lower",
    "witness",
]

STRICT_TOL = 1e-9


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the two-time quantum-memory test.

    Exactly one of the quantity pairs is populated: (c_sharp_t1, c_t2) when
    both parties are single qubits, (c_sharp_upper_t1, c_lower_t2) otherwise.
    quantum_memory is true iff margin = right side - left side > 1e-9.
    """

    t1_id: int
    t2_id: int
    exact: bool
    c_sharp_t1: float | None
    c_t2: float | None
    c_sharp_upper_t1: float | None
    c_lower_t2: float | None
    quantum_memory: bool
    margin: float

    @classmethod
    def of_sides(cls, t1_id: int, t2_id: int, exact: bool, left: float,
                 right: float) -> "WitnessReport":
        """The report for left = assistance (or its upper bound) at t1 and
        right = concurrence (or its lower bound) at t2."""
        margin = float(right - left)
        sides = (left, right, None, None) if exact else (None, None, left, right)
        return cls(t1_id, t2_id, exact, *sides,
                   quantum_memory=bool(margin > STRICT_TOL), margin=margin)


def _wootters_lambdas(rho: DensityMatrix) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho * rho~ (2 qubits)."""
    if rho.dim != 4:
        raise ValueError("two-qubit state required")
    yy = np.kron(SY, SY)
    rho_tilde = yy @ rho.mat.conj() @ yy
    sr = herm_sqrt(rho.mat)
    herm = sr @ rho_tilde @ sr
    ev = np.linalg.eigvalsh((herm + herm.conj().T) / 2)
    # Clamp round-off noise before the square root: eigenvalues of order the
    # machine epsilon would otherwise inflate to ~1e-8 contributions.
    ev[ev < 1e-14] = 0.0
    return np.sort(np.sqrt(ev))[::-1]


def concurrence_2q(rho: DensityMatrix) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4)."""
    lam = _wootters_lambdas(rho)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def assistance_2q(rho: DensityMatrix) -> float:
    """Concurrence of assistance l1 + l2 + l3 + l4."""
    return float(_wootters_lambdas(rho).sum())


def assistance_upper(rho_sa: DensityMatrix, system_labels) -> float:
    """Upper bound sqrt(2 (1 - tr(rho_S^2))) on the concurrence of assistance."""
    system_labels = list(system_labels)
    _check_bipartition(rho_sa, system_labels)
    rho_s = partial_trace(rho_sa, system_labels)
    val = 2.0 * (1.0 - rho_s.purity())
    return float(np.sqrt(max(0.0, val)))


def concurrence_lower(rho_sa: DensityMatrix, system_labels) -> float:
    """Trace-norm lower bound m~ * max(||rho^{T_S}|| - 1, ||rho^{T_A}|| - 1)."""
    system_labels = list(system_labels)
    other = _check_bipartition(rho_sa, system_labels)
    m = min(2 ** len(system_labels), 2 ** len(other))
    if m < 2:
        raise ValueError("smaller party dimension must be at least 2")
    mt = np.sqrt(2.0 / (m * (m - 1)))
    best = max(
        trace_norm(partial_transpose(rho_sa, system_labels)) - 1.0,
        trace_norm(partial_transpose(rho_sa, other)) - 1.0,
    )
    return float(max(0.0, mt * best))


def _check_bipartition(rho: DensityMatrix, system_labels) -> list[str]:
    labels = set(rho.register.labels)
    sset = set(system_labels)
    if not sset or not sset <= labels or sset == labels:
        raise ValueError("system labels must be a proper nonempty subset of the register")
    return [x for x in rho.register.labels if x not in sset]


def witness(rho_t1: DensityMatrix, rho_t2: DensityMatrix, system_labels,
            t1_id: int = 0, t2_id: int = 1) -> WitnessReport:
    """Two-time quantum-memory test on a fixed system/ancilla split."""
    if rho_t1.register.labels != rho_t2.register.labels:
        raise ValueError("the two states must share a register")
    system_labels = list(system_labels)
    other = _check_bipartition(rho_t1, system_labels)
    exact = len(system_labels) == 1 and len(other) == 1
    if exact:
        left, right = assistance_2q(rho_t1), concurrence_2q(rho_t2)
    else:
        left = assistance_upper(rho_t1, system_labels)
        right = concurrence_lower(rho_t2, system_labels)
    return WitnessReport.of_sides(t1_id, t2_id, exact, left, right)

"""Entanglement quantifiers and the quantum-memory witness.

For two single-qubit parties the exact Wootters concurrence and concurrence of
assistance are used.  For larger bipartitions the witness falls back to the
bound pair: an upper bound on the concurrence of assistance at the earlier
time and a trace-norm lower bound on the concurrence at the later time.
``quantifiers`` is the one place that rule is decided.  Every quantifier
takes a ``DensityMatrix`` or a (..., d, d) stack of states and evaluates the
whole stack in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmat import (
    DensityMatrix,
    SY,
    herm_sqrt,
    partial_trace_mat,
    partial_transpose_mat,
    trace_norm,
)

__all__ = [
    "WitnessReport",
    "concurrence_2q",
    "assistance_2q",
    "assistance_upper",
    "concurrence_lower",
    "quantifiers",
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


def _stack(rho, register=None):
    """(matrices, register) of a DensityMatrix, or of a (..., d, d) stack of
    matrices on ``register`` (None where the caller needs no labels)."""
    if isinstance(rho, DensityMatrix):
        return rho.mat, rho.register
    return np.asarray(rho, dtype=complex), register


def _value(x):
    """A float for one state, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _wootters_lambdas(mats: np.ndarray) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho * rho~, along the
    last axis, for a (..., 4, 4) stack of two-qubit states."""
    if mats.shape[-2:] != (4, 4):
        raise ValueError("two-qubit state required")
    yy = np.kron(SY, SY)
    rho_tilde = yy @ mats.conj() @ yy
    sr = herm_sqrt(mats)
    herm = sr @ rho_tilde @ sr
    ev = np.linalg.eigvalsh((herm + herm.conj().swapaxes(-1, -2)) / 2)
    # Clamp round-off noise before the square root: eigenvalues of order the
    # machine epsilon would otherwise inflate to ~1e-8 contributions.
    ev[ev < 1e-14] = 0.0
    return np.sort(np.sqrt(ev), axis=-1)[..., ::-1]


def _wootters_pair(lam: np.ndarray):
    """(C, C♯) = (max(0, l1 - l2 - l3 - l4), l1 + l2 + l3 + l4)."""
    conc = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return conc, lam.sum(axis=-1)


def concurrence_2q(rho):
    """Wootters concurrence max(0, l1 - l2 - l3 - l4) of a two-qubit
    DensityMatrix, or of each state of a (..., 4, 4) stack."""
    return _value(_wootters_pair(_wootters_lambdas(_stack(rho)[0]))[0])


def assistance_2q(rho):
    """Concurrence of assistance l1 + l2 + l3 + l4 of a two-qubit
    DensityMatrix, or of each state of a (..., 4, 4) stack."""
    return _value(_wootters_pair(_wootters_lambdas(_stack(rho)[0]))[1])


def _bipartition(rho, system_labels, register):
    """(matrices, register, system labels, other labels) of a DensityMatrix
    or of a stack on ``register``, for a proper nonempty system part."""
    mats, register = _stack(rho, register)
    if register is None:
        raise ValueError("a stack of matrices needs its register")
    system = list(system_labels)
    sset = set(system)
    if not sset or not sset <= set(register.labels) or sset == set(register.labels):
        raise ValueError("system labels must be a proper nonempty subset of the register")
    return mats, register, system, [x for x in register.labels if x not in sset]


def _assistance_upper(mats, register, system):
    rho_s = partial_trace_mat(mats, register.indices(system), register.n)
    rho_s = (rho_s + rho_s.conj().swapaxes(-1, -2)) / 2
    purity = np.trace(rho_s @ rho_s, axis1=-2, axis2=-1).real
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - purity)))


def _concurrence_lower(mats, register, system, other):
    m = min(2 ** len(system), 2 ** len(other))
    mt = np.sqrt(2.0 / (m * (m - 1)))
    # rho^{T_A} = (rho^{T_S})^T has the same trace norm (see concurrence_lower).
    norm = trace_norm(partial_transpose_mat(mats, register.indices(system), register.n))
    return np.maximum(0.0, mt * (norm - 1.0))


def assistance_upper(rho_sa, system_labels, *, register=None):
    """Upper bound sqrt(2 (1 - tr(rho_S^2))) on the concurrence of assistance
    of a DensityMatrix, or of each state of a (..., d, d) stack on
    ``register``."""
    mats, register, system, _ = _bipartition(rho_sa, system_labels, register)
    return _value(_assistance_upper(mats, register, system))


def concurrence_lower(rho_sa, system_labels, *, register=None):
    """Trace-norm lower bound m~ * max(||rho^{T_S}|| - 1, ||rho^{T_A}|| - 1)
    of a DensityMatrix, or of each state of a (..., d, d) stack on
    ``register``.  A is the rest of the register, so rho^{T_A} = (rho^{T_S})^T
    has the same trace norm: one ``trace_norm`` of the whole stack's partial
    transpose on S gives both."""
    return _value(_concurrence_lower(*_bipartition(rho_sa, system_labels, register)))


def quantifiers(rho, system_labels, *, register=None):
    """(exact, C, C♯) of a DensityMatrix, or of each state of a (..., d, d)
    stack on ``register``, across the ``system_labels`` | rest cut.

    With one qubit on each side (exact) these are the Wootters concurrence
    and concurrence of assistance; otherwise the trace-norm lower bound on
    C and the purity upper bound on C♯."""
    mats, register, system, other = _bipartition(rho, system_labels, register)
    exact = len(system) == 1 and len(other) == 1
    if exact:
        conc, assist = _wootters_pair(_wootters_lambdas(mats))
    else:
        conc = _concurrence_lower(mats, register, system, other)
        assist = _assistance_upper(mats, register, system)
    return exact, _value(conc), _value(assist)


def witness(rho_t1: DensityMatrix, rho_t2: DensityMatrix, system_labels,
            t1_id: int = 0, t2_id: int = 1) -> WitnessReport:
    """Two-time quantum-memory test on a fixed system/ancilla split; t1 must
    come before t2 (``t1_id < t2_id``)."""
    if t1_id >= t2_id:
        raise ValueError(f"t1 ({t1_id}) must come before t2 ({t2_id})")
    if rho_t1.register.labels != rho_t2.register.labels:
        raise ValueError("the two states must share a register")
    exact, conc, assist = quantifiers(np.stack([rho_t1.mat, rho_t2.mat]),
                                      system_labels, register=rho_t1.register)
    return WitnessReport.of_sides(t1_id, t2_id, exact, float(assist[0]), float(conc[1]))

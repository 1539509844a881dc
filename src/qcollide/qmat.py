"""Complex linear algebra over small multi-qubit Hilbert spaces.

States live on labeled qubit registers.  The global basis convention is fixed
once and for all here: the FIRST register label is the MOST SIGNIFICANT bit of
the computational-basis index (label i is tensor factor i).

Conventions that differ between textbooks and are fixed at this API surface:

* ``trace_distance`` is UNNORMALIZED: ``||rho - sigma||_1`` with no 1/2
  factor, so orthogonal pure states have distance 2.
* ``state_fidelity`` uses the squared convention ``(tr sqrt(sqrt(rho) sigma
  sqrt(rho)))**2``, which equals ``|<psi|phi>|**2`` for pure states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QubitRegister",
    "DensityMatrix",
    "tensor",
    "partial_trace",
    "partial_transpose",
    "trace_norm",
    "trace_distance",
    "state_fidelity",
    "bloch_to_state",
    "state_to_bloch",
    "ket",
    "pure_state",
    "PAULIS",
    "nkron",
    "herm_sqrt",
]

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_TOL = 1e-9

I2 = np.eye(2)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"I": I2.astype(complex), "X": SX, "Y": SY, "Z": SZ}


def nkron(*mats: np.ndarray) -> np.ndarray:
    """Kronecker product of any number of matrices, left factor most significant."""
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


@dataclass(frozen=True)
class QubitRegister:
    """An ordered list of unique qubit labels; label 0 is the most significant bit."""

    labels: tuple[str, ...]

    def __init__(self, labels) -> None:
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate qubit labels: {labels}")
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def indices(self, labels) -> list[int]:
        return [self.labels.index(x) for x in labels]

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label) -> bool:
        return label in self.labels


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one positive Hermitian operator on a labeled register (immutable)."""

    register: QubitRegister
    mat: np.ndarray = field(repr=False)

    def __init__(self, register, mat, *, validate: bool = True) -> None:
        if not isinstance(register, QubitRegister):
            register = QubitRegister(register)
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (register.dim, register.dim):
            raise ValueError(f"matrix shape {mat.shape} != register dim {register.dim}")
        if validate:
            if not np.all(np.isfinite(mat)):
                raise ValueError("non-finite entries")
            if np.abs(mat - mat.conj().T).max() > 100 * HERM_TOL:
                raise ValueError("not Hermitian within tolerance")
            tr = np.trace(mat).real
            if abs(tr - 1.0) > 1e-8:
                raise ValueError(f"trace {tr} != 1")
            evmin = np.linalg.eigvalsh((mat + mat.conj().T) / 2).min()
            if evmin < -EIG_TOL:
                raise ValueError(f"minimum eigenvalue {evmin} < -{EIG_TOL}")
        mat = (mat + mat.conj().T) / 2
        mat.setflags(write=False)
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.register.dim

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


def ket(bits: str) -> np.ndarray:
    """Computational-basis column vector for a bitstring, first char = MSB."""
    idx = int(bits, 2)
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[idx] = 1.0
    return v


def pure_state(vec: np.ndarray, register) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(register, np.outer(vec, vec.conj()))


def tensor(a, b):
    """Kronecker product; for DensityMatrix inputs, register labels concatenate (a first)."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        common = set(a.register.labels) & set(b.register.labels)
        if common:
            raise ValueError(f"label collision: {sorted(common)}")
        return DensityMatrix(
            QubitRegister(a.register.labels + b.register.labels),
            np.kron(a.mat, b.mat),
        )
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _reshaped(mat: np.ndarray, n: int) -> np.ndarray:
    return mat.reshape([2] * (2 * n))


def partial_trace_mat(mat: np.ndarray, keep_positions, n: int) -> np.ndarray:
    """Partial trace of a raw (not necessarily Hermitian) 2^n x 2^n matrix,
    or of a stack of them with leading batch axes (..., 2^n, 2^n), keeping
    the given qubit positions (MSB-first) in register order."""
    keep_positions = sorted(keep_positions)
    batch = mat.shape[:-2]
    b = len(batch)
    r = mat.reshape(batch + (2,) * (2 * n))
    cur = n
    for q in sorted(set(range(n)) - set(keep_positions), reverse=True):
        r = np.trace(r, axis1=b + q, axis2=b + q + cur)
        cur -= 1
    d = 2 ** len(keep_positions)
    return r.reshape(batch + (d, d))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the `keep` labels (order preserved from the register)."""
    keep = list(keep)
    if not keep:
        raise ValueError("empty keep set")
    reg = rho.register
    keep_idx = sorted(reg.indices(keep))
    out = partial_trace_mat(rho.mat, keep_idx, reg.n)
    out_labels = [reg.labels[i] for i in keep_idx]
    return DensityMatrix(QubitRegister(out_labels), out, validate=False)


def partial_transpose(rho: DensityMatrix, part) -> np.ndarray:
    """Entrywise transpose on the chosen tensor factor(s); returns a raw matrix."""
    reg = rho.register
    part_idx = reg.indices(list(part))
    n = reg.n
    r = _reshaped(rho.mat, n)
    for q in part_idx:
        r = np.swapaxes(r, q, q + n)
    return r.reshape(reg.dim, reg.dim)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if np.abs(m - m.conj().T).max() < 1e-12:
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1, UNNORMALIZED: orthogonal pure states have distance 2."""
    if rho.register.labels != sigma.register.labels:
        raise ValueError("register mismatch")
    return trace_norm(rho.mat - sigma.mat)


def herm_sqrt(m: np.ndarray) -> np.ndarray:
    """PSD square root of a Hermitian matrix, small negative eigenvalues clamped."""
    ev, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    ev = np.clip(ev, 0.0, None)
    # Round-off noise of order machine epsilon would inflate to ~1e-8 per
    # eigenvalue through the square root; clamp it first.
    ev[ev < 1e-14] = 0.0
    return (vecs * np.sqrt(ev)) @ vecs.conj().T


def state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))**2 in [0, 1]."""
    if rho.register.labels != sigma.register.labels:
        raise ValueError("register mismatch")
    sr = herm_sqrt(rho.mat)
    inner = herm_sqrt(sr @ sigma.mat @ sr)
    f = float(np.trace(inner).real) ** 2
    return float(min(max(f, 0.0), 1.0))


def bloch_to_state(r, register=("S",)) -> DensityMatrix:
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have 3 real components")
    if np.linalg.norm(r) > 1 + 1e-9:
        raise ValueError(f"Bloch vector length {np.linalg.norm(r)} > 1")
    mat = (I2 + r[0] * SX + r[1] * SY + r[2] * SZ) / 2
    return DensityMatrix(register, mat, validate=False)


def state_to_bloch(rho: DensityMatrix) -> np.ndarray:
    if rho.dim != 2:
        raise ValueError("single-qubit state required")
    return np.array(
        [np.trace(rho.mat @ P).real for P in (SX, SY, SZ)], dtype=float
    )

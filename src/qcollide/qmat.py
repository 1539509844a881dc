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
    "state_fidelity_mat",
    "bloch_to_state",
    "state_to_bloch",
    "ket",
    "pure_state",
    "PAULIS",
    "nkron",
    "herm_sqrt",
]

HERM_TOL = 1e-10
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
        if validate and not np.all(np.isfinite(mat)):
            raise ValueError("non-finite entries")
        herm = (mat + mat.conj().T) / 2
        if validate:
            if np.abs(mat - mat.conj().T).max() > 100 * HERM_TOL:
                raise ValueError("not Hermitian within tolerance")
            tr = np.trace(mat).real
            if abs(tr - 1.0) > 1e-8:
                raise ValueError(f"trace {tr} != 1")
            evmin = np.linalg.eigvalsh(herm).min()
            if evmin < -EIG_TOL:
                raise ValueError(f"minimum eigenvalue {evmin} < -{EIG_TOL}")
        herm.setflags(write=False)
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "mat", herm)

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
    return _projector(vec / np.linalg.norm(vec), register)


def _projector(psi: np.ndarray, register) -> DensityMatrix:
    """|ψ><ψ| of a unit vector ψ, which is not renormalised.

    ψ is checked as a vector: finite entries and a norm within 1e-12 of 1.
    The projector of such a vector passes every ``DensityMatrix`` check by
    construction, so it is built unvalidated, without the eigenvalue check
    (an ``eigvalsh`` of the full 2^n×2^n matrix)."""
    psi = np.asarray(psi, dtype=complex)
    if not np.all(np.isfinite(psi)):
        raise ValueError("non-finite entries")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state vector norm {norm} != 1")
    return DensityMatrix(register, np.outer(psi, psi.conj()), validate=False)


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


def partial_transpose_mat(mat: np.ndarray, positions, n: int) -> np.ndarray:
    """Entrywise transpose on the given qubit positions (MSB-first) of a raw
    2^n x 2^n matrix, or of a stack of them (..., 2^n, 2^n)."""
    batch = mat.shape[:-2]
    b = len(batch)
    r = mat.reshape(batch + (2,) * (2 * n))
    for q in positions:
        r = np.swapaxes(r, b + q, b + q + n)
    return r.reshape(mat.shape)


def partial_transpose(rho: DensityMatrix, part) -> np.ndarray:
    """Entrywise transpose on the chosen tensor factor(s); returns a raw matrix."""
    reg = rho.register
    return partial_transpose_mat(rho.mat, reg.indices(list(part)), reg.n)


def trace_norm(m: np.ndarray):
    """Sum of singular values, of one matrix (a float) or along the last two
    axes of a stack (an array).  Hermitian matrices (within 1e-12) take
    their eigenvalues, all in one ``eigvalsh``; the rest take an SVD."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError("square matrix required")
    diff = m.conj().swapaxes(-1, -2)
    herm = np.abs(np.subtract(m, diff, out=diff)).max(axis=(-2, -1)) < 1e-12
    out = np.empty(m.shape[:-2])
    out[herm] = np.abs(np.linalg.eigvalsh(m[herm])).sum(axis=-1)
    out[~herm] = np.linalg.svd(m[~herm], compute_uv=False).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """||rho - sigma||_1, UNNORMALIZED: orthogonal pure states have distance 2."""
    if rho.register.labels != sigma.register.labels:
        raise ValueError("register mismatch")
    return trace_norm(rho.mat - sigma.mat)


def herm_sqrt(m: np.ndarray) -> np.ndarray:
    """PSD square root of a Hermitian matrix, or of each matrix along the
    last two axes of a stack; small negative eigenvalues clamped."""
    ev, vecs = np.linalg.eigh((m + m.conj().swapaxes(-1, -2)) / 2)
    ev = np.clip(ev, 0.0, None)
    # Round-off noise of order machine epsilon would inflate to ~1e-8 per
    # eigenvalue through the square root; clamp it first.
    ev[ev < 1e-14] = 0.0
    return (vecs * np.sqrt(ev)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def state_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))**2 in [0, 1]."""
    if rho.register.labels != sigma.register.labels:
        raise ValueError("register mismatch")
    return float(state_fidelity_mat(rho.mat, sigma.mat))


def state_fidelity_mat(rho: np.ndarray, sigma: np.ndarray):
    """``state_fidelity`` of raw density matrices, or pair by pair along the
    last two axes of two stacks (..., d, d); an array either way."""
    sr = herm_sqrt(rho)
    inner = herm_sqrt(sr @ sigma @ sr)
    # np.float_power calls C pow(), as a Python float's ** does; an array's
    # ** 2 multiplies instead, which differs in the last bit for ~1 value in
    # 1,000 and would change the fidelity column.
    f = np.float_power(np.trace(inner, axis1=-2, axis2=-1).real, 2.0)
    return np.clip(f, 0.0, 1.0)


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

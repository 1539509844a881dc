"""CPT maps in Kraus, Choi-state, and Pauli-transfer representations.

Choi states are normalized to trace 1 (a physical system–ancilla state whose
concurrence can be computed directly), not to trace d.

Every conversion goes through three private helpers on the row-major vec
(vec(A)[i*d + j] = A[i, j]; Wood, Biamonte & Cory, arXiv:1111.6950):

* ``_choi_matrix``: Σ vec(K) vec(K)†, output factor first, trace d;
* ``_kraus_of_choi``: the one Choi→Kraus routine (trace-preservation check,
  eigendecomposition, 1e-10 cutoff, exact renormalisation), behind
  ``channel_of_choi``, the compression in ``compose`` and the noisy-gate and
  circuit channels of ``noisytomo``;
* ``_superop``: Σ K⊗K̄, behind ``apply_at`` and ``transfer_of_channel``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .qmat import (
    DensityMatrix,
    PAULIS,
    QubitRegister,
    herm_sqrt,
    nkron,
)

__all__ = [
    "KrausChannel",
    "ChoiState",
    "TransferMap",
    "choi_of_channel",
    "channel_of_choi",
    "transfer_of_channel",
    "compose",
    "apply",
    "apply_extended",
    "apply_at",
    "pauli_basis",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
]

KRAUS_COMPLETE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A CPT map given by Kraus operators (sum K†K = I within 1e-9)."""

    kraus_ops: tuple[np.ndarray, ...] = field(repr=False)
    in_dim: int = 0
    out_dim: int = 0

    def __init__(self, kraus_ops, *, validate: bool = True) -> None:
        ops = tuple(np.asarray(k, dtype=complex) for k in kraus_ops)
        if not ops:
            raise ValueError("need at least one Kraus operator")
        out_dim, in_dim = ops[0].shape
        if validate:
            s = sum(k.conj().T @ k for k in ops)
            if np.abs(s - np.eye(in_dim)).max() > KRAUS_COMPLETE_TOL:
                raise ValueError("Kraus completeness violated")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)
        object.__setattr__(self, "in_dim", in_dim)
        object.__setattr__(self, "out_dim", out_dim)

    @property
    def n_qubits(self) -> int:
        return int(round(np.log2(self.in_dim)))


@dataclass(frozen=True)
class ChoiState:
    """(E ⊗ 1)|Φ+⟩⟨Φ+| normalized to trace 1, on register (S_out, S_ref)."""

    rho: DensityMatrix

    @property
    def dim(self) -> int:
        return int(round(np.sqrt(self.rho.dim)))


@dataclass(frozen=True, eq=False)
class TransferMap:
    """Real matrix acting on normalized-Pauli coordinates; first row (1,0,...,0)."""

    M: np.ndarray = field(repr=False)

    def __init__(self, M) -> None:
        M = np.asarray(M, dtype=float)
        M.setflags(write=False)
        object.__setattr__(self, "M", M)

    def bloch_block(self) -> np.ndarray:
        """The 3x3 rotation-scaling block (qubit channels only)."""
        if self.M.shape != (4, 4):
            raise ValueError("qubit transfer map required")
        return self.M[1:, 1:]


def pauli_basis(n: int):
    """Normalized Pauli strings P/sqrt(2^n) over n qubits with their names."""
    names = ["".join(s) for s in itertools.product("IXYZ", repeat=n)]
    norm = np.sqrt(2.0**n)
    return [(name, nkron(*(PAULIS[c] for c in name)) / norm) for name in names]


def identity_channel(n_qubits: int = 1) -> KrausChannel:
    return KrausChannel([np.eye(2**n_qubits)], validate=False)


def unitary_channel(u: np.ndarray) -> KrausChannel:
    return KrausChannel([np.asarray(u, dtype=complex)])


def depolarizing_channel(p: float, n_qubits: int = 1) -> KrausChannel:
    """With probability p replace the state by the maximally mixed one."""
    d = 2**n_qubits
    ops = []
    for i, name in enumerate(itertools.product("IXYZ", repeat=n_qubits)):
        pm = nkron(*(PAULIS[c] for c in name))
        w = (1 - p) + p / d**2 if i == 0 else p / d**2
        ops.append(np.sqrt(w) * pm)
    return KrausChannel(ops)


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel([k0, k1])


def phase_damping_channel(lam: float) -> KrausChannel:
    k0 = np.sqrt(1 - lam) * np.eye(2)
    k1 = np.sqrt(lam) * np.diag([1.0, 0.0]).astype(complex)
    k2 = np.sqrt(lam) * np.diag([0.0, 1.0]).astype(complex)
    return KrausChannel([k0, k1, k2])


def _choi_matrix(ops) -> np.ndarray:
    """Σ vec(K) vec(K)† with the row-major vec (output factor first): the
    Choi matrix of trace d = in_dim for a trace-preserving Kraus set."""
    vecs = np.asarray(ops, dtype=complex).reshape(len(ops), -1)
    return vecs.T @ vecs.conj()


def choi_of_channel(ch: KrausChannel, labels=("S_out", "S_ref")) -> ChoiState:
    """(E ⊗ 1)|Φ+⟩⟨Φ+| with |Φ+⟩ ∝ Σ|jj⟩, trace-1 normalization."""
    d = ch.in_dim
    n_out = int(round(np.log2(ch.out_dim)))
    n_ref = int(round(np.log2(d)))
    out_labels = [f"{labels[0]}{i}" for i in range(n_out)] if n_out > 1 else [labels[0]]
    ref_labels = [f"{labels[1]}{i}" for i in range(n_ref)] if n_ref > 1 else [labels[1]]
    return ChoiState(DensityMatrix(QubitRegister(out_labels + ref_labels),
                                   _choi_matrix(ch.kraus_ops) / d))


def channel_of_choi(c: ChoiState) -> KrausChannel:
    """Kraus extraction by eigendecomposition (eigenvalue cutoff 1e-10,
    renormalised to be exactly trace preserving)."""
    return _kraus_of_choi(c.rho.mat * c.dim, c.dim)


def _kraus_of_choi(choi: np.ndarray, d: int) -> KrausChannel:
    """The one Choi→Kraus routine, for a d → d map with Choi matrix ``choi``
    of trace d (the ``_choi_matrix`` convention).

    Rejects a trace-preservation deviation above 1e-3 (in trace-1 units),
    keeps the eigenvectors with eigenvalue ≥ 1e-10 as Kraus operators and
    renormalises them so the channel is exactly trace preserving."""
    marg = np.einsum("ajak->jk", choi.reshape(d, d, d, d))
    dev = np.abs(marg - np.eye(d)).max() / d
    if dev > 1e-3:
        raise ValueError(f"trace-preservation violation {dev:.2e} > 1e-3 in Choi state")
    ev, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    keep = ev >= 1e-10
    ops = (np.sqrt(ev[keep]) * vecs[:, keep]).T.reshape(-1, d, d)
    # Renormalize so the channel is exactly trace preserving despite projection.
    s = np.einsum("kba,kbc->ac", ops.conj(), ops)
    return KrausChannel(ops @ np.linalg.inv(herm_sqrt(s)))


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if ch.in_dim != rho.dim:
        raise ValueError("dimension mismatch")
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus_ops:
        out += k @ rho.mat @ k.conj().T
    return DensityMatrix(rho.register, out, validate=False)


def apply_extended(ch: KrausChannel, rho_joint: DensityMatrix, target_labels) -> DensityMatrix:
    """Apply the channel on the target labels, identity elsewhere."""
    reg = rho_joint.register
    targets = reg.indices(list(target_labels))
    if 2 ** len(targets) != ch.in_dim or ch.in_dim != ch.out_dim:
        raise ValueError("target label count does not match channel dimension")
    out = apply_at(ch.kraus_ops, rho_joint.mat, targets, reg.n)
    return DensityMatrix(reg, out, validate=False)


def apply_at(ops, mat: np.ndarray, positions, n: int) -> np.ndarray:
    """Sum of K mat K† over the operators K, each acting on the given qubit
    positions (MSB-first) of an n-qubit matrix.  ``mat`` may be any square
    matrix, not only a state (the circuit's Choi construction feeds it
    |i><j|), or a stack of them with leading batch axes (..., 2^n, 2^n).

    The Kraus set is folded into its local superoperator ``_superop`` (4^k ×
    4^k for k qubits), which is contracted once with the k row and k column
    axes of each matrix; the identity on the other qubits is never formed."""
    mat = np.asarray(mat)
    batch = mat.shape[:-2]
    b = len(batch)
    axes = [b + p for p in positions] + [b + n + p for p in positions]
    out = _contract_at(_superop(ops), mat.reshape(batch + (2,) * (2 * n)), axes)
    return out.reshape(batch + (2**n, 2**n))


def _superop(ops) -> np.ndarray:
    """Σ K⊗K̄, the map vec(ρ) → vec(Σ K ρ K†) on the row-major vec."""
    ops = np.asarray(ops, dtype=complex)
    d_out, d_in = ops.shape[-2:]
    # superop[a, c, b, e] = Σ_K K[a, b] conj(K[c, e]): rows (a, c), columns (b, e).
    return np.einsum("kab,kce->acbe", ops, ops.conj()).reshape(d_out**2, d_in**2)


def _contract_at(op: np.ndarray, tensor: np.ndarray, axes) -> np.ndarray:
    """Apply the square operator ``op`` on len(axes) qubit axes of a tensor
    with a length-2 axis per qubit; the axes keep their places."""
    m = len(axes)
    t = np.tensordot(op.reshape([2] * (2 * m)), tensor,
                     axes=(list(range(m, 2 * m)), list(axes)))
    return np.moveaxis(t, list(range(m)), list(axes))


def embed_operator(op: np.ndarray, qubit_positions, n: int) -> np.ndarray:
    """Embed an operator on the given qubit positions (MSB-first) into n qubits."""
    k = len(qubit_positions)
    others = [q for q in range(n) if q not in qubit_positions]
    perm = list(qubit_positions) + others
    t = np.kron(op, np.eye(2 ** (n - k))).reshape([2] * (2 * n))
    inv = np.argsort(perm)
    order = list(inv) + [n + i for i in inv]
    return t.transpose(order).reshape(2**n, 2**n)


def transfer_of_channel(ch: KrausChannel) -> TransferMap:
    """M_ab = tr(P_a E[P_b]) = vec(P_a)† S vec(P_b) with P the normalized
    Pauli basis and S the superoperator."""
    if ch.in_dim != ch.out_dim:
        raise ValueError("square channel required")
    vecs = np.stack([p.reshape(-1) for _, p in pauli_basis(ch.n_qubits)], axis=1)
    return TransferMap((vecs.conj().T @ _superop(ch.kraus_ops) @ vecs).real)


def compose(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """The channel 'a after b': compose(a, b)(rho) = a(b(rho))."""
    if a.in_dim != b.out_dim:
        raise ValueError("dimension mismatch")
    ops = [ka @ kb for ka in a.kraus_ops for kb in b.kraus_ops]
    if len(ops) > a.out_dim**2:
        # Compress via Choi eigendecomposition to keep Kraus ranks bounded.
        return _kraus_of_choi(_choi_matrix(ops), a.out_dim)
    return KrausChannel(ops, validate=False)

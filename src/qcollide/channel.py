"""CPT maps in Kraus, Choi-state, and Pauli-transfer representations.

Choi states are normalized to trace 1 (a physical system–ancilla state whose
concurrence can be computed directly), not to trace d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .qmat import (
    DensityMatrix,
    PAULIS,
    QubitRegister,
    nkron,
    partial_trace,
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


def _max_entangled(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    for j in range(d):
        v[j * d + j] = 1.0
    return v / np.sqrt(d)


def choi_of_channel(ch: KrausChannel, labels=("S_out", "S_ref")) -> ChoiState:
    """(E ⊗ 1)|Φ+⟩⟨Φ+| with |Φ+⟩ ∝ Σ|jj⟩, trace-1 normalization."""
    d = ch.in_dim
    phi = _max_entangled(d)
    rho = np.outer(phi, phi.conj())
    big = np.zeros((d * ch.out_dim, d * ch.out_dim), dtype=complex)
    for k in ch.kraus_ops:
        kk = np.kron(k, np.eye(d))
        big += kk @ rho @ kk.conj().T
    n_out = int(round(np.log2(ch.out_dim)))
    n_ref = int(round(np.log2(d)))
    out_labels = [f"{labels[0]}{i}" for i in range(n_out)] if n_out > 1 else [labels[0]]
    ref_labels = [f"{labels[1]}{i}" for i in range(n_ref)] if n_ref > 1 else [labels[1]]
    return ChoiState(DensityMatrix(QubitRegister(out_labels + ref_labels), big))


def channel_of_choi(c: ChoiState) -> KrausChannel:
    """Kraus extraction by eigendecomposition (eigenvalue cutoff 1e-10)."""
    d = c.dim
    reg = c.rho.register
    out_labels = reg.labels[: reg.n // 2]
    marg = partial_trace(c.rho, reg.labels[reg.n // 2 :]).mat
    dev = np.abs(marg - np.eye(d) / d).max()
    if dev > 1e-3:
        raise ValueError(f"trace-preservation violation {dev:.2e} > 1e-3 in Choi state")
    mat = c.rho.mat * d  # undo trace-1 normalization
    ev, vecs = np.linalg.eigh(mat)
    ops = []
    for lam, v in zip(ev, vecs.T):
        if lam < 1e-10:
            continue
        ops.append(np.sqrt(lam) * v.reshape(d, d))
    # Renormalize so the channel is exactly trace preserving despite projection.
    s = sum(k.conj().T @ k for k in ops)
    inv_sqrt = np.linalg.inv(_psd_sqrt(s))
    ops = [k @ inv_sqrt for k in ops]
    return KrausChannel(ops)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    ev, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    ev = np.clip(ev, 0.0, None)
    return (vecs * np.sqrt(ev)) @ vecs.conj().T


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
    """Sum of K mat K† over the operators K, each embedded on the given qubit
    positions (MSB-first) of an n-qubit matrix.  ``mat`` may be any square
    matrix, not only a state: the Choi construction feeds it |i><j|."""
    out = np.zeros(mat.shape, dtype=complex)
    for k in ops:
        ke = embed_operator(k, positions, n)
        out += ke @ mat @ ke.conj().T
    return out


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
    """M_ab = tr(P_a E[P_b]) with P the normalized Pauli basis."""
    if ch.in_dim != ch.out_dim:
        raise ValueError("square channel required")
    n = ch.n_qubits
    basis = pauli_basis(n)
    d2 = len(basis)
    M = np.zeros((d2, d2))
    for b, (_, pb) in enumerate(basis):
        out = sum(k @ pb @ k.conj().T for k in ch.kraus_ops)
        for a, (_, pa) in enumerate(basis):
            M[a, b] = np.trace(pa.conj().T @ out).real
    return TransferMap(M)


def compose(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """The channel 'a after b': compose(a, b)(rho) = a(b(rho))."""
    if a.in_dim != b.out_dim:
        raise ValueError("dimension mismatch")
    ops = [ka @ kb for ka in a.kraus_ops for kb in b.kraus_ops]
    if len(ops) > a.out_dim**2:
        # Compress via Choi eigendecomposition to keep Kraus ranks bounded.
        return channel_of_choi(choi_of_channel(KrausChannel(ops, validate=False)))
    return KrausChannel(ops, validate=False)

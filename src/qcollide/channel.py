"""CPT maps as superoperators, with Choi-state and Pauli-transfer read-offs.

Choi states are normalized to trace 1 (a physical system–ancilla state whose
concurrence can be computed directly), not to trace d.

A channel is its superoperator on the row-major vec (vec(A)[i*d + j] =
A[i, j]; Wood, Biamonte & Cory, arXiv:1111.6950): one type, ``Channel``,
holds a read-only copy of it and nothing else.  Kraus operators are only an
input: ``KrausChannel`` checks their completeness and builds the ``Channel``
of their superoperator.  Conversions run one way, from Kraus operators to
the superoperator, through two private helpers:

* ``_superop``: Σ K⊗K̄, behind ``KrausChannel``;
* ``_reshuffle``: a superoperator's entries as its Choi matrix (trace d),
  behind ``choi_of_channel``, which returns the Choi state as a
  ``DensityMatrix``.

``_superop_at`` is the one channel application: it applies a local
superoperator, or a stack of them, on some qubits of a matrix or a stack of
matrices.  ``_pauli_transfer`` sandwiches a superoperator, or a stack, between
the normalized Pauli vecs, a read-only matrix built once per qubit count
(``_pauli_columns``).  The Pauli transfer matrix has no type of its own:
``transfer_of_channel`` returns that product, marked read-only, as a plain
array.
"""

from __future__ import annotations

import functools
import itertools
import math
import numpy as np

from .qmat import (
    DensityMatrix,
    PAULIS,
    QubitRegister,
    nkron,
)

__all__ = [
    "Channel",
    "KrausChannel",
    "choi_of_channel",
    "transfer_of_channel",
    "compose",
    "apply",
    "apply_extended",
    "pauli_basis",
    "identity_channel",
    "unitary_channel",
    "depolarizing_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
]

KRAUS_COMPLETE_TOL = 1e-9


def _is_power_of_4(x: int) -> bool:
    return x > 0 and not x & (x - 1) and x.bit_length() % 2 == 1


class Channel:
    """A CPT map as its superoperator, the map vec ρ → vec E(ρ) on the
    row-major vec: a read-only copy of ``superop``, of shape
    (out_dim², in_dim²), on ``n_qubits`` input qubits.

    Rejected if ``superop`` is not 2-D of shape (4^m, 4^k), or if
    Tr E(|i><j|) is not within 1e-3 of δ_ij in trace-1 units (a non-finite
    entry fails this too).  Only trace preservation is checked; complete
    positivity is the caller's precondition."""

    def __init__(self, superop) -> None:
        superop = np.array(superop, dtype=complex)
        if superop.ndim != 2 or not all(map(_is_power_of_4, superop.shape)):
            raise ValueError(f"superoperator shape {superop.shape} is not (4^m, 4^k)")
        d_out, d_in = map(math.isqrt, superop.shape)
        dev = np.abs(np.eye(d_out).ravel() @ superop - np.eye(d_in).ravel()).max() / d_in
        if not dev <= 1e-3:
            raise ValueError(f"trace-preservation violation {dev:.2e} > 1e-3")
        superop.setflags(write=False)
        self.superop = superop
        self.in_dim, self.out_dim = d_in, d_out
        self.n_qubits = d_in.bit_length() - 1


def KrausChannel(ops) -> Channel:
    """The channel Σ K ρ K† of Kraus operators K of equal shape with
    Σ K†K = I within 1e-9, as the superoperator Σ K⊗K̄."""
    ops = np.array(ops, dtype=complex)
    if ops.ndim != 3 or not len(ops):
        raise ValueError("need at least one Kraus operator, all of one 2-D shape")
    s = sum(k.conj().T @ k for k in ops)
    if not np.abs(s - np.eye(ops.shape[2])).max() <= KRAUS_COMPLETE_TOL:
        raise ValueError("Kraus completeness violated")
    return Channel(_superop(ops))


def pauli_basis(n: int):
    """Normalized Pauli strings P/sqrt(2^n) over n qubits with their names."""
    names = ["".join(s) for s in itertools.product("IXYZ", repeat=n)]
    norm = np.sqrt(2.0**n)
    return [(name, nkron(*(PAULIS[c] for c in name)) / norm) for name in names]


@functools.lru_cache(maxsize=None)
def _pauli_columns(n: int) -> np.ndarray:
    """Read-only (4^n, 4^n) matrix whose column b is vec(P_b), the row-major
    vec of the b-th normalized Pauli string of ``pauli_basis(n)``; built once
    per qubit count."""
    vecs = np.stack([p.reshape(-1) for _, p in pauli_basis(n)], axis=1)
    vecs.setflags(write=False)
    return vecs


def identity_channel(n_qubits: int = 1) -> Channel:
    return KrausChannel([np.eye(2**n_qubits)])


def unitary_channel(u: np.ndarray) -> Channel:
    return KrausChannel([u])


def depolarizing_channel(p: float, n_qubits: int = 1) -> Channel:
    """With probability p replace the state by the maximally mixed one."""
    d = 2**n_qubits
    ops = []
    for i, name in enumerate(itertools.product("IXYZ", repeat=n_qubits)):
        pm = nkron(*(PAULIS[c] for c in name))
        w = (1 - p) + p / d**2 if i == 0 else p / d**2
        ops.append(np.sqrt(w) * pm)
    return KrausChannel(ops)


def amplitude_damping_channel(gamma: float) -> Channel:
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel([k0, k1])


def phase_damping_channel(lam: float) -> Channel:
    k0 = np.sqrt(1 - lam) * np.eye(2)
    k1 = np.sqrt(lam) * np.diag([1.0, 0.0]).astype(complex)
    k2 = np.sqrt(lam) * np.diag([0.0, 1.0]).astype(complex)
    return KrausChannel([k0, k1, k2])


def _reshuffle(superop: np.ndarray) -> np.ndarray:
    """The Choi matrix [(a, i), (b, j)] of the superoperator [(a, b), (i, j)]
    = E(|i><j|)[a, b], and back when d_out = d_in (it is an involution)."""
    d_out, d_in = map(math.isqrt, superop.shape)
    choi = superop.reshape(d_out, d_out, d_in, d_in).transpose(0, 2, 1, 3)
    return choi.reshape(d_out * d_in, d_out * d_in)


def choi_of_channel(ch: Channel, labels=("S_out", "S_ref")) -> DensityMatrix:
    """(E ⊗ 1)|Φ+⟩⟨Φ+| with |Φ+⟩ ∝ Σ|jj⟩, trace-1 normalization, on
    register (S_out, S_ref)."""
    d = ch.in_dim
    n_out = ch.out_dim.bit_length() - 1
    n_ref = ch.n_qubits
    out_labels = [f"{labels[0]}{i}" for i in range(n_out)] if n_out > 1 else [labels[0]]
    ref_labels = [f"{labels[1]}{i}" for i in range(n_ref)] if n_ref > 1 else [labels[1]]
    return DensityMatrix(QubitRegister(out_labels + ref_labels), _reshuffle(ch.superop) / d)


def apply(ch: Channel, rho: DensityMatrix) -> DensityMatrix:
    return apply_extended(ch, rho, rho.register.labels)


def apply_extended(ch: Channel, rho_joint: DensityMatrix, target_labels) -> DensityMatrix:
    """Apply the channel on the target labels, identity elsewhere."""
    reg = rho_joint.register
    targets = reg.indices(list(target_labels))
    if 2 ** len(targets) != ch.in_dim or ch.in_dim != ch.out_dim:
        raise ValueError("target label count does not match channel dimension")
    out = _superop_at(ch.superop, rho_joint.mat, targets, reg.n)
    return DensityMatrix(reg, out, validate=False)


def _superop_at(superop: np.ndarray, mat: np.ndarray, positions, n: int) -> np.ndarray:
    """Apply a local superoperator (``_superop`` of a Kraus set on the given
    qubit positions, MSB-first) to an n-qubit matrix.  ``mat`` may be any
    square matrix, not only a state (the circuit's channel read-off feeds it
    |i><j|), or a stack of them with leading batch axes (..., 2^n, 2^n).
    ``superop`` may be a stack (..., 4^k, 4^k) too; its stack axes lead the
    result's, each superoperator applied to every matrix.

    The 4^k × 4^k superoperator of k qubits is contracted once with the k
    row and k column axes of each matrix (``_contract_at``); the identity on
    the other qubits is never formed."""
    mat = np.asarray(mat)
    batch = mat.shape[:-2]
    b = len(batch)
    axes = [b + p for p in positions] + [b + n + p for p in positions]
    out = _contract_at(superop, mat.reshape(batch + (2,) * (2 * n)), axes)
    return out.reshape(out.shape[:out.ndim - 2 * n] + (2**n, 2**n))


def _superop(ops) -> np.ndarray:
    """Σ K⊗K̄, the map vec(ρ) → vec(Σ K ρ K†) on the row-major vec."""
    ops = np.asarray(ops, dtype=complex)
    d_out, d_in = ops.shape[-2:]
    # superop[a, c, b, e] = Σ_K K[a, b] conj(K[c, e]): rows (a, c), columns (b, e).
    return np.einsum("kab,kce->acbe", ops, ops.conj()).reshape(d_out**2, d_in**2)


# OpenBLAS 0.3.31 (the build NumPy bundles) hands a complex matrix product to
# its worker thread once M·N·K reaches this: 16×16×255 runs on the calling
# thread, 16×16×256 and 256×16×16 do not.  The hand-off costs more than the
# product: after a 0.5 s idle, 100 products of 16×16×256 took 805 ms with two
# threads and 3.0 ms with one (2-core x86-64 host).
_BLAS_THREAD_MIN = 65_536


def _contract_at(op: np.ndarray, tensor: np.ndarray, axes) -> np.ndarray:
    """Apply the square operator ``op``, or each of a stack (..., D, D) of
    them, on len(axes) qubit axes of a tensor with a length-2 axis per qubit;
    the axes keep their places, after the stack axes.

    The contracted axes go first and the other axes become the columns of
    one ``matmul`` over column blocks.  Each product of a D×D operator stays
    below ``_BLAS_THREAD_MIN``, so it runs on the calling thread: all columns
    at once if they fit, else blocks of c columns, c the largest power of two
    that fits (2,048 for a 1-qubit superoperator, 128 for a 2-qubit one, 8
    for a 3-qubit one), the last block also taking the fewer than c columns
    left over.  So no block of a split is a single column, which would run
    as a matrix-vector product and round differently from one product over
    all columns; the blocked result is that product's, bit for bit.  An
    operator too large for even one column runs as one product."""
    m = len(axes)
    d = 2**m
    stack = op.shape[:-2]
    t = np.moveaxis(tensor, list(axes), list(range(m)))
    rest = t.shape[m:]
    cols = t.reshape(d, -1)
    n = cols.shape[1]
    cap = (_BLAS_THREAD_MIN - 1) // (d * d)  # columns per product
    if n <= cap or not cap:
        out = op @ cols
    else:
        # For a power-of-two D, cap = 2c - 1: the last block's c to 2c - 1
        # columns fit too.
        c = 1 << (cap.bit_length() - 1)
        head = n - n % c - c
        out = np.empty(stack + (d, n), np.result_type(op, cols))
        np.matmul(op[..., None, :, :], cols[:, :head].reshape(d, -1, c).swapaxes(0, 1),
                  out=out[..., :head].reshape(stack + (d, -1, c)).swapaxes(-3, -2))
        np.matmul(op, cols[:, head:], out=out[..., head:])
    s = len(stack)
    return np.moveaxis(out.reshape(stack + (2,) * m + rest),
                       list(range(s, s + m)), [s + a for a in axes])


def embed_operator(op: np.ndarray, qubit_positions, n: int) -> np.ndarray:
    """Embed an operator on the given qubit positions (MSB-first) into n qubits."""
    k = len(qubit_positions)
    others = [q for q in range(n) if q not in qubit_positions]
    perm = list(qubit_positions) + others
    t = np.kron(op, np.eye(2 ** (n - k))).reshape([2] * (2 * n))
    inv = np.argsort(perm)
    order = list(inv) + [n + i for i in inv]
    return t.transpose(order).reshape(2**n, 2**n)


def transfer_of_channel(ch: Channel) -> np.ndarray:
    """The Pauli transfer matrix M_ab = tr(P_a E[P_b]) = vec(P_a)† S vec(P_b)
    with P the normalized Pauli basis and S the superoperator ``ch.superop``:
    the real part of that product, a read-only view of it, not a copy.  Its
    first row is (1, 0, …, 0); for a qubit channel ``[1:, 1:]`` is the 3x3
    Bloch block."""
    if ch.in_dim != ch.out_dim:
        raise ValueError("square channel required")
    m = _pauli_transfer(ch.superop)
    m.setflags(write=False)
    return m


def _pauli_transfer(superop: np.ndarray) -> np.ndarray:
    """vec(P_a)† S vec(P_b) for a square superoperator S, or each of a stack."""
    vecs = _pauli_columns((superop.shape[-1].bit_length() - 1) // 2)
    return (vecs.conj().T @ superop @ vecs).real


def compose(a: Channel, b: Channel) -> Channel:
    """The channel 'a after b', compose(a, b)(rho) = a(b(rho)): a.superop @ b.superop."""
    if a.in_dim != b.out_dim:
        raise ValueError("dimension mismatch")
    return Channel(a.superop @ b.superop)

"""Gate-level IR and transpilation to the native gate set {RZ(θ), √X, ECR, X}.

Conventions:

* Qubit labels follow the global MSB-first register convention of ``qmat``.
* ``ECR_MATRIX`` is the echoed cross-resonance gate in the convention
  1/√2 [[0,1,0,i],[1,0,-i,0],[0,i,0,1],[-i,0,1,0]] (first qubit = first tensor
  factor).  With this matrix the shipped reference sequences (Bell preparation
  with one ECR and global phase π; the collision unitary with two ECR) verify
  to 1e-12; see ``reference_bell_circuit`` / ``reference_collision_circuit``.
* ``transpile`` fixes the output ``global_phase`` so the transpiled circuit's
  unitary equals the input's exactly, not merely up to phase.
* ``_fused_blocks`` is the one gate-clustering fold (Häner & Steiger, SC'17,
  arXiv:1704.01127), for unitaries (``unitary_of_circuit``) and for the
  superoperators of the noisy circuit channel (``noisytomo``) alike.

The two-qubit synthesis follows the standard KAK/magic-basis route of
Shende-Markov-Bullock (0/1/2/3-CNOT cases decided by the invariants of
gamma(U) = (E†UE)(E†UE)^T, compared by ``_close``, the scalar form of
``np.isclose``), with each CNOT realized by one ECR plus local corrections:
a constant native sequence, derived once per process on the placeholder
wires and relabelled per CNOT.  One ``unitary_of_circuit`` of a two-qubit
unitary's native gates verifies them and gives ``transpile`` their phase
(``_two_qubit_lowering``); it feeds only the checks and the output phase, so
a change to its rounding can move ``global_phase`` by round-off but never a
native gate.  Where the class test misfires (near a class boundary, such as
close to the identity) and the gates miss the unitary, it is split as
(U G†) G with a fixed generic G, and both factors' native gates are verified
the same way, together.
``transpile`` first expands a unitary on three or more qubits with
``decompose_multiqubit`` (cosine-sine decomposition plus multiplexor
demultiplexing) into CNOTs, single-qubit gates and two-qubit unitary
payloads, so any circuit lowers in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from .channel import _contract_at
from .qmat import QubitRegister

__all__ = [
    "Gate",
    "Circuit",
    "NATIVE_KINDS",
    "GATE_MATRICES",
    "ECR_MATRIX",
    "SX_MATRIX",
    "H_MATRIX",
    "unitary_of_circuit",
    "transpile",
    "equivalent_up_to_global_phase",
    "gate_count",
    "decompose_multiqubit",
    "reference_bell_circuit",
    "reference_collision_circuit",
    "rz_matrix",
]

NATIVE_KINDS = frozenset({"RZ", "SX", "ECR", "X"})

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
SX_MATRIX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
ECR_MATRIX = np.array(
    [[0, 1, 0, 1j], [1, 0, -1j, 0], [0, 1j, 0, 1], [-1j, 0, 1, 0]], dtype=complex
) / np.sqrt(2)

# The matrix of each fixed gate kind; RZ(θ) has the closed form ``rz_matrix``
# and a UNITARY gate carries its own.
GATE_MATRICES = {"H": H_MATRIX, "X": X_MATRIX, "SX": SX_MATRIX,
                 "CNOT": CNOT_MATRIX, "ECR": ECR_MATRIX}
_ARITY = {kind: len(m).bit_length() - 1 for kind, m in GATE_MATRICES.items()} | {"RZ": 1}


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def ry_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate: kind, ordered qubit labels, optional angle or unitary payload."""

    kind: str
    qubits: tuple[str, ...]
    theta: float | None = None
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(map(str, self.qubits)))
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} names a qubit twice: {self.qubits}")
        arity = _ARITY.get(self.kind)
        if arity is not None:
            if len(self.qubits) != arity:
                raise ValueError(f"{self.kind} needs {arity} qubits")
            if self.kind == "RZ" and self.theta is None:
                raise ValueError("RZ needs an angle")
        elif self.kind == "UNITARY":
            if self.matrix is None:
                raise ValueError("UNITARY needs a matrix payload")
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2 ** len(self.qubits),) * 2:
                raise ValueError("matrix shape does not match qubit count")
            if np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() > 1e-10:
                raise ValueError("UNITARY payload is not unitary within 1e-10")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    def unitary(self) -> np.ndarray:
        if self.kind == "RZ":
            return rz_matrix(self.theta)
        return GATE_MATRICES.get(self.kind, self.matrix)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Ordered gate list over a labeled register, plus a global phase (radians)."""

    register: QubitRegister
    gates: tuple[Gate, ...] = ()
    global_phase: float = 0.0

    def __init__(self, register, gates=(), global_phase: float = 0.0):
        if not isinstance(register, QubitRegister):
            register = QubitRegister(register)
        gates = tuple(gates)
        for g in gates:
            for q in g.qubits:
                if q not in register:
                    raise ValueError(f"gate qubit {q!r} not in register")
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "global_phase", float(global_phase))

    def with_gates(self, gates, global_phase=None) -> "Circuit":
        phase = self.global_phase if global_phase is None else global_phase
        return Circuit(self.register, gates, phase)


def unitary_of_circuit(c: Circuit) -> np.ndarray:
    """The circuit's unitary, global phase included: the ``_fused_blocks`` of
    its gates (an RZ enters as its diagonal (e^{-iθ/2}, e^{iθ/2})), each
    applied to the identity by one tensor contraction."""
    n, dim = c.register.n, c.register.dim
    if n > 8:
        raise ValueError("unitary_of_circuit supports at most 8 qubits")
    u = np.eye(dim, dtype=complex).reshape([2] * (2 * n))
    for m, labels in _fused_blocks(c.gates, _unitary_or_rz_diagonal):
        u = _contract_at(m, u, c.register.indices(labels))
    return np.exp(1j * c.global_phase) * u.reshape(dim, dim)


def _unitary_or_rz_diagonal(g: Gate) -> np.ndarray:
    if g.kind == "RZ":
        return np.exp([-0.5j * g.theta, 0.5j * g.theta])
    return g.unitary()


def _fused_blocks(gates, matrix_of) -> list:
    """The gates as a short list of [matrix, labels] blocks to be applied in
    order, for unitaries or superoperators alike.  ``matrix_of(g)`` is a
    gate's matrix on its own qubits, or the diagonal vector of an RZ.

    Each qubit's run of 1-qubit gates is multiplied into one pending matrix
    (a diagonal scales its rows).  The next multi-qubit gate on the qubit
    takes it on its input side, and what is still pending at the end becomes
    a 1-qubit block.  A multi-qubit gate joins the block that last touched
    all of its qubits if that block acts on the same labels in the same
    order.  This only multiplies matrices, so it is exact."""
    pending: dict[str, np.ndarray] = {}
    blocks: list[list] = []
    last: dict[str, int] = {}  # label -> index of the last block on it
    for g in gates:
        m = matrix_of(g)
        if len(g.qubits) == 1:
            q = g.qubits[0]
            if m.ndim == 1:
                pending[q] = m[:, None] * pending[q] if q in pending else np.diag(m)
            else:
                pending[q] = m @ pending[q] if q in pending else m
            continue
        # One lift per pending qubit, multiplied in qubit order: the product
        # rounds as folding each into the identity stack did, bit for bit; a
        # single Kronecker product of two pending maps rounds differently.
        lift = None
        for j, q in enumerate(g.qubits):
            if q in pending:
                step = _lift(pending.pop(q), j, len(g.qubits))
                lift = step if lift is None else step @ lift
        if lift is not None:
            m = m @ lift
        i = last.get(g.qubits[0])
        if (i is not None and blocks[i][1] == g.qubits
                and all(last.get(q) == i for q in g.qubits)):
            blocks[i][0] = m @ blocks[i][0]
        else:
            last.update(dict.fromkeys(g.qubits, len(blocks)))
            blocks.append([m, g.qubits])
    return blocks + [[p, (q,)] for q, p in pending.items()]


def _lift(p: np.ndarray, j: int, k: int) -> np.ndarray:
    """The d x d 1-qubit matrix p (a 2x2 unitary or a 4x4 superoperator) on
    qubit j of k, as a d^k x d^k matrix in the row-major order, whose 2 or 4
    axis groups (rows and columns; for a superoperator (a', b', a, b)) have k
    qubit axes each: p on qubit j's axes, the identity on the others.  Its
    entries are p's entries or 0."""
    d = len(p)
    on_j = [ax % k == j for ax in range(2 * (d.bit_length() - 1) * k)]
    rest = np.eye(d ** (k - 1)).reshape([1 if x else 2 for x in on_j])
    return (p.reshape([2 if x else 1 for x in on_j]) * rest).reshape(d**k, d**k)


def equivalent_up_to_global_phase(U, V, tol: float = 1e-8):
    """Return (equivalent?, phase) with U ≈ e^{i phase} V."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    if U.shape != V.shape:
        raise ValueError("shape mismatch")
    prod = V.conj().T @ U
    k = np.unravel_index(np.argmax(np.abs(prod)), prod.shape)
    if abs(prod[k]) < 1e-12:
        raise ValueError("zero matrix input")
    phase = float(np.angle(prod[k] / abs(prod[k])))
    ok = bool(np.abs(U - np.exp(1j * phase) * V).max() < tol)
    return ok, phase


def gate_count(c: Circuit) -> dict:
    out: dict = {}
    for g in c.gates:
        out[g.kind] = out.get(g.kind, 0) + 1
    return out


# --------------------------------------------------------------------------
# Single-qubit synthesis: ZYZ angles, then the native identity
#   U = e^{i a} RZ(phi+pi) SX RZ(theta+pi) SX RZ(lam).
# --------------------------------------------------------------------------

def _zyz_angles(u: np.ndarray):
    """Angles (theta, phi, lam) with U ~ RZ(phi) RY(theta) RZ(lam) up to phase."""
    su = u / np.sqrt(complex(np.linalg.det(u)))
    if abs(su[0, 0]) < 1e-9:
        return np.pi, 2.0 * np.angle(su[1, 0]), 0.0
    if abs(su[1, 0]) < 1e-9:
        return 0.0, 2.0 * np.angle(su[1, 1]), 0.0
    theta = 2.0 * np.arctan2(abs(su[1, 0]), abs(su[0, 0]))
    plus = 2.0 * np.angle(su[1, 1])
    minus = 2.0 * np.angle(su[1, 0])
    return theta, (plus + minus) / 2.0, (plus - minus) / 2.0


def _euler_native(u: np.ndarray, label: str) -> list[Gate]:
    """Native {RZ, SX} realization of a 1-qubit unitary (up to global phase)."""
    theta, phi, lam = _zyz_angles(u)
    if abs(theta) < 1e-12:
        angle = _wrap_angle(phi + lam)
        return [] if abs(angle) < 1e-12 else [Gate("RZ", (label,), theta=angle)]
    return [
        Gate("RZ", (label,), theta=_wrap_angle(lam)),
        Gate("SX", (label,)),
        Gate("RZ", (label,), theta=_wrap_angle(theta + np.pi)),
        Gate("SX", (label,)),
        Gate("RZ", (label,), theta=_wrap_angle(phi + np.pi)),
    ]


def _wrap_angle(a: float) -> float:
    return float((a + np.pi) % (2 * np.pi) - np.pi)


# --------------------------------------------------------------------------
# CNOT -> ECR: CNOT = e^{i pi/4} (A (x) B) ECR (C (x) D) with the constant
# locals below (first factor = control).  The native sequence is derived
# once per process on the placeholder wires and relabelled per CNOT.
# --------------------------------------------------------------------------

_S2 = 1 / np.sqrt(2)
_CX_A = _S2 * np.array([[1, 1], [1j, -1j]], dtype=complex)
_CX_B = _S2 * np.array([[1, 1j], [-1, 1j]], dtype=complex)
_CX_C = _S2 * np.array([[1, -1], [1, 1]], dtype=complex)
_CX_D = -1j * _S2 * np.array([[1, 1], [1, -1]], dtype=complex)


def _cnot_native(ctrl: str, tgt: str) -> list[Gate]:
    return _relabel(_cnot_on_placeholders(), (ctrl, tgt))


@cache
def _cnot_on_placeholders() -> tuple[Gate, ...]:
    ctrl, tgt = _PLACEHOLDERS
    return tuple(
        _euler_native(_CX_C, ctrl)
        + _euler_native(_CX_D, tgt)
        + [Gate("ECR", (ctrl, tgt))]
        + _euler_native(_CX_A, ctrl)
        + _euler_native(_CX_B, tgt)
    )


# --------------------------------------------------------------------------
# Two-qubit KAK synthesis (magic-basis / gamma-invariant route).  Produces a
# list of Gate objects using CNOT and 1-qubit UNITARY payloads; correctness is
# up to global phase, which transpile() fixes at the end.
# --------------------------------------------------------------------------

_E = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]], dtype=complex
) / np.sqrt(2)
_Edag = _E.conj().T
_CNOT01 = CNOT_MATRIX
_CNOT10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_S_SX = np.kron(np.diag([1.0, 1.0j]), SX_MATRIX)
_V_ONE_CNOT = np.array(
    [
        [0.5, 0.5j, 0.5j, -0.5],
        [-0.5j, 0.5, -0.5, -0.5j],
        [-0.5j, -0.5, 0.5, -0.5j],
        [0.5, -0.5j, -0.5j, -0.5],
    ],
    dtype=complex,
)
_Q_ONE_CNOT = _S2 * np.array(
    [[-1, 0, -1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=float
)


def _to_su4(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / 4)


def _close(a, b, atol: float) -> bool:
    """``np.isclose(a, b, atol=atol)`` for two finite scalars:
    |a - b| <= atol + 1e-5 |b|."""
    return abs(a - b) <= atol + 1e-5 * abs(b)


def _num_cnots(u_su4: np.ndarray) -> int:
    u = _Edag @ u_su4 @ _E
    gamma = u @ u.T
    tr = complex(np.trace(gamma))
    if _close(tr, 4, 1e-7) or _close(tr, -4, 1e-7):
        return 0
    evs = np.linalg.eigvals(gamma)
    if _close(tr, 0, 1e-7) and np.allclose(
        np.sort(evs.imag), [-1, -1, 1, 1], atol=1e-7
    ):
        return 1
    if _close(tr.imag, 0.0, 1e-7):
        return 2
    return 3


def _su2su2_factors(u4: np.ndarray):
    """Split U = A (x) B (up to phase) into 2x2 factors."""
    c1, c2 = u4[0:2, 0:2], u4[0:2, 2:4]
    c3, c4 = u4[2:4, 0:2], u4[2:4, 2:4]
    a1 = np.sqrt(complex((c1 @ c4.conj().T)[0, 0]))
    a2 = np.sqrt(complex(-(c2 @ c3.conj().T)[0, 0]))
    if not _close(a1 * a2.conjugate(), complex((c1 @ c2.conj().T)[0, 0]), 1e-8):
        a2 = -a2
    A = np.array([[a1, a2], [-np.conj(a2), np.conj(a1)]])
    B = c2 / A[0, 1] if _close(a1, 0.0, 1e-6) else c1 / A[0, 0]
    blocks = u4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)  # blocks[i, j] = A[i, j] B
    if np.abs(blocks - A[:, :, None, None] * B).max() > 1e-10:
        # An entry of A near 0 but not at it leaves a1 or a2 at round-off
        # (seen near CNOT-class boundaries); then read B off the largest
        # block, and A off B.
        i, j = np.unravel_index(np.argmax(np.linalg.norm(blocks, axis=(2, 3))), (2, 2))
        B = blocks[i, j] / np.sqrt(complex(np.linalg.det(blocks[i, j])))
        A = np.einsum("ijab,ab->ij", blocks, B.conj()) / 2
    return A, B


def _symmetric_diagonalizer(m: np.ndarray):
    """Real orthogonal p with p^T m p diagonal, for a complex symmetric normal
    matrix m (real and imaginary parts commute).  Diagonalizes the real part
    first, then resolves its degenerate clusters with the imaginary part, so
    eigenvectors of distinct complex eigenvalues are never mixed."""
    evr, p = np.linalg.eigh(m.real)
    i = 0
    while i < len(evr):
        j = i + 1
        while j < len(evr) and evr[j] - evr[i] < 1e-7:
            j += 1
        if j - i > 1:
            sub = p[:, i:j]
            _, r = np.linalg.eigh(sub.T @ m.imag @ sub)
            p[:, i:j] = sub @ r
        i = j
    return p, np.diag(p.T @ m @ p).copy()


def _extract_prefactors(U: np.ndarray, V: np.ndarray):
    """A, B, C, D in SU(2) with U = (A (x) B) V (C (x) D) up to phase."""
    u = _Edag @ U @ _E
    v = _Edag @ V @ _E
    uuT = u @ u.T
    vvT = v @ v.T
    p, du = _symmetric_diagonalizer(uuT)
    q, dv = _symmetric_diagonalizer(vvT)
    # Reorder q's columns so the eigenvalues line up with p's.
    perm = []
    used: set = set()
    for lam in du:
        k = min(
            (l for l in range(4) if l not in used),
            key=lambda l: abs(dv[l] - lam),
        )
        if abs(dv[k] - lam) > 1e-6:
            raise ValueError("prefactor extraction: eigenvalue mismatch")
        perm.append(k)
        used.add(k)
    q = q[:, perm]
    if np.linalg.det(p) < 0:
        p[:, 0] *= -1
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    G = p @ q.T
    H = v.conj().T @ G.T @ u
    A, B = _su2su2_factors(_E @ G @ _Edag)
    C, D = _su2su2_factors(_E @ H @ _Edag)
    return A, B, C, D


def _g(mat: np.ndarray, label: str) -> Gate:
    return Gate("UNITARY", (label,), matrix=mat)


def _kak(U: np.ndarray, wires: tuple[str, str]) -> list[Gate]:
    """Decompose a two-qubit unitary into CNOTs and 1-qubit UNITARY gates."""
    w0, w1 = wires
    U = _to_su4(np.asarray(U, dtype=complex))
    n = _num_cnots(U)
    if n == 0:
        A, B = _su2su2_factors(U)
        return [_g(A, w0), _g(B, w1)]
    if n == 1:
        swap_u = np.exp(1j * np.pi / 4) * _SWAP @ U
        u = _Edag @ swap_u @ _E
        uuT = u @ u.T
        _, p = np.linalg.eigh(uuT.real)
        if np.linalg.det(p) < 0:
            p[:, -1] *= -1
        G = p @ _Q_ONE_CNOT.T
        H = _V_ONE_CNOT.conj().T @ G.T @ u
        A, B = _su2su2_factors(_E @ G @ _Edag)
        C, D = _su2su2_factors(_E @ H @ _Edag)
        # Because of the SWAP trick, A and B land on exchanged wires.
        return [_g(C, w0), _g(D, w1), Gate("CNOT", (w0, w1)), _g(A, w1), _g(B, w0)]
    if n == 2:
        u = _Edag @ U @ _E
        evs = np.linalg.eigvals(u @ u.T)
        if np.allclose(np.sort(evs.real), [-1, -1, 1, 1], atol=1e-7):
            interior = [
                Gate("CNOT", (w1, w0)),
                _g(np.diag([1.0, 1.0j]).astype(complex), w0),
                _g(SX_MATRIX, w1),
                Gate("CNOT", (w1, w0)),
            ]
            inner = _S_SX
        else:
            x = np.angle(evs[0])
            y = np.angle(evs[1])
            if _close(x, -y, 1e-10):
                y = np.angle(evs[2])
            delta = (x + y) / 2
            phi = (x - y) / 2
            interior = [
                Gate("CNOT", (w1, w0)),
                Gate("RZ", (w0,), theta=float(delta)),
                _g(rx_matrix(phi), w1),
                Gate("CNOT", (w1, w0)),
            ]
            # Perturb delta slightly to avoid a known discontinuity when the
            # inner matrix coincides with a reflection.
            inner = np.kron(rz_matrix(delta + 5 * np.finfo(float).eps), rx_matrix(phi))
        V = _CNOT10 @ inner @ _CNOT10
        A, B, C, D = _extract_prefactors(U, V)
        return [_g(C, w0), _g(D, w1)] + interior + [_g(A, w0), _g(B, w1)]
    # 3-CNOT general case
    swap_u = np.exp(1j * np.pi / 4) * _SWAP @ U
    u = _Edag @ swap_u @ _E
    evs = np.linalg.eigvals(u @ u.T)
    x, y, z = np.sort(np.angle(evs))[:3]
    alpha = (x + y) / 2
    beta = (x + z) / 2
    delta = (z + y) / 2
    interior = [
        Gate("CNOT", (w1, w0)),
        Gate("RZ", (w0,), theta=float(delta)),
        _g(ry_matrix(beta), w1),
        Gate("CNOT", (w0, w1)),
        _g(ry_matrix(alpha), w1),
        Gate("CNOT", (w1, w0)),
    ]
    V = np.eye(4, dtype=complex)
    for m in (
        _CNOT10,
        np.kron(rz_matrix(delta), ry_matrix(beta)),
        _CNOT01,
        np.kron(np.eye(2), ry_matrix(alpha)),
        _CNOT10,
        _SWAP,
    ):
        V = m @ V
    A, B, C, D = _extract_prefactors(swap_u, V)
    # The SWAP trick exchanges the wires of the trailing locals.
    return [_g(C, w0), _g(D, w1)] + interior + [_g(A, w1), _g(B, w0)]


def _generic_two_qubit() -> np.ndarray:
    """exp(i(0.41 XX + 0.27 YY + 0.13 ZZ)) after RY(0.7) ⊗ RX(0.4): a fixed
    two-qubit unitary far from every boundary between CNOT-count classes."""
    y, z = np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    u = np.kron(ry_matrix(0.7), rx_matrix(0.4))
    for theta, p in ((0.41, X_MATRIX), (0.27, y), (0.13, z)):
        u = (np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * np.kron(p, p)) @ u
    return u


_GENERIC_2Q = _generic_two_qubit()


def _two_qubit_lowering(u: np.ndarray, wires: tuple[str, str]):
    """(native gates, their unitary) for a two-qubit unitary u, the gates
    checked to reproduce u within 1e-9 up to phase by that one unitary.
    The KAK route comes first.  Near a boundary between CNOT-count classes
    (close to the identity, say) the class test of ``_kak`` misfires and its
    gates miss u or fail to build; then u = (u G†) G with the fixed generic
    G, whose two factors have well-conditioned KAKs, and the native gates of
    both are checked against u together."""
    for factors in ((u,), (_GENERIC_2Q, u @ _GENERIC_2Q.conj().T)):
        try:
            kak = [sub for f in factors for sub in _kak(f, wires)]
        except ValueError:
            continue
        gates = [n for sub in kak for n in _lower(sub)]
        got = unitary_of_circuit(Circuit(wires, gates))
        if equivalent_up_to_global_phase(u, got, tol=1e-9)[0]:
            return gates, got
    raise AssertionError("two-qubit synthesis failed to verify")


# --------------------------------------------------------------------------
# transpile
# --------------------------------------------------------------------------

def transpile(c: Circuit) -> Circuit:
    """Rewrite a circuit over {RZ, SX, ECR, X} only; exact including phase.

    A payload on more than two qubits is first replaced by the gates of its
    ``decompose_multiqubit``.  Each distinct source gate (kind, angle,
    payload, arity) is then lowered once per call on placeholder wires,
    checked on its own one or two qubits, and relabelled onto every wire
    pair it occurs on.  The check compares the lowered gates' unitary with
    the source gate's up to a local phase; the operator-norm deviations,
    summed over every gate instance (plus the angles of the near-zero RZ
    that ``_merge_rz`` drops), must stay within 1e-8.  That sum bounds the
    deviation of the whole circuit, so no register-wide unitary is built.

    The output ``global_phase`` is the input phase plus the decompositions'
    and the local phases, plus π for each 2π wrap of an RZ angle that
    ``_merge_rz`` applies while merging or dropping RZ gates: RZ(θ − 2π) =
    −RZ(θ), so dropping RZ(2π) adds π.  The native circuit's unitary then
    equals the input's exactly, not merely up to phase."""
    lowered: dict = {}
    native: list[Gate] = []
    phase, dev = c.global_phase, 0.0
    source: list[Gate] = []
    for g in c.gates:
        if len(g.qubits) > len(_PLACEHOLDERS):
            qsd = decompose_multiqubit(g.matrix, g.qubits)
            phase += qsd.global_phase
            source.extend(qsd.gates)
        else:
            source.append(g)
    for g in source:
        key = (g.kind, g.theta, None if g.matrix is None else g.matrix.tobytes(),
               len(g.qubits))
        if key not in lowered:
            lowered[key] = _checked_lowering(g)
        gates, local_phase, local_dev = lowered[key]
        native.extend(_relabel(gates, g.qubits))
        phase += local_phase
        dev += local_dev
    native, wraps, dropped = _merge_rz(native)
    if dev + dropped / 2 > 1e-8:
        raise AssertionError("transpile produced a non-equivalent circuit")
    return Circuit(c.register, native, _wrap_angle(phase + np.pi * wraps))


_PLACEHOLDERS = ("q0", "q1")


def _relabel(gates, wires) -> list[Gate]:
    """Gates on ``_PLACEHOLDERS`` moved onto the str labels ``wires``
    (placeholder i onto wires[i]), each with its kind, angle and payload,
    built without repeating the checks that ``Gate`` ran on them."""
    wire = dict(zip(_PLACEHOLDERS, wires))
    out = [object.__new__(Gate) for _ in gates]
    for g, s in zip(out, gates):
        vars(g).update(vars(s), qubits=tuple(map(wire.__getitem__, s.qubits)))
    return out


def _checked_lowering(g: Gate):
    """(native gates on ``_PLACEHOLDERS``, phase, deviation) for one source
    gate: its lowering u_native with g.unitary() = e^{i phase} u_native up to
    an operator-norm deviation ``deviation``.  A two-qubit payload's u_native
    is the unitary ``_two_qubit_lowering`` verified it with, not built again."""
    local = replace(g, qubits=_PLACEHOLDERS[:len(g.qubits)])
    if g.kind in NATIVE_KINDS:
        return [local], 0.0, 0.0
    if g.kind == "UNITARY" and len(g.qubits) == 2:
        gates, got = _two_qubit_lowering(g.matrix, local.qubits)
    else:
        gates = _lower(local)
        got = unitary_of_circuit(Circuit(local.qubits, gates))
    target = g.unitary()
    _, phase = equivalent_up_to_global_phase(target, got)
    return gates, phase, float(np.linalg.norm(target - np.exp(1j * phase) * got, 2))


def _lower(g: Gate) -> list[Gate]:
    """The native gates of g; a two-qubit payload's come verified."""
    if g.kind in NATIVE_KINDS:
        return [g]
    if g.kind == "CNOT":
        return _cnot_native(*g.qubits)
    if len(g.qubits) == 1:  # H or a one-qubit UNITARY
        return _euler_native(g.unitary(), g.qubits[0])
    return _two_qubit_lowering(g.matrix, g.qubits)[0]


def _merge_rz(gates: list[Gate]):
    """Merge adjacent RZ on the same qubit and drop angle-zero RZ.

    Returns (gates, wraps, dropped): ``wraps`` counts the multiples of 2π
    taken off the angles of merged or dropped RZ, each of which flips the
    sign of the unitary, and ``dropped`` sums the |angle| of the dropped RZ."""
    out: list[Gate] = []
    wraps, dropped = 0, 0.0
    for g in gates:
        if g.kind == "RZ" and out and out[-1].kind == "RZ" and out[-1].qubits == g.qubits:
            total = out[-1].theta + g.theta
            angle = _wrap_angle(total)
            wraps += round((total - angle) / (2 * np.pi))
            out.pop()
            if abs(angle) > 1e-12:
                out.append(Gate("RZ", g.qubits, theta=angle))
            else:
                dropped += abs(angle)
        elif g.kind == "RZ" and abs(_wrap_angle(g.theta)) < 1e-12:
            angle = _wrap_angle(g.theta)
            wraps += round((g.theta - angle) / (2 * np.pi))
            dropped += abs(angle)
        else:
            out.append(g)
    return out, wraps, dropped


# --------------------------------------------------------------------------
# Multi-qubit unitary pre-decomposition (cosine-sine / quantum Shannon route).
# --------------------------------------------------------------------------

def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _uc_rotation(kind: str, angles, target: str, controls: tuple[str, ...]) -> list[Gate]:
    """Uniformly-controlled RY/RZ: rotation on `target`, one angle per control
    basis state (controls[0] = MSB of the state index).  Exact Gray-code form."""
    k = len(controls)
    if k == 0:
        mat = ry_matrix(angles[0]) if kind == "RY" else rz_matrix(angles[0])
        return [Gate("UNITARY", (target,), matrix=mat)]
    N = 2**k
    angles = np.asarray(angles, dtype=float)
    M = np.array(
        [[(-1) ** bin(_gray(j) & i).count("1") for i in range(N)] for j in range(N)]
    )
    primed = (M @ angles) / N
    gates: list[Gate] = []
    for j in range(N):
        if kind == "RY":
            gates.append(Gate("UNITARY", (target,), matrix=ry_matrix(primed[j])))
        else:
            gates.append(Gate("RZ", (target,), theta=float(primed[j])))
        flip = _gray(j) ^ _gray((j + 1) % N)
        bit = flip.bit_length() - 1  # position from LSB
        gates.append(Gate("CNOT", (controls[k - 1 - bit], target)))
    return gates


def _demultiplex(A: np.ndarray, B: np.ndarray, msb: str, rest: tuple[str, ...]):
    """A ⊕ B (on msb=0 / msb=1) = (I⊗V) (D ⊕ D†) (I⊗W); returns gate list."""
    from scipy.linalg import schur

    M = A @ B.conj().T
    T, V = schur(M, output="complex")
    d2 = np.diag(T)
    phis = np.angle(d2) / 2
    D = np.diag(np.exp(1j * phis))
    W = D @ V.conj().T @ B
    gates = _unitary_gates(W, rest)
    gates += _uc_rotation("RZ", -2 * phis, msb, rest)
    gates += _unitary_gates(V, rest)
    return gates


def _unitary_gates(u: np.ndarray, labels: tuple[str, ...]) -> list[Gate]:
    if len(labels) <= 2:
        return [Gate("UNITARY", labels, matrix=u)]
    return list(_qsd(u, labels))


def _qsd(u: np.ndarray, labels: tuple[str, ...]) -> list[Gate]:
    # SciPy is imported here, not at module load: only unitaries on three or
    # more qubits (the two-qubit model's step) reach the QSD.
    from scipy.linalg import cossin

    d = u.shape[0]
    half = d // 2
    msb, rest = labels[0], labels[1:]
    (l1, l2), thetas, (r1h, r2h) = cossin(u, p=half, q=half, separate=True)
    gates = _demultiplex(r1h, r2h, msb, rest)
    gates += _uc_rotation("RY", 2 * thetas, msb, rest)
    gates += _demultiplex(l1, l2, msb, rest)
    return gates


def decompose_multiqubit(u: np.ndarray, labels) -> Circuit:
    """Decompose an n-qubit (3 <= n <= 8) unitary into CNOTs, 1-qubit gates
    and two-qubit UNITARY payloads; the result is transpile-ready and exact."""
    labels = tuple(str(x) for x in labels)
    u = np.asarray(u, dtype=complex)
    if 2 ** len(labels) != u.shape[0]:
        raise ValueError("label count does not match matrix size")
    if len(labels) > 8:
        # The result is verified with unitary_of_circuit: refuse before the QSD.
        raise ValueError("decompose_multiqubit supports at most 8 qubits")
    gates = _qsd(u, labels)
    out = Circuit(QubitRegister(labels), gates, 0.0)
    got = unitary_of_circuit(out)
    ok, phase = equivalent_up_to_global_phase(u, got, tol=1e-8)
    if not ok:
        raise AssertionError("multi-qubit decomposition failed to verify")
    return replace(out, global_phase=_wrap_angle(phase))


# --------------------------------------------------------------------------
# Reference native sequences, generated by this transpiler and verified in the
# test suite: Bell preparation (one ECR, global phase set to pi) and the
# collision unitary at angle pi/4 (two ECR).
# --------------------------------------------------------------------------

def bell_prep_circuit(labels=("A", "S")) -> Circuit:
    reg = QubitRegister(labels)
    return Circuit(reg, [Gate("H", (labels[0],)), Gate("CNOT", labels)])


def reference_bell_circuit() -> Circuit:
    """Native Bell-preparation sequence whose unitary is e^{i pi} times the
    H-then-CNOT preparation (the documented global phase is pi)."""
    t = transpile(bell_prep_circuit())
    return replace(t, global_phase=_wrap_angle(t.global_phase + np.pi))


def reference_collision_circuit(g_dt: float = np.pi / 4) -> Circuit:
    """Native sequence for the collision unitary at angle g_dt (two ECR)."""
    from .collision import collision_unitary

    reg = QubitRegister(("S", "E"))
    c = Circuit(reg, [Gate("UNITARY", ("S", "E"), matrix=collision_unitary(g_dt))])
    return transpile(c)

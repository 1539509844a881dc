"""Builders and evolvers for the four collision dynamics, plus the
continuum-limit checks.

Models (registers use the global MSB-first label order):

* ``single_qubit_model``: ancilla A, system S, environment E; |Φ+>_{AS} ⊗ |0>_E;
  one collision applies the exchange unitary on (S, E).
* ``two_qubit_model``: A, S1, S2, E; (|00>+|11>)_{A S1}/√2 ⊗ |0>_{S2} ⊗ |0>_E;
  one collision applies exp(i H g_dt) with the double-exchange H on (S1,S2,E).
* ``toy_model`` / ``swap_model``: A1, A2, S1, S2, E1, E2; Bell(A1,S1) ⊗
  Bell(A2,S2) ⊗ |00>_E; step 1 applies the pair unitary on (E1,S1) and
  (E2,S2), step 2 applies its adjoint (at most two steps).

Each model carries its dynamics: ``CollisionModel.steps`` holds the distinct
steps (one for SingleQubit and TwoQubitExchange, the step and its adjoint for
Toy/Swap) as one ``UNITARY`` gate per step operation, and ``max_steps`` the
step limit (2 for Toy/Swap, else none).  One evolution path serves ideal and
noisy runs: ``evolve_series`` makes one pass over the collisions (the
collision-model picture of Ciccarello et al., Phys. Rep. 954 (2022)), and
``evolve(model, n)`` is its record n.  Each distinct step runs through the
circuit channel of ``noisytomo``, with ``noise=None`` for the ideal case, on
one running object: the stack of all inputs |i><j| on the system, the
environment in |0...0>.  Record n reads the reduced system channel Λ_n
off the stack and applies it to the prepared system + ancilla state,
ρ_SA(n) = (Λ_n ⊗ id_A)(ρ_SA(0)), all N+1 records at once.  Noisy runs
prepare that state with the transpiled preparation gates and transpile each
distinct step once, on its system + environment qubits, decomposing payloads
on three or more qubits first.

Tensor-order convention for the toy pair unitary: the matrix acts on (E, S)
with the ENVIRONMENT as the first (most significant) factor.  This is the
reading under which the ideal post-step-1 system state is pure, making the
ideal memory witness strict; it is pinned by a brute-force statevector oracle
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import circuit as circ
from . import noisytomo
from .channel import Channel, TransferMap, _pauli_transfer, _superop_at
from .qmat import DensityMatrix, QubitRegister, _projector, ket, partial_trace

__all__ = [
    "CollisionModel",
    "EvolutionRecord",
    "collision_unitary",
    "two_qubit_unitary",
    "toy_unitary",
    "swap_unitary",
    "single_qubit_model",
    "two_qubit_model",
    "toy_model",
    "swap_model",
    "evolve",
    "evolve_series",
    "continuum_transfer",
    "lindblad_rate",
    "bloch_image_samples",
    "bloch_image_series",
]


def collision_unitary(g_dt: float) -> np.ndarray:
    """Exchange unitary on (S, E): identity on |00>,|11>, rotation on |01>,|10>."""
    c, s = np.cos(g_dt), np.sin(g_dt)
    return np.array(
        [[1, 0, 0, 0], [0, c, -1j * s, 0], [0, -1j * s, c, 0], [0, 0, 0, 1]],
        dtype=complex,
    )


_SM = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_SP = _SM.conj().T


def _double_exchange_hamiltonian() -> np.ndarray:
    """Exchange couplings on (S1,S2) and (S2,E), label order (S1, S2, E)."""
    i2 = np.eye(2)
    h = (
        np.kron(np.kron(_SM, _SP), i2)
        + np.kron(np.kron(_SP, _SM), i2)
        + np.kron(i2, np.kron(_SM, _SP))
        + np.kron(i2, np.kron(_SP, _SM))
    )
    return h


def two_qubit_unitary(g_dt: float) -> np.ndarray:
    """exp(i H g_dt) with the double-exchange Hamiltonian, order (S1, S2, E)."""
    h = _double_exchange_hamiltonian()
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w * g_dt)) @ v.conj().T


def toy_unitary() -> np.ndarray:
    """The pair unitary of the toy model, acting on (E, S) with E first."""
    return np.array(
        [[0, 0, 0, 1j], [1, 0, 0, 0], [0, 0, -1j, 0], [0, 1, 0, 0]], dtype=complex
    )


def swap_unitary() -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


@dataclass(frozen=True, eq=False)
class CollisionModel:
    """A model and its dynamics: collision n applies the step
    ``steps[min(n, len(steps)) - 1]``, one ``UNITARY`` gate per step
    operation, and at most ``max_steps`` collisions exist (None: no limit).
    ``g_dt`` is the collision strength of the models built from one (None
    for the toy and swap models, whose pair unitaries are fixed)."""

    kind: str  # SingleQubit | TwoQubitExchange | Swap | Toy
    g_dt: float | None
    register: QubitRegister
    initial_state: DensityMatrix = field(repr=False)
    system_labels: tuple[str, ...]
    ancilla_labels: tuple[str, ...]
    env_labels: tuple[str, ...]
    steps: tuple[tuple[circ.Gate, ...], ...] = field(repr=False)
    max_steps: int | None = None

    def check_collisions(self, n: int) -> None:
        """Reject a collision count outside 0..max_steps."""
        if n < 0:
            raise ValueError("collision count must be nonnegative")
        if self.max_steps is not None and n > self.max_steps:
            raise ValueError(f"{self.kind} model supports at most {self.max_steps} steps")


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    n: int
    joint_state: DensityMatrix  # on system + ancilla: reduced_channel ⊗ id_A of the prep
    reduced_channel: Channel  # system map for n collisions, as its superoperator


def single_qubit_model(g_dt: float = np.pi / 4) -> CollisionModel:
    reg = QubitRegister(("A", "S", "E"))
    psi = np.kron((ket("00") + ket("11")) / np.sqrt(2), ket("0"))
    rho = _projector(psi, reg)
    step = (circ.Gate("UNITARY", ("S", "E"), matrix=collision_unitary(g_dt)),)
    return CollisionModel("SingleQubit", float(g_dt), reg, rho,
                          ("S",), ("A",), ("E",), (step,))


def two_qubit_model(g_dt: float = np.pi / 4) -> CollisionModel:
    reg = QubitRegister(("A", "S1", "S2", "E"))
    # Bell pair on (A, S1); S2 and E start in |0>.
    psi = np.zeros(16, dtype=complex)
    psi[int("0000", 2)] = 1 / np.sqrt(2)
    psi[int("1100", 2)] = 1 / np.sqrt(2)
    rho = _projector(psi, reg)
    step = (circ.Gate("UNITARY", ("S1", "S2", "E"), matrix=two_qubit_unitary(g_dt)),)
    return CollisionModel("TwoQubitExchange", float(g_dt), reg, rho,
                          ("S1", "S2"), ("A",), ("E",), (step,))


def _pairwise_model(kind: str, u: np.ndarray) -> CollisionModel:
    reg = QubitRegister(("A1", "A2", "S1", "S2", "E1", "E2"))
    psi = np.zeros(64, dtype=complex)
    for a1 in (0, 1):
        for a2 in (0, 1):
            idx = (a1 << 5) | (a2 << 4) | (a1 << 3) | (a2 << 2)
            psi[idx] = 0.5
    rho = _projector(psi, reg)
    steps = tuple((circ.Gate("UNITARY", ("E1", "S1"), matrix=v),
                   circ.Gate("UNITARY", ("E2", "S2"), matrix=v)) for v in (u, u.conj().T))
    return CollisionModel(kind, None, reg, rho,
                          ("S1", "S2"), ("A1", "A2"), ("E1", "E2"), steps, max_steps=2)


def toy_model() -> CollisionModel:
    return _pairwise_model("Toy", toy_unitary())


def swap_model() -> CollisionModel:
    return _pairwise_model("Swap", swap_unitary())


def _prep_gates(model: CollisionModel) -> list[circ.Gate]:
    pairs = list(zip(model.ancilla_labels, model.system_labels))
    gates = [circ.Gate("H", (a,)) for a, _ in pairs]
    gates += [circ.Gate("CNOT", (a, s)) for a, s in pairs]
    return gates


def _collision_gates(model: CollisionModel, n: int) -> list[circ.Gate]:
    """The gates of collisions 1..n."""
    steps = model.steps
    return [g for m in range(1, n + 1) for g in steps[min(m, len(steps)) - 1]]


def _native(c: circ.Circuit) -> circ.Circuit:
    """Transpile, first decomposing payloads on more than two qubits."""
    gates: list[circ.Gate] = []
    for g in c.gates:
        if g.kind == "UNITARY" and len(g.qubits) > 2:
            gates.extend(circ.decompose_multiqubit(g.matrix, g.qubits).gates)
        else:
            gates.append(g)
    return circ.transpile(c.with_gates(gates))


def build_circuit(model: CollisionModel, n: int, *, include_prep: bool = True,
                  native: bool = False) -> circ.Circuit:
    """The preparation + n-collision circuit for a model."""
    model.check_collisions(n)
    gates = _prep_gates(model) if include_prep else []
    c = circ.Circuit(model.register, gates + _collision_gates(model, n))
    return _native(c) if native else c


def evolve_series(model: CollisionModel, n_max: int,
                  noise: noisytomo.NoiseConfig | None = None) -> list[EvolutionRecord]:
    """Records for n = 0..n_max collisions from one pass over the collisions.

    The one running object is the stack of all inputs |i><j| on the system
    with the environment in |0...0>, to which each distinct step's fused
    superoperator blocks are applied; the N+1 stacks are kept.  One partial
    trace reads every reduced channel Λ_n off them, and one contraction
    applies them all to the prepared system + ancilla state (the reduced
    ``model.initial_state`` for ``noise=None``, else the transpiled prep
    gates run from |0...0>), each record bit for bit as if done alone.
    Noisy runs transpile each distinct step once.

    This equals evolving the whole register and tracing out the environment
    because no step acts on an ancilla and the prep on no environment qubit
    (their circuits' registers hold no such label), and the noise model has
    no idle or crosstalk noise, so an untouched qubit is left as it is."""
    model.check_collisions(n_max)
    se = QubitRegister(model.system_labels + model.env_labels)
    steps = [circ.Circuit(se, gates) for gates in model.steps[:n_max]]
    prepared = partial_trace(model.initial_state, model.ancilla_labels + model.system_labels)
    if noise is not None:
        prep = _native(circ.Circuit(prepared.register, _prep_gates(model)))
        prepared = noisytomo.apply_noisy_circuit(prep, None, noise)
        steps = [_native(c) for c in steps]
    blocks = [noisytomo._fused_superops(c, noise) for c in steps]
    pos, stack = noisytomo._channel_inputs(se, model.system_labels)
    images = np.empty((n_max + 1,) + stack.shape, complex)
    images[0] = stack
    for n in range(1, n_max + 1):
        images[n] = noisytomo._apply_blocks(blocks[min(n, len(steps)) - 1], se, images[n - 1])
    superops = noisytomo._superop_of_images(images, pos, se.n)
    reg = prepared.register
    joints = _superop_at(superops, prepared.mat, reg.indices(model.system_labels), reg.n)
    return [EvolutionRecord(n, DensityMatrix(reg, joint, validate=False), Channel(superop))
            for n, (joint, superop) in enumerate(zip(joints, superops))]


def evolve(model: CollisionModel, n: int,
           noise: noisytomo.NoiseConfig | None = None) -> EvolutionRecord:
    """Apply n collisions, trace out the environment, and return the joint
    system-ancilla state plus the reduced system channel: record n of
    ``evolve_series``."""
    return evolve_series(model, n, noise)[n]


def continuum_transfer(t: float) -> TransferMap:
    c, s = np.cos(t), np.sin(t)
    return TransferMap(
        [[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [s * s, 0, 0, c * c]]
    )


def lindblad_rate(t: float, h: float = 1e-6) -> float:
    """The decay rate gamma(t) read off the generator G = dE/dt o E^{-1}.

    The rate is extracted from the transverse-relaxation coefficient
    (gamma = -G_xx) and cross-checked against the population entries
    (G_z0 = 2 gamma, G_zz = -2 gamma); it equals tan(t)."""
    if abs(np.cos(t)) <= 1e-6:
        raise ValueError("t too close to a singularity of the generator")
    e_plus = continuum_transfer(t + h).M
    e_minus = continuum_transfer(t - h).M
    deriv = (e_plus - e_minus) / (2 * h)
    g = deriv @ np.linalg.inv(continuum_transfer(t).M)
    gamma = -g[1, 1]
    if abs(g[3, 0] - 2 * gamma) > 1e-4 or abs(g[3, 3] + 2 * gamma) > 1e-4:
        raise ValueError("generator does not match the amplitude-damping form")
    return float(gamma)


def _fibonacci_sphere(mesh: int) -> np.ndarray:
    i = np.arange(mesh) + 0.5
    phi = np.arccos(1 - 2 * i / mesh)
    theta = np.pi * (1 + np.sqrt(5.0)) * i
    return np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def bloch_image_samples(record: EvolutionRecord, mesh: int = 100) -> np.ndarray:
    """Image of a uniform Bloch-sphere mesh under the reduced channel, one
    Bloch vector per row: ``bloch_image_series`` of the one record."""
    return bloch_image_series([record], mesh)[0]


def bloch_image_series(records, mesh: int = 100) -> np.ndarray:
    """Images (len(records), mesh, 3) of one uniform Bloch-sphere mesh under
    each record's reduced channel: the affine map r ↦ t + A r read off its
    Pauli transfer matrix (t the first column, A the 3x3 block; qubits
    only), all from one transfer product over the records."""
    superops = np.stack([rec.reduced_channel.superop for rec in records])
    if superops.shape[1:] != (4, 4):
        raise ValueError("qubit transfer map required")
    m = _pauli_transfer(superops)
    return m[:, None, 1:, 0] + _fibonacci_sphere(mesh) @ m[:, 1:, 1:].swapaxes(1, 2)

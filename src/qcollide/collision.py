"""Builders and evolvers for the four collision dynamics, plus the
continuum-limit checks.

A ``CollisionModel`` is declared by its labels and steps.  Each ancilla
starts in |Φ+> with the system qubit it is paired with (ancilla i with system
qubit i) and every other qubit in |0>; the register holds the ancillas, the
system, then the environment (the global MSB-first label order):

* ``single_qubit_model``: A, S, E; one collision applies the exchange unitary
  on (S, E).
* ``two_qubit_model``: A, S1, S2, E (S2 unpaired); one collision applies
  exp(i H g_dt) with the double-exchange H on (S1, S2, E).
* ``toy_model`` / ``swap_model``: A1, A2, S1, S2, E1, E2; step 1 applies the
  pair unitary on (E1, S1) and (E2, S2), step 2 its adjoint (at most two).

``CollisionModel.steps`` holds the distinct steps as one ``UNITARY`` gate per
step operation, and ``step(n)`` is the one schedule that ``build_circuit`` and
``evolve_series`` read.  One evolution path serves ideal and noisy runs:
``evolve_series`` makes one pass over the collisions (the collision-model
picture of Ciccarello et al., Phys. Rep. 954 (2022)), and ``evolve(model,
n)`` is its record n.  One call of the circuit-channel read-off,
``noisytomo._channel_series`` (``noise=None`` for the ideal case), reads
every reduced system channel Λ_n off the system's |i><j| input stack, the
environment in |0...0>, run through the collisions' steps.  Λ_n is applied
to the prepared system + ancilla state, ρ_SA(n) = (Λ_n ⊗ id_A)(ρ_SA(0)), all
N+1 records at once.  Noisy runs prepare that state with the noisy
``prep_gates``, and the noisy circuit channel transpiles the preparation and
each distinct step (on its system + environment qubits) once.

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
from .channel import Channel, _pauli_transfer, _superop_at
from .qmat import DensityMatrix, QubitRegister, _projector, partial_trace

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
    """A model as its labels and steps.  Ancilla i is paired with system
    qubit i (``zip`` of the labels).  Derived at construction: ``register``
    (the ancillas, the system, then the environment; a label declared in two
    roles is rejected), ``initial_state`` (|Φ+> on each pair, |0> on every
    other qubit) and ``prep_gates`` (H on each paired ancilla, then a CNOT
    onto its system qubit), which prepares that state from |0...0>.

    Collision n applies ``step(n)`` (one ``UNITARY`` gate per step
    operation), at most ``max_steps`` collisions exist (None: no limit), and
    ``g_dt`` is the collision strength (None for the toy and swap models,
    whose pair unitaries are fixed)."""

    kind: str  # SingleQubit | TwoQubitExchange | Swap | Toy
    g_dt: float | None
    ancilla_labels: tuple[str, ...]
    system_labels: tuple[str, ...]
    env_labels: tuple[str, ...]
    steps: tuple[tuple[circ.Gate, ...], ...] = field(repr=False)
    max_steps: int | None = None
    register: QubitRegister = field(init=False, repr=False)
    initial_state: DensityMatrix = field(init=False, repr=False)
    prep_gates: tuple[circ.Gate, ...] = field(init=False, repr=False)

    def __post_init__(self):
        reg = QubitRegister(self.ancilla_labels + self.system_labels + self.env_labels)
        pairs = list(zip(self.ancilla_labels, self.system_labels))
        # |Φ+> on each pair: the basis states where both qubits of every pair agree.
        bit = {q: 1 << (reg.n - 1 - i) for i, q in enumerate(reg.labels)}
        index = [0]
        for a, s in pairs:
            index += [i | bit[a] | bit[s] for i in index]
        psi = np.zeros(reg.dim, dtype=complex)
        psi[index] = 1 / np.sqrt(2 ** len(pairs))
        prep = [circ.Gate("H", (a,)) for a, _ in pairs] + [circ.Gate("CNOT", p) for p in pairs]
        object.__setattr__(self, "register", reg)
        object.__setattr__(self, "initial_state", _projector(psi, reg))
        object.__setattr__(self, "prep_gates", tuple(prep))

    def step(self, n: int) -> tuple[circ.Gate, ...]:
        """The gates of collision n >= 1; the last step repeats."""
        return self.steps[min(n, len(self.steps)) - 1]

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
    step = (circ.Gate("UNITARY", ("S", "E"), matrix=collision_unitary(g_dt)),)
    return CollisionModel("SingleQubit", float(g_dt), ("A",), ("S",), ("E",), (step,))


def two_qubit_model(g_dt: float = np.pi / 4) -> CollisionModel:
    step = (circ.Gate("UNITARY", ("S1", "S2", "E"), matrix=two_qubit_unitary(g_dt)),)
    return CollisionModel("TwoQubitExchange", float(g_dt), ("A",), ("S1", "S2"), ("E",), (step,))


def _pairwise_model(kind: str, u: np.ndarray) -> CollisionModel:
    steps = tuple((circ.Gate("UNITARY", ("E1", "S1"), matrix=v),
                   circ.Gate("UNITARY", ("E2", "S2"), matrix=v)) for v in (u, u.conj().T))
    return CollisionModel(kind, None, ("A1", "A2"), ("S1", "S2"), ("E1", "E2"), steps,
                          max_steps=2)


def toy_model() -> CollisionModel:
    return _pairwise_model("Toy", toy_unitary())


def swap_model() -> CollisionModel:
    return _pairwise_model("Swap", swap_unitary())


def build_circuit(model: CollisionModel, n: int, *, include_prep: bool = True,
                  native: bool = False) -> circ.Circuit:
    """The preparation + n-collision circuit for a model."""
    model.check_collisions(n)
    gates = list(model.prep_gates) if include_prep else []
    gates += [g for m in range(1, n + 1) for g in model.step(m)]
    c = circ.Circuit(model.register, gates)
    return circ.transpile(c) if native else c


def evolve_series(model: CollisionModel, n_max: int,
                  noise: noisytomo.NoiseConfig | None = None) -> list[EvolutionRecord]:
    """Records for n = 0..n_max collisions from one pass over the collisions.

    ``noisytomo._channel_series`` reads every reduced channel Λ_n off one
    pass of the stack of all inputs |i><j| on the system, the environment in
    |0...0>, through the per-collision steps, and one contraction applies
    them all to the prepared system + ancilla state (the reduced
    ``model.initial_state`` for ``noise=None``, else ``model.prep_gates`` run
    noisily from |0...0>), each record bit for bit as if done alone.  Each
    distinct step is fused once, and transpiled once before that when noisy.

    This equals evolving the whole register and tracing out the environment
    because no step acts on an ancilla and the prep on no environment qubit
    (their circuits' registers hold no such label), and the noise model has
    no idle or crosstalk noise, so an untouched qubit is left as it is."""
    model.check_collisions(n_max)
    se = QubitRegister(model.system_labels + model.env_labels)
    steps = {id(gates): circ.Circuit(se, gates) for gates in model.steps}
    collisions = [steps[id(model.step(n))] for n in range(1, n_max + 1)]
    prepared = partial_trace(model.initial_state, model.ancilla_labels + model.system_labels)
    if noise is not None:
        prep = circ.Circuit(prepared.register, model.prep_gates)
        prepared = noisytomo.apply_noisy_circuit(prep, None, noise)
    superops = noisytomo._channel_series(se, collisions, noise, model.system_labels)
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


def continuum_transfer(t: float) -> np.ndarray:
    """The continuum-limit Pauli transfer matrix at time t, read-only."""
    c, s = np.cos(t), np.sin(t)
    m = np.array([[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [s * s, 0, 0, c * c]], dtype=float)
    m.setflags(write=False)
    return m


def lindblad_rate(t: float, h: float = 1e-6) -> float:
    """The decay rate gamma(t) read off the generator G = dE/dt o E^{-1}.

    The rate is extracted from the transverse-relaxation coefficient
    (gamma = -G_xx) and cross-checked against the population entries
    (G_z0 = 2 gamma, G_zz = -2 gamma); it equals tan(t)."""
    if abs(np.cos(t)) <= 1e-6:
        raise ValueError("t too close to a singularity of the generator")
    e_plus = continuum_transfer(t + h)
    e_minus = continuum_transfer(t - h)
    deriv = (e_plus - e_minus) / (2 * h)
    g = deriv @ np.linalg.inv(continuum_transfer(t))
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

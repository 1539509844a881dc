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

One evolution path serves ideal and noisy runs: each collision step becomes
one ``UNITARY`` gate per step operation, and the circuit runs through the
circuit channel of ``noisytomo`` with ``noise=None`` for the ideal case.  Only
two things depend on the noise model.  Ideal runs start from
``model.initial_state``; noisy runs start from |0...0> and run the
preparation gates.  Noisy circuits are transpiled to native gates, with
payloads on three or more qubits decomposed first.  The reduced channel is
``noisytomo.noisy_channel_of_circuit`` on the system + environment circuit,
keeping the system qubits.

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
from .channel import KrausChannel, TransferMap, apply
from .qmat import (
    DensityMatrix,
    QubitRegister,
    bloch_to_state,
    ket,
    partial_trace,
    state_to_bloch,
)

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
    "continuum_transfer",
    "lindblad_rate",
    "bloch_image_samples",
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
    kind: str  # SingleQubit | TwoQubitExchange | Swap | Toy
    g_dt: float
    register: QubitRegister
    initial_state: DensityMatrix = field(repr=False)
    system_labels: tuple[str, ...]
    ancilla_labels: tuple[str, ...]
    env_labels: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class EvolutionRecord:
    n: int
    joint_state: DensityMatrix  # on system + ancilla, environment traced out
    reduced_channel: KrausChannel  # map on the system for n collisions


def single_qubit_model(g_dt: float = np.pi / 4) -> CollisionModel:
    reg = QubitRegister(("A", "S", "E"))
    psi = np.kron((ket("00") + ket("11")) / np.sqrt(2), ket("0"))
    rho = DensityMatrix(reg, np.outer(psi, psi.conj()))
    return CollisionModel("SingleQubit", float(g_dt), reg, rho,
                          ("S",), ("A",), ("E",))


def two_qubit_model(g_dt: float = np.pi / 4) -> CollisionModel:
    reg = QubitRegister(("A", "S1", "S2", "E"))
    # Bell pair on (A, S1); S2 and E start in |0>.
    psi = np.zeros(16, dtype=complex)
    psi[int("0000", 2)] = 1 / np.sqrt(2)
    psi[int("1100", 2)] = 1 / np.sqrt(2)
    rho = DensityMatrix(reg, np.outer(psi, psi.conj()))
    return CollisionModel("TwoQubitExchange", float(g_dt), reg, rho,
                          ("S1", "S2"), ("A",), ("E",))


def _pairwise_model(kind: str) -> CollisionModel:
    reg = QubitRegister(("A1", "A2", "S1", "S2", "E1", "E2"))
    psi = np.zeros(64, dtype=complex)
    for a1 in (0, 1):
        for a2 in (0, 1):
            idx = (a1 << 5) | (a2 << 4) | (a1 << 3) | (a2 << 2)
            psi[idx] = 0.5
    rho = DensityMatrix(reg, np.outer(psi, psi.conj()))
    return CollisionModel(kind, np.pi / 4, reg, rho,
                          ("S1", "S2"), ("A1", "A2"), ("E1", "E2"))


def toy_model() -> CollisionModel:
    return _pairwise_model("Toy")


def swap_model() -> CollisionModel:
    return _pairwise_model("Swap")


def _step_ops(model: CollisionModel, step_index: int):
    """(matrix, labels) pairs for collision number step_index (1-based)."""
    if model.kind == "SingleQubit":
        return [(collision_unitary(model.g_dt), ("S", "E"))]
    if model.kind == "TwoQubitExchange":
        return [(two_qubit_unitary(model.g_dt), ("S1", "S2", "E"))]
    if model.kind in ("Toy", "Swap"):
        u = toy_unitary() if model.kind == "Toy" else swap_unitary()
        if step_index == 2:
            u = u.conj().T
        return [(u, ("E1", "S1")), (u, ("E2", "S2"))]
    raise ValueError(f"unknown model kind {model.kind!r}")


def _max_steps(model: CollisionModel) -> int | None:
    return 2 if model.kind in ("Toy", "Swap") else None


def _prep_gates(model: CollisionModel) -> list[circ.Gate]:
    pairs = list(zip(model.ancilla_labels, model.system_labels))
    gates = [circ.Gate("H", (a,)) for a, _ in pairs]
    gates += [circ.Gate("CNOT", (a, s)) for a, s in pairs]
    return gates


def _collision_gates(model: CollisionModel, n: int) -> list[circ.Gate]:
    """One UNITARY gate per step operation, for collisions 1..n."""
    return [circ.Gate("UNITARY", labels, matrix=u)
            for step in range(1, n + 1) for u, labels in _step_ops(model, step)]


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
    _check_steps(model, n)
    gates = _prep_gates(model) if include_prep else []
    c = circ.Circuit(model.register, gates + _collision_gates(model, n))
    return _native(c) if native else c


def _check_steps(model: CollisionModel, n: int):
    if n < 0:
        raise ValueError("collision count must be nonnegative")
    mx = _max_steps(model)
    if mx is not None and n > mx:
        raise ValueError(f"{model.kind} model supports at most {mx} steps")


def _reduced_channel(model: CollisionModel, n: int,
                     noise: noisytomo.NoiseConfig | None) -> KrausChannel:
    """Channel on the system for n collisions, environment prepared in |0...0>."""
    reg = QubitRegister(model.system_labels + model.env_labels)
    c = circ.Circuit(reg, _collision_gates(model, n))
    if noise is not None:
        c = _native(c)
    return noisytomo.noisy_channel_of_circuit(c, noise, keep=model.system_labels)


def evolve(model: CollisionModel, n: int,
           noise: noisytomo.NoiseConfig | None = None) -> EvolutionRecord:
    """Apply n collisions, trace out the environment, and return the joint
    system-ancilla state plus the reduced system channel.

    Ideal runs (``noise=None``) start from ``model.initial_state``; noisy runs
    start from |0...0>, prepare it with the transpiled prep gates, and use the
    native circuit the noise model needs."""
    _check_steps(model, n)
    noisy = noise is not None
    c = build_circuit(model, n, include_prep=noisy, native=noisy)
    start = None if noisy else model.initial_state
    full = noisytomo.apply_noisy_circuit(c, start, noise)
    joint = partial_trace(full, model.ancilla_labels + model.system_labels)
    return EvolutionRecord(n, joint, _reduced_channel(model, n, noise))


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


def bloch_image_samples(record: EvolutionRecord, mesh: int = 100) -> list[np.ndarray]:
    """Image of a uniform Bloch-sphere mesh under the reduced channel."""
    ch = record.reduced_channel
    if ch.in_dim != 2:
        raise ValueError("qubit channel required")
    return [state_to_bloch(apply(ch, bloch_to_state(r))) for r in _fibonacci_sphere(mesh)]

import numpy as np
import pytest

from conftest import random_unitary
from qcollide.circuit import (
    Circuit,
    ECR_MATRIX,
    Gate,
    NATIVE_KINDS,
    bell_prep_circuit,
    circuit_from_text,
    circuit_to_text,
    decompose_multiqubit,
    equivalent_up_to_global_phase,
    gate_count,
    reference_bell_circuit,
    reference_collision_circuit,
    transpile,
    unitary_of_circuit,
)
from qcollide.collision import collision_unitary, two_qubit_unitary
from qcollide.qmat import ket


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", ("a", "b"))  # wrong arity
    with pytest.raises(ValueError):
        Gate("RZ", ("a",))  # missing angle
    with pytest.raises(ValueError):
        Gate("UNITARY", ("a",), matrix=np.ones((2, 2)))  # not unitary
    with pytest.raises(ValueError):
        Gate("FOO", ("a",))


def test_circuit_label_check():
    with pytest.raises(ValueError):
        Circuit(("a",), [Gate("H", ("b",))])


def test_unitary_of_circuit_examples():
    empty = Circuit(("a", "b"))
    assert np.allclose(unitary_of_circuit(empty), np.eye(4))
    bell = bell_prep_circuit(("a", "b"))
    psi = unitary_of_circuit(bell) @ ket("00")
    assert np.abs(psi - (ket("00") + ket("11")) / np.sqrt(2)).max() < 1e-12


def test_ecr_is_unitary_and_involutive_square():
    assert np.abs(ECR_MATRIX @ ECR_MATRIX.conj().T - np.eye(4)).max() < 1e-12


def test_equivalence_examples():
    u = collision_unitary(np.pi / 4)
    ok, phase = equivalent_up_to_global_phase(u, np.exp(1j * np.pi) * u)
    assert ok and abs(abs(phase) - np.pi) < 1e-9
    ok, _ = equivalent_up_to_global_phase(
        collision_unitary(np.pi / 4), collision_unitary(np.pi / 2)
    )
    assert not ok


def test_gate_count():
    assert gate_count(Circuit(("a",))) == {}
    counts = gate_count(reference_bell_circuit())
    assert counts["ECR"] == 1
    assert set(counts) <= {"RZ", "SX", "ECR", "X"}


def test_reference_bell_circuit_verifies():
    ref = reference_bell_circuit()
    target = unitary_of_circuit(bell_prep_circuit())
    ok, phase = equivalent_up_to_global_phase(unitary_of_circuit(ref), target)
    assert ok
    # the stored sequence carries a global phase of pi relative to H+CNOT
    assert abs(abs(phase) - np.pi) < 1e-9
    assert all(g.kind in NATIVE_KINDS for g in ref.gates)


def test_reference_collision_circuit_verifies():
    ref = reference_collision_circuit()
    target = collision_unitary(np.pi / 4)
    assert np.abs(unitary_of_circuit(ref) - target).max() < 1e-8
    assert gate_count(ref)["ECR"] <= 2


def test_perturbed_reference_fails():
    ref = reference_collision_circuit()
    gates = list(ref.gates)
    idx = next(i for i, g in enumerate(gates) if g.kind == "RZ")
    g = gates[idx]
    gates[idx] = Gate("RZ", g.qubits, theta=g.theta + 0.01)
    ok, _ = equivalent_up_to_global_phase(
        unitary_of_circuit(ref.with_gates(gates)), collision_unitary(np.pi / 4)
    )
    assert not ok


def test_transpile_single_qubit_gates(rng):
    for kind in ("H", "X", "SX"):
        c = Circuit(("a",), [Gate(kind, ("a",))])
        t = transpile(c)
        assert all(g.kind in NATIVE_KINDS for g in t.gates)
        assert np.abs(unitary_of_circuit(t) - unitary_of_circuit(c)).max() < 1e-9
    for _ in range(30):
        u = random_unitary(rng, 2)
        t = transpile(Circuit(("a",), [Gate("UNITARY", ("a",), matrix=u)]))
        assert np.abs(unitary_of_circuit(t) - u).max() < 1e-9


def test_transpile_cnot_uses_one_ecr():
    t = transpile(Circuit(("a", "b"), [Gate("CNOT", ("a", "b"))]))
    assert gate_count(t)["ECR"] == 1
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.abs(unitary_of_circuit(t) - cnot).max() < 1e-9


def test_transpile_collision_unitary_two_ecr():
    u = collision_unitary(np.pi / 4)
    t = transpile(Circuit(("s", "e"), [Gate("UNITARY", ("s", "e"), matrix=u)]))
    assert gate_count(t)["ECR"] <= 2
    assert np.abs(unitary_of_circuit(t) - u).max() < 1e-8


def test_transpile_random_two_qubit(rng):
    worst = 0.0
    for _ in range(50):
        u = random_unitary(rng, 4)
        t = transpile(Circuit(("a", "b"), [Gate("UNITARY", ("a", "b"), matrix=u)]))
        assert all(g.kind in NATIVE_KINDS for g in t.gates)
        assert gate_count(t).get("ECR", 0) <= 3
        worst = max(worst, float(np.abs(unitary_of_circuit(t) - u).max()))
    assert worst < 1e-8


def test_transpile_structured_two_qubit(rng):
    # product unitary: no ECR needed
    u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    t = transpile(Circuit(("a", "b"), [Gate("UNITARY", ("a", "b"), matrix=u)]))
    assert gate_count(t).get("ECR", 0) == 0
    assert np.abs(unitary_of_circuit(t) - u).max() < 1e-8
    # SWAP needs 3
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    t = transpile(Circuit(("a", "b"), [Gate("UNITARY", ("a", "b"), matrix=swap)]))
    assert gate_count(t)["ECR"] == 3
    assert np.abs(unitary_of_circuit(t) - swap).max() < 1e-8


@pytest.mark.parametrize("make_u, g_dt", [
    (collision_unitary, 1e-6), (collision_unitary, -1e-6), (collision_unitary, 1e-3),
    (collision_unitary, 0.001953125), (collision_unitary, np.pi / 2 + 1e-7),
    (collision_unitary, np.pi - 1e-6), (two_qubit_unitary, 1e-9),
])
def test_transpile_near_cnot_class_boundaries(make_u, g_dt):
    """Close to the identity or to a gate of fewer CNOTs the class test of the
    KAK misfires; the synthesis still verifies (these raised before)."""
    u = make_u(g_dt)
    labels = ("a", "b", "c")[: int(np.log2(u.shape[0]))]
    gate = Gate("UNITARY", labels, matrix=u)
    c = decompose_multiqubit(u, labels) if len(labels) > 2 else Circuit(labels, [gate])
    t = transpile(c)
    assert all(g.kind in NATIVE_KINDS for g in t.gates)
    assert np.abs(unitary_of_circuit(t) - u).max() < 1e-8


def test_transpile_rejects_large_unitary_payload(rng):
    u = random_unitary(rng, 8)
    c = Circuit(("a", "b", "c"), [Gate("UNITARY", ("a", "b", "c"), matrix=u)])
    with pytest.raises(ValueError):
        transpile(c)


def test_decompose_multiqubit(rng):
    for _ in range(3):
        u = random_unitary(rng, 8)
        c = decompose_multiqubit(u, ("a", "b", "c"))
        t = transpile(c)
        assert np.abs(unitary_of_circuit(t) - u).max() < 1e-8
    # the three-qubit collision unitary of the two-qubit model
    u8 = two_qubit_unitary(np.pi / 4)
    t = transpile(decompose_multiqubit(u8, ("s1", "s2", "e")))
    assert np.abs(unitary_of_circuit(t) - u8).max() < 1e-8
    counts = gate_count(t)
    assert 100 <= sum(counts.values()) <= 2000  # naive-route cost, reported


def test_serialization_round_trip(rng):
    u = random_unitary(rng, 4)
    c = Circuit(
        ("a", "b"),
        [
            Gate("H", ("a",)),
            Gate("RZ", ("b",), theta=0.37),
            Gate("CNOT", ("a", "b")),
            Gate("UNITARY", ("a", "b"), matrix=u),
        ],
        global_phase=1.25,
    )
    back = circuit_from_text(circuit_to_text(c))
    assert back.register.labels == c.register.labels
    assert back.global_phase == pytest.approx(1.25, abs=1e-12)
    assert np.abs(unitary_of_circuit(back) - unitary_of_circuit(c)).max() < 1e-10

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_unitary
from qcollide import circuit as circ
from qcollide import collision, noisytomo
from qcollide.channel import Channel, KrausChannel, _contract_at, embed_operator
from qcollide.circuit import (
    Circuit,
    ECR_MATRIX,
    Gate,
    NATIVE_KINDS,
    bell_prep_circuit,
    decompose_multiqubit,
    equivalent_up_to_global_phase,
    gate_count,
    reference_bell_circuit,
    reference_collision_circuit,
    transpile,
    unitary_of_circuit,
)
from qcollide.collision import collision_unitary, two_qubit_unitary
from qcollide.qmat import QubitRegister, ket


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("H", ("a", "b"))  # wrong arity
    with pytest.raises(ValueError):
        Gate("RZ", ("a",))  # missing angle
    with pytest.raises(ValueError):
        Gate("UNITARY", ("a",), matrix=np.ones((2, 2)))  # not unitary
    with pytest.raises(ValueError):
        Gate("FOO", ("a",))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Gate("H", ("a",), theta=1.0), id="angle-on-h"),
    pytest.param(lambda: Gate("ECR", ("a", "b"), theta=0.0), id="angle-on-ecr"),
    pytest.param(lambda: Gate("X", ("a",), matrix=np.ones((2, 2))), id="payload-on-x"),
    pytest.param(lambda: Gate("RZ", ("a",), theta=0.5, matrix=np.eye(2)), id="payload-on-rz"),
    pytest.param(lambda: Gate("UNITARY", ("a",), theta=0.5, matrix=np.eye(2)),
                 id="angle-on-unitary"),
    pytest.param(lambda: Gate("UNITARY", ("a",)), id="unitary-without-payload"),
    pytest.param(lambda: Gate("UNITARY", ("a",), matrix=np.eye(4)), id="payload-wrong-shape"),
])
def test_gate_takes_an_angle_on_rz_and_a_payload_on_unitary_alone(build):
    """An angle is required on RZ and refused elsewhere, and a payload is
    required on UNITARY and refused elsewhere: a stray value would build a
    gate that ``unitary`` ignores and ``transpile`` keys its lowering on."""
    with pytest.raises(ValueError):
        build()


_NAN_2X2 = np.full((2, 2), np.nan)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Gate("RZ", ("a",), theta=np.nan), id="rz-nan"),
    pytest.param(lambda: Gate("RZ", ("a",), theta=np.inf), id="rz-inf"),
    pytest.param(lambda: Gate("UNITARY", ("a",), matrix=_NAN_2X2), id="unitary-nan"),
    pytest.param(lambda: Channel(np.full((4, 4), np.nan)), id="channel-nan"),
    pytest.param(lambda: KrausChannel([_NAN_2X2]), id="kraus-nan"),
])
def test_non_finite_values_are_rejected(build):
    """A NaN compares False with every tolerance, so each check is written
    to fail on it: non-finite angles, payloads and superoperators raise."""
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Gate("UNITARY", (), matrix=[[1]]), id="gate-on-no-qubits"),
    pytest.param(lambda: decompose_multiqubit(np.eye(2), ("a",)), id="qsd-1-qubit"),
    pytest.param(lambda: decompose_multiqubit(np.eye(4), ("a", "b")), id="qsd-2-qubits"),
])
def test_too_few_qubits_are_rejected(build):
    """A gate acts on at least one qubit, and the QSD runs on 3 to 8."""
    with pytest.raises(ValueError):
        build()


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
        unitary_of_circuit(Circuit(ref.register, gates, ref.global_phase)),
        collision_unitary(np.pi / 4),
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


@st.composite
def one_cnot_payloads(draw):
    """locals · CNOT · locals: Haar-random local gates on both sides of a
    CNOT of either orientation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cnot = circ.CNOT_MATRIX if draw(st.booleans()) else circ._CNOT10
    before, after = (np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) for _ in "ba")
    return after @ cnot @ before


@settings(max_examples=40, deadline=None)
@given(one_cnot_payloads())
@example(circ.CNOT_MATRIX)
@example(np.kron(circ.H_MATRIX, np.eye(2)) @ circ.CNOT_MATRIX)
def test_one_cnot_payloads_lower_to_one_ecr(u):
    """A payload of the one-CNOT class lowers through the one-CNOT branch of
    ``_kak`` to a single ECR, exact including phase."""
    t = transpile(Circuit(("a", "b"), [Gate("UNITARY", ("a", "b"), matrix=u)]))
    assert gate_count(t)["ECR"] == 1
    assert np.abs(unitary_of_circuit(t) - u).max() <= 1e-8


def _dressed_exchange(seed):
    """ε -> (a⊗b)·collision_unitary(ε)·(c⊗d), with the Haar locals a, b, c, d
    drawn in that order from default_rng(seed)."""
    def make_u(g_dt):
        rng = np.random.default_rng(seed)
        a, b, c, d = (random_unitary(rng, 2) for _ in range(4))
        return np.kron(a, b) @ collision_unitary(g_dt) @ np.kron(c, d)
    return make_u


@pytest.mark.parametrize("make_u, g_dt", [
    (collision_unitary, 1e-6), (collision_unitary, -1e-6), (collision_unitary, 1e-3),
    (collision_unitary, 0.001953125), (collision_unitary, np.pi / 2 + 1e-7),
    (collision_unitary, np.pi - 1e-6), (two_qubit_unitary, 1e-9),
    *(pytest.param(_dressed_exchange(seed), g_dt, id=f"dressed_exchange_{seed}-{g_dt!r}")
      for seed, g_dt in ((5, 1e-9), (36, 1e-6), (59, -1e-6), (86, np.pi - 1e-6))),
])
def test_transpile_near_cnot_class_boundaries(make_u, g_dt):
    """Close to the identity or to a gate of fewer CNOTs the class test of the
    KAK misfires; the synthesis still verifies (these raised before).  The
    dressed payloads also leave a local factor of the fallback's KAK with an
    entry near, but not at, 0."""
    u = make_u(g_dt)
    labels = ("a", "b", "c")[: int(np.log2(u.shape[0]))]
    gate = Gate("UNITARY", labels, matrix=u)
    c = decompose_multiqubit(u, labels) if len(labels) > 2 else Circuit(labels, [gate])
    t = transpile(c)
    assert all(g.kind in NATIVE_KINDS for g in t.gates)
    assert np.abs(unitary_of_circuit(t) - u).max() < 1e-8


@st.composite
def small_register_circuits(draw):
    """A random circuit of RZ, SX, ECR and UNITARY gates on one to four
    qubits, with a global phase; multi-qubit gates take their wires in any
    order."""
    labels = "abcd"[: draw(st.integers(1, 4))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["RZ", "SX", "U1"] + (["ECR", "U2"] if len(labels) >= 2 else [])
    kinds += ["U3"] if len(labels) >= 3 else []
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        q = (draw(st.sampled_from(labels)),)
        wires = tuple(draw(st.permutations(labels)))
        if kind == "RZ":
            gates.append(Gate("RZ", q, theta=draw(st.floats(-4 * np.pi, 4 * np.pi))))
        elif kind == "SX":
            gates.append(Gate("SX", q))
        elif kind == "U1":
            gates.append(Gate("UNITARY", q, matrix=random_unitary(rng, 2)))
        elif kind == "ECR":
            gates.append(Gate("ECR", wires[:2]))
        elif kind == "U2":
            gates.append(Gate("UNITARY", wires[:2], matrix=random_unitary(rng, 4)))
        else:
            gates.append(Gate("UNITARY", wires[:3], matrix=random_unitary(rng, 8)))
    return Circuit(labels, gates, draw(st.floats(-np.pi, np.pi)))


@settings(max_examples=80, deadline=None)
@given(small_register_circuits())
def test_unitary_of_circuit_small_registers_match_contraction(c):
    """The fused blocks of ``unitary_of_circuit`` (each wire's run of 1-qubit
    gates folded into the next multi-qubit gate on it) give the unitary of
    one tensor contraction per gate."""
    n, dim = c.register.n, c.register.dim
    want = np.eye(dim, dtype=complex).reshape([2] * (2 * n))
    for g in c.gates:
        want = _contract_at(g.unitary(), want, c.register.indices(g.qubits))
    want = np.exp(1j * c.global_phase) * want.reshape(dim, dim)
    assert np.abs(unitary_of_circuit(c) - want).max() <= 1e-12


@st.composite
def two_qubit_runs(draw):
    """Runs of RZ, SX, X and 1-qubit UNITARY gates on both wires of a
    two-qubit register, between ECRs of either orientation, with a global
    phase."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    runs = st.lists(st.tuples(st.sampled_from(["RZ", "SX", "X", "U1"]),
                              st.sampled_from("ab")), max_size=8)
    gates = []
    for n_ecr in range(draw(st.integers(0, 4)) + 1):
        if n_ecr:
            gates.append(Gate("ECR", tuple(draw(st.permutations("ab")))))
        for kind, q in draw(runs):
            if kind == "RZ":
                gates.append(Gate("RZ", q, theta=draw(st.floats(-4 * np.pi, 4 * np.pi))))
            elif kind == "U1":
                gates.append(Gate("UNITARY", q, matrix=random_unitary(rng, 2)))
            else:
                gates.append(Gate(kind, q))
    return Circuit(("a", "b"), gates, draw(st.floats(-np.pi, np.pi)))


@settings(max_examples=80, deadline=None)
@given(two_qubit_runs())
def test_unitary_of_circuit_folds_two_qubit_runs(c):
    """Each wire's run of 1-qubit gates, multiplied into one 2x2 product and
    applied at the next ECR, gives the product of the embedded gates."""
    want = np.eye(4, dtype=complex)
    for g in c.gates:
        want = embed_operator(g.unitary(), c.register.indices(g.qubits), 2) @ want
    assert np.abs(unitary_of_circuit(c) - np.exp(1j * c.global_phase) * want).max() <= 1e-12


@pytest.mark.parametrize("kind, qubits", [
    ("CNOT", ("a", "a")), ("ECR", ("b", "b")), ("UNITARY", ("a", "b", "a")),
])
def test_gate_rejects_a_repeated_qubit(kind, qubits):
    """A gate acts on distinct qubits: one label named twice is rejected when
    the gate is built, not lowered by ``transpile`` onto the one wire."""
    matrix = np.eye(2 ** len(qubits)) if kind == "UNITARY" else None
    with pytest.raises(ValueError, match="names a qubit twice"):
        Gate(kind, qubits, matrix=matrix)


def test_transpile_rejects_large_unitary_payload(rng):
    """A payload on more than 8 qubits is past what ``decompose_multiqubit``
    can verify: ``transpile`` refuses it before any decomposition."""
    labels = tuple("abcdefghi")
    c = Circuit(labels, [Gate("UNITARY", labels, matrix=random_unitary(rng, 2 ** 9))])
    with mock.patch.object(circ, "_qsd", wraps=circ._qsd) as qsd:
        with pytest.raises(ValueError, match="at most 8 qubits"):
            transpile(c)
    assert qsd.call_count == 0


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


def test_transpile_expands_multiqubit_payloads(rng):
    """A UNITARY on three qubits, random or the two-qubit model's step, or a
    random one on four (which runs the QSD recursion), lowers in one
    ``transpile`` call, exact including phase; noisy sampling of the circuit
    equals sampling of its transpile."""
    noise = noisytomo.NoiseConfig()
    for u in (random_unitary(rng, 8), two_qubit_unitary(1.1), random_unitary(rng, 16)):
        labels = tuple("abcd"[: u.shape[0].bit_length() - 1])
        c = Circuit(labels, [Gate("UNITARY", labels, matrix=u)], global_phase=0.3)
        t = transpile(c)
        assert all(g.kind in NATIVE_KINDS for g in t.gates)
        assert np.abs(unitary_of_circuit(t) - unitary_of_circuit(c)).max() <= 1e-8
        job = noisytomo.TomographyJob(c, ("a", "b"), shots=16)
        native_job = noisytomo.TomographyJob(t, ("a", "b"), shots=16)
        assert np.array_equal(noisytomo.sample(job, noise).counts,
                              noisytomo.sample(native_job, noise).counts)


def reference_merge_rz(gates):
    """Merge adjacent RZ on the same qubit and drop angle-zero RZ, with no
    account of the 2π wraps: the merge of the register-wide transpile."""
    out = []
    for g in gates:
        if g.kind == "RZ" and out and out[-1].kind == "RZ" and out[-1].qubits == g.qubits:
            angle = circ._wrap_angle(out[-1].theta + g.theta)
            out.pop()
            if abs(angle) > 1e-12:
                out.append(Gate("RZ", g.qubits, theta=angle))
        elif g.kind == "RZ" and abs(circ._wrap_angle(g.theta)) < 1e-12:
            continue
        else:
            out.append(g)
    return out


def reference_transpile(c):
    """The register-wide transpile: lower every gate instance, merge RZ, and
    take the phase from the two 2^n x 2^n unitaries."""
    native = []
    for g in c.gates:
        native.extend(circ._lower(g))
    out = Circuit(c.register, reference_merge_rz(native))
    ok, phase = equivalent_up_to_global_phase(unitary_of_circuit(c),
                                              unitary_of_circuit(out), tol=1e-8)
    assert ok
    return Circuit(out.register, out.gates, circ._wrap_angle(phase))


_BOUNDARY_ANGLES = (1e-9, 1e-6, -1e-6, 1e-3, 0.001953125, np.pi / 2 + 1e-7, np.pi - 1e-6)
_RZ_ANGLES = st.one_of(
    st.floats(-4 * np.pi, 4 * np.pi),
    st.builds(lambda s, e: s * np.pi + e, st.sampled_from([-1.0, 1.0]),
              st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-3, -1e-3])),
    st.builds(lambda k, e: 2 * np.pi * k + e, st.integers(-2, 2),
              st.sampled_from([0.0, 1e-13, -1e-13, 5e-13])),
)


@st.composite
def transpile_cases(draw):
    """A random circuit on 1-6 qubits: H, CNOT, RZ (and RZ pairs on one
    qubit) at angles near ±π and multiples of 2π, and 1- and 2-qubit
    UNITARY payloads drawn from a small pool, so each is repeated on
    different wires; 2-qubit payloads include ones near CNOT-class
    boundaries (the exchange unitary at small or near-π/2 angles between
    random locals)."""
    n = draw(st.integers(1, 6))
    labels = [f"w{i}" for i in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    one = [random_unitary(rng, 2) for _ in range(2)]
    two = [random_unitary(rng, 4)]
    for angle in draw(st.lists(st.sampled_from(_BOUNDARY_ANGLES), min_size=1, max_size=2)):
        locals_ = [random_unitary(rng, 2) if draw(st.booleans()) else np.eye(2)
                   for _ in range(4)]
        two.append(np.kron(*locals_[:2]) @ collision_unitary(angle) @ np.kron(*locals_[2:]))
    kinds = ["H", "RZ", "RZRZ", "U1"] + (["CNOT", "U2"] if n > 1 else [])
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=14)):
        q = draw(st.sampled_from(labels))
        if kind in ("CNOT", "U2"):
            pair = tuple(draw(st.permutations(labels))[:2])
        if kind == "H":
            gates.append(Gate("H", (q,)))
        elif kind in ("RZ", "RZRZ"):
            for _ in range(2 if kind == "RZRZ" else 1):
                gates.append(Gate("RZ", (q,), theta=draw(_RZ_ANGLES)))
        elif kind == "U1":
            gates.append(Gate("UNITARY", (q,), matrix=one[draw(st.integers(0, 1))]))
        elif kind == "CNOT":
            gates.append(Gate("CNOT", pair))
        else:
            gates.append(Gate("UNITARY", pair,
                              matrix=two[draw(st.integers(0, len(two) - 1))]))
    return Circuit(labels, gates, draw(st.floats(-np.pi, np.pi)))


def _gate_list(c):
    return [(g.kind, g.qubits, g.theta) for g in c.gates]


def _phase_gap(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def _residual(c, native):
    """Operator-norm distance between the unitaries of a circuit and its
    transpiled form, phase included."""
    return float(np.linalg.norm(unitary_of_circuit(native) - unitary_of_circuit(c), 2))


@settings(max_examples=60, deadline=None)
@given(transpile_cases())
def test_transpile_matches_register_wide_reference(c):
    """Gate by gate, once per distinct gate: the same native gates as the
    register-wide transpile, and the same global phase modulo 2π.

    Both outputs share the gates V, so their phases differ by at most the
    sum of their residuals ‖U − e^{iφ}V‖.  Those are round-off (the 1e-12
    then holds) except near CNOT-class boundaries, where the KAK is exact
    only to ~1e-9 and the phase is defined only to that residual.  Where the
    two-qubit synthesis fails, both transpiles raise."""
    try:
        want = reference_transpile(c)
    except AssertionError:
        with pytest.raises(AssertionError):
            transpile(c)
        return
    got = transpile(c)
    assert _gate_list(got) == _gate_list(want)
    residual = _residual(c, got)
    assert residual <= 1e-8
    slack = residual + _residual(c, want)
    assert _phase_gap(got.global_phase, want.global_phase) <= 1e-12 + slack


def test_transpile_matches_reference_on_toy_circuits():
    """The toy prep and both steps, on their registers; the prep's phase is
    +π on one side and −π on the other, equal modulo 2π."""
    model = collision.toy_model()
    se = QubitRegister(model.system_labels + model.env_labels)
    circuits = [Circuit(model.register, model.prep_gates)]
    circuits += [Circuit(se, gates) for gates in model.steps]
    for c in circuits:
        got, want = transpile(c), reference_transpile(c)
        assert _gate_list(got) == _gate_list(want)
        assert _phase_gap(got.global_phase, want.global_phase) <= 1e-12


def test_transpile_catches_a_wrong_lowering():
    """A lowering that misses its gate fails the local check, and so does a
    small error repeated over enough instances of one distinct gate: the
    bound is on the sum over every instance."""
    cnot = Circuit(("a", "b"), [Gate("CNOT", ("a", "b"))])
    with mock.patch.object(circ, "_cnot_native", lambda c, t: [Gate("ECR", (c, t))]):
        with pytest.raises(AssertionError):
            transpile(cnot)
    euler = circ._euler_native
    with mock.patch.object(circ, "_euler_native",
                           lambda u, q: euler(u, q) + [Gate("SX", (q,))]):
        with pytest.raises(AssertionError):
            transpile(Circuit(("a",), [Gate("H", ("a",))]))

    def slightly_off(u, q):
        return euler(u, q) + [Gate("RZ", (q,), theta=4e-9)]

    labels = [f"w{i}" for i in range(6)]
    one = Circuit(labels, [Gate("H", ("w0",))])
    many = Circuit(labels, [Gate("H", (q,)) for q in labels] * 2)
    with mock.patch.object(circ, "_euler_native", slightly_off):
        transpile(one)
        with pytest.raises(AssertionError):
            transpile(many)


def test_toy_transpile_is_local_and_lowers_each_payload_once():
    """No unitary wider than two qubits is built while the toy prep and
    steps are transpiled, and the two steps (each one payload on two wire
    pairs) run one KAK each."""
    model = collision.toy_model()
    se = QubitRegister(model.system_labels + model.env_labels)
    widths = []
    build = circ.unitary_of_circuit

    def spy(c):
        widths.append(c.register.n)
        return build(c)

    with mock.patch.object(circ, "unitary_of_circuit", spy), \
            mock.patch.object(circ, "_kak", wraps=circ._kak) as kak:
        circ.transpile(Circuit(model.register, model.prep_gates))
        assert kak.call_count == 0
        for gates in model.steps:
            circ.transpile(Circuit(se, gates))
    assert widths and max(widths) <= 2
    assert kak.call_count == 2


@pytest.mark.parametrize("payload, routes", [
    pytest.param(collision.toy_unitary(), 1, id="toy-kak"),
    pytest.param(collision_unitary(np.pi / 4), 1, id="exchange-pi/4-kak"),
    pytest.param(collision_unitary(1e-6), 2, id="exchange-1e-6-split"),
])
def test_two_qubit_lowering_is_checked_once(payload, routes):
    """A distinct two-qubit payload, here on two wire pairs, builds one
    two-qubit unitary per route it tries: the native gates' unitary, which
    both verifies the lowering and gives its phase.  The KAK route takes one
    build; the exchange unitary at 1e-6, whose KAK misses it, takes a second
    for the (U G†) G split."""
    c = Circuit(("a", "b", "c"), [Gate("UNITARY", ("a", "b"), matrix=payload),
                                  Gate("UNITARY", ("c", "b"), matrix=payload)])
    widths = []
    build = circ.unitary_of_circuit

    def spy(c):
        widths.append(c.register.n)
        return build(c)

    with mock.patch.object(circ, "unitary_of_circuit", spy):
        t = transpile(c)
    assert widths == [2] * routes
    assert np.abs(unitary_of_circuit(t) - unitary_of_circuit(c)).max() < 1e-8


# float.hex of the global phase of the transpiled prep and steps of the four
# models, frozen from the transpiler that built every lowering's unitary twice
# (same platform as NATIVE_GATES_SHA256 below).
GLOBAL_PHASES = {
    "single_qubit_model": ("-0x1.2d97c7f3321d2p+1", "0x1.0000000000000p-51"),
    "two_qubit_model": ("-0x1.2d97c7f3321d2p+1", "0x1.921fb54442d40p-1"),
    "swap_model": ("0x1.921fb54442d18p+0", "-0x1.921fb54442d16p+0", "-0x1.921fb54442d16p+0"),
    "toy_model": ("0x1.921fb54442d18p+0", "-0x1.921fb54442d18p+1", "-0x1.921fb54442d18p+1"),
}


def test_transpiled_models_keep_their_global_phase_bit_for_bit():
    """The phase is read off the same native unitary that checks the
    lowering, so it keeps its bits: the prep and every step of the four
    models, the two-qubit steps through ``decompose_multiqubit``."""
    for name, want in GLOBAL_PHASES.items():
        model = getattr(collision, name)()
        se = QubitRegister(model.system_labels + model.env_labels)
        prep = Circuit(QubitRegister(model.ancilla_labels + model.system_labels),
                       model.prep_gates)
        got = [float(circ.transpile(c).global_phase).hex()
               for c in [prep] + [Circuit(se, gates) for gates in model.steps]]
        assert tuple(got) == want, name


# SHA-256 of every (kind, qubits, θ.hex()) of the transpiled prep and steps of
# the four models, frozen from the transpiler before its per-gate fast paths
# (NumPy 2.4.6, SciPy 1.17.1, OpenBLAS 0.3.31 on x86-64; the KAK and the QSD
# read LAPACK's eigenvectors, so another LAPACK build may give other bits).
NATIVE_GATES_SHA256 = "ce2b69bfab94a8ae3d0a4b642fa3ea498a35219fba2b9ea7536ae7935c9ee6b0"


def test_transpiled_models_keep_their_native_gates_bit_for_bit():
    """The prep and every step of the four models, the two-qubit steps
    through ``decompose_multiqubit``, lower to the same native gates, angle
    for angle; only the global phase may move, by round-off."""
    digest = hashlib.sha256()
    for make in (collision.single_qubit_model, collision.two_qubit_model,
                 collision.swap_model, collision.toy_model):
        model = make()
        se = QubitRegister(model.system_labels + model.env_labels)
        prep = Circuit(QubitRegister(model.ancilla_labels + model.system_labels),
                       model.prep_gates)
        for c in [prep] + [Circuit(se, gates) for gates in model.steps]:
            for g in circ.transpile(c).gates:
                theta = None if g.theta is None else float(g.theta).hex()
                digest.update(repr((g.kind, g.qubits, theta)).encode())
            digest.update(b"|")
    assert digest.hexdigest() == NATIVE_GATES_SHA256

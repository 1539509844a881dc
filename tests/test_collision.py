import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import collision
from qcollide.channel import (
    KrausChannel,
    apply_extended,
    choi_of_channel,
    embed_operator,
    transfer_of_channel,
)
from qcollide.circuit import unitary_of_circuit
from qcollide.entangle import assistance_2q, assistance_upper, concurrence_2q
from qcollide.qmat import (
    DensityMatrix,
    ket,
    partial_trace,
    state_to_bloch,
)

SQ2 = np.sqrt(2) / 2


def test_collision_unitary_examples():
    assert np.allclose(collision.collision_unitary(0.0), np.eye(4))
    u = collision.collision_unitary(np.pi / 4)
    expected = np.array(
        [[1, 0, 0, 0], [0, SQ2, -1j * SQ2, 0], [0, -1j * SQ2, SQ2, 0], [0, 0, 0, 1]]
    )
    assert np.abs(u - expected).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(u, 4) - np.diag([1, -1, -1, 1])).max() < 1e-12


def test_two_qubit_unitary_examples():
    assert np.allclose(collision.two_qubit_unitary(0.0), np.eye(8))
    u = collision.two_qubit_unitary(0.37)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-12
    # excitation-number conservation: U is block diagonal in total-excitation
    # sectors, equivalently [U, N] = 0
    z = np.diag([1.0, -1.0])
    num = sum(embed_operator(z, [k], 3) for k in range(3))
    assert np.abs(u @ num - num @ u).max() < 1e-12


def test_toy_and_swap_unitaries():
    u = collision.toy_unitary()
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
    expected = np.array(
        [[0, 0, 0, 1j], [1, 0, 0, 0], [0, 0, -1j, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.array_equal(u, expected)
    s = collision.swap_unitary()
    assert np.array_equal(s @ s, np.eye(4))


def test_single_qubit_evolution_examples():
    model = collision.single_qubit_model()
    r0 = collision.evolve(model, 0)
    assert concurrence_2q(r0.joint_state) == pytest.approx(1.0, abs=1e-9)
    assert assistance_2q(collision.evolve(model, 2).joint_state) == pytest.approx(
        0.0, abs=1e-9
    )
    assert concurrence_2q(collision.evolve(model, 4).joint_state) == pytest.approx(
        1.0, abs=1e-9
    )


def test_reduced_state_after_two_collisions():
    # tr_E after 2 collisions at pi/4: system pinned to |0>, ancilla mixed
    joint = collision.evolve(collision.single_qubit_model(), 2).joint_state
    assert joint.register.labels == ("A", "S")
    expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert np.abs(joint.mat - expected).max() < 1e-9
    assert np.abs(partial_trace(joint, ["S"]).mat - np.diag([1.0, 0.0])).max() < 1e-9


def test_evolution_record_invariant():
    # joint_state == reduced channel extended over the ancilla, ideal case
    for model in [collision.single_qubit_model(0.6), collision.two_qubit_model(0.7)]:
        init = partial_trace(
            model.initial_state, model.ancilla_labels + model.system_labels
        )
        for n in range(4):
            rec = collision.evolve(model, n)
            mapped = apply_extended(rec.reduced_channel, init, model.system_labels)
            assert np.abs(mapped.mat - rec.joint_state.mat).max() < 1e-9


@pytest.mark.parametrize(
    "make_model", [collision.single_qubit_model, collision.two_qubit_model]
)
@settings(max_examples=20, deadline=None)
@given(g_dt=st.floats(-np.pi, np.pi), n=st.integers(0, 3))
def test_ideal_reduced_channel_matches_circuit_unitary(make_model, g_dt, n):
    # brute force: Kraus operators <k|U|0> over the non-system qubits
    model = make_model(g_dt)
    u = unitary_of_circuit(collision.build_circuit(model, n, include_prep=False))
    nq = model.register.n
    sys_pos = model.register.indices(model.system_labels)
    other = [q for q in range(nq) if q not in sys_pos]
    t = u.reshape([2] * (2 * nq)).transpose(
        other + sys_pos + [nq + q for q in other] + [nq + q for q in sys_pos]
    )
    d_o, d_s = 2 ** len(other), 2 ** len(sys_pos)
    t = t.reshape(d_o, d_s, d_o, d_s)[:, :, 0, :]
    want = choi_of_channel(KrausChannel([t[k] for k in range(d_o)])).rho.mat
    got = choi_of_channel(collision.evolve(model, n).reduced_channel).rho.mat
    assert np.abs(got - want).max() < 1e-10


def test_reduced_channel_is_cpt():
    model = collision.single_qubit_model()
    for n in range(6):
        ch = collision.evolve(model, n).reduced_channel
        s = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.abs(s - np.eye(2)).max() < 1e-9


def test_excitation_conservation_single():
    u = collision.collision_unitary(0.83)
    z = np.diag([1.0, -1.0])
    num = embed_operator(z, [0], 2) + embed_operator(z, [1], 2)
    assert np.abs(u @ num - num @ u).max() < 1e-12


def test_single_environment_consistency():
    # E_n at angle t/n is independent of n (the same environment qubit is
    # reused, so U^n at angle g_dt equals U at angle n*g_dt)
    t = 1.1
    ref = transfer_of_channel(
        collision.evolve(collision.single_qubit_model(t), 1).reduced_channel
    ).M
    for n in (2, 3, 5):
        m = transfer_of_channel(
            collision.evolve(collision.single_qubit_model(t / n), n).reduced_channel
        ).M
        assert np.abs(m - ref).max() < 1e-10


def test_continuum_transfer_examples():
    assert np.allclose(collision.continuum_transfer(0.0).M, np.eye(4))
    m = collision.continuum_transfer(np.pi / 2).M
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[3, 0] = 1.0
    assert np.abs(m - expected).max() < 1e-12
    for n, t in [(1, 0.4), (3, 0.9), (8, 1.3)]:
        rec = collision.evolve(collision.single_qubit_model(t / n), n)
        assert np.abs(
            transfer_of_channel(rec.reduced_channel).M - collision.continuum_transfer(t).M
        ).max() < 1e-10


def test_lindblad_rate_examples():
    assert collision.lindblad_rate(0.0) == pytest.approx(0.0, abs=1e-6)
    assert collision.lindblad_rate(np.pi / 4) == pytest.approx(1.0, abs=1e-6)
    # negative rate in the non-Markovian regime
    assert collision.lindblad_rate(2.0) == pytest.approx(np.tan(2.0), abs=1e-6)
    with pytest.raises(ValueError):
        collision.lindblad_rate(np.pi / 2)


def test_bloch_image_samples():
    model = collision.single_qubit_model()
    pts0 = collision.bloch_image_samples(collision.evolve(model, 0), mesh=40)
    assert all(abs(np.linalg.norm(p) - 1.0) < 1e-9 for p in pts0)
    pts2 = collision.bloch_image_samples(collision.evolve(model, 2), mesh=40)
    assert all(np.abs(p - np.array([0, 0, 1.0])).max() < 1e-9 for p in pts2)
    pts1 = collision.bloch_image_samples(collision.evolve(model, 1), mesh=40)
    assert all(abs(p[0]) <= SQ2 + 1e-9 and abs(p[1]) <= SQ2 + 1e-9 for p in pts1)


def test_toy_model_ideal_run():
    model = collision.toy_model()
    r1 = collision.evolve(model, 1)
    # tensor-order convention: after one application the SYSTEM is pure, so
    # the assistance upper bound vanishes
    assert assistance_upper(r1.joint_state, ("S1", "S2")) == pytest.approx(0.0, abs=1e-9)
    r2 = collision.evolve(model, 2)
    init = partial_trace(model.initial_state, ("A1", "A2", "S1", "S2"))
    assert np.abs(r2.joint_state.mat - init.mat).max() < 1e-12
    with pytest.raises(ValueError):
        collision.evolve(model, 3)


def test_swap_model_ideal_run():
    model = collision.swap_model()
    r1 = collision.evolve(model, 1)
    assert assistance_upper(r1.joint_state, ("S1", "S2")) == pytest.approx(0.0, abs=1e-9)
    r2 = collision.evolve(model, 2)
    init = partial_trace(model.initial_state, ("A1", "A2", "S1", "S2"))
    assert np.abs(r2.joint_state.mat - init.mat).max() < 1e-12


def test_build_circuit_matches_evolve():
    model = collision.single_qubit_model()
    for n in (0, 1, 2):
        c = collision.build_circuit(model, n)
        u = unitary_of_circuit(c)
        psi = u[:, 0]  # action on |000>
        full = DensityMatrix(model.register, np.outer(psi, psi.conj()), validate=False)
        joint = partial_trace(full, ("A", "S"))
        assert np.abs(joint.mat - collision.evolve(model, n).joint_state.mat).max() < 1e-9


def test_build_circuit_native_is_equivalent():
    model = collision.single_qubit_model()
    c = collision.build_circuit(model, 1, native=True)
    from qcollide.circuit import NATIVE_KINDS

    assert all(g.kind in NATIVE_KINDS for g in c.gates)
    u_native = unitary_of_circuit(c)
    u_plain = unitary_of_circuit(collision.build_circuit(model, 1))
    assert np.abs(u_native - u_plain).max() < 1e-8


def test_negative_collision_count_rejected():
    with pytest.raises(ValueError):
        collision.evolve(collision.single_qubit_model(), -1)

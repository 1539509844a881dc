import numpy as np
import pytest

from conftest import random_density, random_unitary
from qcollide import collision
from qcollide.channel import (
    KRAUS_COMPLETE_TOL,
    ChoiState,
    KrausChannel,
    amplitude_damping_channel,
    apply,
    apply_at,
    apply_extended,
    channel_of_choi,
    choi_of_channel,
    compose,
    depolarizing_channel,
    embed_operator,
    identity_channel,
    pauli_basis,
    transfer_of_channel,
    unitary_channel,
)
from qcollide.entangle import concurrence_2q
from qcollide.qmat import DensityMatrix, ket, partial_trace, pure_state

BELL = (ket("00") + ket("11")) / np.sqrt(2)


def random_channel(rng, n_qubits=1, env_qubits=1):
    """Random CPT map via a Haar unitary on a dilated space."""
    d, de = 2**n_qubits, 2**env_qubits
    u = random_unitary(rng, d * de)
    # K_e = <e| U |0>_env blocks
    return KrausChannel([u[e * d:(e + 1) * d, 0:d] for e in range(de)])


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel([np.eye(2) * 0.5])
    ch = amplitude_damping_channel(0.3)
    s = sum(k.conj().T @ k for k in ch.kraus_ops)
    assert np.abs(s - np.eye(2)).max() < 1e-12


def test_kraus_completeness_tolerance():
    # sum K†K must match I within KRAUS_COMPLETE_TOL = 1e-9, as documented
    with pytest.raises(ValueError):
        KrausChannel([np.sqrt(1 + 1e-7) * np.eye(2)])
    KrausChannel([np.sqrt(1 + KRAUS_COMPLETE_TOL / 10) * np.eye(2)])


def test_apply_at_matches_explicit_embedding(rng):
    # a non-Hermitian input on 3 qubits, two Kraus operators on qubit 1
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    ops = amplitude_damping_channel(0.4).kraus_ops
    want = sum(
        np.kron(np.kron(np.eye(2), k), np.eye(2)) @ m
        @ np.kron(np.kron(np.eye(2), k), np.eye(2)).conj().T
        for k in ops
    )
    assert np.abs(apply_at(ops, m, [1], 3) - want).max() < 1e-12


def test_choi_examples():
    bell = np.outer(BELL, BELL.conj())
    assert np.abs(choi_of_channel(identity_channel()).rho.mat - bell).max() < 1e-12
    assert np.abs(
        choi_of_channel(depolarizing_channel(1.0)).rho.mat - np.eye(4) / 4
    ).max() < 1e-10
    # 4 collisions at g_dt=pi/4 give the unitary Z map; its Choi state is
    # maximally entangled with concurrence 1
    ch_t2 = collision.evolve(collision.single_qubit_model(), 4).reduced_channel
    assert concurrence_2q(choi_of_channel(ch_t2).rho) == pytest.approx(1.0, abs=1e-9)


def test_choi_invariants_hold(rng):
    for _ in range(20):
        c = choi_of_channel(random_channel(rng))
        marg = partial_trace(c.rho, [c.rho.register.labels[1]])
        assert np.abs(marg.mat - np.eye(2) / 2).max() < 1e-9
        assert np.linalg.eigvalsh(c.rho.mat).min() > -1e-10


def test_channel_of_choi_round_trips(rng):
    for ch in [
        identity_channel(),
        amplitude_damping_channel(0.3),
        random_channel(rng),
        random_channel(rng, 2, 1),
    ]:
        back = channel_of_choi(choi_of_channel(ch))
        d1 = choi_of_channel(ch).rho.mat
        d2 = choi_of_channel(back).rho.mat
        assert np.abs(d1 - d2).max() < 1e-8


def test_channel_of_choi_rejects_non_tp():
    bad = np.diag([0.6, 0.0, 0.4, 0.0])  # tr_out = |0><0| != I/2
    with pytest.raises(ValueError):
        channel_of_choi(ChoiState(DensityMatrix(("o", "r"), bad)))


def test_transfer_examples():
    assert np.abs(transfer_of_channel(identity_channel()).M - np.eye(4)).max() < 1e-12
    # t = pi/2: Bloch ball contracted to the north pole
    t_half = collision.evolve(collision.single_qubit_model(np.pi / 2), 1)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    expected[3, 0] = 1.0
    assert np.abs(transfer_of_channel(t_half.reduced_channel).M - expected).max() < 1e-10
    # unitary Z map
    zmap = unitary_channel(np.diag([1.0, -1.0]))
    assert np.abs(transfer_of_channel(zmap).M - np.diag([1, -1, -1, 1])).max() < 1e-12


def test_transfer_first_row_trace_preservation(rng):
    for _ in range(10):
        m = transfer_of_channel(random_channel(rng)).M
        assert np.abs(m[0] - np.array([1, 0, 0, 0])).max() < 1e-9


def test_apply_and_apply_extended(rng):
    rho = random_density(rng, 1, ["S"])
    assert np.abs(apply(identity_channel(), rho).mat - rho.mat).max() < 1e-12
    # E_t1 (2 collisions at pi/4) extended over the ancilla maps the Bell
    # state to |0><0|_S x I/2_A; register order is (A, S)
    ch_t1 = collision.evolve(collision.single_qubit_model(), 2).reduced_channel
    bell = pure_state(BELL, ("A", "S"))
    out = apply_extended(ch_t1, bell, ["S"])
    expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert np.abs(out.mat - expected).max() < 1e-9
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)


def test_compose_matches_matrix_product(rng):
    for _ in range(10):
        a, b = random_channel(rng), random_channel(rng)
        rho = random_density(rng, 1, ["q"])
        lhs = apply(compose(a, b), rho).mat
        rhs = apply(a, apply(b, rho)).mat
        assert np.abs(lhs - rhs).max() < 1e-10


def test_compose_of_collision_channels():
    # Composing the 1-collision map with itself concatenates two collisions
    # with FRESH environments; damping parameters multiply through
    # (1 - g_tot) = (1 - g)^2.  The persistent single-environment map E_2 is
    # different (see the collision module), so only the fresh-composition
    # identity is asserted here.
    e1 = collision.evolve(collision.single_qubit_model(np.pi / 4), 1).reduced_channel
    twice = transfer_of_channel(compose(e1, e1)).M
    c = np.cos(np.pi / 4)
    expected = np.array(
        [[1, 0, 0, 0], [0, c * c, 0, 0], [0, 0, c * c, 0],
         [1 - c**4, 0, 0, c**4]]
    )
    assert np.abs(twice - expected).max() < 1e-10


def test_representation_conversion_cycle(rng):
    for _ in range(5):
        ch = random_channel(rng)
        cycled = channel_of_choi(choi_of_channel(ch))
        tm = transfer_of_channel(ch).M
        tm2 = transfer_of_channel(cycled).M
        assert np.abs(tm - tm2).max() < 1e-8
        for _ in range(20):
            rho = random_density(rng, 1, ["q"])
            assert np.abs(apply(ch, rho).mat - apply(cycled, rho).mat).max() < 1e-8


def test_apply_preserves_trace_and_hermiticity(rng):
    for _ in range(50):
        ch = random_channel(rng)
        rho = random_density(rng, 1, ["q"])
        out = apply(ch, rho)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out.mat - out.mat.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(out.mat).min() > -1e-10


def test_pauli_basis_orthonormal():
    basis = pauli_basis(2)
    assert len(basis) == 16
    for i, (_, p) in enumerate(basis):
        for j, (_, q) in enumerate(basis):
            ip = np.trace(p.conj().T @ q).real
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


def test_embed_operator(rng):
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    # X on qubit 0 of 2 (MSB): acts on the first tensor factor
    assert np.allclose(embed_operator(x, [0], 2), np.kron(x, np.eye(2)))
    assert np.allclose(embed_operator(x, [1], 2), np.kron(np.eye(2), x))
    u = random_unitary(rng, 4)
    # embedding on adjacent MSB qubits is a plain kron
    assert np.abs(embed_operator(u, [0, 1], 3) - np.kron(u, np.eye(2))).max() < 1e-12

import numpy as np
import pytest

from conftest import random_density, random_pure
from qcollide.qmat import (
    DensityMatrix,
    QubitRegister,
    _projector,
    bloch_to_state,
    ket,
    nkron,
    partial_trace,
    partial_transpose,
    pure_state,
    state_fidelity,
    state_to_bloch,
    tensor,
    trace_distance,
    trace_norm,
)

BELL = (ket("00") + ket("11")) / np.sqrt(2)


def bell_state(labels=("A", "S")):
    return pure_state(BELL, labels)


def test_register_validation():
    reg = QubitRegister(("A", "S", "E"))
    assert reg.n == 3 and reg.dim == 8
    assert reg.index("S") == 1
    assert reg.indices(["E", "A"]) == [2, 0]
    with pytest.raises(ValueError):
        QubitRegister(("A", "A"))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(("q",), np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(("q",), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(("q",), np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityMatrix(("q",), np.diag([0.25, 0.75]))
    assert rho.purity() == pytest.approx(0.625)


def test_projector_checks_the_vector():
    """``_projector`` rejects a non-finite vector and one off unit norm by
    1e-9, and returns the outer product itself, not renormalised."""
    for bad in ([1.0, np.nan], [np.inf, 0.0], [1.0 + 1e-9, 0.0], [0.0, 1.0 - 1e-9]):
        with pytest.raises(ValueError):
            _projector(np.array(bad, dtype=complex), ("q",))
    psi = np.array([0.6, 0.8j])
    np.testing.assert_array_equal(_projector(psi, ("q",)).mat, np.outer(psi, psi.conj()))
    with pytest.raises(ValueError):
        _projector(BELL, ("q",))  # register too small


def test_pure_state_normalises():
    vec = 3.0 * ket("0") + 4.0j * ket("1")
    psi = vec / np.linalg.norm(vec)
    rho = pure_state(vec, ("q",))
    np.testing.assert_array_equal(rho.mat, np.outer(psi, psi.conj()))
    assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-15)


def test_tensor_examples():
    zero = pure_state(ket("0"), ("a",))
    prod = tensor(zero, pure_state(ket("0"), ("b",)))
    assert np.allclose(prod.mat, np.outer(ket("00"), ket("00")))
    mixed = DensityMatrix(("a",), np.eye(2) / 2)
    mixed_b = DensityMatrix(("b",), np.eye(2) / 2)
    assert np.allclose(tensor(mixed, mixed_b).mat, np.eye(4) / 4)
    # Bell(A,S) x |0><0|_E: 8x8 initial state of the single-qubit model
    init = tensor(bell_state(), pure_state(ket("0"), ("E",)))
    psi = np.kron(BELL, ket("0"))
    assert np.allclose(init.mat, np.outer(psi, psi.conj()))
    assert init.register.labels == ("A", "S", "E")
    with pytest.raises(ValueError):
        tensor(bell_state(("A", "S")), pure_state(ket("0"), ("A",)))


def test_partial_trace_examples(rng):
    assert np.allclose(partial_trace(bell_state(), ["S"]).mat, np.eye(2) / 2)
    a = random_density(rng, 1, ["a"])
    b = random_density(rng, 2, ["b1", "b2"])
    joint = tensor(a, b)
    assert np.abs(partial_trace(joint, ["a"]).mat - a.mat).max() < 1e-12
    assert np.abs(partial_trace(joint, ["b1", "b2"]).mat - b.mat).max() < 1e-12
    with pytest.raises(ValueError):
        partial_trace(joint, [])


def test_partial_trace_of_tensor_roundtrip(rng):
    for _ in range(20):
        a = random_density(rng, 2, ["a1", "a2"])
        b = random_density(rng, 1, ["b"])
        assert np.abs(partial_trace(tensor(a, b), ["a1", "a2"]).mat - a.mat).max() < 1e-12


def test_partial_transpose_examples(rng):
    # product state: spectrum unchanged, trace norm 1
    prod = tensor(random_density(rng, 1, ["a"]), random_density(rng, 1, ["b"]))
    pt = partial_transpose(prod, ["a"])
    assert trace_norm(pt) == pytest.approx(1.0, abs=1e-12)
    # Bell: eigenvalues {1/2, 1/2, 1/2, -1/2}, trace norm 2
    ptb = partial_transpose(bell_state(), ["S"])
    ev = np.sort(np.linalg.eigvalsh(ptb))
    assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5])
    assert trace_norm(ptb) == pytest.approx(2.0, abs=1e-12)
    # d=4 maximally entangled: trace norm 4
    v = sum(np.kron(ket(f"{i:02b}"), ket(f"{i:02b}")) for i in range(4)) / 2.0
    big = pure_state(v, ("s1", "s2", "a1", "a2"))
    assert trace_norm(partial_transpose(big, ["s1", "s2"])) == pytest.approx(4.0, abs=1e-10)


def test_trace_norm_examples(rng):
    assert trace_norm(np.eye(2)) == pytest.approx(2.0)
    rho = random_density(rng, 2)
    assert trace_norm(rho.mat) == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_trace_distance_examples():
    zero = pure_state(ket("0"), ("q",))
    one = pure_state(ket("1"), ("q",))
    mixed = DensityMatrix(("q",), np.eye(2) / 2)
    assert trace_distance(zero, zero) == 0.0
    # UNNORMALIZED convention: orthogonal pure states at distance 2
    assert trace_distance(zero, one) == pytest.approx(2.0, abs=1e-12)
    assert trace_distance(zero, mixed) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        trace_distance(zero, pure_state(ket("0"), ("p",)))


def test_trace_distance_metric_properties(rng):
    for _ in range(200):
        a = random_density(rng, 1, ["q"])
        b = random_density(rng, 1, ["q"])
        c = random_density(rng, 1, ["q"])
        dab, dba = trace_distance(a, b), trace_distance(b, a)
        assert abs(dab - dba) < 1e-9
        assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-9
        assert dab >= -1e-12


def test_fidelity_examples():
    bell = bell_state()
    mixed = DensityMatrix(("A", "S"), np.eye(4) / 4)
    assert state_fidelity(bell, bell) == pytest.approx(1.0, abs=1e-12)
    zero = pure_state(ket("0"), ("q",))
    one = pure_state(ket("1"), ("q",))
    assert state_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)
    # squared convention: pure vs maximally mixed overlap
    assert state_fidelity(bell, mixed) == pytest.approx(0.25, abs=1e-10)


def test_fidelity_symmetry_and_pure_case(rng):
    for _ in range(50):
        a = random_density(rng, 1, ["q"])
        b = random_density(rng, 1, ["q"])
        assert abs(state_fidelity(a, b) - state_fidelity(b, a)) < 1e-9
    for _ in range(50):
        p = random_pure(rng, 2, ["a", "b"])
        q = random_pure(rng, 2, ["a", "b"])
        overlap = float(np.trace(p.mat @ q.mat).real)  # |<psi|phi>|^2
        assert abs(state_fidelity(p, q) - overlap) < 1e-9


def test_bloch_round_trip(rng):
    assert np.allclose(bloch_to_state((0, 0, 1)).mat, np.diag([1.0, 0.0]))
    assert np.allclose(bloch_to_state((0, 0, 0)).mat, np.eye(2) / 2)
    r_a = np.array([-0.25, -0.92, 0.29])  # inside the ball
    assert np.abs(state_to_bloch(bloch_to_state(r_a)) - r_a).max() < 1e-12
    for _ in range(20):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        assert np.abs(state_to_bloch(bloch_to_state(r)) - r).max() < 1e-12
    with pytest.raises(ValueError):
        bloch_to_state((1.1, 0, 0))


def test_eigendecomposition_reassembly(rng):
    for _ in range(20):
        h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = (h + h.conj().T) / 2
        ev, vecs = np.linalg.eigh(h)
        assert np.abs((vecs * ev) @ vecs.conj().T - h).max() < 1e-10


def test_nkron_and_ket():
    assert np.allclose(nkron(np.eye(2), np.eye(2)), np.eye(4))
    assert ket("10")[2] == 1.0 and ket("10").sum() == 1.0  # first char = MSB

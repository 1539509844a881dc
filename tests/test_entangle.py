import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_density, random_pure, random_unitary
from qcollide import collision, noisytomo
from qcollide.entangle import (
    assistance_2q,
    assistance_upper,
    concurrence_2q,
    concurrence_lower,
    quantifiers,
    witness,
)
from qcollide.qmat import (
    SY,
    DensityMatrix,
    QubitRegister,
    ket,
    partial_trace,
    partial_transpose,
    partial_transpose_mat,
    pure_state,
    tensor,
    trace_norm,
)

BELL = pure_state((ket("00") + ket("11")) / np.sqrt(2), ("A", "S"))


def max_entangled_d4():
    v = sum(np.kron(ket(f"{i:02b}"), ket(f"{i:02b}")) for i in range(4)) / 2.0
    return pure_state(v, ("S1", "S2", "A1", "A2"))


def test_concurrence_examples(rng):
    assert concurrence_2q(BELL) == pytest.approx(1.0, abs=1e-9)
    prod = tensor(random_density(rng, 1, ["A"]), random_density(rng, 1, ["S"]))
    assert concurrence_2q(prod) == pytest.approx(0.0, abs=1e-9)
    p = 0.8
    werner = DensityMatrix(("A", "S"), p * BELL.mat + (1 - p) * np.eye(4) / 4)
    assert concurrence_2q(werner) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-9)
    with pytest.raises(ValueError):
        concurrence_2q(random_density(rng, 1))


def test_assistance_examples():
    assert assistance_2q(BELL) == pytest.approx(1.0, abs=1e-9)
    mixed = DensityMatrix(("A", "S"), np.eye(4) / 4)
    assert assistance_2q(mixed) == pytest.approx(1.0, abs=1e-9)
    # the ideal t1 state: pure system times mixed ancilla
    t1 = DensityMatrix(("A", "S"), np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))
    assert assistance_2q(t1) == pytest.approx(0.0, abs=1e-9)


def test_assistance_upper_examples(rng):
    prod = tensor(random_pure(rng, 1, ["S"]), random_density(rng, 1, ["A"]))
    assert assistance_upper(prod, ["S"]) == pytest.approx(0.0, abs=1e-9)
    assert assistance_upper(BELL, ["S"]) == pytest.approx(1.0, abs=1e-9)
    assert assistance_upper(max_entangled_d4(), ["S1", "S2"]) == pytest.approx(
        np.sqrt(1.5), abs=1e-9
    )


def test_concurrence_lower_examples(rng):
    sep = tensor(random_density(rng, 1, ["S"]), random_density(rng, 1, ["A"]))
    assert concurrence_lower(sep, ["S"]) == pytest.approx(0.0, abs=1e-9)
    assert concurrence_lower(BELL, ["S"]) == pytest.approx(1.0, abs=1e-9)
    assert concurrence_lower(max_entangled_d4(), ["S1", "S2"]) == pytest.approx(
        3 / np.sqrt(6), abs=1e-9
    )
    with pytest.raises(ValueError):
        concurrence_lower(BELL, ["A", "S"])  # not a proper bipartition


def test_witness_exact_case():
    t1 = DensityMatrix(("A", "S"), np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))
    rep = witness(t1, BELL, ["S"], t1_id=2, t2_id=4)
    assert rep.exact and rep.quantum_memory
    assert rep.c_sharp_t1 == pytest.approx(0.0, abs=1e-9)
    assert rep.c_t2 == pytest.approx(1.0, abs=1e-9)
    assert rep.margin == pytest.approx(1.0, abs=1e-9)
    assert rep.c_sharp_upper_t1 is None and rep.c_lower_t2 is None


def test_witness_strictness_boundary():
    # equal quantities must NOT witness quantum memory
    rep = witness(BELL, BELL, ["S"])
    assert not rep.quantum_memory
    assert abs(rep.margin) < 1e-9


def test_witness_rejects_a_pair_that_is_not_in_time_order():
    """The witness compares C♯ at t1 with C at a later t2; a reversed or
    equal pair would read entanglement loss as memory."""
    for t1_id, t2_id in ((2, 0), (2, 2)):
        with pytest.raises(ValueError, match="before"):
            witness(BELL, BELL, ["S"], t1_id=t1_id, t2_id=t2_id)


def test_witness_bound_case():
    big = max_entangled_d4()
    rep = witness(big, big, ["S1", "S2"])
    assert not rep.exact
    assert rep.c_sharp_t1 is None and rep.c_t2 is None
    assert rep.c_sharp_upper_t1 == pytest.approx(np.sqrt(1.5), abs=1e-9)
    assert rep.c_lower_t2 == pytest.approx(np.sqrt(1.5), abs=1e-9)
    assert not rep.quantum_memory  # equal bound values: strict inequality fails


def test_ordering_c_le_assistance(rng):
    for _ in range(500):
        rho = random_density(rng, 2, ["A", "S"], rank=int(rng.integers(1, 5)))
        assert concurrence_2q(rho) <= assistance_2q(rho) + 1e-9


def test_pure_state_quantifiers_agree(rng):
    for _ in range(100):
        psi = random_pure(rng, 2, ["A", "S"])
        red = partial_trace(psi, ["S"])
        expected = np.sqrt(max(0.0, 2 * (1 - red.purity())))
        assert concurrence_2q(psi) == pytest.approx(expected, abs=1e-9)
        assert assistance_2q(psi) == pytest.approx(expected, abs=1e-9)
        assert assistance_upper(psi, ["S"]) == pytest.approx(expected, abs=1e-9)


def test_lower_bound_validity(rng):
    for _ in range(200):
        rho = random_density(rng, 2, ["A", "S"], rank=int(rng.integers(1, 5)))
        assert concurrence_lower(rho, ["S"]) <= concurrence_2q(rho) + 1e-9


def test_local_unitary_invariance(rng):
    for _ in range(100):
        rho = random_density(rng, 2, ["A", "S"])
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = DensityMatrix(("A", "S"), u @ rho.mat @ u.conj().T, validate=False)
        assert abs(concurrence_2q(rho) - concurrence_2q(rotated)) < 1e-9
        assert abs(assistance_2q(rho) - assistance_2q(rotated)) < 1e-9
        assert abs(assistance_upper(rho, ["S"]) - assistance_upper(rotated, ["S"])) < 1e-9
        assert abs(
            concurrence_lower(rho, ["S"]) - concurrence_lower(rotated, ["S"])
        ) < 1e-9


def reference_pair(rho, system_labels):
    """(C, C♯) of one state from the formulas, one matrix at a time: the
    Wootters pair for two qubits, else the trace-norm lower bound and the
    purity upper bound, each partial transpose through its own norm."""
    mat = rho.mat
    if rho.register.n == 2:
        ev, vecs = np.linalg.eigh(mat)
        ev[ev < 1e-14] = 0.0
        sr = (vecs * np.sqrt(ev)) @ vecs.conj().T
        yy = np.kron(SY, SY)
        herm = sr @ yy @ mat.conj() @ yy @ sr
        lam = np.linalg.eigvalsh((herm + herm.conj().T) / 2)
        lam = np.sort(np.sqrt(np.where(lam < 1e-14, 0.0, lam)))[::-1]
        return max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), lam.sum()
    other = [x for x in rho.register.labels if x not in system_labels]
    m = min(2 ** len(system_labels), 2 ** len(other))
    norms = [np.linalg.svd(partial_transpose(rho, part), compute_uv=False).sum()
             for part in (system_labels, other)]
    lower = max(0.0, np.sqrt(2.0 / (m * (m - 1))) * (max(norms) - 1.0))
    purity = partial_trace(rho, system_labels).purity()
    return lower, np.sqrt(max(0.0, 2.0 * (1.0 - purity)))


_SPLITS = {"1|1": (("A", "S"), ["S"]),
           "2|2": (("A1", "A2", "S1", "S2"), ["S1", "S2"]),
           "1|3": (("A1", "A2", "S1", "S2"), ["S1"])}


def _bell_state(labels):
    """The Bell state on (A, S), or a Bell pair on each (Ai, Si)."""
    if len(labels) == 2:
        return DensityMatrix(labels, BELL.mat)
    # kron orders the factors (A1, S1, A2, S2); reorder to (A1, A2, S1, S2).
    pair = np.kron(BELL.mat, BELL.mat).reshape((2,) * 8)
    return DensityMatrix(labels, pair.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16))


def _state(labels, rng, kind):
    """A random state of random rank, or one whose zero eigenvalues sit at
    -1e-17 (round-off below zero), or the Bell state."""
    if kind == "bell":
        return _bell_state(labels)
    d = 2 ** len(labels)
    ev = np.zeros(d)
    rank = int(rng.integers(1, d + 1))
    ev[:rank] = rng.dirichlet(np.ones(rank))
    if kind == "negative":
        ev[rank:] = -1e-17
    u = random_unitary(rng, d)
    return DensityMatrix(labels, (u * ev) @ u.conj().T, validate=False)


@settings(max_examples=40, deadline=None)
@given(split=st.sampled_from(sorted(_SPLITS)), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["random", "negative", "bell"]),
                      min_size=1, max_size=6))
@example(split="1|1", seed=0, kinds=["bell", "negative", "random"])
@example(split="2|2", seed=1, kinds=["bell", "negative", "random"])
@example(split="1|3", seed=2, kinds=["bell", "negative", "random"])
def test_stacked_quantifiers_match_per_state(split, seed, kinds):
    """The quantifiers of a stack against each state on its own, through the
    public functions and through the per-state formulas, to 1e-12."""
    labels, system = _SPLITS[split]
    rng = np.random.default_rng(seed)
    states = [_state(labels, rng, kind) for kind in kinds]
    mats = np.stack([rho.mat for rho in states])
    reg = QubitRegister(labels)
    exact, conc, assist = quantifiers(mats, system, register=reg)
    assert exact == (split == "1|1")
    assert conc.shape == assist.shape == (len(states),)
    for rho, c, a in zip(states, conc, assist):
        assert quantifiers(rho, system) == (exact, pytest.approx(c, abs=1e-12),
                                            pytest.approx(a, abs=1e-12))
        want_c, want_a = reference_pair(rho, system)
        assert abs(c - want_c) <= 1e-12 and abs(a - want_a) <= 1e-12
    if exact:
        assert np.abs(concurrence_2q(mats) - conc).max() <= 1e-12
        assert np.abs(assistance_2q(mats) - assist).max() <= 1e-12
    else:
        assert np.abs(concurrence_lower(mats, system, register=reg) - conc).max() <= 1e-12
        assert np.abs(assistance_upper(mats, system, register=reg) - assist).max() <= 1e-12


def two_sided_lower(mats, register, system):
    """The trace-norm lower bound of a stack with both partial transposes,
    m~ * max(||rho^{T_S}|| - 1, ||rho^{T_A}|| - 1), each through ``trace_norm``."""
    other = [x for x in register.labels if x not in system]
    m = min(2 ** len(system), 2 ** len(other))
    norms = [trace_norm(partial_transpose_mat(mats, register.indices(part), register.n))
             for part in (system, other)]
    return np.maximum(0.0, np.sqrt(2.0 / (m * (m - 1)))
                      * np.maximum(norms[0] - 1.0, norms[1] - 1.0))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_one_sided_lower_bound_equals_two_sided_bit_for_bit(n, data, seed):
    """``concurrence_lower`` takes one partial transpose, since rho^{T_A} is
    the transpose of rho^{T_S}; it equals the two-sided form bit for bit on
    a random stack of unit-trace Hermitian matrices (not always positive) on
    2-5 qubits, for any proper system part."""
    labels = [f"q{i}" for i in range(n)]
    system = data.draw(st.lists(st.sampled_from(labels), min_size=1, max_size=n - 1,
                                unique=True))
    rng = np.random.default_rng(seed)
    d = 2 ** n
    g = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    mats = (g + g.conj().swapaxes(-1, -2)) / 2
    mats /= np.trace(mats, axis1=-2, axis2=-1).real[:, None, None]
    reg = QubitRegister(labels)
    assert np.array_equal(concurrence_lower(mats, system, register=reg),
                          two_sided_lower(mats, reg, system))


def test_one_sided_lower_bound_equals_two_sided_on_the_toy_estimator_stack():
    """The same on the stack that ``simulate`` passes for the noisy mitigated
    toy run (every state and its 20 bootstrap replicas, 256 shots, seed 3)."""
    model, noise = collision.toy_model(), noisytomo.NoiseConfig(t1_us=280.0)
    series = collision.evolve_series(model, 2, noise)
    reg = series[0].joint_state.register
    mats = noisytomo.tomography_estimates([rec.joint_state for rec in series], reg.labels,
                                          256, 3, noise, True)
    assert mats.shape == (3, 21, 16, 16)
    assert np.array_equal(concurrence_lower(mats, model.system_labels, register=reg),
                          two_sided_lower(mats, reg, model.system_labels))


def test_stacked_trace_norm_mixes_hermitian_and_not(rng):
    """A stack with Hermitian and non-Hermitian matrices: each takes its own
    route, as on its own."""
    herm = random_density(rng, 2).mat
    other = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    stack = np.stack([herm, other, herm.T])
    got = trace_norm(stack)
    assert got.shape == (3,)
    assert np.abs(got - [trace_norm(m) for m in stack]).max() <= 1e-12
    assert abs(got[1] - np.linalg.svd(other, compute_uv=False).sum()) <= 1e-12


def test_stacked_quantifiers_need_a_register():
    with pytest.raises(ValueError):
        concurrence_lower(np.stack([BELL.mat]), ["S"])

"""Fast paths against slow references: the tomography reconstruction and
its forward map (the outcome table of every setting), the per-qubit
tomography maps against the dense 4^k Pauli tables and the peak memory of a
replica-stack reconstruction, the batched bootstrap,
the estimator's shot path against ``_sample_state``, ``mitigate_readout`` and
``reconstruct`` on a ``ShotCounts`` table, the
superoperator contraction of ``_superop_at`` and ``unitary_of_circuit``, the
column-blocked ``_contract_at`` against one ``tensordot``, the fused circuit
application against one contraction per gate, the one channel type (its
read-only superoperator), the channel conversions (the batched circuit
channel, the Choi matrix, the transfer matrix with its cached Pauli columns,
and the native-gate superoperators),
the stacked state fidelity, ``channel.apply``, and the qubit diagnostics
that read the channel's affine Bloch map (the BLP objective and its norm
kernel, the grid's record scan against the point-by-point scan, the
objective's derivatives and Newton refine against Nelder-Mead, and the
Bloch-image mesh), and the one-pass collision series against the per-n
evolution, with the CPTP property of every channel it yields and its
stacked read-off against a per-record loop."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    amplitude_damping_kraus,
    assert_cptp,
    depolarizing_kraus,
    phase_damping_kraus,
    random_density,
    random_unitary,
)
from test_channel import random_channel, random_kraus
from qcollide import circuit as circ
from qcollide import collision, noisytomo, nonmarkov
from qcollide.channel import (
    Channel,
    KrausChannel,
    _contract_at,
    _pauli_columns,
    _superop,
    _superop_at,
    amplitude_damping_channel,
    apply,
    apply_extended,
    choi_of_channel,
    compose,
    depolarizing_channel,
    embed_operator,
    identity_channel,
    pauli_basis,
    phase_damping_channel,
    transfer_of_channel,
    unitary_channel,
)
from qcollide.circuit import Circuit, Gate, unitary_of_circuit
from qcollide.noisytomo import (
    NoiseConfig,
    ShotCounts,
    TomographyJob,
    all_settings,
    noisy_channel_of_circuit,
    reconstruct,
    sample,
)
from qcollide.qmat import (
    PAULIS,
    DensityMatrix,
    QubitRegister,
    bloch_to_state,
    nkron,
    partial_trace,
    partial_trace_mat,
    state_fidelity,
    state_fidelity_mat,
    state_to_bloch,
    trace_distance,
)

TOL = 1e-12


def reference_reconstruct(counts):
    """Per-Pauli-string linear inversion and simplex projection, one nkron
    product per string."""
    k = len(counts.measured)
    settings_k = all_settings(k)
    dim = 2**k
    expectations = {"I" * k: 1.0}
    for pstring in itertools.product("IXYZ", repeat=k):
        pstring = "".join(pstring)
        if pstring == "I" * k:
            continue
        vals = []
        for setting in settings_k:
            if all(p == "I" or p == s for p, s in zip(pstring, setting)):
                freqs = counts.frequencies(setting)
                signs = np.ones(dim)
                for pos, p in enumerate(pstring):
                    if p == "I":
                        continue
                    bit = (np.arange(dim) >> (k - 1 - pos)) & 1
                    signs *= 1.0 - 2.0 * bit
                vals.append(float(freqs @ signs))
        expectations[pstring] = float(np.mean(vals))
    est = np.zeros((dim, dim), dtype=complex)
    for pstring, val in expectations.items():
        est += val * nkron(*(PAULIS[c] for c in pstring))
    est /= dim
    est = (est + est.conj().T) / 2
    ev, vecs = np.linalg.eigh(est)
    projected = noisytomo._project_simplex(ev)
    mat = (vecs * projected) @ vecs.conj().T
    return (mat + mat.conj().T) / 2, float(np.abs(projected - ev).sum())


def reference_bootstrap(counts, rng, reps=20):
    """One ShotCounts per replica, reconstructed one at a time, every draw
    from ``rng``."""
    out = []
    for _ in range(reps):
        resampled = [rng.multinomial(counts.shots, counts.frequencies(setting))
                     for setting in counts.settings]
        out.append(reference_reconstruct(ShotCounts(counts.measured, counts.shots,
                                                    counts.settings, resampled))[0])
    return out


def bootstrap_stream(seed, n):
    return noisytomo._stream(seed, noisytomo._BOOTSTRAP, n)


def _bootstrap_states(counts, rng, reps=20):
    """(reps, 2^k, 2^k) reconstructed states of ``reps`` multinomial
    resamples of the counts, each made exactly Hermitian.

    Each replica draws one multinomial per setting, in ``counts.settings``
    order, from ``rng``; all replicas are reconstructed in one call:
    the estimator's bootstrap on a ``ShotCounts`` table."""
    k = len(counts.measured)
    row = {s: i for i, s in enumerate(all_settings(k))}
    freqs = noisytomo._frequencies(counts.counts)
    table = np.zeros((reps, 3**k, 2**k))
    table[:, [row[s] for s in counts.settings]] = noisytomo._bootstrap_tables(
        freqs, counts.shots, rng, reps)
    mats, _ = noisytomo._reconstruct_frequencies(table)
    return (mats + mats.conj().swapaxes(-1, -2)) / 2


def random_counts(seed, k, shots=512, mitigated=False):
    """Counts for every setting; mitigated counts are real and may be 0."""
    rng = np.random.default_rng(seed)
    counts = []
    for _ in range(3**k):
        probs = rng.dirichlet(np.full(2**k, 0.5))
        if mitigated:
            vals = np.where(rng.random(2**k) < 0.2, 0.0, probs * shots * rng.random(2**k))
            if not vals.any():
                vals[0] = 1.0
            vals = vals / vals.sum() * shots
        else:
            vals = rng.multinomial(shots, probs)
        counts.append(vals)
    return ShotCounts(tuple(f"q{i}" for i in range(k)), shots, all_settings(k), counts)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), mitigated=st.booleans())
@example(seed=0, k=4, mitigated=False)
@example(seed=1, k=4, mitigated=True)
def test_reconstruct_matches_reference(seed, k, mitigated):
    counts = random_counts(seed, k, mitigated=mitigated)
    got = reconstruct(counts)
    want_mat, want_dist = reference_reconstruct(counts)
    assert np.abs(got.state.mat - want_mat).max() <= TOL
    assert abs(got.projection_distance - want_dist) <= TOL


def reference_tomography_tables(k):
    """The dense linear maps of k-qubit tomography over the 4^k Pauli strings
    in ``itertools.product("IXYZ", repeat=k)`` order, one ``nkron`` per
    string: the tables the per-qubit maps replaced.

    * ``signs`` (2^k, 4^k): the eigenvalue ±1 of each string on each outcome;
    * ``weights`` (3^k, 4^k): 1/#compatible for each setting that measures
      every non-identity factor of the string, else 0;
    * ``paulis`` (4^k, 2^k, 2^k): the strings scaled by 1/2^k."""
    dim = 2**k
    pstrings = np.array(list(itertools.product(range(4), repeat=k))).reshape(-1, k)
    settings_k = np.array(list(itertools.product(range(1, 4), repeat=k))).reshape(-1, k)
    bits = (np.arange(dim)[:, None] >> (k - 1 - np.arange(k))) & 1
    identity = pstrings == 0
    signs = np.where(identity[None], 1.0, 1.0 - 2.0 * bits[:, None, :]).prod(axis=-1)
    compatible = (identity[None] | (pstrings[None] == settings_k[:, None])).all(axis=-1)
    weights = compatible / compatible.sum(axis=0)
    paulis = np.stack([nkron(*(PAULIS[c] for c in p))
                       for p in itertools.product("IXYZ", repeat=k)]) / dim
    return signs, weights, paulis


def _pairs_last(t, k, x, y):
    """A (..., x·y)^k-indexed table, factors (x_1, y_1, ..., x_k, y_k), as
    (..., x^k, y^k)."""
    lead = t.shape[:-1]
    t = t.reshape(lead + (x, y) * k)
    n = len(lead)
    order = [*range(n), *(n + 2 * i for i in range(k)), *(n + 2 * i + 1 for i in range(k))]
    return t.transpose(order).reshape(lead + (x**k, y**k))


def test_pauli_maps_match_dense_tables():
    """One 6x4 map per qubit forward and one 4x6 map per qubit back give
    the dense 4^k-table results, k = 1..5: the outcome table of a matrix,
    and the linear-inversion estimate Σ_P <P> P / 2^k of frequency tables
    (<I...I> as the frequencies give it).  Both maps are read-only."""
    rng = np.random.default_rng(13)
    for k in range(1, 6):
        signs, weights, paulis = reference_tomography_tables(k)
        dim = 2**k
        vec = rng.normal(size=4**k) + 1j * rng.normal(size=4**k)  # (a_1, b_1, ..., a_k, b_k)
        mat = _pairs_last(vec, k, 2, 2)
        exps = np.einsum("pij,ji->p", paulis, mat) * dim
        want = ((weights > 0) * exps) @ signs.T / dim
        got = noisytomo._apply_per_qubit([noisytomo._FORWARD] * k, vec)
        assert np.abs(_pairs_last(got, k, 3, 2) - want).max() <= TOL * dim, k

        table = rng.random((2,) + (6,) * k)  # (s_1, o_1, ..., s_k, o_k)
        freqs = _pairs_last(table.reshape(2, -1), k, 3, 2)
        exps = ((freqs @ signs) * weights).sum(axis=-2)
        want = np.tensordot(exps, paulis, axes=(1, 0))
        got = noisytomo._apply_per_qubit([noisytomo._INVERSE] * k, table.reshape(2, -1))
        assert np.abs(_pairs_last(got, k, 2, 2) - want).max() <= TOL * dim, k
    for m in (noisytomo._FORWARD, noisytomo._INVERSE):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0


def test_reconstruct_replica_stack_peak_memory():
    """A toy run's state and its 20 bootstrap replicas, a (21, 81, 16)
    frequency table, reconstruct in one call with a peak allocation below
    1 MB: no 4^k Pauli table and no (21, 81, 256) product (3.5 MB)."""
    freqs = np.random.default_rng(5).dirichlet(np.ones(16), size=(21, 81))
    tracemalloc.start()
    try:
        mats, dists = noisytomo._reconstruct_frequencies(freqs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mats.shape == (21, 16, 16) and dists.shape == (21,)
    assert peak < 2**20


def test_bootstrap_matches_reference_loop():
    for k, mitigated in ((2, False), (4, True)):
        counts = random_counts(7, k, shots=256, mitigated=mitigated)
        # Draws follow counts.settings order, which need not be all_settings order.
        counts = ShotCounts(counts.measured, counts.shots, counts.settings[::-1],
                            counts.counts[::-1])
        got = _bootstrap_states(counts, bootstrap_stream(3007, 0), reps=5)
        want = reference_bootstrap(counts, bootstrap_stream(3007, 0), reps=5)
        assert len(got) == len(want)
        for got_mat, mat in zip(got, want):
            assert np.abs(got_mat - mat).max() <= TOL


@st.composite
def shot_path_cases(draw):
    """A random state on 1-5 qubits, k = 1..4 of them measured in a random
    order, shots, a seed, and either no mitigation or calibration runs whose
    readout flips exceed the data's, so that mitigation often clips entries
    to 0."""
    n = draw(st.integers(1, 5))
    labels = [f"q{i}" for i in range(n)]
    measured = tuple(draw(st.permutations(labels))[: draw(st.integers(1, min(4, n)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = random_density(rng, n, labels, rank=draw(st.integers(1, 2**n)))
    noise = draw(st.one_of(st.none(), st.builds(
        lambda f: NoiseConfig(readout={"default": f}),
        st.tuples(st.floats(0.0, 0.1), st.floats(0.0, 0.1)))))
    calibration = None
    if draw(st.booleans()):
        # Calibration flips above the data's over-correct, which clips.
        cal_noise = NoiseConfig(readout={"default": draw(
            st.tuples(st.floats(0.1, 0.4), st.floats(0.1, 0.4)))})
        reg = QubitRegister(measured)
        zero = np.zeros((reg.dim, reg.dim), dtype=complex)
        one = zero.copy()
        zero[0, 0] = one[-1, -1] = 1.0
        cal_shots = draw(st.integers(64, 4096))
        calibration = [noisytomo._sample_state(DensityMatrix(reg, m), measured, cal_shots,
                                               noisytomo._stream(0, noisytomo._CALIBRATION, i),
                                               cal_noise, ("Z" * len(measured),))
                       for i, m in enumerate((zero, one))]
    return (measured, rho, noise, draw(st.integers(1, 2048)),
            draw(st.integers(0, 2**65)), draw(st.integers(0, 1000)), calibration)


@settings(max_examples=30, deadline=None)
@given(shot_path_cases())
def test_estimate_matches_shot_counts_pipeline(case):
    """``noisytomo._estimate`` on count tables gives the state and every
    bootstrap replica of the ShotCounts pipeline, bit for bit, on the
    tomography and bootstrap streams n of the seed."""
    measured, rho, noise, shots, seed, n, calibration = case
    invs = None
    if calibration is not None:
        zkey = "Z" * len(measured)
        invs = noisytomo._confusion_inverses(*(c.frequencies(zkey) for c in calibration))
    got = noisytomo._estimate(rho, measured, shots, seed, n, noise, invs)

    counts = noisytomo._sample_state(rho, measured, shots,
                                     noisytomo._stream(seed, noisytomo._TOMOGRAPHY, n), noise,
                                     all_settings(len(measured)))
    if calibration is not None:
        counts = noisytomo.mitigate_readout(counts, *calibration)
    want = reconstruct(counts).state
    assert want.register.labels == measured
    assert got.shape == (21,) + want.mat.shape
    assert np.array_equal(got[0], want.mat)
    assert np.array_equal(got[1:], _bootstrap_states(counts, bootstrap_stream(seed, n)))


_SDG = np.diag([1.0, -1.0j]).astype(complex)
_BASIS_ROTATION = {"X": circ.H_MATRIX, "Y": circ.H_MATRIX @ _SDG, "Z": np.eye(2, dtype=complex)}


def reference_measurement_probs(rho, measured, setting, noise):
    """One setting at a time: rotate each measured qubit into the setting's
    basis, relax it for the measurement duration, trace out the rest and flip
    each outcome axis with its confusion matrix: the sampling before the
    forward table map."""
    reg = rho.register
    mat = rho.mat
    for q, pauli in zip(measured, setting):
        mat = _superop_at(_superop([_BASIS_ROTATION[pauli]]), mat, [reg.index(q)], reg.n)
    rho_rot = DensityMatrix(reg, mat, validate=False)
    if noise is not None:
        thermal = reference_thermal_ops(noise, noise.duration("MEASURE"))
        if thermal:
            for q in measured:
                acc = _superop_at(_superop(thermal), rho_rot.mat, [reg.index(q)], reg.n)
                rho_rot = DensityMatrix(reg, acc, validate=False)
    marg = partial_trace(rho_rot, list(measured))
    k = len(measured)
    probs = np.diag(marg.mat).real.reshape([2] * k)
    probs = probs.transpose(marg.register.indices(measured)).reshape(-1)
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    if noise is not None:
        probs = probs.reshape([2] * k)
        for axis, q in enumerate(measured):
            p01, p10 = noise.readout_probs(q)
            conf = np.array([[1 - p01, p10], [p01, 1 - p10]])
            probs = np.moveaxis(
                np.tensordot(conf, np.moveaxis(probs, axis, 0), axes=(1, 0)), 0, axis
            )
        probs = probs.reshape(-1)
    return probs


@st.composite
def readout_noise(draw, labels):
    """T2 <= 2 T1, a measurement duration that may be 0, and readout flips
    with per-label overrides on some of the labels."""
    t1 = draw(st.floats(20.0, 500.0))
    durations = dict(noisytomo.DEFAULT_DURATIONS_NS,
                     MEASURE=draw(st.one_of(st.just(0.0), st.floats(1.0, 5000.0))))
    flips = st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3))
    readout = {"default": draw(flips)}
    for q in labels:
        if draw(st.booleans()):
            readout[q] = draw(flips)
    return NoiseConfig(t1_us=t1, t2_us=draw(st.floats(0.05, 2.0)) * t1,
                       gate_duration_ns=durations, readout=readout)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_measurement_probs_match_per_setting_loop(n, data, seed):
    labels = [f"q{i}" for i in range(n)]
    k = data.draw(st.integers(1, min(4, n)))
    measured = tuple(data.draw(st.permutations(labels))[:k])
    noise = data.draw(st.one_of(st.none(), readout_noise(labels)))
    rho = random_density(np.random.default_rng(seed), n, labels)
    table = noisytomo._measurement_probs(rho, measured, noise)
    assert table.shape == (3**k, 2**k)
    for row, setting in zip(table, all_settings(k)):
        want = reference_measurement_probs(rho, measured, setting, noise)
        assert np.abs(row - want).max() <= TOL


def test_sampling_the_evolved_state_matches_sampling_the_circuit():
    noise = NoiseConfig()
    for model, n in ((collision.single_qubit_model(), 2), (collision.toy_model(), 1)):
        measured = model.ancilla_labels + model.system_labels
        job = TomographyJob(collision.build_circuit(model, n, native=True), measured,
                            shots=256, seed=5)
        state = collision.evolve(model, n, noise).joint_state
        got = noisytomo._sample_state(state, measured, 256, np.random.default_rng(5), noise)
        assert np.array_equal(got.counts, sample(job, noise=noise).counts)


@st.composite
def kraus_cases(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(3, n)))
    positions = draw(st.permutations(range(n)))[:k]
    n_ops = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, positions, n_ops, seed


@settings(max_examples=40, deadline=None)
@given(kraus_cases(), st.sampled_from([(), (3,), (2, 3)]))
def test_apply_at_matches_embedded_sandwich(case, batch):
    n, positions, n_ops, seed = case
    rng = np.random.default_rng(seed)
    d, dim = 2 ** len(positions), 2**n
    ops = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / (2 * d)
           for _ in range(n_ops)]
    shape = batch + (dim, dim)
    mats = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / dim
    embedded = [embed_operator(k, positions, n) for k in ops]
    want = sum(e @ mats @ e.conj().T for e in embedded)
    assert np.abs(_superop_at(_superop(ops), mats, positions, n) - want).max() <= TOL


@settings(max_examples=20, deadline=None)
@given(kraus_cases())
def test_unitary_of_circuit_matches_embedded_product(case):
    n, _, n_gates, seed = case
    rng = np.random.default_rng(seed)
    labels = [f"q{i}" for i in range(n)]
    gates, want = [], np.eye(2**n, dtype=complex)
    for _ in range(n_gates):
        wires = list(rng.permutation(n)[: rng.integers(1, min(2, n) + 1)])
        u = random_unitary(rng, 2 ** len(wires))
        gates.append(Gate("UNITARY", [labels[w] for w in wires], matrix=u))
        want = embed_operator(u, wires, n) @ want
    assert np.abs(unitary_of_circuit(Circuit(labels, gates, 0.3))
                  - np.exp(0.3j) * want).max() <= TOL


def reference_contract_at(op, tensor, axes):
    """One ``tensordot`` over all columns, then the axes moved back: the
    contraction before the column blocks."""
    m = len(axes)
    t = np.tensordot(op.reshape([2] * (2 * m)), tensor,
                     axes=(list(range(m, 2 * m)), list(axes)))
    return np.moveaxis(t, list(range(m)), list(axes))


@st.composite
def contraction_cases(draw):
    """A 1-3-qubit unitary (k axes) or superoperator (2k axes) on any of the
    2n axes of an n-qubit matrix, n = 1..6, behind 0-2 batch axes."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(3, n)))
    m = 2 * k if draw(st.booleans()) else k
    axes = tuple(draw(st.permutations(range(2 * n)))[:m])
    batch = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    return n, axes, batch, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(contraction_cases())
@example((6, (2, 4, 8, 10), (), 1))  # toy state: 16x16 on 256 columns
@example((4, (0, 2, 4, 6), (16,), 2))  # toy input stack: 16x16 on 256 columns
@example((3, (0, 1, 2, 3, 4, 5), (16,), 3))  # two-qubit input stack: 64x64 on 16
@example((3, (0, 1, 2, 3, 4, 5), (3, 3), 0))  # 64x64 on 9: one product
@example((3, (0, 1, 2, 3, 4, 5), (17,), 5))  # 64x64 on 17: last block of 9
@example((3, (0, 1, 2, 3, 4, 5), (3, 7), 6))  # 64x64 on 21: last block of 13
def test_contract_at_blocks_match_one_tensordot(case):
    """The column-blocked ``_contract_at`` gives the bits of one
    ``tensordot`` over all columns."""
    n, axes, batch, seed = case
    rng = np.random.default_rng(seed)
    d = 2 ** len(axes)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    shape = batch + (2,) * (2 * n)
    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    axes = [len(batch) + a for a in axes]
    np.testing.assert_array_equal(_contract_at(op, tensor, axes),
                                  reference_contract_at(op, tensor, axes))


@settings(max_examples=40, deadline=None)
@given(contraction_cases(), st.sampled_from([(1,), (3,), (2, 2)]))
@example((6, (2, 4, 8, 10), (), 1), (3,))  # blocked: 16x16 on 256 columns
@example((3, (0, 1, 2, 3, 4, 5), (3, 7), 6), (2,))  # blocked: 64x64 on 21
def test_contract_at_operator_stack_matches_each_operator(case, stack):
    """A stack of operators gives each operator's own contraction, bit for
    bit, with the stack axes first, on the one-product and the blocked path."""
    n, axes, batch, seed = case
    rng = np.random.default_rng(seed)
    d = 2 ** len(axes)
    ops = rng.normal(size=stack + (d, d)) + 1j * rng.normal(size=stack + (d, d))
    shape = batch + (2,) * (2 * n)
    tensor = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    axes = [len(batch) + a for a in axes]
    got = _contract_at(ops, tensor, axes)
    assert got.shape == stack + tensor.shape
    for idx in np.ndindex(stack):
        np.testing.assert_array_equal(got[idx], _contract_at(ops[idx], tensor, axes))


def reference_channel_choi(c, noise, keep):
    """Trace-1 Choi matrix of the circuit channel on the kept qubits, one
    circuit run per |i><j|: the construction before the batched one."""
    reg = c.register
    pos = sorted(reg.indices(keep))
    k = len(pos)
    d = 2**k
    full = [sum(((i >> (k - 1 - b)) & 1) << (reg.n - 1 - p) for b, p in enumerate(pos))
            for i in range(d)]
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            eij = np.zeros((d, d), dtype=complex)
            eij[i, j] = 1.0
            inp = np.zeros((reg.dim, reg.dim), dtype=complex)
            inp[full[i], full[j]] = 1.0
            out = noisytomo._apply_circuit_to_matrix(c, inp, noise)
            choi += np.kron(partial_trace_mat(out, pos, reg.n), eij)
    return choi / d


def random_circuit(rng, n, n_gates, native):
    """Native gates (SX, X, RZ, ECR) or, if not native, 1- and 2-qubit UNITARYs."""
    labels = [f"q{i}" for i in range(n)]
    gates = []
    for _ in range(n_gates):
        wires = [labels[w] for w in rng.permutation(n)[: rng.integers(1, min(2, n) + 1)]]
        if not native:
            gates.append(Gate("UNITARY", wires, matrix=random_unitary(rng, 2 ** len(wires))))
        elif len(wires) == 2:
            gates.append(Gate("ECR", wires))
        else:
            kind = ("SX", "X", "RZ")[rng.integers(3)]
            theta = rng.uniform(0, 2 * np.pi) if kind == "RZ" else None
            gates.append(Gate(kind, wires, theta=theta))
    return Circuit(labels, gates)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), data=st.data(), noisy=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_noisy_channel_of_circuit_matches_reference_loop(n, data, noisy, seed):
    rng = np.random.default_rng(seed)
    c = random_circuit(rng, n, 6, native=noisy)
    keep = data.draw(st.permutations(c.register.labels))[: data.draw(st.integers(1, min(3, n)))]
    noise = NoiseConfig() if noisy else None
    got = choi_of_channel(noisy_channel_of_circuit(c, noise, keep=keep)).mat
    assert np.abs(got - reference_channel_choi(c, noise, keep)).max() <= TOL


def per_gate_apply(c, mat, noise):
    """One ``_superop_at`` contraction per gate: the circuit application
    before gate fusion."""
    reg = c.register
    out = np.asarray(mat, dtype=complex)
    for g in c.gates:
        out = _superop_at(noisytomo._gate_superop(g, noise), out, reg.indices(g.qubits), reg.n)
    return out


def fusion_circuit(rng, n, n_gates, native):
    """Native gates with RZ runs (RZ, SX, X, ECR) or UNITARYs on 1 to 3 qubits."""
    labels = [f"q{i}" for i in range(n)]
    gates = []
    for _ in range(n_gates):
        arity = rng.integers(1, min(2 if native else 3, n) + 1)
        wires = [labels[w] for w in rng.permutation(n)[:arity]]
        if not native:
            gates.append(Gate("UNITARY", wires, matrix=random_unitary(rng, 2**arity)))
        elif arity == 2:
            gates.append(Gate("ECR", wires))
        else:
            kind = ("RZ", "RZ", "SX", "X")[rng.integers(4)]
            theta = rng.uniform(-2 * np.pi, 2 * np.pi) if kind == "RZ" else None
            gates.append(Gate(kind, wires, theta=theta))
    return Circuit(labels, gates)


def assert_fused_matches_per_gate(c, noise, batch, rng):
    shape = batch + (c.register.dim,) * 2
    mat = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = noisytomo._apply_circuit_to_matrix(c, mat, noise)
    assert got.shape == shape
    assert np.abs(got - per_gate_apply(c, mat, noise)).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), n_gates=st.integers(0, 14), native=st.booleans(),
       noisy=st.booleans(), batch=st.sampled_from([(), (3,)]),
       seed=st.integers(0, 2**32 - 1))
def test_fused_circuit_matches_per_gate_application(n, n_gates, native, noisy, batch, seed):
    rng = np.random.default_rng(seed)
    c = fusion_circuit(rng, n, n_gates, native)
    assert_fused_matches_per_gate(c, NoiseConfig() if native and noisy else None, batch, rng)


def reference_fused_superops(c, noise):
    """``noisytomo._fused_superops`` with each pending 1-qubit superoperator
    folded into the next multi-qubit gate by ``_superop_at`` on the stack of
    all inputs |b><e| of that gate's qubits, in qubit order."""
    pending, blocks, last = {}, [], {}
    for g in c.gates:
        if len(g.qubits) == 1:
            q = g.qubits[0]
            if g.kind == "RZ":
                phase = np.exp(-1j * g.theta)
                diag = np.array([1.0, phase, phase.conjugate(), 1.0])
                pending[q] = diag[:, None] * pending[q] if q in pending else np.diag(diag)
            else:
                s = noisytomo._gate_superop(g, noise)
                pending[q] = s @ pending[q] if q in pending else s
            continue
        s = noisytomo._gate_superop(g, noise)
        folded = [(j, pending.pop(q)) for j, q in enumerate(g.qubits) if q in pending]
        if folded:
            k = len(g.qubits)
            stack = np.eye(4**k, dtype=complex).reshape(4**k, 2**k, 2**k)
            for j, p in folded:
                stack = _superop_at(p, stack, [j], k)
            s = s @ stack.reshape(4**k, 4**k).T
        i = last.get(g.qubits[0])
        if (i is not None and blocks[i][1] == g.qubits
                and all(last.get(q) == i for q in g.qubits)):
            blocks[i][0] = s @ blocks[i][0]
        else:
            last.update(dict.fromkeys(g.qubits, len(blocks)))
            blocks.append([s, g.qubits])
    return blocks + [[p, (q,)] for q, p in pending.items()]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), n_gates=st.integers(0, 16), native=st.booleans(),
       noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fused_superops_match_identity_stack_fold(n, n_gates, native, noisy, seed):
    """The Kronecker lift of the pending 1-qubit superoperators gives the
    blocks of the fold on the identity stack bit for bit: native circuits
    with and without noise, and UNITARY circuits on 1 to 3 qubits without."""
    c = fusion_circuit(np.random.default_rng(seed), n, n_gates, native)
    noise = NoiseConfig() if native and noisy else None
    got, want = noisytomo._fused_superops(c, noise), reference_fused_superops(c, noise)
    assert [labels for _, labels in got] == [labels for _, labels in want]
    for (a, _), (b, _) in zip(got, want):
        assert np.array_equal(a, b)


def _rz(q, theta):
    return Gate("RZ", (q,), theta=theta)


# (gates on qubits a, b, c, d; number of fused blocks; native?)
FUSION_CASES = {
    "1q gates after the last ECR": (
        [Gate("SX", "a"), Gate("ECR", "ab"), Gate("SX", "a"), _rz("b", 0.4),
         Gate("X", "a"), Gate("SX", "b")], 3, True),
    "ECR(a,b), ECR(c,d), ECR(a,b) merge": (
        [Gate("ECR", "ab"), Gate("SX", "b"), Gate("ECR", "cd"), _rz("a", 1.1),
         Gate("ECR", "ab")], 2, True),
    "ECR(a,b), ECR(b,a) do not merge": (
        [Gate("ECR", "ab"), Gate("SX", "a"), Gate("ECR", "ba")], 2, True),
    "ECR(a,b), ECR(b,c), ECR(a,b) do not merge": (
        [Gate("ECR", "ab"), Gate("ECR", "bc"), Gate("ECR", "ab")], 3, True),
    "RZ runs around an X": (
        [_rz("a", 0.3), _rz("a", -1.7), Gate("X", "a"), _rz("a", 2.9), _rz("a", 0.5),
         Gate("SX", "b"), _rz("b", 0.8)], 2, True),
    "3-qubit UNITARY after pending gates on all three": (
        [Gate("SX", "a"), _rz("b", 0.6), Gate("H", "c"), _rz("c", -0.2), Gate("X", "b"),
         Gate("UNITARY", "cab", matrix=random_unitary(np.random.default_rng(9), 8)),
         Gate("SX", "b")], 2, False),
}


@pytest.mark.parametrize("name", sorted(FUSION_CASES))
@pytest.mark.parametrize("batch", [(), (2, 3)])
def test_fused_orderings_match_per_gate_application(name, batch):
    gates, n_blocks, native = FUSION_CASES[name]
    c = Circuit("abcd", gates)
    assert len(noisytomo._fused_superops(c, None)) == n_blocks
    rng = np.random.default_rng(17)
    for noise in (None, NoiseConfig()) if native else (None,):
        assert_fused_matches_per_gate(c, noise, batch, rng)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_choi_of_channel_matches_kron_sandwich(n, env, seed):
    ops = random_kraus(np.random.default_rng(seed), n, env)
    ch = KrausChannel(ops)
    d = ch.in_dim
    phi = np.eye(d).reshape(-1) / np.sqrt(d)  # Σ|jj> / √d
    want = sum(np.kron(k, np.eye(d)) @ np.outer(phi, phi) @ np.kron(k, np.eye(d)).conj().T
               for k in ops)
    assert np.abs(choi_of_channel(ch).mat - want).max() <= TOL


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 2), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_transfer_of_channel_matches_pauli_trace_loop(n, env, seed):
    ops = random_kraus(np.random.default_rng(seed), n, env)
    ch = KrausChannel(ops)
    basis = [p for _, p in pauli_basis(n)]
    want = np.array([[np.trace(pa.conj().T @ sum(k @ pb @ k.conj().T for k in ops)).real
                      for pb in basis] for pa in basis])
    assert np.abs(transfer_of_channel(ch) - want).max() <= TOL


def dilated_channel_pair(rng, n, env):
    """One random n-qubit channel twice: as the Kraus operators <e|U|0>_env
    of a Haar unitary U on (env, system), and read off the images of the
    circuit that runs U with the environment in |0> and traces it out."""
    d = 2**n
    u = random_unitary(rng, d * 2**env)
    ops = [u[e * d:(e + 1) * d, :d] for e in range(2**env)]
    labels = tuple(f"e{i}" for i in range(env)) + tuple(f"s{i}" for i in range(n))
    c = Circuit(labels, [Gate("UNITARY", labels, matrix=u)])
    return ops, noisy_channel_of_circuit(c, None, keep=labels[env:])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_compose_and_read_off_channels_match_kraus_references(n, env, seed):
    """``compose`` is the product of superoperators: on Kraus-built and
    read-off channels alike its Choi matrix (the reshuffled superoperator,
    and ``choi_of_channel``) matches the Kraus-product reference.  A channel
    read off images has the transfer matrix of the same channel built from
    Kraus operators."""
    rng = np.random.default_rng(seed)
    a_ops, a_read = dilated_channel_pair(rng, n, env)
    b_ops, b_read = dilated_channel_pair(rng, n, env)
    a, b = KrausChannel(a_ops), KrausChannel(b_ops)
    d = 2**n
    assert np.abs(transfer_of_channel(a_read) - transfer_of_channel(a)).max() <= TOL
    vecs = [(ka @ kb).reshape(-1) for ka in a_ops for kb in b_ops]
    want = sum(np.outer(v, v.conj()) for v in vecs) / d
    for x, y in itertools.product((a, a_read), (b, b_read)):
        ab = compose(x, y)
        s = ab.superop.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        assert np.abs(s / d - want).max() <= TOL
        assert np.abs(choi_of_channel(ab).mat - want).max() <= TOL


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       p=st.floats(0.0, 1.0))
def test_channel_is_only_its_read_only_superoperator(n, env, seed, p):
    """One channel type, holding one representation: ``KrausChannel``
    stores ``_superop`` of its Kraus set and ``Channel`` the superoperator it
    is given, bit for bit, read-only, and neither keeps a Kraus set; the
    named channels are ``_superop`` of their Kraus sets.  A channel read off
    a circuit's images, or made by ``compose``, is a ``Channel`` too."""
    rng = np.random.default_rng(seed)
    ops = random_kraus(rng, n, env)
    s = _superop(random_kraus(rng, n, env))
    named = ((amplitude_damping_channel(p), amplitude_damping_kraus(p)),
             (phase_damping_channel(p), phase_damping_kraus(p)),
             (depolarizing_channel(p, n), depolarizing_kraus(p, n)))
    kraus_built, given = KrausChannel(ops), Channel(s)
    cases = [(kraus_built, _superop(ops)), (given, s)] + [(ch, _superop(k)) for ch, k in named]
    for ch, want in cases:
        assert type(ch) is Channel and not hasattr(ch, "kraus_ops")
        assert np.array_equal(ch.superop, want)
        assert not ch.superop.flags.writeable
    _, read_off = dilated_channel_pair(rng, n, env)
    for ch in (read_off, compose(kraus_built, given)):
        assert type(ch) is Channel and not hasattr(ch, "kraus_ops")


@settings(max_examples=5, deadline=None)
@given(n=st.integers(1, 3))
def test_pauli_columns_are_built_once_and_read_only(n):
    cols = _pauli_columns(n)
    assert cols is _pauli_columns(n)
    assert not cols.flags.writeable
    with pytest.raises(ValueError):
        cols[0, 0] = 0.0
    assert np.array_equal(cols, np.stack([p.reshape(-1) for _, p in pauli_basis(n)], axis=1))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 4), batch=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_stacked_fidelity_matches_per_pair(n, batch, seed):
    """``state_fidelity_mat`` on two (batch, d, d) stacks against
    ``state_fidelity`` pair by pair, for states of any rank and pairs of
    equal states (fidelity 1, where the clip acts)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(batch):
        a, b = (random_density(rng, n, rank=int(rng.integers(1, 2**n + 1))) for _ in range(2))
        pairs.append((a, a if rng.integers(3) == 0 else b))
    got = state_fidelity_mat(np.stack([a.mat for a, _ in pairs]),
                             np.stack([b.mat for _, b in pairs]))
    want = [state_fidelity(a, b) for a, b in pairs]
    assert got.shape == (batch,)
    assert np.abs(got - want).max() <= TOL


def reference_thermal_ops(noise, duration):
    """Every product of a phase-damping and an amplitude-damping Kraus
    operator over the duration (none for a duration <= 0): the uncompressed
    thermal Kraus set."""
    if duration <= 0:
        return []
    t1, t2 = noise.t1_us * 1000.0, noise.t2_us * 1000.0
    gamma = 1.0 - np.exp(-duration / t1)
    lam = 1.0 - np.exp(-2.0 * duration * max(1.0 / t2 - 1.0 / (2.0 * t1), 0.0))
    return [kp @ ka for kp in phase_damping_kraus(lam)
            for ka in amplitude_damping_kraus(gamma)]


def reference_native_ops(noise, kind, u):
    """Depolarizing Kraus set times u, then every product with the embedded
    thermal operators of each qubit: the uncompressed Kraus set."""
    nq = int(np.log2(u.shape[0]))
    p = noise.depol_1q if nq == 1 else noise.depol_2q
    ops = [k @ u for k in depolarizing_kraus(p, nq)]
    thermal = reference_thermal_ops(noise, noise.duration(kind))
    if thermal:
        for pos in range(nq):
            ops = [embed_operator(t, [pos], nq) @ k for t in thermal for k in ops]
    return ops


@settings(max_examples=25, deadline=None)
@given(t1=st.floats(20.0, 500.0), t2_ratio=st.floats(0.1, 1.9),
       depol_1q=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
       depol_2q=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
       scale=st.one_of(st.just(0.0), st.floats(0.25, 4.0)))
# Noise weaker than 1e-10 (no depolarizing, durations scaled by 1e-7): no
# eigenvalue cutoff may drop it.
@example(t1=280.0, t2_ratio=180.0 / 280.0, depol_1q=0.0, depol_2q=0.0, scale=1e-7)
def test_native_superop_matches_uncompressed_product(t1, t2_ratio, depol_1q, depol_2q, scale):
    durations = {k: v * scale for k, v in noisytomo.DEFAULT_DURATIONS_NS.items()}
    noise = NoiseConfig(t1_us=t1, t2_us=t2_ratio * t1, depol_1q=depol_1q,
                        depol_2q=depol_2q, gate_duration_ns=durations)
    for kind, u in (("SX", circ.SX_MATRIX), ("X", circ.X_MATRIX), ("ECR", circ.ECR_MATRIX)):
        want = sum(np.kron(k, k.conj()) for k in reference_native_ops(noise, kind, u))
        assert np.abs(noise.native_superop[kind] - want).max() <= TOL


def reference_apply(ops, rho):
    """Σ K ρ K†, one Kraus operator at a time: ``channel.apply`` before it
    became one superoperator contraction on every qubit."""
    out = np.zeros((len(ops[0]), len(ops[0])), dtype=complex)
    for k in ops:
        out += k @ rho.mat @ k.conj().T
    return DensityMatrix(rho.register, out, validate=False)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_kraus_sum(n, env, seed):
    rng = np.random.default_rng(seed)
    ops = random_kraus(rng, n, env)
    rho = random_density(rng, n)
    got = apply(KrausChannel(ops), rho)
    assert got.register == rho.register
    assert np.abs(got.mat - reference_apply(ops, rho).mat).max() <= TOL


def reference_backflow(ops1, ops2, r):
    """The BLP objective before the closed form: the change in trace distance
    between the images of the antipodal states ±r, one state at a time."""
    a, b = bloch_to_state(r), bloch_to_state(-r)
    return (trace_distance(reference_apply(ops2, a), reference_apply(ops2, b))
            - trace_distance(reference_apply(ops1, a), reference_apply(ops1, b)))


@settings(max_examples=30, deadline=None)
@given(env1=st.integers(1, 2), env2=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_backflow_closed_form_matches_trace_distances(env1, env2, seed):
    rng = np.random.default_rng(seed)
    ops1, ops2 = random_kraus(rng, 1, env1), random_kraus(rng, 1, env2)
    a1 = transfer_of_channel(KrausChannel(ops1))[1:, 1:]
    a2 = transfer_of_channel(KrausChannel(ops2))[1:, 1:]
    thetas, phis = rng.uniform(0, np.pi, 6), rng.uniform(0, 2 * np.pi, 6)
    got = nonmarkov._backflow(a1, a2, nonmarkov._direction(thetas, phis))
    for theta, phi, value in zip(thetas, phis, got):
        r = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
        assert abs(value - reference_backflow(ops1, ops2, r)) <= TOL


@settings(max_examples=20, deadline=None)
@given(env=st.integers(1, 2), mesh=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_bloch_image_samples_match_per_state_images(env, mesh, seed):
    ops = random_kraus(np.random.default_rng(seed), 1, env)
    got = collision.bloch_image_samples(collision.EvolutionRecord(0, None, KrausChannel(ops)),
                                        mesh=mesh)
    want = [state_to_bloch(reference_apply(ops, bloch_to_state(r)))
            for r in collision._fibonacci_sphere(mesh)]
    assert np.shape(got) == (mesh, 3)
    assert np.abs(np.asarray(got) - want).max() <= TOL


# blp_delta of the default-noise single-model channels at n = 2 and 4, as the
# per-state grid search computed it before the closed form.
NOISY_BLP_DELTA = 1.734696027899183


def test_noisy_blp_delta_matches_per_state_search():
    model = collision.single_qubit_model()
    ch2, ch4 = (collision.evolve(model, n, NoiseConfig()).reduced_channel for n in (2, 4))
    delta, (ra, rb) = nonmarkov.blp_max_increase(ch2, ch4)
    assert abs(delta - NOISY_BLP_DELTA) <= TOL
    assert np.array_equal(rb, -ra)
    assert abs(np.linalg.norm(ra) - 1.0) <= TOL


def reference_first_better(flat):
    """The BLP grid scan point by point: adopt v if v > best + 1e-12."""
    best_i, best_val = 0, -np.inf
    for i, v in enumerate(flat.tolist()):
        if v > best_val + 1e-12:
            best_i, best_val = i, v
    return best_i, best_val


def reference_blp_search(ch1, ch2):
    """(grid value, refined value) of the BLP search before the Newton refine:
    the same 2-degree grid and first-strictly-better scan, then SciPy's
    Nelder-Mead from the grid point at tight tolerances."""
    from scipy.optimize import minimize

    a1 = np.ascontiguousarray(transfer_of_channel(ch1)[1:, 1:])
    a2 = np.ascontiguousarray(transfer_of_channel(ch2)[1:, 1:])
    step = np.deg2rad(2.0)
    thetas = np.arange(0.0, np.pi + 1e-12, step)
    phis = np.arange(0.0, 2 * np.pi, step)
    best_i, best_val = reference_first_better(nonmarkov._backflow(
        a1, a2, nonmarkov._direction(thetas[:, None], phis[None, :])).ravel())
    res = minimize(lambda p: -nonmarkov._backflow(a1, a2, nonmarkov._direction(*p)),
                   x0=[thetas[best_i // len(phis)], phis[best_i % len(phis)]],
                   method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 4000})
    return max(0.0, best_val), max(0.0, best_val, -res.fun)


IDEAL_SINGLE = collision.evolve_series(collision.single_qubit_model(), 4)


def random_kraus_channel(rng, rank):
    """Rank-``rank`` qubit channel from the blocks of a random isometry."""
    iso, _ = np.linalg.qr(rng.normal(size=(2 * rank, 2)) + 1j * rng.normal(size=(2 * rank, 2)))
    return KrausChannel([iso[2 * i:2 * i + 2] for i in range(rank)])


def random_thermal_channel(rng):
    """Thermal relaxation (amplitude damping times dephasing) with T1 in
    20-500 us and T2/T1 in 0.05-2 over 1 ns to 300 us, after a random unitary
    half of the time.  Long durations at short T2 give Bloch blocks of rank 1
    or 2 to round-off."""
    t1 = rng.uniform(20.0, 500.0)
    noise = NoiseConfig(t1_us=t1, t2_us=rng.uniform(0.05, 2.0) * t1)
    ch = KrausChannel(reference_thermal_ops(noise, rng.uniform(1.0, 3e5)))
    if rng.integers(2):
        ch = compose(ch, unitary_channel(random_unitary(rng, 2)))
    return ch


@st.composite
def blp_channels(draw):
    """A qubit channel: a random Kraus set of rank 1-4 (rank 1 is a unitary),
    a random thermal relaxation, or the ideal single model's n = 2 channel,
    whose Bloch block is zero to round-off."""
    kind = draw(st.sampled_from(["kraus", "thermal", "ideal"]))
    if kind == "ideal":
        return IDEAL_SINGLE[2].reduced_channel
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "kraus":
        return random_kraus_channel(rng, draw(st.integers(1, 4)))
    return random_thermal_channel(rng)


@settings(max_examples=60, deadline=None)
@given(ch1=blp_channels(), ch2=blp_channels())
@example(ch1=IDEAL_SINGLE[2].reduced_channel, ch2=IDEAL_SINGLE[4].reduced_channel)
# A₁'s smallest singular value is ~1e-2 of its largest: the full Newton step
# from the grid point overshoots the narrow valley of ‖A₁r‖ and must be halved.
@example(ch1=random_kraus_channel(np.random.default_rng(164), 3), ch2=identity_channel())
# A₁ has rank 1 and the grid point lies on its kernel, where ‖A₁r‖ is not
# smooth; the maximum is off that plane.
@example(ch1=random_thermal_channel(np.random.default_rng(3989)),
         ch2=random_thermal_channel(np.random.default_rng(3990)))
def test_blp_newton_refine_matches_nelder_mead(ch1, ch2):
    """The refined maximum is never below the grid value, is within 1e-9 of
    (or better than) the Nelder-Mead reference, and is reached at a unit
    vector without any floating-point warning."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        delta, (ra, rb) = nonmarkov.blp_max_increase(ch1, ch2)
    grid_val, nelder_mead = reference_blp_search(ch1, ch2)
    assert delta >= grid_val
    assert delta >= nelder_mead - 1e-9
    assert abs(np.linalg.norm(ra) - 1.0) <= TOL
    assert np.array_equal(rb, -ra)


@st.composite
def scan_grids(draw):
    """Flat grids that walk from a random start in steps of 0, ±0.5e-12,
    ±1e-12 and ±2e-12 (plateaus and near-ties of the 1e-12 rule), with
    jumps to random values and NaN points."""
    moves = st.sampled_from(["0", "+0.5", "-0.5", "+1", "-1", "+2", "-2", "jump", "nan"])
    value = draw(st.floats(-2.0, 2.0))
    flat = []
    for move in draw(st.lists(moves, min_size=1, max_size=150)):
        if move == "nan":
            flat.append(np.nan)
            continue
        value = draw(st.floats(-2.0, 2.0)) if move == "jump" else value + float(move) * 1e-12
        flat.append(value)
    return np.array(flat)


@settings(max_examples=200, deadline=None)
@given(flat=scan_grids())
@example(flat=np.array([np.nan, np.nan]))
@example(flat=np.array([np.nan, 0.0, 0.8e-12, 1.5e-12, 1.5e-12, np.nan, 3e-12]))
@example(flat=np.array([0.0, 1e-12, 2e-12, 3e-12, 3.5e-12, 4.5e-12]))
def test_record_scan_matches_sequential_scan(flat):
    assert nonmarkov._first_better(flat) == reference_first_better(flat)


def test_record_scan_matches_sequential_scan_on_blp_grids():
    """The same on the full 2-degree grids of the ideal and noisy single
    model's (n = 2, n = 4) channel pairs (the ideal one has plateaus)."""
    step = np.deg2rad(2.0)
    r = nonmarkov._direction(np.arange(0.0, np.pi + 1e-12, step)[:, None],
                             np.arange(0.0, 2 * np.pi, step)[None, :])
    noisy = collision.evolve_series(collision.single_qubit_model(), 4, NoiseConfig())
    for series in (IDEAL_SINGLE, noisy):
        a1, a2 = (np.ascontiguousarray(transfer_of_channel(series[n].reduced_channel)[1:, 1:])
                  for n in (2, 4))
        flat = nonmarkov._backflow(a1, a2, r).ravel()
        assert nonmarkov._first_better(flat) == reference_first_better(flat)


def reference_backflow_norms(a1, a2, r):
    """The BLP objective with ``np.linalg.norm`` along the last axis, as
    ``_backflow`` computed it before its three-component norm kernel."""
    return 2 * (np.linalg.norm(r @ a2.T, axis=-1) - np.linalg.norm(r @ a1.T, axis=-1))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["channel", "matrix", "ideal"]), seed=st.integers(0, 2**32 - 1))
@example(kind="ideal", seed=0)
def test_backflow_norm_kernel_matches_linalg_norm_bit_for_bit(kind, seed):
    """``_backflow`` equals the ``np.linalg.norm`` form bit for bit on the
    full 2-degree grid, on random vectors in the grid's shape and on single
    (3,) vectors (the case Newton's refine evaluates), for the Bloch blocks
    of random qubit channels, of random real 3x3 matrices scaled by 1e-6 to
    1e2, and of the ideal single model's (n = 2, n = 4) pair."""
    rng = np.random.default_rng(seed)
    if kind == "channel":
        a1, a2 = (np.ascontiguousarray(
            transfer_of_channel(random_channel(rng, 1, int(rng.integers(1, 3))))[1:, 1:])
            for _ in range(2))
    elif kind == "matrix":
        a1, a2 = rng.normal(size=(2, 3, 3)) * 10.0 ** rng.uniform(-6, 2, size=(2, 1, 1))
    else:
        a1, a2 = (np.ascontiguousarray(
            transfer_of_channel(IDEAL_SINGLE[n].reduced_channel)[1:, 1:]) for n in (2, 4))
    step = np.deg2rad(2.0)
    grid = nonmarkov._direction(np.arange(0.0, np.pi + 1e-12, step)[:, None],
                                np.arange(0.0, 2 * np.pi, step)[None, :])
    for r in (grid, rng.normal(size=grid.shape)):
        assert np.array_equal(nonmarkov._backflow(a1, a2, r), reference_backflow_norms(a1, a2, r))
    for r in rng.normal(size=(50, 3)):
        got = nonmarkov._backflow(a1, a2, r)
        want = reference_backflow_norms(a1, a2, r)
        assert type(got) is type(want) and np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["channel", "matrix", "ideal"]), seed=st.integers(0, 2**32 - 1))
@example(kind="ideal", seed=0)
def test_grid_backflow_norm_kernel_matches_linalg_norm_bit_for_bit(kind, seed):
    """The grid search's kernel on the stored (3, 16,380) grid equals the
    ``np.linalg.norm`` form on the (91, 180, 3) grid bit for bit, in grid
    order, for the Bloch blocks the search reads off random qubit channels
    and off the ideal single model's (n = 2, n = 4) pair, and for random
    real 3x3 matrices scaled by 1e-6 to 1e2."""
    rng = np.random.default_rng(seed)
    if kind == "channel":
        a1, a2 = (nonmarkov._bloch_block(random_channel(rng, 1, int(rng.integers(1, 3))))
                  for _ in range(2))
    elif kind == "matrix":
        a1, a2 = rng.normal(size=(2, 3, 3)) * 10.0 ** rng.uniform(-6, 2, size=(2, 1, 1))
    else:
        a1, a2 = (nonmarkov._bloch_block(IDEAL_SINGLE[n].reduced_channel) for n in (2, 4))
    step = np.deg2rad(2.0)
    grid = nonmarkov._direction(np.arange(0.0, np.pi + 1e-12, step)[:, None],
                                np.arange(0.0, 2 * np.pi, step)[None, :])
    assert np.array_equal(nonmarkov._grid()[2], grid.reshape(-1, 3).T)
    assert nonmarkov._grid()[2].flags.c_contiguous and not nonmarkov._grid()[2].flags.writeable
    assert np.array_equal(nonmarkov._grid_backflow(a1, a2),
                          reference_backflow_norms(a1, a2, grid).ravel())


@pytest.mark.parametrize("noise", [None, NoiseConfig()], ids=["ideal", "default-noise"])
def test_bloch_block_is_the_transfer_matrix_block_bit_for_bit(noise):
    """The Pauli transfer matrix is a plain read-only array, and the one
    Bloch-block read, ``nonmarkov._bloch_block``, is its ``[1:, 1:]``: the
    same bits in the same strided layout, on which the BLP search's bits
    depend, for every record of the single model's series."""
    for rec in collision.evolve_series(collision.single_qubit_model(), 10, noise):
        m = transfer_of_channel(rec.reduced_channel)
        assert type(m) is np.ndarray and not m.flags.writeable
        block = nonmarkov._bloch_block(rec.reduced_channel)
        assert np.array_equal(m[1:, 1:], block)
        assert m[1:, 1:].strides == block.strides


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_backflow_derivatives_match_finite_differences(seed):
    """The analytic gradient and Hessian of 2(‖A₂r‖ − ‖A₁r‖) against central
    differences (step 1e-5) of the objective and of the analytic gradient at
    a random point of R³ (the largest gap over 3,000 seeds was 3e-7)."""
    rng = np.random.default_rng(seed)
    a1, a2 = (transfer_of_channel(random_channel(rng, 1, 2))[1:, 1:] for _ in range(2))
    r = rng.normal(size=3)
    grad, hess = nonmarkov._backflow_derivatives(a1, a2, r)
    h, eye = 1e-5, np.eye(3)
    fd_grad = [(nonmarkov._backflow(a1, a2, r + h * e) - nonmarkov._backflow(a1, a2, r - h * e))
               / (2 * h) for e in eye]
    fd_hess = [(nonmarkov._backflow_derivatives(a1, a2, r + h * e)[0]
                - nonmarkov._backflow_derivatives(a1, a2, r - h * e)[0]) / (2 * h) for e in eye]
    assert np.abs(grad - fd_grad).max() <= 1e-5
    assert np.abs(hess - np.array(fd_hess)).max() <= 1e-5


def test_blp_argmax_is_stable_under_channel_round_off():
    """A relative change of 1e-15 in every superoperator entry of the noisy
    single (2, 4) pair moves the refined argmax by at most 1e-12 (a
    Nelder-Mead refine stopping at xatol 1e-8 moved it by ~1e-8)."""
    model = collision.single_qubit_model()
    records = collision.evolve_series(model, 4, NoiseConfig())
    pair = (records[2].reduced_channel, records[4].reduced_channel)
    delta, (ra, _) = nonmarkov.blp_max_increase(*pair)
    rng = np.random.default_rng(7)
    for _ in range(20):
        perturbed = [Channel(
            ch.superop * (1 + 1e-15 * rng.normal(size=ch.superop.shape))) for ch in pair]
        d, (r, _) = nonmarkov.blp_max_increase(*perturbed)
        assert abs(d - delta) <= TOL
        assert np.abs(r - ra).max() <= 1e-12


def reference_step_ops(model, step):
    """(matrix, labels) pairs of collision number ``step`` (1-based), written
    out from the model definitions: the step list before the series."""
    if model.kind == "SingleQubit":
        return [(collision.collision_unitary(model.g_dt), ("S", "E"))]
    if model.kind == "TwoQubitExchange":
        return [(collision.two_qubit_unitary(model.g_dt), ("S1", "S2", "E"))]
    u = collision.toy_unitary() if model.kind == "Toy" else collision.swap_unitary()
    if step == 2:
        u = u.conj().T
    return [(u, ("E1", "S1")), (u, ("E2", "S2"))]


def reference_evolve(model, n, noise):
    """(joint state, reduced channel) after n collisions, each n evolved
    anew: the whole prep + n-step circuit on the register (prepared and
    transpiled as one circuit when noisy), and the channel of the n-step
    circuit on system + environment."""
    noisy = noise is not None
    prep = [Gate("H", (a,)) for a in model.ancilla_labels]
    prep += [Gate("CNOT", pair) for pair in zip(model.ancilla_labels, model.system_labels)]
    steps = [Gate("UNITARY", labels, matrix=u)
             for step in range(1, n + 1) for u, labels in reference_step_ops(model, step)]
    c = Circuit(model.register, (prep if noisy else []) + steps)
    se = Circuit(QubitRegister(model.system_labels + model.env_labels), steps)
    if noisy:
        c, se = circ.transpile(c), circ.transpile(se)
    full = noisytomo.apply_noisy_circuit(c, None if noisy else model.initial_state, noise)
    joint = partial_trace(full, model.ancilla_labels + model.system_labels)
    return joint, noisy_channel_of_circuit(se, noise, keep=model.system_labels)


@st.composite
def model_series(draw, max_collisions=3):
    """One of the four models (random g_dt where it has one) and a series
    length within its step limit."""
    kind = draw(st.sampled_from(["single", "two-qubit", "toy", "swap"]))
    if kind in ("toy", "swap"):
        model = collision.toy_model() if kind == "toy" else collision.swap_model()
        return model, draw(st.integers(0, 2))
    g_dt = draw(st.floats(-np.pi, np.pi))
    build = collision.single_qubit_model if kind == "single" else collision.two_qubit_model
    return build(g_dt), draw(st.integers(0, max_collisions))


@st.composite
def device_noise(draw):
    """T2 <= 2 T1 and depolarizing rates up to about 5x a current device's."""
    t1 = draw(st.floats(20.0, 500.0))
    return NoiseConfig(t1_us=t1, t2_us=draw(st.floats(0.05, 2.0)) * t1,
                       depol_1q=draw(st.floats(0.0, 1e-3)),
                       depol_2q=draw(st.floats(0.0, 4e-2)))


@settings(max_examples=10, deadline=None)
@given(case=model_series(), noise=st.one_of(st.none(), device_noise()))
@example(case=(collision.toy_model(), 2), noise=NoiseConfig())
@example(case=(collision.two_qubit_model(0.7), 3), noise=NoiseConfig())
def test_evolve_series_matches_per_n_evolution(case, noise):
    model, n_max = case
    records = collision.evolve_series(model, n_max, noise)
    assert [r.n for r in records] == list(range(n_max + 1))
    for rec in records:
        joint, channel = reference_evolve(model, rec.n, noise)
        assert rec.joint_state.register == joint.register
        assert np.abs(rec.joint_state.mat - joint.mat).max() <= TOL
        got = choi_of_channel(rec.reduced_channel).mat
        assert np.abs(got - choi_of_channel(channel).mat).max() <= TOL


@settings(max_examples=12, deadline=None)
@given(case=model_series(max_collisions=5), noise=st.one_of(st.none(), device_noise()))
def test_evolve_series_channels_are_cptp(case, noise):
    """Every reduced channel is CPTP within 1e-9 as read off the input stack
    (``assert_cptp``).  The record holds that superoperator and no Kraus
    set."""
    model, n_max = case
    for rec in collision.evolve_series(model, n_max, noise):
        ch = rec.reduced_channel
        assert not hasattr(ch, "kraus_ops")
        assert_cptp(ch, 1e-9)


def reference_series_read_off(model, n_max, noise, mesh):
    """(superoperator, joint state, Bloch images or None) of each record of
    ``evolve_series``, each read off its own input stack and applied alone,
    one record at a time: the channel by a partial trace of that stack, the
    joint state by ``apply_extended``, and the Bloch images by that channel's
    own transfer product."""
    se = QubitRegister(model.system_labels + model.env_labels)
    steps = [Circuit(se, gates) for gates in model.steps[:n_max]]
    prepared = partial_trace(model.initial_state, model.ancilla_labels + model.system_labels)
    if noise is not None:
        prep = circ.transpile(Circuit(prepared.register, model.prep_gates))
        prepared = noisytomo.apply_noisy_circuit(prep, None, noise)
        steps = [circ.transpile(c) for c in steps]
    blocks = [noisytomo._fused_superops(c, noise) for c in steps]
    pos, stack = noisytomo._channel_inputs(se, model.system_labels)
    d = 2 ** len(pos)
    out = []
    for n in range(n_max + 1):
        if n:
            stack = noisytomo._apply_blocks(blocks[min(n, len(steps)) - 1], se, stack)
        channel = Channel(partial_trace_mat(stack, pos, se.n).reshape(d * d, d * d).T)
        joint = apply_extended(channel, prepared, model.system_labels)
        bloch = None
        if d == 2:
            vecs = _pauli_columns(1)
            m = (vecs.conj().T @ channel.superop @ vecs).real
            bloch = m[1:, 0] + collision._fibonacci_sphere(mesh) @ m[1:, 1:].T
        out.append((channel.superop, joint.mat, bloch))
    return out


@settings(max_examples=16, deadline=None)
@given(case=model_series(max_collisions=6), noise=st.one_of(st.none(), device_noise()),
       mesh=st.integers(1, 60))
@example(case=(collision.single_qubit_model(), 10), noise=None, mesh=60)
@example(case=(collision.single_qubit_model(), 4), noise=NoiseConfig(), mesh=60)
@example(case=(collision.toy_model(), 2), noise=NoiseConfig(), mesh=60)
@example(case=(collision.two_qubit_model(), 10), noise=None, mesh=60)
def test_stacked_read_off_matches_per_record_loop_bit_for_bit(case, noise, mesh):
    """``evolve_series`` reads every record off the kept input stacks in one
    partial trace and one contraction, and ``bloch_image_series`` takes one
    transfer product over the records: each superoperator, joint state and
    Bloch image is the per-record loop's, bit for bit."""
    model, n_max = case
    records = collision.evolve_series(model, n_max, noise)
    want = reference_series_read_off(model, n_max, noise, mesh)
    assert len(records) == len(want)
    for rec, (superop, joint, _) in zip(records, want):
        assert np.array_equal(rec.reduced_channel.superop, superop)
        assert np.array_equal(rec.joint_state.mat, joint)
    if len(model.system_labels) == 1:
        images = collision.bloch_image_series(records, mesh)
        assert images.shape == (n_max + 1, mesh, 3)
        for rec, got, (_, _, bloch) in zip(records, images, want):
            assert np.array_equal(got, bloch)
            assert np.array_equal(collision.bloch_image_samples(rec, mesh), bloch)

"""Fast paths against slow references: the table-based tomography
reconstruction and its forward map (the outcome table of every setting), the
batched bootstrap, the superoperator contraction of
``apply_at`` and ``unitary_of_circuit``, the channel conversions (the
batched circuit channel, the Choi matrix, the transfer matrix and the
compressed native-gate Kraus sets), ``channel.apply``, and the qubit
diagnostics that read the channel's affine Bloch map (the BLP objective and
the Bloch-image mesh)."""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import random_density, random_unitary
from test_channel import random_channel
from qcollide import circuit as circ
from qcollide import collision, noisytomo, nonmarkov
from qcollide.channel import (
    amplitude_damping_channel,
    apply,
    apply_at,
    choi_of_channel,
    depolarizing_channel,
    embed_operator,
    pauli_basis,
    phase_damping_channel,
    transfer_of_channel,
)
from qcollide.circuit import Circuit, Gate, unitary_of_circuit
from qcollide.cli import _bootstrap_states
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
    bloch_to_state,
    nkron,
    partial_trace,
    partial_trace_mat,
    state_to_bloch,
    trace_distance,
)

TOL = 1e-12


def reference_reconstruct(counts):
    """Per-Pauli-string linear inversion and simplex projection, one nkron
    product per string: the reconstruction before the tables."""
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


def reference_bootstrap(counts, seed, reps=20):
    """One ShotCounts per replica, reconstructed one at a time."""
    rng = np.random.default_rng([seed, 777])
    k = len(counts.measured)
    out = []
    for _ in range(reps):
        resampled = {}
        for setting in counts.counts:
            draw = rng.multinomial(counts.shots, counts.frequencies(setting))
            resampled[setting] = {
                format(b, f"0{k}b"): int(c) for b, c in enumerate(draw) if c > 0
            }
        out.append(reference_reconstruct(ShotCounts(counts.measured, counts.shots,
                                                    resampled))[0])
    return out


def random_counts(seed, k, shots=512, mitigated=False):
    """Counts for every setting; mitigated counts are real and may be 0."""
    rng = np.random.default_rng(seed)
    counts = {}
    for setting in all_settings(k):
        probs = rng.dirichlet(np.full(2**k, 0.5))
        if mitigated:
            vals = np.where(rng.random(2**k) < 0.2, 0.0, probs * shots * rng.random(2**k))
            if not vals.any():
                vals[0] = 1.0
            vals = vals / vals.sum() * shots
        else:
            vals = rng.multinomial(shots, probs)
        counts[setting] = {format(b, f"0{k}b"): (float(v) if mitigated else int(v))
                           for b, v in enumerate(vals) if v > 0}
    return ShotCounts(tuple(f"q{i}" for i in range(k)), shots, counts)


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


def test_tomography_tables_built_once_per_k():
    noisytomo._tomography_tables.cache_clear()
    for _ in range(3):
        reconstruct(random_counts(1, 2))
        reconstruct(random_counts(2, 3))
    info = noisytomo._tomography_tables.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_bootstrap_matches_reference_loop():
    for k, mitigated in ((2, False), (4, True)):
        counts = random_counts(7, k, shots=256, mitigated=mitigated)
        # Draws follow counts.counts order, which need not be all_settings order.
        counts = ShotCounts(counts.measured, counts.shots,
                            dict(reversed(list(counts.counts.items()))))
        got = _bootstrap_states(counts, 3007, reps=5)
        want = reference_bootstrap(counts, 3007, reps=5)
        assert len(got) == len(want)
        for state, mat in zip(got, want):
            assert np.abs(state.mat - mat).max() <= TOL


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
        mat = apply_at([_BASIS_ROTATION[pauli]], mat, [reg.index(q)], reg.n)
    rho_rot = DensityMatrix(reg, mat, validate=False)
    if noise is not None:
        thermal = noisytomo._thermal_kraus(noise, noise.duration("MEASURE"))
        if thermal is not None:
            for q in measured:
                acc = apply_at(thermal.kraus_ops, rho_rot.mat, [reg.index(q)], reg.n)
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
        got = noisytomo._sample_state(state, measured, 256, 5, noise, job.settings)
        assert got.counts == sample(job, noise=noise).counts


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
    assert np.abs(apply_at(ops, mats, positions, n) - want).max() <= TOL


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
    got = choi_of_channel(noisy_channel_of_circuit(c, noise, keep=keep)).rho.mat
    assert np.abs(got - reference_channel_choi(c, noise, keep)).max() <= TOL


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_choi_of_channel_matches_kron_sandwich(n, env, seed):
    ch = random_channel(np.random.default_rng(seed), n, env)
    d = ch.in_dim
    phi = np.eye(d).reshape(-1) / np.sqrt(d)  # Σ|jj> / √d
    want = sum(np.kron(k, np.eye(d)) @ np.outer(phi, phi) @ np.kron(k, np.eye(d)).conj().T
               for k in ch.kraus_ops)
    assert np.abs(choi_of_channel(ch).rho.mat - want).max() <= TOL


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 2), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_transfer_of_channel_matches_pauli_trace_loop(n, env, seed):
    ch = random_channel(np.random.default_rng(seed), n, env)
    basis = [p for _, p in pauli_basis(n)]
    want = np.array([[np.trace(pa.conj().T @ sum(k @ pb @ k.conj().T for k in ch.kraus_ops)).real
                      for pb in basis] for pa in basis])
    assert np.abs(transfer_of_channel(ch).M - want).max() <= TOL


def reference_native_ops(noise, kind, u):
    """Depolarizing Kraus set times u, then every product with the embedded
    thermal operators of each qubit: the uncompressed Kraus set."""
    nq = int(np.log2(u.shape[0]))
    p = noise.depol_1q if nq == 1 else noise.depol_2q
    ops = [k @ u for k in depolarizing_channel(p, nq).kraus_ops]
    duration = noise.duration(kind)
    if duration > 0:
        t1, t2 = noise.t1_us * 1000.0, noise.t2_us * 1000.0
        gamma = 1.0 - np.exp(-duration / t1)
        lam = 1.0 - np.exp(-2.0 * duration * max(1.0 / t2 - 1.0 / (2.0 * t1), 0.0))
        thermal = [kp @ ka for kp in phase_damping_channel(lam).kraus_ops
                   for ka in amplitude_damping_channel(gamma).kraus_ops]
        for pos in range(nq):
            ops = [embed_operator(t, [pos], nq) @ k for t in thermal for k in ops]
    return ops


# Device-like ranges: every nonzero Choi eigenvalue of a native gate stays
# far above the 1e-10 cutoff of the compression, below which it drops weight.
@settings(max_examples=25, deadline=None)
@given(t1=st.floats(20.0, 500.0), t2_ratio=st.floats(0.1, 1.9),
       depol_1q=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
       depol_2q=st.one_of(st.just(0.0), st.floats(1e-4, 0.05)),
       scale=st.one_of(st.just(0.0), st.floats(0.25, 4.0)))
def test_native_kraus_superop_matches_uncompressed_product(t1, t2_ratio, depol_1q,
                                                           depol_2q, scale):
    durations = {k: v * scale for k, v in noisytomo.DEFAULT_DURATIONS_NS.items()}
    noise = NoiseConfig(t1_us=t1, t2_us=t2_ratio * t1, depol_1q=depol_1q,
                        depol_2q=depol_2q, gate_duration_ns=durations)
    for kind, u in (("SX", circ.SX_MATRIX), ("X", circ.X_MATRIX), ("ECR", circ.ECR_MATRIX)):
        ops = noise.native_kraus[kind]
        assert len(ops) <= u.shape[0] ** 2
        want = sum(np.kron(k, k.conj()) for k in reference_native_ops(noise, kind, u))
        got = sum(np.kron(k, k.conj()) for k in ops)
        assert np.abs(got - want).max() <= TOL


def reference_apply(ch, rho):
    """Σ K ρ K†, one Kraus operator at a time: ``channel.apply`` before it
    became ``apply_at`` on every qubit."""
    out = np.zeros((ch.out_dim, ch.out_dim), dtype=complex)
    for k in ch.kraus_ops:
        out += k @ rho.mat @ k.conj().T
    return DensityMatrix(rho.register, out, validate=False)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), env=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_kraus_sum(n, env, seed):
    rng = np.random.default_rng(seed)
    ch = random_channel(rng, n, env)
    rho = random_density(rng, n)
    got = apply(ch, rho)
    assert got.register == rho.register
    assert np.abs(got.mat - reference_apply(ch, rho).mat).max() <= TOL


def reference_backflow(ch1, ch2, r):
    """The BLP objective before the closed form: the change in trace distance
    between the images of the antipodal states ±r, one state at a time."""
    a, b = bloch_to_state(r), bloch_to_state(-r)
    return (trace_distance(reference_apply(ch2, a), reference_apply(ch2, b))
            - trace_distance(reference_apply(ch1, a), reference_apply(ch1, b)))


@settings(max_examples=30, deadline=None)
@given(env1=st.integers(1, 2), env2=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_backflow_closed_form_matches_trace_distances(env1, env2, seed):
    rng = np.random.default_rng(seed)
    ch1, ch2 = random_channel(rng, 1, env1), random_channel(rng, 1, env2)
    a1 = transfer_of_channel(ch1).bloch_block()
    a2 = transfer_of_channel(ch2).bloch_block()
    thetas, phis = rng.uniform(0, np.pi, 6), rng.uniform(0, 2 * np.pi, 6)
    got = nonmarkov._backflow(a1, a2, nonmarkov._direction(thetas, phis))
    for theta, phi, value in zip(thetas, phis, got):
        r = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
        assert abs(value - reference_backflow(ch1, ch2, r)) <= TOL


@settings(max_examples=20, deadline=None)
@given(env=st.integers(1, 2), mesh=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_bloch_image_samples_match_per_state_images(env, mesh, seed):
    ch = random_channel(np.random.default_rng(seed), 1, env)
    got = collision.bloch_image_samples(collision.EvolutionRecord(0, None, ch), mesh=mesh)
    want = [state_to_bloch(reference_apply(ch, bloch_to_state(r)))
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

"""Fast paths against slow references: the table-based tomography
reconstruction, the batched bootstrap, the superoperator contraction of
``apply_at`` and ``unitary_of_circuit``, and the channel conversions (the
batched circuit channel, the Choi matrix, the transfer matrix and the
compressed native-gate Kraus sets)."""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import random_unitary
from test_channel import random_channel
from qcollide import circuit as circ
from qcollide import noisytomo
from qcollide.channel import (
    amplitude_damping_channel,
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
    all_settings,
    noisy_channel_of_circuit,
    reconstruct,
)
from qcollide.qmat import PAULIS, nkron, partial_trace_mat

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

"""Fast paths against slow references: the table-based tomography
reconstruction, the batched bootstrap, and the superoperator contraction of
``apply_at`` and ``unitary_of_circuit``."""

import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from conftest import random_unitary
from qcollide import noisytomo
from qcollide.channel import apply_at, embed_operator
from qcollide.circuit import Circuit, Gate, unitary_of_circuit
from qcollide.cli import _bootstrap_states
from qcollide.noisytomo import ShotCounts, all_settings, reconstruct
from qcollide.qmat import PAULIS, nkron

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
@given(kraus_cases())
def test_apply_at_matches_embedded_sandwich(case):
    n, positions, n_ops, seed = case
    rng = np.random.default_rng(seed)
    d, dim = 2 ** len(positions), 2**n
    ops = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / (2 * d)
           for _ in range(n_ops)]
    mat = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / dim
    want = sum(embed_operator(k, positions, n) @ mat @ embed_operator(k, positions, n).conj().T
               for k in ops)
    assert np.abs(apply_at(ops, mat, positions, n) - want).max() <= TOL


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

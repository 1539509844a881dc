import numpy as np
import pytest

from conftest import assert_cptp, random_density
from qcollide import collision, noisytomo
from qcollide.channel import apply, choi_of_channel
from qcollide.circuit import Circuit, Gate, bell_prep_circuit, transpile
from qcollide.noisytomo import (
    NoiseConfig,
    ShotCounts,
    TomographyJob,
    _measurement_probs,
    _thermal_superop,
    all_settings,
    apply_noisy_circuit,
    calibration_jobs,
    mitigate_readout,
    noisy_channel_of_circuit,
    reconstruct,
    sample,
    sample_calibration,
)
from qcollide.qmat import (
    DensityMatrix,
    ket,
    nkron,
    partial_trace,
    pure_state,
    state_to_bloch,
    trace_distance,
)

ZERO_DURATIONS = {"SX": 0.0, "X": 0.0, "ECR": 0.0, "RZ": 0.0, "MEASURE": 0.0}


def quiet_noise(**overrides):
    """A noise config with every channel switched off unless overridden."""
    kwargs = dict(
        depol_1q=0.0,
        depol_2q=0.0,
        gate_duration_ns=dict(ZERO_DURATIONS),
        readout={"default": (0.0, 0.0)},
    )
    kwargs.update(overrides)
    return NoiseConfig(**kwargs)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(t1_us=100.0, t2_us=300.0)  # t2 > 2 t1
    with pytest.raises(ValueError):
        NoiseConfig(depol_1q=1.5)
    with pytest.raises(ValueError):
        NoiseConfig(readout={"default": (-0.1, 0.0)})
    with pytest.raises(ValueError):
        NoiseConfig(gate_duration_ns={"SX": -1.0})
    with pytest.raises(ValueError, match="unknown gate duration"):
        NoiseConfig(gate_duration_ns={"ecr": 0.0})  # kinds are upper case


def test_noise_config_text_round_trip():
    cfg = NoiseConfig(t1_us=123.0, t2_us=90.0, depol_2q=0.02,
                      readout={"default": (0.01, 0.02), "A": (0.03, 0.04)})
    back = NoiseConfig.from_text(cfg.to_text())
    assert back == cfg
    assert back.readout_probs("A") == (0.03, 0.04)
    assert back.readout_probs("S") == (0.01, 0.02)
    with pytest.raises(ValueError):
        NoiseConfig.from_text("bogus_key = 1\n")
    with pytest.raises(ValueError):
        NoiseConfig.from_text("seed = 7\n")  # no longer a config key


def test_noise_config_keeps_defaults_for_keys_not_given():
    """Durations and readout flips that are not given keep their defaults,
    whether the config is built directly or read from text."""
    per_label = NoiseConfig.from_text("readout.S = 0.02,0.015\n")
    assert per_label.readout_probs("S") == (0.02, 0.015)
    assert per_label.readout_probs("A") == (0.01, 0.01)
    built = NoiseConfig(gate_duration_ns={"ECR": 600.0})
    assert built.duration("SX") == noisytomo.DEFAULT_DURATIONS_NS["SX"] == 57.0
    assert built.duration("ECR") == 600.0
    assert NoiseConfig.from_text(built.to_text()) == built


def test_zero_noise_channel_equals_ideal():
    c = Circuit(("q",), [Gate("SX", ("q",))])
    ch = noisy_channel_of_circuit(c, quiet_noise())
    rho = pure_state(ket("0"), ("q",))
    out = apply(ch, rho).mat
    u = Gate("SX", ("q",)).unitary()
    assert np.abs(out - u @ rho.mat @ u.conj().T).max() < 1e-9


def test_depolarizing_shrinks_bloch_vector():
    p = 0.1
    c = Circuit(("q",), [Gate("SX", ("q",))])
    ideal = apply_noisy_circuit(c, noise=quiet_noise())
    noisy = apply_noisy_circuit(c, noise=quiet_noise(depol_1q=p))
    r_ideal = state_to_bloch(ideal)
    r_noisy = state_to_bloch(noisy)
    assert np.abs(r_noisy - (1 - p) * r_ideal).max() < 1e-10


def test_thermal_relaxation_decay():
    # |1> idling for T1: excited population drops by e^{-1}
    noise = quiet_noise(
        t1_us=280.0, t2_us=180.0, gate_duration_ns={**ZERO_DURATIONS, "X": 280_000.0}
    )
    c = Circuit(("q",), [Gate("X", ("q",))])
    out = apply_noisy_circuit(c, noise=noise)
    assert out.mat[1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-9)


@pytest.mark.xfail(strict=True, reason="phase damping scales coherences by 1 - lam, not "
                   "sqrt(1 - lam): they decay as exp(d/2T1 - 2d/T2), not exp(-d/T2)")
def test_thermal_coherence_decays_with_t2():
    # Superoperator entry [(0, 1), (0, 1)]: the factor on |0><1| over one ECR.
    factor = _thermal_superop(NoiseConfig(), 533.0)[1, 1]
    assert abs(factor - np.exp(-533.0 / 180_000.0)) <= 1e-12


def test_noisy_channel_is_cpt():
    c = Circuit(("a", "b"), [Gate("SX", ("a",)), Gate("ECR", ("a", "b"))])
    assert_cptp(noisy_channel_of_circuit(c, NoiseConfig()), 1e-9)


def test_noisy_channel_on_kept_qubits_matches_reference():
    # keep (b, d) of a 4-qubit circuit: a and c start in |0> and are traced out
    labels = ("a", "b", "c", "d")
    c = Circuit(labels, [
        Gate("SX", ("a",)), Gate("ECR", ("a", "b")), Gate("SX", ("c",)),
        Gate("ECR", ("c", "d")), Gate("RZ", ("d",), theta=0.3),
        Gate("ECR", ("b", "c")), Gate("X", ("d",)),
    ])
    noise = NoiseConfig()

    def unit(x, y):  # |x><y| on one qubit
        m = np.zeros((2, 2), dtype=complex)
        m[x, y] = 1.0
        return m

    def reduced(h):  # tr_{a,c} of the circuit channel on a Hermitian input
        out = apply_noisy_circuit(c, DensityMatrix(labels, h, validate=False), noise)
        return partial_trace(out, ("b", "d")).mat

    ref = np.zeros((16, 16), dtype=complex)
    for i in range(4):
        for j in range(4):
            e_b, e_d = unit(i >> 1, j >> 1), unit(i & 1, j & 1)
            e_in = nkron(unit(0, 0), e_b, unit(0, 0), e_d)
            # |i><j| = (H1 + i H2) / 2 with H1, H2 Hermitian; the map is linear
            h1 = e_in + e_in.conj().T
            h2 = 1j * (e_in.conj().T - e_in)
            out = (reduced(h1) + 1j * reduced(h2)) / 2
            ref += np.kron(out, np.kron(e_b, e_d))
    ref /= 4
    ch = noisy_channel_of_circuit(c, noise, keep=("b", "d"))
    assert np.abs(choi_of_channel(ch).mat - ref).max() < 1e-9
    with pytest.raises(ValueError):
        noisy_channel_of_circuit(c, noise)  # at most 3 kept qubits


def test_read_off_of_more_than_three_qubits_names_the_read_off():
    """The kept-qubit limit is the circuit-channel read-off's, whichever
    caller (``noisy_channel_of_circuit`` or ``collision.evolve_series``)
    asked for it."""
    c = Circuit(("a", "b", "c", "d"), [Gate("X", ("a",))])
    for call in (lambda: noisy_channel_of_circuit(c, None),
                 lambda: noisytomo._channel_series(c.register, [c], None)):
        with pytest.raises(ValueError, match="circuit channel read-off keeps at most 3 qubits"):
            call()


def test_noisy_channel_transpiles_non_native_gates():
    c = Circuit(("a", "b"), [Gate("CNOT", ("a", "b")), Gate("H", ("a",))])
    got = noisy_channel_of_circuit(c, NoiseConfig()).superop
    assert np.array_equal(got, noisy_channel_of_circuit(transpile(c), NoiseConfig()).superop)


def test_all_settings_canonical_order():
    s1 = all_settings(1)
    assert s1 == ("X", "Y", "Z")
    s2 = all_settings(2)
    assert len(s2) == 9 and s2[0] == "XX" and s2[-1] == "ZZ"
    assert len(all_settings(4)) == 81


def test_sample_examples():
    reg = ("q",)
    zero = Circuit(reg, [])
    job = TomographyJob(zero, reg, shots=4096, seed=1)
    counts = sample(job, settings=("Z",))
    assert counts.counts.tolist() == [[4096, 0]]
    # |+> in Z: binomial around half
    plus = Circuit(reg, [Gate("H", ("q",))])
    counts = sample(TomographyJob(plus, reg, shots=4096, seed=2), settings=("Z",))
    sigma = np.sqrt(4096 * 0.25)
    assert abs(counts.counts[0, 0] - 2048) < 5 * sigma
    # |0> with p01 = 0.02 readout flips
    noise = quiet_noise(readout={"default": (0.02, 0.0)})
    counts = sample(TomographyJob(zero, reg, shots=4096, seed=3),
                    noise=noise, settings=("Z",))
    freq1 = counts.counts[0, 1] / 4096
    assert abs(freq1 - 0.02) < 5 * np.sqrt(0.02 * 0.98 / 4096)


def test_sample_is_reproducible():
    # Without a generator, sample draws from default_rng(job.seed).
    job = TomographyJob(bell_prep_circuit(), ("A", "S"), shots=512, seed=11)
    counts = sample(job).counts
    assert np.array_equal(counts, sample(job).counts)
    assert np.array_equal(counts, sample(job, rng=np.random.default_rng(job.seed)).counts)
    assert sample(job, settings=("ZZ",)).counts[0].any()


def test_sample_rejects_settings_outside_all_settings():
    job = TomographyJob(bell_prep_circuit(), ("A", "S"), shots=64, seed=1)
    for settings in (("X",), ("QQ",), ("XX", "XYZ")):
        with pytest.raises(ValueError, match="are not 2-qubit settings"):
            sample(job, settings=settings)


def test_calibration_budget():
    # an 81-setting 4-qubit job plus the two calibration circuits = 83 runs
    reg = ("a", "b", "c", "d")
    job = TomographyJob(Circuit(reg, []), reg, shots=16)
    cal0, cal1 = calibration_jobs(reg, reg, shots=16)
    assert len(job.settings) + 2 == 83
    assert cal0.circuit.gates == () and len(cal1.circuit.gates) == 4


def test_mitigate_identity_confusion():
    job = TomographyJob(bell_prep_circuit(), ("A", "S"), shots=4096, seed=5)
    counts = sample(job)
    cal0, cal1 = calibration_jobs(("A", "S"), ("A", "S"), shots=4096, seed=50)
    noise = quiet_noise()  # perfect readout
    m = mitigate_readout(counts, sample_calibration(cal0, noise),
                         sample_calibration(cal1, noise))
    for setting in counts.settings:
        assert np.abs(m.frequencies(setting) - counts.frequencies(setting)).max() < 1e-9


def test_mitigate_recovers_flipped_frequencies():
    noise = quiet_noise(readout={"default": (0.05, 0.05)})
    shots = 8192
    plus = Circuit(("q",), [Gate("H", ("q",))])
    job = TomographyJob(plus, ("q",), shots=shots, seed=21)
    counts = sample(job, noise=noise, settings=("Z",))
    cal0, cal1 = calibration_jobs(("q",), ("q",), shots=shots, seed=22)
    m = mitigate_readout(counts, sample_calibration(cal0, noise),
                         sample_calibration(cal1, noise))
    freq0 = m.frequencies("Z")[0]
    sigma = np.sqrt(0.25 / shots)
    assert abs(freq0 - 0.5) < 5 * sigma * 2  # calibration adds its own noise


def test_mitigate_singular_confusion_raises():
    flat = [[50, 50]]
    counts = ShotCounts(("q",), 100, ("Z",), flat)
    cal = ShotCounts(("q",), 100, ("Z",), [[50, 50]])
    with pytest.raises(ValueError):
        mitigate_readout(counts, cal, cal)


def test_reconstruct_bell_high_shots():
    job = TomographyJob(bell_prep_circuit(), ("A", "S"), shots=200_000, seed=9)
    res = reconstruct(sample(job))
    truth = pure_state((ket("00") + ket("11")) / np.sqrt(2), ("A", "S"))
    assert trace_distance(res.state, truth) < 0.01
    assert np.linalg.eigvalsh(res.state.mat).min() > -1e-12
    assert res.projection_distance >= 0.0


def test_reconstruct_requires_complete_settings():
    job = TomographyJob(bell_prep_circuit(), ("A", "S"), shots=64, seed=1)
    counts = sample(job, settings=("ZZ",))
    with pytest.raises(ValueError):
        reconstruct(counts)


def test_reconstruct_output_is_psd_for_biased_counts():
    # wildly biased counts that violate PSD before projection
    k = 2
    biased = [[100, 0, 0, 0] if i % 2 else [0, 0, 0, 100] for i in range(3**k)]
    res = reconstruct(ShotCounts(("a", "b"), 100, all_settings(k), biased))
    assert np.linalg.eigvalsh(res.state.mat).min() >= -1e-12
    assert np.trace(res.state.mat).real == pytest.approx(1.0, abs=1e-9)
    assert res.projection_distance > 0.0


def test_shot_noise_scaling():
    # trace distance to truth ~ O(1/sqrt(shots)): log-log slope -0.5 +- 30%
    truth = pure_state((ket("00") + ket("11")) / np.sqrt(2), ("A", "S"))
    shot_grid = [256, 1024, 4096, 16384]
    means = []
    for shots in shot_grid:
        dists = []
        for seed in range(8):
            job = TomographyJob(bell_prep_circuit(), ("A", "S"),
                                shots=shots, seed=1000 + seed)
            dists.append(trace_distance(reconstruct(sample(job)).state, truth))
        means.append(np.mean(dists))
    slope = np.polyfit(np.log(shot_grid), np.log(means), 1)[0]
    assert -0.65 < slope < -0.35


def test_outcome_bits_follow_measured_order():
    # H on S leaves A in |0> and S in |+>; measured as (S, A) the state is |+0>
    c = Circuit(("A", "S"), [Gate("H", ("S",))])
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    for measured, vec in ((("S", "A"), np.kron(plus, [1.0, 0.0])),
                          (("A", "S"), np.kron([1.0, 0.0], plus))):
        state = reconstruct(sample(TomographyJob(c, measured, shots=200_000))).state
        assert state.register.labels == measured
        assert np.abs(state.mat - np.outer(vec, vec)).max() < 0.02


def test_readout_noise_follows_measured_order():
    # per-qubit readout flips and relaxation must act on the measured qubit's own bit
    noise = NoiseConfig(readout={"A": (0.03, 0.04), "S": (0.2, 0.1), "E": (0.0, 0.0)})
    rho = random_density(np.random.default_rng(5), 3, ["A", "S", "E"])
    for setting in all_settings(2):
        sa = _measurement_probs(rho, ("S", "A"), noise)[all_settings(2).index(setting)]
        as_ = _measurement_probs(rho, ("A", "S"), noise)[all_settings(2).index(setting[::-1])]
        assert np.abs(sa.reshape(2, 2).T - as_.reshape(2, 2)).max() < 1e-14


@pytest.mark.parametrize("make_model", [collision.toy_model, collision.single_qubit_model])
def test_tomography_estimates_calibrate_on_the_measured_qubits(make_model):
    """Mitigated ``tomography_estimates`` runs the calibration circuits on
    the measured qubits alone, and its estimates equal ``_estimate``'s with
    the confusion inverses of calibration runs on the whole model register,
    bit for bit.  Without shots it returns the exact states."""
    model = make_model()
    noise = NoiseConfig()
    states = [rec.joint_state for rec in collision.evolve_series(model, 2, noise)]
    measured = states[0].register.labels
    assert measured == model.ancilla_labels + model.system_labels
    shots, seed = 256, 3
    got = noisytomo.tomography_estimates(states, measured, shots, seed, noise, mitigate=True)

    zkey = "Z" * len(measured)
    jobs = calibration_jobs(model.register, measured, shots)
    invs = noisytomo._confusion_inverses(*(
        sample_calibration(j, noise, noisytomo._stream(seed, noisytomo._CALIBRATION, i))
        .frequencies(zkey) for i, j in enumerate(jobs)))
    want = np.stack([noisytomo._estimate(rho, measured, shots, seed, n, noise, invs)
                     for n, rho in enumerate(states)])
    assert got.shape == (3, 21) + states[0].mat.shape
    assert np.array_equal(got, want)
    # State n's estimate depends on the seed and n alone.
    assert np.array_equal(noisytomo.tomography_estimates(states[:2], measured, shots, seed,
                                                         noise, mitigate=True), want[:2])

    exact = noisytomo.tomography_estimates(states, measured, 0, seed)
    assert np.array_equal(exact, np.stack([rho.mat for rho in states])[:, None])


def test_sample_calibration_matches_sampling_the_z_setting():
    """A calibration run draws the counts of ``sample`` of the all-Z setting
    alone: on a one-qubit register, and on two of three qubits measured out
    of register order."""
    noise = NoiseConfig(readout={"default": (0.03, 0.05), "S": (0.1, 0.02)})
    for labels, measured in ((("S",), ("S",)), (("A", "S", "E"), ("S", "A"))):
        for job in calibration_jobs(labels, measured, shots=512, seed=4):
            got = sample_calibration(job, noise)
            want = sample(job, noise, settings=("Z" * len(measured),))
            assert (got.measured, got.shots, got.settings) == (want.measured, want.shots,
                                                               want.settings)
            assert np.array_equal(got.counts, want.counts)


def test_streams_are_distinct_for_every_seed_purpose_and_n():
    """Every (seed, purpose, n) on a grid has its own stream.  The grid holds
    the keys that a seed·1000 + n numbering confuses (n = 900 and 901 with
    calibration draws, n = 1000 of seed s with n = 0 of seed s + 1) and the
    seeds at which a zero-padded entropy list collides (2^32, 2^64)."""
    seeds = [0, 1, 2, 2**32, 2**32 + 1, 2**64, 2**64 + 1]
    purposes = (noisytomo._TOMOGRAPHY, noisytomo._CALIBRATION, noisytomo._BOOTSTRAP)
    keys = [(s, p, n) for s in seeds for p in purposes for n in (0, 1, 2, 900, 901, 1000)]
    draws = {tuple(noisytomo._stream(*key).integers(2**63, size=4)) for key in keys}
    assert len(draws) == len(keys)
    # The same key is the same stream.
    assert np.array_equal(noisytomo._stream(2**64, 1, 900).integers(2**63, size=4),
                          noisytomo._stream(2**64, 1, 900).integers(2**63, size=4))

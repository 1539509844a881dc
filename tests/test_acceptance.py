"""The nine acceptance criteria, each at its stated tolerance and runtime.

The numeric curve values asserted in criterion 5 were frozen from an
independent brute-force statevector oracle (see notes) before the main
implementation was written.
"""

import time

import numpy as np
import pytest

from conftest import random_density, random_unitary
from qcollide import collision
from qcollide.channel import KrausChannel, apply, choi_of_channel, transfer_of_channel
from qcollide.circuit import (
    Circuit,
    Gate,
    NATIVE_KINDS,
    bell_prep_circuit,
    equivalent_up_to_global_phase,
    gate_count,
    reference_bell_circuit,
    reference_collision_circuit,
    transpile,
    unitary_of_circuit,
)
from qcollide.entangle import (
    assistance_2q,
    assistance_upper,
    concurrence_2q,
    concurrence_lower,
)
from qcollide.nonmarkov import blp_max_increase, bloch_volume, rhp_series
from qcollide.noisytomo import (
    NoiseConfig,
    TomographyJob,
    apply_noisy_circuit,
    calibration_jobs,
    mitigate_readout,
    reconstruct,
    sample,
    sample_calibration,
)
from qcollide.qmat import (
    ket,
    partial_trace,
    pure_state,
    state_fidelity,
    trace_distance,
)


def test_criterion_1_ideal_single_qubit_witness():
    start = time.monotonic()
    model = collision.single_qubit_model(np.pi / 4)
    c_sharp_t1 = assistance_2q(collision.evolve(model, 2).joint_state)
    c_t2 = concurrence_2q(collision.evolve(model, 4).joint_state)
    assert abs(c_sharp_t1 - 0.0) < 1e-9
    assert abs(c_t2 - 1.0) < 1e-9
    assert time.monotonic() - start < 1.0


def test_criterion_2_continuum_limit():
    start = time.monotonic()
    g_dt = 0.17
    for n in range(1, 9):
        rec = collision.evolve(collision.single_qubit_model(g_dt), n)
        m = transfer_of_channel(rec.reduced_channel)
        assert np.abs(m - collision.continuum_transfer(n * g_dt)).max() < 1e-10
    grid = np.linspace(1e-3, 1.4, 50)
    for t in grid:
        assert abs(collision.lindblad_rate(t) - np.tan(t)) < 1e-4
    assert time.monotonic() - start < 5.0


def test_criterion_3_nonmarkov_ideal():
    model = collision.single_qubit_model()
    records = [collision.evolve(model, n) for n in range(5)]
    delta, _ = blp_max_increase(records[2].reduced_channel, records[4].reduced_channel)
    assert abs(delta - 2.0) < 1e-6
    assert abs(bloch_volume(records[2].reduced_channel) - 0.0) < 1e-9
    assert abs(bloch_volume(records[4].reduced_channel) - 1.0) < 1e-9
    series, _, increase = rhp_series(records, model.system_labels)
    vals = dict(series)
    assert increase
    assert abs(vals[2] - 0.0) < 1e-9 and abs(vals[4] - 1.0) < 1e-9


def test_criterion_4_toy_model():
    start = time.monotonic()
    model = collision.toy_model()
    sys_labels = ("S1", "S2")
    r1 = collision.evolve(model, 1)
    r2 = collision.evolve(model, 2)
    assert abs(assistance_upper(r1.joint_state, sys_labels) - 0.0) < 1e-9
    assert abs(concurrence_lower(r2.joint_state, sys_labels) - np.sqrt(1.5)) < 1e-9
    init = partial_trace(model.initial_state, ("A1", "A2", "S1", "S2"))
    assert np.abs(r2.joint_state.mat - init.mat).max() < 1e-12
    # noisy run under the shipped defaults: the witness margin stays positive
    noise = NoiseConfig()
    keep = model.ancilla_labels + model.system_labels
    n1 = partial_trace(
        apply_noisy_circuit(collision.build_circuit(model, 1, native=True),
                            noise=noise), keep)
    n2 = partial_trace(
        apply_noisy_circuit(collision.build_circuit(model, 2, native=True),
                            noise=noise), keep)
    left = assistance_upper(n1, sys_labels)
    right = concurrence_lower(n2, sys_labels)
    assert right - left > 0
    assert time.monotonic() - start < 10.0


# (n, upper bound on assistance at t=n, lower bound on concurrence at t=n)
# frozen from the independent statevector oracle, g_dt = pi/4
TWO_QUBIT_ORACLE = {
    0: (1.0, 1.0),
    1: (0.997009460322, 0.922720403548),
    2: (0.764546972414, 0.355431984216),
    3: (0.188992944040, 0.018021554665),
    4: (0.916143415710, 0.599149352188),
    5: (0.999868795667, 0.983801498501),
    6: (0.999999171403, 0.998712680053),
    7: (0.977242055335, 0.787872761570),
    8: (0.504790562082, 0.136758151830),
    9: (0.531115027778, 0.152700273062),
    10: (0.980322647020, 0.802598106038),
}


def test_criterion_5_two_qubit_generalization():
    model = collision.two_qubit_model(np.pi / 4)
    sys_labels = ("S1", "S2")
    uppers, lowers = {}, {}
    for n, (upper_ref, lower_ref) in TWO_QUBIT_ORACLE.items():
        joint = collision.evolve(model, n).joint_state
        uppers[n] = assistance_upper(joint, sys_labels)
        lowers[n] = concurrence_lower(joint, sys_labels)
        assert abs(uppers[n] - upper_ref) < 1e-9
        assert abs(lowers[n] - lower_ref) < 1e-9
    # a time pair witnessing quantum memory exists in the ideal theory
    pairs = [
        (t1, t2)
        for t1 in uppers
        for t2 in lowers
        if t2 > t1 and lowers[t2] - uppers[t1] > 1e-9
    ]
    assert (3, 6) in pairs


def test_criterion_6_noisy_property_based():
    noise = NoiseConfig()
    model = collision.single_qubit_model()
    # (a) single-qubit witness margin positive under default noise
    r2 = collision.evolve(model, 2, noise=noise)
    r4 = collision.evolve(model, 4, noise=noise)
    assert concurrence_2q(r4.joint_state) - assistance_2q(r2.joint_state) > 0
    # (b) Choi fidelities in [0.5, 1.0], decreasing with n
    fids = []
    for n in range(5):
        ideal = collision.evolve(model, n).reduced_channel
        noisy = collision.evolve(model, n, noise=noise).reduced_channel
        f = state_fidelity(choi_of_channel(ideal), choi_of_channel(noisy))
        assert 0.5 <= f <= 1.0
        fids.append(f)
    assert all(b < a for a, b in zip(fids, fids[1:]))
    assert fids[4] < fids[3] < fids[2]
    # (c) the two-qubit model under 5x inflated two-qubit noise fails the
    # witness at the ideal optimum pair (3, 6)
    inflated = NoiseConfig(depol_2q=5 * NoiseConfig().depol_2q)
    tq = collision.two_qubit_model()
    keep = tq.ancilla_labels + tq.system_labels
    joints = {}
    for n in (3, 6):
        full = apply_noisy_circuit(
            collision.build_circuit(tq, n, native=True), noise=inflated
        )
        joints[n] = partial_trace(full, keep)
    left = assistance_upper(joints[3], ("S1", "S2"))
    right = concurrence_lower(joints[6], ("S1", "S2"))
    assert right - left <= 0


def test_criterion_7_tomography_statistics():
    start = time.monotonic()
    truth = pure_state((ket("00") + ket("11")) / np.sqrt(2), ("A", "S"))
    passes = 0
    for seed in range(100):
        job = TomographyJob(bell_prep_circuit(), ("A", "S"), shots=4096, seed=seed)
        rho = reconstruct(sample(job)).state
        if trace_distance(rho, truth) < 0.05:
            passes += 1
    assert passes >= 99
    # readout mitigation removes synthetic flip bias
    noise = NoiseConfig(
        depol_1q=0.0, depol_2q=0.0,
        gate_duration_ns={k: 0.0 for k in ("SX", "X", "ECR", "RZ", "MEASURE")},
        readout={"default": (0.05, 0.05)},
    )
    job = TomographyJob(bell_prep_circuit(), ("A", "S"), shots=4096, seed=123)
    counts = sample(job, noise=noise)
    raw = reconstruct(counts).state
    cal0, cal1 = calibration_jobs(("A", "S"), ("A", "S"), shots=4096, seed=321)
    mitigated = reconstruct(
        mitigate_readout(counts, sample_calibration(cal0, noise),
                         sample_calibration(cal1, noise))
    ).state
    raw_dist = trace_distance(raw, truth)
    mit_dist = trace_distance(mitigated, truth)
    # residual after mitigation is pure shot noise (3 sigma ~ 0.06 at 4096
    # shots for this 2-qubit reconstruction); the flip bias itself is ~0.27
    assert raw_dist > 0.15
    assert mit_dist < 0.06
    assert time.monotonic() - start < 30.0


def test_criterion_8_transpiler():
    # shipped reference sequences
    bell_ref = reference_bell_circuit()
    ok, phase = equivalent_up_to_global_phase(
        unitary_of_circuit(bell_ref), unitary_of_circuit(bell_prep_circuit()), 1e-8
    )
    assert ok and abs(abs(phase) - np.pi) < 1e-8
    coll_ref = reference_collision_circuit()
    assert np.abs(
        unitary_of_circuit(coll_ref) - collision.collision_unitary(np.pi / 4)
    ).max() < 1e-8
    assert gate_count(coll_ref)["ECR"] <= 2
    # 50 random two-qubit circuits round-trip
    rng = np.random.default_rng(8)
    for _ in range(50):
        u = random_unitary(rng, 4)
        t = transpile(Circuit(("a", "b"), [Gate("UNITARY", ("a", "b"), matrix=u)]))
        assert all(g.kind in NATIVE_KINDS for g in t.gates)
        ok, _ = equivalent_up_to_global_phase(unitary_of_circuit(t), u, 1e-8)
        assert ok


def random_channel(rng, n_qubits=1, env_qubits=1):
    d, de = 2**n_qubits, 2**env_qubits
    u = random_unitary(rng, d * de)
    return KrausChannel([u[e * d:(e + 1) * d, 0:d] for e in range(de)])


def test_criterion_9_invariant_suites():
    rng = np.random.default_rng(99)
    # entanglement ordering and bound validity on 500 random states
    for _ in range(500):
        rho = random_density(rng, 2, ["A", "S"], rank=int(rng.integers(1, 5)))
        c = concurrence_2q(rho)
        assert c <= assistance_2q(rho) + 1e-9
        assert concurrence_lower(rho, ["S"]) <= c + 1e-9
    # local-unitary invariance
    for _ in range(100):
        rho = random_density(rng, 2, ["A", "S"])
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rot = type(rho)(("A", "S"), u @ rho.mat @ u.conj().T, validate=False)
        assert abs(concurrence_2q(rho) - concurrence_2q(rot)) < 1e-9
        assert abs(assistance_2q(rho) - assistance_2q(rot)) < 1e-9
    # CPT preservation on random channels
    for _ in range(100):
        ch = random_channel(rng)
        rho = random_density(rng, 1, ["q"])
        out = apply(ch, rho)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out.mat - out.mat.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(out.mat).min() > -1e-10
    # metric properties of the trace distance
    for _ in range(100):
        a = random_density(rng, 1, ["q"])
        b = random_density(rng, 1, ["q"])
        c3 = random_density(rng, 1, ["q"])
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-9
        assert trace_distance(a, c3) <= (
            trace_distance(a, b) + trace_distance(b, c3) + 1e-9
        )
        assert trace_distance(a, a) == 0.0

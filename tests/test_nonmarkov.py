import numpy as np
import pytest

from conftest import random_unitary
from qcollide import collision
from qcollide.channel import unitary_channel
from qcollide.collision import EvolutionRecord
from qcollide.nonmarkov import blp_max_increase, bloch_volume, rhp_series
from qcollide.qmat import DensityMatrix, ket, pure_state

BELL = pure_state((ket("00") + ket("11")) / np.sqrt(2), ("A", "S"))


def ideal_records(n_max=4):
    model = collision.single_qubit_model()
    return [collision.evolve(model, n) for n in range(n_max + 1)]


def test_rhp_series_ideal():
    series, lower_flag, increase = rhp_series(ideal_records(), ("S",))
    vals = dict(series)
    assert vals[2] == pytest.approx(0.0, abs=1e-9)
    assert vals[4] == pytest.approx(1.0, abs=1e-9)
    assert increase and not lower_flag


def test_rhp_series_unitary_dynamics_constant():
    # local-unitary-only dynamics: concurrence stays 1, no increase
    z = np.kron(np.eye(2), np.diag([1.0, -1.0j]))
    rotated = DensityMatrix(("A", "S"), z @ BELL.mat @ z.conj().T, validate=False)
    ch = unitary_channel(np.diag([1.0, -1.0j]))
    records = [EvolutionRecord(n, s, ch) for n, s in enumerate([BELL, rotated, BELL])]
    series, lower_flag, increase = rhp_series(records, ("S",))
    assert all(abs(v - 1.0) < 1e-9 for _, v in series)
    assert not increase and not lower_flag


def test_rhp_series_flags_lower_bound_for_large_registers():
    model = collision.toy_model()
    records = [collision.evolve(model, n) for n in range(3)]
    series, lower_flag, increase = rhp_series(records, model.system_labels)
    assert lower_flag and increase
    assert series[1][1] == pytest.approx(0.0, abs=1e-9)
    assert series[2][1] == pytest.approx(np.sqrt(1.5), abs=1e-9)


def test_blp_same_channel_is_zero():
    ch = collision.evolve(collision.single_qubit_model(), 1).reduced_channel
    delta, _ = blp_max_increase(ch, ch)
    assert delta == 0.0


def test_blp_ideal_pair():
    recs = ideal_records()
    delta, (ra, rb) = blp_max_increase(
        recs[2].reduced_channel, recs[4].reduced_channel
    )
    assert delta == pytest.approx(2.0, abs=1e-6)
    # maximizers are an antipodal pure pair
    assert np.abs(ra + rb).max() < 1e-6
    assert np.linalg.norm(ra) == pytest.approx(1.0, abs=1e-6)


def test_bloch_volume_examples():
    recs = ideal_records()
    assert bloch_volume(recs[0].reduced_channel) == pytest.approx(1.0, abs=1e-10)
    assert bloch_volume(recs[2].reduced_channel) == pytest.approx(0.0, abs=1e-9)
    assert bloch_volume(recs[4].reduced_channel) == pytest.approx(1.0, abs=1e-9)


def test_bloch_volume_rank_deficient_block_is_exactly_zero():
    # The ideal n = 2 block has singular values of order 1e-16, not exactly 0.
    assert bloch_volume(ideal_records()[2].reduced_channel) == 0.0


def test_bloch_volume_unitary_channels(rng):
    for _ in range(10):
        ch = unitary_channel(random_unitary(rng, 2))
        assert bloch_volume(ch) == pytest.approx(1.0, abs=1e-10)


def test_blp_rejects_non_qubit_channels():
    model = collision.two_qubit_model()
    ch = collision.evolve(model, 1).reduced_channel
    with pytest.raises(ValueError):
        blp_max_increase(ch, ch)
    with pytest.raises(ValueError):
        bloch_volume(ch)

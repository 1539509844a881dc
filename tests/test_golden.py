"""`collision.evolve` against values frozen before the ideal and noisy runs
shared one evolution path: the joint system-ancilla state and the Choi matrix
of the reduced channel, for every model at small n, ideal and under the
default noise model.

Regenerate only for an intended physics change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from qcollide import collision
from qcollide.channel import choi_of_channel
from qcollide.noisytomo import NoiseConfig

GOLDEN = Path(__file__).with_name("data") / "golden_evolve.npz"
DRIFT_TOL = 1e-12

MODELS = {
    "single": lambda: collision.single_qubit_model(0.6),
    "two-qubit": lambda: collision.two_qubit_model(0.7),
    "toy": collision.toy_model,
    "swap": collision.swap_model,
}
# Noisy runs stop at n = 1 to keep this under a few seconds; swap at n = 2
# covers the noisy adjoint step of the pairwise models.
CASES = [(name, False, n) for name in MODELS for n in range(3)]
CASES += [(name, True, n) for name in MODELS for n in range(2)]
CASES += [("swap", True, 2)]


def _outputs(name: str, noisy: bool, n: int) -> dict:
    rec = collision.evolve(MODELS[name](), n, noise=NoiseConfig() if noisy else None)
    key = f"{name}_{'noisy' if noisy else 'ideal'}_{n}"
    return {
        f"{key}_joint": rec.joint_state.mat,
        f"{key}_choi": choi_of_channel(rec.reduced_channel).mat,
    }


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("name,noisy,n", CASES)
def test_evolve_matches_golden(golden, name, noisy, n):
    for key, mat in _outputs(name, noisy, n).items():
        assert np.abs(mat - golden[key]).max() <= DRIFT_TOL, key


if __name__ == "__main__":
    frozen = {}
    for case in CASES:
        frozen.update(_outputs(*case))
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **frozen)
    print(f"wrote {len(frozen)} arrays to {GOLDEN}")

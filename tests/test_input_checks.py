"""Input checks across the modules, one case per input: each bad input
raises ``ValueError``, and the two inputs that are accepted as edge cases
(an empty record list, a noise config with blank and comment lines) give
their result."""

import numpy as np
import pytest

from qcollide import entangle, nonmarkov
from qcollide.channel import (
    KrausChannel,
    apply_extended,
    compose,
    identity_channel,
    transfer_of_channel,
)
from qcollide.circuit import Circuit, decompose_multiqubit, equivalent_up_to_global_phase
from qcollide.noisytomo import (
    NoiseConfig,
    ShotCounts,
    TomographyJob,
    apply_noisy_circuit,
    mitigate_readout,
    sample,
)
from qcollide.qmat import DensityMatrix, pure_state

AS = Circuit(("A", "S"))
ZERO = pure_state(np.array([1.0, 0.0]), ("q",))
CALIBRATION_ON_B = ShotCounts(("b",), 10, ("Z",), [[9, 1]])
X_ON_B = ShotCounts(("b",), 10, ("X",), [[9, 1]])
# The two-qubit trace over the second qubit: a channel from 4 to 2 dimensions.
TRACE_OUT = KrausChannel([np.kron(np.eye(2), [[1.0, 0.0]]), np.kron(np.eye(2), [[0.0, 1.0]])])


def raises(match, build):
    def case():
        with pytest.raises(ValueError, match=match):
            build()
    return case


def noise_config_skips_blank_and_comment_lines():
    text = "\n# relaxation\nt1_us = 100.0  # us\n   \n\t# readout\nreadout.default = 0.02,0.03\n"
    assert NoiseConfig.from_text(text) == NoiseConfig.from_text(
        "t1_us = 100.0\nreadout.default = 0.02,0.03\n")


def rhp_series_of_no_records():
    assert nonmarkov.rhp_series([], ("S",)) == ((), False, False)


@pytest.mark.parametrize("case", [
    pytest.param(raises("not in circuit register", lambda: TomographyJob(AS, ("E",))),
                 id="job-label-outside-register"),
    pytest.param(raises("shots must be positive", lambda: TomographyJob(AS, ("A",), shots=0)),
                 id="job-no-shots"),
    pytest.param(raises("same qubits", lambda: mitigate_readout(
        ShotCounts(("a",), 10, ("Z",), [[5, 5]]), CALIBRATION_ON_B, CALIBRATION_ON_B)),
        id="mitigate-calibration-on-other-qubits"),
    pytest.param(raises("no counts for setting 'Z'", lambda: mitigate_readout(
        ShotCounts(("b",), 10, ("X", "Z"), [[5, 5], [9, 1]]), X_ON_B, X_ON_B)),
        id="mitigate-calibration-without-z-row"),
    pytest.param(raises("does not match circuit register",
                        lambda: apply_noisy_circuit(Circuit(("p",)), ZERO)),
                 id="noisy-circuit-on-other-register"),
    pytest.param(noise_config_skips_blank_and_comment_lines, id="noise-config-blank-lines"),
    pytest.param(raises(r"shape \(1, 3\), not \(1, 2\)",
                        lambda: ShotCounts(("q",), 10, ("Z",), [[1, 2, 3]])),
                 id="counts-wrong-shape"),
    pytest.param(raises("repeated settings", lambda: sample(TomographyJob(AS, ("A", "S"), 64),
                                                            settings=("ZZ", "ZZ"))),
                 id="sample-repeated-setting"),
    pytest.param(raises("shape mismatch",
                        lambda: equivalent_up_to_global_phase(np.eye(2), np.eye(4))),
                 id="phase-shape-mismatch"),
    pytest.param(raises("zero matrix",
                        lambda: equivalent_up_to_global_phase(np.zeros((2, 2)), np.eye(2))),
                 id="phase-zero-matrix"),
    pytest.param(raises("label count", lambda: decompose_multiqubit(np.eye(8), ("a", "b"))),
                 id="qsd-label-count"),
    pytest.param(raises("target label count", lambda: apply_extended(
        identity_channel(2), ZERO, ("q",))), id="apply-extended-target-count"),
    pytest.param(raises("square channel", lambda: transfer_of_channel(TRACE_OUT)),
                 id="transfer-of-non-square-channel"),
    pytest.param(raises("dimension mismatch", lambda: compose(TRACE_OUT, identity_channel(1))),
                 id="compose-mismatched-dimensions"),
    pytest.param(raises("share a register", lambda: entangle.witness(
        pure_state(np.eye(4)[0], ("A", "S")), pure_state(np.eye(4)[0], ("A", "E")), ("S",))),
        id="witness-of-two-registers"),
    pytest.param(raises("non-finite", lambda: DensityMatrix(("q",), [[np.nan, 0], [0, 1]])),
                 id="density-matrix-not-finite"),
    pytest.param(rhp_series_of_no_records, id="rhp-series-of-no-records"),
])
def test_input_check(case):
    case()

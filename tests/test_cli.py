import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qcollide
from qcollide import circuit as circ
from qcollide import cli, collision, entangle, pipeline
from qcollide.cli import MODELS, main
from qcollide.noisytomo import DEFAULT_DURATIONS_NS, NoiseConfig


def read_csv(path):
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    return rows[0], rows[1:]


def test_simulate_ideal_single(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--model", "single", "--out", str(out)]) == 0
    header, rows = read_csv(out / "concurrence.csv")
    assert header == ["n", "C", "C_sharp", "C_err", "C_sharp_err", "fidelity_to_ideal"]
    by_n = {int(r[0]): r for r in rows}
    assert float(by_n[2][2]) == pytest.approx(0.0, abs=1e-9)   # C_sharp(2)
    assert float(by_n[4][1]) == pytest.approx(1.0, abs=1e-9)   # C(4)
    assert all(float(r[5]) == pytest.approx(1.0, abs=1e-9) for r in rows)
    # bloch.csv present for single-qubit systems and parses
    bh, brows = read_csv(out / "bloch.csv")
    assert bh == ["n", "x", "y", "z"] and len(brows) > 0
    nm = dict(read_csv(out / "nonmarkov.csv")[1])
    assert float(nm["blp_delta"]) == pytest.approx(2.0, abs=1e-6)
    assert float(nm["volume_ratio_t1"]) == pytest.approx(0.0, abs=1e-9)
    assert float(nm["volume_ratio_t2"]) == pytest.approx(1.0, abs=1e-9)
    assert nm["rhp_increase"] == "True"
    assert (out / "manifest.txt").exists()


def test_simulate_toy_ideal(tmp_path):
    out = tmp_path / "toy"
    assert main(["simulate", "--model", "toy", "--out", str(out)]) == 0
    header, rows = read_csv(out / "concurrence.csv")
    assert header[1] == "C_lower" and header[2] == "C_sharp_upper"
    by_n = {int(r[0]): r for r in rows}
    assert float(by_n[2][5]) == pytest.approx(1.0, abs=1e-12)  # exact return at t2
    assert float(by_n[1][2]) == pytest.approx(0.0, abs=1e-9)


def test_witness_ideal(tmp_path, capsys):
    out = tmp_path / "run"
    main(["simulate", "--model", "single", "--collisions", "4", "--out", str(out)])
    report = tmp_path / "witness.json"
    rc = main(["witness", "--csv", str(out / "concurrence.csv"),
               "--t1", "2", "--t2", "4", "--out", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["quantum_memory"] is True
    assert data["margin"] == pytest.approx(1.0, abs=1e-9)


def test_witness_strictness(tmp_path):
    # equal values must not witness quantum memory
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(
        "n,C,C_sharp,C_err,C_sharp_err,fidelity_to_ideal\n"
        "0,0.5,0.5,0.0,0.0,1.0\n1,0.5,0.5,0.0,0.0,1.0\n"
    )
    report = tmp_path / "w.json"
    assert main(["witness", "--csv", str(csv_path), "--t1", "0", "--t2", "1",
                 "--out", str(report)]) == 0
    assert json.loads(report.read_text())["quantum_memory"] is False


def test_witness_hardware_like_swap_values(tmp_path):
    # upper bound 0.67 at t1 vs lower bound 0.56 at t2: no quantum memory
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(
        "n,C_lower,C_sharp_upper,C_lower_err,C_sharp_upper_err,fidelity_to_ideal\n"
        "1,0.1,0.67,0.0,0.0,1.0\n2,0.56,0.2,0.0,0.0,1.0\n"
    )
    report = tmp_path / "w.json"
    assert main(["witness", "--csv", str(csv_path), "--t1", "1", "--t2", "2",
                 "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["quantum_memory"] is False
    assert data["margin"] == pytest.approx(0.56 - 0.67, abs=1e-12)


def test_noisy_simulate_positive_margin(tmp_path):
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\nt2_us = 180.0\n")
    out = tmp_path / "noisy"
    rc = main(["simulate", "--model", "single", "--collisions", "4",
               "--noise", str(noise_file), "--shots", "1024", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out / "concurrence.csv")
    by_n = {int(r[0]): r for r in rows}
    margin = float(by_n[4][1]) - float(by_n[2][2])  # C(4) - C_sharp(2)
    assert margin > 0
    # bootstrap errors are populated for shot data
    assert float(by_n[4][3]) > 0


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        main(["simulate", "--model", "single", "--collisions", "3",
              "--out", str(out)])
    for name in ("concurrence.csv", "bloch.csv", "nonmarkov.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("n_max, noisy", [(10, False), (4, True)])
def test_bloch_csv_is_the_csv_writer_rendering_of_its_rows(tmp_path, n_max, noisy):
    """``bloch.csv`` is formatted directly; it equals, byte for byte, a
    ``csv.writer`` rendering of the same rows: n and the Bloch image of each
    of the 60 mesh points under the (ideal or noisy) channel at n."""
    argv = ["simulate", "--model", "single", "--collisions", str(n_max)]
    noise = None
    if noisy:
        (tmp_path / "noise.cfg").write_text("t1_us = 280.0\n")
        argv += ["--noise", str(tmp_path / "noise.cfg"), "--shots", "256", "--seed", "3"]
        noise = NoiseConfig(t1_us=280.0)
    assert main([*argv, "--out", str(tmp_path / "run")]) == 0
    series = collision.evolve_series(collision.single_qubit_model(), n_max, noise)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "x", "y", "z"])
    writer.writerows([n, *p] for n, rec in enumerate(series)
                     for p in collision.bloch_image_samples(rec, mesh=60).tolist())
    assert (tmp_path / "run" / "bloch.csv").read_bytes() == buf.getvalue().encode()


@pytest.mark.parametrize("argv", [
    ["--model", "single"],
    ["--model", "toy", "--noise", "NOISE", "--shots", "256", "--mitigate", "--seed", "3"],
    ["--model", "two-qubit"],
    ["--model", "swap", "--noise", "NOISE", "--shots", "256", "--seed", "3"],
])
def test_simulate_converts_no_channel_and_calls_the_quantifiers_once(tmp_path, argv):
    """A simulate run reads its channels as superoperators, and it evaluates
    the quantifiers of every state and bootstrap replica in one call.  Its
    CSVs are those of the same run without the spy."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    argv = ["simulate", *(str(noise_file) if a == "NOISE" else a for a in argv)]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    with mock.patch.object(entangle, "quantifiers", wraps=entangle.quantifiers) as quant:
        assert main([*argv, "--out", str(tmp_path / "spied")]) == 0
    assert quant.call_count == 1
    names = sorted(p.name for p in (tmp_path / "plain").glob("*.csv"))
    assert names == sorted(p.name for p in (tmp_path / "spied").glob("*.csv"))
    for name in names:
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "spied" / name).read_bytes()


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "bogus", "--out", str(tmp_path)])
    assert exc.value.code == 1
    # shots required with noise
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    assert main(["simulate", "--model", "single", "--noise", str(noise_file),
                 "--out", str(tmp_path / "x")]) == 1
    # missing witness rows
    csv_path = tmp_path / "c.csv"
    csv_path.write_text("n,C,C_sharp,C_err,C_sharp_err,fidelity_to_ideal\n"
                        "0,1.0,1.0,0.0,0.0,1.0\n")
    assert main(["witness", "--csv", str(csv_path), "--t1", "5", "--t2", "6"]) == 1


def cli_output(argv, capsys):
    """(stdout, stderr, exit code) of ``main(argv)``."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return out.out, out.err, code


@pytest.mark.parametrize("argv", [
    [], ["-h"], *([name, "-h"] for name in cli.COMMANDS), ["bogus"],
    ["simulate"], ["simulate", "--model", "bad", "--out", "d"],
    ["simulate", "--out", "d", "extra"], ["witness", "--t1", "x"],
], ids=" ".join)
def test_parser_output_matches_a_full_build(argv, capsys):
    """A run builds only the subparser its first argument names, and its
    help and usage errors are those of a parser with all five built: the
    same stdout, stderr and exit code."""
    full = cli._build_parser
    got = cli_output(argv, capsys)
    with mock.patch.object(cli, "_build_parser", lambda argv=(): full(())):
        want = cli_output(argv, capsys)
    assert got == want
    assert got[2] in (0, 1)


def test_a_run_builds_only_its_subparser():
    for name in cli.COMMANDS:
        (action,) = cli._build_parser([name, "-h"])._subparsers._group_actions
        assert list(action.choices) == [name]
    for argv in ([], ["-h"], ["bogus"]):
        (action,) = cli._build_parser(argv)._subparsers._group_actions
        assert list(action.choices) == list(cli.COMMANDS)


def test_transpile_and_continuum_checks(capsys):
    assert main(["transpile-check"]) == 0
    assert main(["continuum-check"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def _shift_payload_phase(transpile):
    """``transpile`` with 0.1 added to the global phase of a circuit that
    holds a UNITARY payload."""
    def shifted(c):
        t = transpile(c)
        if any(g.kind == "UNITARY" for g in c.gates):
            t = circ.Circuit(t.register, t.gates, t.global_phase + 0.1)
        return t
    return shifted


@pytest.mark.parametrize("name, replacement, failing", [
    ("reference_bell_circuit", lambda: circ.Circuit(("A", "S")), ["bell-preparation"]),
    ("reference_collision_circuit", lambda: circ.Circuit(("S", "E")), ["collision-unitary"]),
    ("transpile", _shift_payload_phase(circ.transpile), ["collision-unitary", "random"]),
])
def test_transpile_check_reports_each_failure(capsys, name, replacement, failing):
    """A wrong Bell sequence, collision sequence or payload lowering prints
    FAIL on its own line and exits 2; the collision sequence is transpiled,
    so a wrong payload lowering fails it too."""
    with mock.patch.object(circ, name, replacement):
        assert main(["transpile-check"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if "FAIL" in line] == failing


def test_nonmarkov_subcommand(capsys):
    assert main(["nonmarkov"]) == 0
    out = capsys.readouterr().out
    assert "blp max trace-distance increase: 2.000000" in out


def test_nonmarkov_pair_out_of_time_order_is_input_error(capsys):
    """``nonmarkov`` needs t1 before t2: a reversed pair would report the
    trace-distance loss from t2 to t1 as backflow (``--t1 2 --t2 1`` printed
    1.414214), so a reversed or equal pair exits 1.  The revival series of a
    valid pair stops at t2."""
    for t1, t2 in (("5", "3"), ("2", "1"), ("4", "2"), ("2", "2")):
        assert main(["nonmarkov", "--t1", t1, "--t2", t2]) == 1
        assert "--t1" in capsys.readouterr().err
    assert main(["nonmarkov", "--t1", "1", "--t2", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "rhp series: [(0, 1.0), (1, 0.707107), (2, 0.0), (3, 0.707107)]",
        "rhp increase detected: True",
        "blp max trace-distance increase: 0.000000",
        "volume ratio at t1: 0.250000, at t2: 0.250000",
    ]


def test_negative_collision_count_is_input_error(tmp_path):
    out = tmp_path / "neg"
    assert main(["simulate", "--model", "single", "--collisions", "-1",
                 "--out", str(out)]) == 1
    assert not (out / "concurrence.csv").exists()


def test_malformed_noise_config_is_input_error(tmp_path, capsys):
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("readout.S = 0.1\n")
    assert main(["simulate", "--model", "single", "--noise", str(noise_file),
                 "--shots", "64", "--out", str(tmp_path / "x")]) == 1
    assert "readout.S" in capsys.readouterr().err


def test_unknown_readout_label_is_input_error(tmp_path, capsys):
    """A readout.<label> that names no qubit of the model's register is an
    input error, not silently unused; readout.default and a label of the
    register are accepted."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("readout.Q = 0.1,0.1\n")
    out = tmp_path / "q"
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "16", "--out", str(out)]) == 1
    assert "readout.Q" in capsys.readouterr().err
    assert not out.exists()
    noise_file.write_text("readout.default = 0.02,0.02\nreadout.S = 0.1,0.1\n")
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "16", "--out", str(tmp_path / "s")]) == 0
    assert main(["simulate", "--model", "toy", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "16", "--out", str(tmp_path / "toy")]) == 1
    assert "readout.S" in capsys.readouterr().err


def test_mitigating_a_qubit_with_unreadable_readout_is_input_error(tmp_path, capsys):
    """Under --mitigate every measured qubit's configured readout needs
    |1 - p01 - p10| >= 0.2; without --mitigate, and on the environment
    qubit, which is never measured, a worse readout runs."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("readout.default = 0.5,0.5\n")
    args = ["simulate", "--model", "single", "--collisions", "2", "--noise",
            str(noise_file), "--shots", "64"]
    out = tmp_path / "m"
    assert main(args + ["--mitigate", "--out", str(out)]) == 1
    assert "qubit A" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--out", str(tmp_path / "raw")]) == 0
    noise_file.write_text("readout.S = 0.6,0.45\n")
    assert main(args + ["--mitigate", "--out", str(tmp_path / "s")]) == 1
    assert "qubit S" in capsys.readouterr().err
    noise_file.write_text("readout.E = 0.5,0.5\n")
    assert main(args + ["--mitigate", "--out", str(tmp_path / "e")]) == 0


def test_witness_report_is_json_for_any_header_cell(tmp_path, capsys):
    """A quote in a concurrence.csv header cell is escaped in the report."""
    csv_path = tmp_path / "c.csv"
    csv_path.write_text('n,C,"C""sharp",C_err,C_sharp_err,fidelity_to_ideal\n'
                        "0,0.1,0.9,0.0,0.0,1.0\n1,0.95,0.2,0.0,0.0,1.0\n")
    assert main(["witness", "--csv", str(csv_path), "--t1", "0", "--t2", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data['left_C"sharp'] == 0.9
    assert data["right_C"] == 0.95


def test_witness_pair_out_of_time_order_is_input_error(tmp_path, capsys):
    """``witness`` needs t1 before t2: a reversed or equal pair exits 1."""
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(WITNESS_HEADER + "".join(
        f"{n},0.5,0.5,0.0,0.0,1.0\n" for n in range(5)))
    for t1, t2 in (("2", "0"), ("4", "2"), ("2", "2")):
        assert main(["witness", "--csv", str(csv_path), "--t1", t1, "--t2", t2]) == 1
        assert "--t1" in capsys.readouterr().err
    assert main(["witness", "--csv", str(csv_path), "--t1", "0", "--t2", "2"]) == 0


@pytest.mark.parametrize("text", ["t1_us = nan\n", "t2_us = -5\n", "duration.ECR = nan\n",
                                  "duration.ecr = 0.0\n"])
def test_bad_relaxation_time_or_duration_is_input_error(tmp_path, capsys, text):
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text(text)
    out = tmp_path / "x"
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "64", "--out", str(out)]) == 1
    assert "noise config" in capsys.readouterr().err
    assert not out.exists()


def test_nonzero_rz_duration_is_input_error(tmp_path, capsys):
    """RZ is virtual and nothing reads its duration, so a nonzero
    ``duration.RZ`` is rejected (by the constructor, by ``from_text`` and by
    ``simulate --noise``, exit 1) rather than run as 0; ``duration.RZ = 0.0``,
    which every manifest records, still reads back."""
    with pytest.raises(ValueError, match="RZ is virtual"):
        NoiseConfig(gate_duration_ns={"RZ": 35.0})
    with pytest.raises(ValueError, match="RZ is virtual"):
        NoiseConfig.from_text("duration.RZ = 35\n")
    cfg = NoiseConfig.from_text("duration.RZ = 0.0\n")
    assert cfg == NoiseConfig() and NoiseConfig.from_text(cfg.to_text()) == cfg
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("duration.RZ = 35\n")
    out = tmp_path / "x"
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "64", "--out", str(out)]) == 1
    assert "duration.RZ must be 0" in capsys.readouterr().err
    assert not out.exists()


def test_collisions_beyond_model_limit_is_input_error(tmp_path):
    assert main(["simulate", "--model", "toy", "--collisions", "3",
                 "--out", str(tmp_path / "toy")]) == 1


def test_non_finite_gdt_is_input_error(tmp_path):
    assert main(["simulate", "--model", "single", "--gdt", "nan",
                 "--out", str(tmp_path / "nan")]) == 1
    assert main(["nonmarkov", "--gdt", "inf"]) == 1
    assert main(["nonmarkov", "--t1", "-1"]) == 1


def test_gdt_for_a_model_without_one_is_input_error(tmp_path, capsys):
    """toy and swap have no collision strength, so --gdt is refused, not
    ignored; a model that has one records the given value."""
    for model in ("toy", "swap"):
        assert main(["simulate", "--model", model, "--gdt", "0.3",
                     "--out", str(tmp_path / model)]) == 1
        assert "--gdt" in capsys.readouterr().err
    out = tmp_path / "single"
    assert main(["simulate", "--model", "single", "--gdt", "0.3", "--collisions", "1",
                 "--out", str(out)]) == 0
    assert "gdt = 0.3" in (out / "manifest.txt").read_text().splitlines()


def test_toy_manifest_records_no_gdt(tmp_path):
    """The toy model has no collision strength, so its manifest says so
    instead of a value its dynamics never read."""
    assert main(["simulate", "--model", "toy", "--collisions", "1",
                 "--out", str(tmp_path)]) == 0
    assert "gdt = None" in (tmp_path / "manifest.txt").read_text().splitlines()


def test_continuum_check_negative_points_is_input_error(capsys):
    assert main(["continuum-check", "--points", "-1"]) == 1
    assert "--points" in capsys.readouterr().err


def test_continuum_check_non_finite_tmax_is_input_error(capsys):
    for tmax in ("nan", "inf", "-inf"):
        assert main(["continuum-check", f"--tmax={tmax}"]) == 1
    assert "--tmax" in capsys.readouterr().err


def test_continuum_check_empty_grid_is_input_error():
    for argv in (["--points", "0"], ["--points", "1"], ["--tmax", "-1"],
                 ["--tmax", "0"]):
        assert main(["continuum-check", *argv]) == 1


WITNESS_HEADER = "n,C,C_sharp,C_err,C_sharp_err,fidelity_to_ideal\n"


@pytest.mark.parametrize("text", [
    "",
    WITNESS_HEADER,
    WITNESS_HEADER + "0,1.0,1.0,0.0,0.0,1.0\n1,0.5,0.5\n",
    WITNESS_HEADER + "0,1.0,1.0,0.0,0.0,1.0\n1,0.5,abc,0.0,0.0,1.0\n",
    WITNESS_HEADER + "0,1.0,1.0,0.0,0.0,1.0\n1.5,0.5,0.5,0.0,0.0,1.0\n",
    WITNESS_HEADER + "0,1.0,inf,0.0,0.0,1.0\n1,nan,0.5,0.0,0.0,1.0\n",
    WITNESS_HEADER + "0,1.0,1.0,0.0,0.0,1.0\n1,0.9,0.9,0.0,0.0,1.0\n1,0.0,0.0,0.0,0.0,1.0\n",
], ids=["empty", "header-only", "short-row", "non-numeric-cell", "non-integer-n",
        "non-finite-cell", "repeated-n"])
def test_malformed_witness_csv_is_input_error(tmp_path, capsys, text):
    csv_path = tmp_path / "c.csv"
    csv_path.write_text(text)
    assert main(["witness", "--csv", str(csv_path), "--t1", "0", "--t2", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "single", "--noise", "{path}", "--out", "{out}"],
    ["witness", "--csv", "{path}", "--t1", "0", "--t2", "1", "--out", "{out}"],
], ids=["noise-config", "witness-csv"])
def test_undecodable_input_file_is_input_error(tmp_path, capsys, argv):
    """A file that does not decode is an input error, exit 1, although
    ``UnicodeDecodeError`` is a ``ValueError``, which ``main`` maps to 2."""
    path, out = tmp_path / "binary", tmp_path / "out"
    path.write_bytes(b"\xff\xfe\x00\x80 = 1\n")
    assert main([a.format(path=path, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not out.exists()


def test_manifest_records_resolved_noise_config(tmp_path):
    import scipy  # loaded, so the manifest records its version

    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 250.0\nduration.ECR = 500.0\n")
    out = tmp_path / "run"
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "16", "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    assert lines[lines.index(f"noise = {noise_file}") + 1] == "noise.t1_us = 250.0"
    for kind, ns in dict(DEFAULT_DURATIONS_NS, ECR=500.0).items():
        assert f"noise.duration.{kind} = {ns!r}" in lines
    assert f"numpy = {np.__version__}" in lines
    assert f"scipy = {scipy.__version__}" in lines


# Prints the SciPy modules loaded by ``import qcollide`` and the NumPy and
# SciPy modules that ``cli.main(argv)`` loads on top of the imported package.
IMPORT_PROBE = """
import json, sys
import qcollide
at_import = sorted(m for m in sys.modules if m.startswith("scipy"))
from qcollide import cli
before = set(sys.modules)
code = cli.main(sys.argv[1:])
during = sorted(m for m in set(sys.modules) - before if m.startswith(("numpy", "scipy")))
print(json.dumps({"code": code, "at_import": at_import, "during": during}))
"""


@pytest.mark.parametrize("argv", [
    ["--model", "single"],
    ["--model", "toy", "--noise", "{noise}", "--shots", "64", "--mitigate"],
])
def test_import_and_simulate_load_no_scipy_or_new_numpy_modules(tmp_path, argv):
    """A fresh interpreter: ``import qcollide`` loads no SciPy, and a
    ``simulate`` run of the single or toy model loads no further NumPy or
    SciPy module (those would be paid inside every timed CLI run)."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    argv = [a.format(noise=noise_file) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(qcollide.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, "simulate", *argv, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "at_import": [], "during": []}


# Runs ``cli.main(argv)`` and prints the ``csv`` and ``json`` modules loaded
# since start-up (taken before the probe imports anything itself) and the
# size of the BLP grid cache.
STDLIB_PROBE = """
import sys
loaded = set(sys.modules)
from qcollide import cli, nonmarkov
code = cli.main(sys.argv[1:])
new = sorted(m for m in set(sys.modules) - loaded if m.partition(".")[0] in ("csv", "json"))
grids = nonmarkov._grid.cache_info().currsize
import json
print(json.dumps({"code": code, "new": new, "grids": grids}))
"""


@pytest.mark.parametrize("argv, grids", [
    (["--model", "single"], 1),
    (["--model", "toy", "--noise", "{noise}", "--shots", "64", "--mitigate"], 0),
])
def test_simulate_loads_no_csv_or_json_and_builds_the_grid_only_to_search(tmp_path, argv, grids):
    """A fresh interpreter: a ``simulate`` run imports neither ``csv`` nor
    ``json`` (only the witness reads a CSV or writes JSON), and builds the
    BLP grid once if it searches (single, N = 10) and never if it does not
    (toy)."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    argv = [a.format(noise=noise_file) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(qcollide.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_PROBE, "simulate", *argv, "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "new": [], "grids": grids}


@pytest.mark.parametrize("argv", [
    ["--model", "single"],
    ["--model", "toy", "--noise", "{noise}", "--shots", "64", "--mitigate"],
])
def test_simulate_csvs_are_what_csv_writer_writes(tmp_path, argv):
    """No cell of a ``simulate`` CSV needs quoting: each file is the text
    ``csv.writer`` writes for the cells ``csv.reader`` reads back."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    out = tmp_path / "run"
    assert main(["simulate", *(a.format(noise=noise_file) for a in argv), "--out", str(out)]) == 0
    for path in sorted(out.glob("*.csv")):
        text = path.read_text()
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv.reader(text.splitlines()))
        assert buf.getvalue() == text, path.name


# Runs ``cli.main(argv)`` and prints whether SciPy was imported by then.
SCIPY_PROBE = """
import json, sys
from qcollide import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules}))
"""


def test_ideal_run_records_scipy_not_loaded(tmp_path):
    """A fresh interpreter: an ideal single-model run imports no SciPy, and
    its manifest says so instead of importing it for the version."""
    env = dict(os.environ, PYTHONPATH=str(Path(qcollide.__file__).parents[1]))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, "simulate", "--model", "single", "--out", str(out)],
        capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "scipy": False}
    assert "scipy = not loaded" in (out / "manifest.txt").read_text().splitlines()


# Runs one ``cli.main`` call per JSON argv after OpenBLAS's worker thread
# has gone to sleep, and prints the CPU that threads other than the caller
# used meanwhile: process user + system time minus the caller's thread time.
HANDOFF_PROBE = """
import json, resource, sys, time
from qcollide import cli

def other_threads_cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime - time.thread_time()

time.sleep(0.5)  # the worker spins for ~0.1 s after import, then sleeps
before = other_threads_cpu()
codes = [cli.main(json.loads(a)) for a in sys.argv[1:]]
print(json.dumps({"codes": codes, "other_threads_s": other_threads_cpu() - before}))
"""


def test_simulate_keeps_blas_products_on_the_calling_thread(tmp_path):
    """A fresh interpreter with a two-thread OpenBLAS: the noisy mitigated
    toy run (the 16x16 superoperators of its 6-qubit evolution) and the
    ideal two-qubit run (64x64 ones) hand no product to the worker thread,
    which would cost more than the product.  With one tensordot per fused
    block the worker used 45-130 ms on a 2-core x86-64 host."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    runs = [
        ["simulate", "--model", "toy", "--noise", str(noise_file), "--shots", "256",
         "--mitigate", "--out", str(tmp_path / "toy")],
        ["simulate", "--model", "two-qubit", "--out", str(tmp_path / "two-qubit")],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(qcollide.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", HANDOFF_PROBE, *map(json.dumps, runs)],
        capture_output=True, text=True, env=env, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["other_threads_s"] < 5e-3


def test_shots_beyond_int64_is_input_error(tmp_path, capsys):
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "99999999999999999999",
                 "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "--shots" in err
    assert not (tmp_path / "x").exists()


def test_negative_seed_is_input_error(tmp_path, capsys):
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text("t1_us = 280.0\n")
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "16", "--seed", "-1",
                 "--out", str(tmp_path / "x")]) == 1
    assert "--seed" in capsys.readouterr().err


def test_shots_or_mitigate_without_noise_is_input_error(tmp_path, capsys):
    for extra in (["--shots", "16"], ["--mitigate"], ["--shots", "16", "--mitigate"]):
        out = tmp_path / "ideal"
        assert main(["simulate", "--model", "single", *extra, "--out", str(out)]) == 1
        assert not (out / "manifest.txt").exists()
        assert "--shots and --mitigate need --noise" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("t1_us = 280.0\nt1_us = 300.0\n", "t1_us"),
    ("readout.default = 0.01,0.01\nreadout.S = 0.02,0.02\nreadout.default = 0.03,0.03\n",
     "readout.default"),
], ids=["t1_us", "readout.default"])
def test_repeated_noise_config_key_is_input_error(tmp_path, capsys, text, key):
    """A key given twice is refused and named, not overridden by the last value."""
    noise_file = tmp_path / "noise.cfg"
    noise_file.write_text(text)
    out = tmp_path / "x"
    assert main(["simulate", "--model", "single", "--collisions", "1", "--noise",
                 str(noise_file), "--shots", "16", "--out", str(out)]) == 1
    assert f"repeated noise config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


NOISE_TEXT = "t1_us = 280.0\n"
FLAGS = {"n_max": "--collisions", "shots": "--shots", "seed": "--seed"}


def simulate_argv(tmp_path, model, noise_text, kwargs):
    """The ``simulate`` arguments of ``pipeline.simulate(model, noise=…,
    **kwargs)``, with the noise config (None: ideal) written to a file."""
    argv = ["simulate", "--model", model, "--out", str(tmp_path / "run")]
    if noise_text is not None:
        (tmp_path / "noise.cfg").write_text(noise_text)
        argv += ["--noise", str(tmp_path / "noise.cfg")]
    for name, value in kwargs.items():
        argv += ["--mitigate"] if name == "mitigate" else [FLAGS[name], str(value)]
    return argv


def library_call(model, noise_text, kwargs):
    noise = None if noise_text is None else NoiseConfig.from_text(noise_text)
    return pipeline.simulate(MODELS[model](), noise=noise, **kwargs)


@pytest.mark.parametrize("model, noise_text, kwargs", [
    ("single", NOISE_TEXT, {}),  # noise without shots (test_usage_errors)
    ("single", NOISE_TEXT, {"shots": -1}),
    ("single", None, {"shots": 16}),
    ("single", None, {"mitigate": True}),
    ("single", None, {"shots": 16, "mitigate": True}),
    ("single", NOISE_TEXT, {"shots": 16, "seed": -1}),
    ("single", NOISE_TEXT, {"shots": 2**63}),
    ("single", NOISE_TEXT, {"n_max": 1, "shots": 99999999999999999999}),
    ("single", "readout.default = 0.5,0.5\n", {"n_max": 2, "shots": 64, "mitigate": True}),
    ("single", "readout.S = 0.6,0.45\n", {"n_max": 2, "shots": 64, "mitigate": True}),
    ("toy", "readout.S = 0.1,0.1\n", {"n_max": 1, "shots": 16}),
    ("single", None, {"n_max": -1}),
    ("toy", None, {"n_max": 3}),
    ("swap", NOISE_TEXT, {"n_max": 3, "shots": 16}),
], ids=["noise-without-shots", "negative-shots", "shots-without-noise",
        "mitigate-without-noise", "shots-and-mitigate-without-noise", "negative-seed",
        "shots-2^63", "shots-above-int64", "mitigate-unreadable-default",
        "mitigate-unreadable-system", "readout-label-outside-register",
        "negative-collisions", "toy-collisions-above-limit", "swap-collisions-above-limit"])
def test_library_rejects_what_the_cli_rejects_with_its_message(tmp_path, capsys, model,
                                                               noise_text, kwargs):
    """Every ``simulate`` input that exits 1 makes ``pipeline.simulate``
    raise ``ValueError``, and the CLI prints that message."""
    with pytest.raises(ValueError) as exc:
        library_call(model, noise_text, kwargs)
    assert main(simulate_argv(tmp_path, model, noise_text, kwargs)) == 1
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not (tmp_path / "run").exists()


def test_value_error_inside_the_run_is_not_an_input_error(tmp_path, capsys):
    """Only the input check's ``ValueError`` means exit 1: one raised while the
    run computes still exits 2."""
    with mock.patch.object(entangle, "quantifiers", side_effect=ValueError("broken")):
        assert main(["simulate", "--model", "single", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "numerical invariant violation: broken\n"


def report_cells(report):
    """{file: rows of cells} that ``simulate`` writes for ``report``: each
    value's ``repr``, ints as ``str``."""
    c, cs = ("C", "C_sharp") if report.exact else ("C_lower", "C_sharp_upper")
    series = (report.conc, report.assist, report.conc_err, report.assist_err, report.fidelity)
    files = {
        "concurrence.csv": [["n", c, cs, f"{c}_err", f"{cs}_err", "fidelity_to_ideal"]]
        + [[str(n), *map(repr, row)] for n, row in enumerate(zip(*(a.tolist() for a in series)))],
        "nonmarkov.csv": [
            ["quantity", "value"],
            ["rhp_series", ";".join(f"{n}:{v!r}" for n, v in report.rhp_series)],
            ["rhp_is_lower_bound", str(not report.exact)],
            ["rhp_increase", str(report.rhp_increase)],
        ],
    }
    if report.bloch is not None:
        files["bloch.csv"] = [["n", "x", "y", "z"]] + [
            [str(n), *map(repr, point)] for n, points in enumerate(report.bloch.tolist())
            for point in points]
    if report.blp_pair is not None:
        files["nonmarkov.csv"] += [
            ["blp_t1_t2", ";".join(map(str, report.blp_pair))],
            ["blp_delta", repr(report.blp_delta)],
            ["blp_argmax_a", ";".join(map(repr, report.blp_argmax))],
            ["volume_ratio_t1", repr(report.volumes[0])],
            ["volume_ratio_t2", repr(report.volumes[1])],
        ]
    return files


@pytest.mark.parametrize("model, noisy, kwargs", [
    ("single", False, {}),
    ("single", True, {"n_max": 4, "shots": 64, "seed": 3, "mitigate": True}),
    ("two-qubit", False, {}),
    ("two-qubit", True, {"n_max": 2, "shots": 64, "seed": 3}),
    ("toy", False, {}),
    ("toy", True, {"shots": 64, "seed": 1, "mitigate": True}),
    ("swap", False, {}),
    ("swap", True, {"shots": 64, "seed": 3}),
], ids=[f"{m}-{kind}" for m in ("single", "two-qubit", "toy", "swap")
        for kind in ("ideal", "noisy")])
def test_simulate_files_are_the_report_values(tmp_path, model, noisy, kwargs):
    """Every cell of the three CSVs is, exactly, the matching value of the
    library's report for the same inputs."""
    noise_text = NOISE_TEXT if noisy else None
    report = library_call(model, noise_text, kwargs)
    assert main(simulate_argv(tmp_path, model, noise_text, kwargs)) == 0
    want = report_cells(report)
    assert sorted(p.name for p in (tmp_path / "run").glob("*.csv")) == sorted(want)
    for name, rows in want.items():
        assert read_csv(tmp_path / "run" / name) == (rows[0], rows[1:]), name


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "noise.cfg").write_text("t1_us = 280.0\n")
    (base / "bad.cfg").write_text("t2_us = 900.0\n")  # T2 > 2 T1
    assert main(["simulate", "--model", "single", "--collisions", "4",
                 "--out", str(base / "single")]) == 0
    return base


def cli_arguments(base):
    """Small argument lists over every subcommand: valid and invalid models,
    collision counts, shots, seeds and noise configs, and non-finite floats."""
    def opt(flag, values):
        return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))

    floats = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(["nan", "inf", "-inf"]))
    counts = st.integers(-2, 6)
    missing = base / "missing.cfg"
    simulate = st.tuples(
        st.just(["simulate", "--out", str(base / "run")]),
        opt("--model", st.sampled_from(["single", "two-qubit", "toy", "swap", "qutrit"])),
        opt("--collisions", st.integers(-2, 4)),
        opt("--noise", st.sampled_from(["ideal", base / "noise.cfg", base / "bad.cfg", missing])),
        opt("--shots", st.sampled_from([-1, 0, 1, 64])),
        opt("--seed", st.sampled_from([-1, 0, 3])),
        opt("--gdt", floats),
        st.sampled_from([[], ["--mitigate"]]),
    )
    witness = st.tuples(
        st.just(["witness"]),
        opt("--csv", st.sampled_from([base / "single" / "concurrence.csv", missing])),
        opt("--t1", counts),
        opt("--t2", counts),
    )
    nonmarkov = st.tuples(st.just(["nonmarkov"]), opt("--gdt", floats),
                          opt("--t1", counts), opt("--t2", counts))
    continuum = st.tuples(st.just(["continuum-check"]), opt("--points", counts),
                          opt("--tmax", floats))
    other = st.sampled_from([[["transpile-check"]], [[]], [["bogus"]], [["--help"]]])
    return st.one_of(simulate, witness, nonmarkov, continuum, other).map(
        lambda parts: [str(a) for part in parts for a in part])


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_cli_exit_code_is_always_0_1_or_2(fuzz_files, data):
    """Whatever the arguments, ``main`` returns (or exits with) 0, 1 or 2."""
    argv = data.draw(cli_arguments(fuzz_files))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv

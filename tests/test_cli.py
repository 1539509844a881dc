import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qcollide.cli import main


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


def test_transpile_and_continuum_checks(capsys):
    assert main(["transpile-check"]) == 0
    assert main(["continuum-check"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_nonmarkov_subcommand(capsys):
    assert main(["nonmarkov"]) == 0
    out = capsys.readouterr().out
    assert "blp max trace-distance increase: 2.000000" in out


def test_nonmarkov_t1_after_t2(capsys):
    # The revival series stops at t2 even when t1 is later.
    assert main(["nonmarkov", "--t1", "5", "--t2", "3"]) == 0
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


def test_collisions_beyond_model_limit_is_input_error(tmp_path):
    assert main(["simulate", "--model", "toy", "--collisions", "3",
                 "--out", str(tmp_path / "toy")]) == 1


def test_non_finite_gdt_is_input_error(tmp_path):
    assert main(["simulate", "--model", "single", "--gdt", "nan",
                 "--out", str(tmp_path / "nan")]) == 1
    assert main(["nonmarkov", "--gdt", "inf"]) == 1
    assert main(["nonmarkov", "--t1", "-1"]) == 1


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

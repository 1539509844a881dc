"""Tests of the benchmark itself: tracer arithmetic, output checks, names.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import copy
import csv
import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import checks
import layertrace
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# --------------------------------------------------------------------------
# tracer
# --------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod.outer calls inner through a module global (twice);
    fakepkg.other holds a from-import binding of inner."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    other = types.ModuleType("fakepkg.other")
    mod.clock = clock
    exec(
        "def inner():\n"
        "    clock.t += 5.0\n"
        "    return 'inner'\n"
        "def outer():\n"
        "    clock.t += 1.0\n"
        "    inner()\n"
        "    clock.t += 2.0\n"
        "    inner()\n"
        "    clock.t += 3.0\n",
        vars(mod),
    )
    other.inner = mod.inner
    for name, m in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.other", other)):
        monkeypatch.setitem(sys.modules, name, m)
    return clock, mod, other


def test_self_time_of_nested_calls(fake_package):
    clock, mod, other = fake_package
    tracer = layertrace.Tracer(clock=clock)
    absent = tracer.install("fakepkg", ("mod.outer", "mod.inner", "mod.missing"), {})
    assert absent == ["mod.missing"]
    assert other.inner is mod.inner  # the from-import binding is wrapped too

    clock.t = 0.0
    mod.outer()     # spans 0..16 with inner at 1..6 and 8..13
    clock.t += 4.0  # untraced work after the call
    other.inner()   # a second top-level span, 20..25
    clock.t += 1.0

    self_s, calls, root = layertrace.self_times(tracer.spans, 0.0, clock.t)
    assert calls == {"mod.outer": 1, "mod.inner": 3}
    assert self_s["mod.outer"] == pytest.approx(6.0)
    assert self_s["mod.inner"] == pytest.approx(15.0)
    assert root == pytest.approx(5.0)
    assert sum(self_s.values()) + root == pytest.approx(clock.t)
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 0, -1]


def test_self_time_clips_overlapping_children():
    spans = [["p", 0.0, 10.0, -1, "r"], ["c", 2.0, 6.0, 0, "r"], ["c", 5.0, 12.0, 0, "r"]]
    self_s, calls, root = layertrace.self_times(spans, 0.0, 10.0)
    assert self_s["p"] == pytest.approx(2.0)  # children cover 2..10
    assert calls == {"p": 1, "c": 2}
    assert root == pytest.approx(0.0)


def test_counter_errors_do_not_crash(fake_package):
    clock, mod, _ = fake_package
    tracer = layertrace.Tracer(clock=clock)
    tracer.install("fakepkg", ("mod.inner",),
                   {"mod.inner": {"length": lambda a, k, out: len(out),
                                  "gates": lambda a, k, out: len(out.gates)}})
    assert mod.inner() == "inner"
    assert tracer.counts == {"mod.inner.length": 5}
    assert tracer.broken_counters == {"mod.inner.gates"}


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _write(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _single_ideal_output(out: Path, perturb_c=0.0, blp_delta=2.0):
    out.mkdir()
    rows = []
    for n in range(11):
        c = abs(math.cos(n * math.pi / 4)) + (perturb_c if n == 3 else 0.0)
        rows.append([n, repr(c), repr(c), "0.0", "0.0", "1.0"])
    _write(out / "concurrence.csv",
           ["n", "C", "C_sharp", "C_err", "C_sharp_err", "fidelity_to_ideal"], rows)
    series = ";".join(f"{r[0]}:{r[1]}" for r in rows)
    _write(out / "nonmarkov.csv", ["quantity", "value"], [
        ["rhp_series", series], ["rhp_is_lower_bound", "False"], ["rhp_increase", "True"],
        ["blp_t1_t2", "2;4"], ["blp_delta", repr(blp_delta)],
        ["volume_ratio_t1", "1e-60"], ["volume_ratio_t2", "0.9999999999999993"]])
    _write(out / "bloch.csv", ["n", "x", "y", "z"],
           [[n, "0.0", "0.0", "1.0"] for n in range(11) for _ in range(checks.BLOCH_MESH)])
    return out


def test_single_ideal_check_accepts_closed_forms(tmp_path):
    assert checks.check_single_ideal(_single_ideal_output(tmp_path / "o")) == []


def test_single_ideal_check_rejects_perturbed_concurrence(tmp_path):
    problems = checks.check_single_ideal(_single_ideal_output(tmp_path / "o", perturb_c=1e-6))
    assert any("C(3)" in p for p in problems)


def test_single_ideal_check_rejects_perturbed_blp_delta(tmp_path):
    problems = checks.check_single_ideal(_single_ideal_output(tmp_path / "o", blp_delta=1.99999))
    assert any("blp_delta" in p for p in problems)


def _reference(workload):
    ref = json.loads((run.BENCH / "reference.json").read_text())
    return copy.deepcopy(ref["workloads"][workload])


def _noisy_output(out: Path, ref: dict, values=None):
    out.mkdir()
    values = values or ref["exact"]
    n_max = ref["collisions"]
    rows = [[n, repr(values["C_lower"][n]), repr(values["C_sharp_upper"][n]),
             "0.01", "0.01", "0.9"] for n in range(n_max + 1)]
    _write(out / "concurrence.csv", ["n", "C_lower", "C_sharp_upper", "C_lower_err",
                                     "C_sharp_upper_err", "fidelity_to_ideal"], rows)
    _write(out / "nonmarkov.csv", ["quantity", "value"], [
        ["rhp_series", ";".join(f"{r[0]}:{r[1]}" for r in rows)],
        ["rhp_is_lower_bound", "True"], ["rhp_increase", "True"]])
    return out


@pytest.mark.parametrize("workload", ["two-qubit-noisy", "toy-noisy-mitigated"])
def test_noisy_check_accepts_exact_values(tmp_path, workload):
    ref = _reference(workload)
    assert checks.check_noisy(_noisy_output(tmp_path / "o", ref), ref) == []


@pytest.mark.parametrize("workload", ["two-qubit-noisy", "toy-noisy-mitigated"])
def test_noisy_check_rejects_value_beyond_tolerance(tmp_path, workload):
    ref = _reference(workload)
    values = copy.deepcopy(ref["exact"])
    values["C_sharp_upper"][0] += 1.5 * ref["tolerance"]["C_sharp_upper"][0]
    problems = checks.check_noisy(_noisy_output(tmp_path / "o", ref, values), ref)
    assert any("C_sharp_upper(0)" in p for p in problems)


def test_noisy_check_rejects_nan_and_missing_rows(tmp_path):
    ref = _reference("two-qubit-noisy")
    out = _noisy_output(tmp_path / "o", ref)
    lines = (out / "concurrence.csv").read_text().splitlines()
    lines[2] = lines[2].replace(",0.01,", ",nan,", 1)
    (out / "concurrence.csv").write_text("\n".join(lines[:-1]) + "\n")
    problems = checks.check_noisy(out, ref)
    assert any("not finite" in p for p in problems)
    assert any("expected n = 0..4" in p for p in problems)


def test_witness_check_rejects_nonpositive_margin(tmp_path):
    ref = _reference("toy-noisy-mitigated")
    ref["tolerance"] = {col: [10.0] * len(v) for col, v in ref["exact"].items()}
    values = copy.deepcopy(ref["exact"])
    values["C_lower"][2] = values["C_sharp_upper"][1]
    problems = checks.check_noisy(_noisy_output(tmp_path / "o", ref, values), ref)
    assert problems and all("witness margin" in p for p in problems)


def test_repeat_check_rejects_non_identical_files():
    first = {"concurrence.csv": b"n,C\n0,1.0\n", "manifest.txt": b"seed = 0\n"}
    assert checks.check_repeat(first, dict(first)) == []
    again = dict(first, **{"concurrence.csv": b"n,C\n0,1.0000000000000002\n"})
    assert checks.check_repeat(first, again) == [
        "concurrence.csv differs from the first run at the same seed"]
    missing = {"concurrence.csv": first["concurrence.csv"]}
    assert checks.check_repeat(first, missing) == [
        "manifest.txt differs from the first run at the same seed"]


# --------------------------------------------------------------------------
# names and the benchmark contract
# --------------------------------------------------------------------------

def test_metric_and_workload_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "single-ideal", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""End-to-end benchmark of the ``qcollide simulate`` CLI, with an optional
outside-in layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload single-ideal --seed 0 --seconds 55 --trace 0

Each timed sample is one ``cli.main`` call in a fresh interpreter
(``bench/child.py``), because a user pays import and lazy set-up on every CLI
invocation; the samples run one after another from this process until
``--seconds`` is used up (at least two, so that a repeat at the same seed can
be compared byte for byte). Every sample's output is checked.

``--trace 0`` reports the end-to-end metrics (medians over the samples). The
run and CPU times are reported in units of a host probe timed in the same
child just before and after the call (``child.host_probe``), because the
host's speed drifts by up to 1.8x within minutes; the raw seconds are printed
alongside and kept in the result file.

``--trace 1`` alternates untraced and traced samples and reports per-layer
self times and counts from the traced sample with the median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of a
run (every sample, the environment, the spans) goes to
``bench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layertrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = BENCH / "results"

NOISE_CONFIG = "t1_us = 280.0\n"
MIN_SAMPLES = 2
HARD_LIMIT_S = 165.0  # a run must end within 180 s

# name -> model, CLI arguments after `simulate` (without --seed/--out), noise on?
# BENCHMARK.json lists the workloads the regular runs use; two-qubit-noisy is
# kept for manual runs (see README.md, "Workloads").
WORKLOADS = {
    "single-ideal": {
        "model": "single",
        "args": ["--model", "single"],
        "noise": False,
    },
    "two-qubit-noisy": {
        "model": "two-qubit",
        "args": ["--model", "two-qubit", "--collisions", "4", "--shots", "1024"],
        "noise": True,
    },
    "toy-noisy-mitigated": {
        "model": "toy",
        "args": ["--model", "toy", "--shots", "1024", "--mitigate"],
        "noise": True,
    },
}

END_TO_END = {"run_rel": "probe", "cpu_rel": "probe", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric name -> unit.
PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in layertrace.LAYER_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{fn}.{c}": "count" for fn, counters in layertrace.COUNTERS.items() for c in counters},
    "cli.self_s": "s",
    "host.probe_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.covered_share": "share",
}


def simulate_argv(workload: str, seed: int, out_dir: Path, noise_path: Path) -> list[str]:
    spec = WORKLOADS[workload]
    argv = ["simulate", *spec["args"], "--seed", str(seed), "--out", str(out_dir)]
    if spec["noise"]:
        argv += ["--noise", str(noise_path)]
    return argv


def check_output(workload: str, out_dir: Path, reference: dict) -> list[str]:
    try:
        if workload == "single-ideal":
            return checks.check_single_ideal(out_dir)
        return checks.check_noisy(out_dir, reference["workloads"][workload])
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_sample(req: dict, result_path: Path, timeout: float):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(req), str(result_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {timeout:.0f} s"]
    if proc.returncode != 0 or not result_path.exists():
        return None, [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(result_path.read_text())
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"qcollide exited {result['exit_code']}: {proc.stderr.strip()[-2000:]}")
    if not Path(result["qcollide_file"]).resolve().is_relative_to(SRC.resolve()):
        problems.append(f"imported qcollide from {result['qcollide_file']}, not {SRC}")
    result["probe_s"] = (result["probe_before_s"] + result["probe_after_s"]) / 2
    result["run_rel"] = result["run_s"] / result["probe_s"]
    result["cpu_rel"] = result["cpu_s"] / result["probe_s"]
    return result, problems


def layer_metrics(traced: dict, untraced_run_s: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced sample; also the names reported absent."""
    tr = traced["trace"]
    wall = traced["run_s"]
    metrics: dict[str, float] = {}
    absent = []
    for fn in layertrace.LAYER_FUNCTIONS:
        if fn in tr["absent"]:
            absent += [f"{fn}.calls", f"{fn}.self_s"]
            continue
        metrics[f"{fn}.calls"] = tr["calls"].get(fn, 0)
        metrics[f"{fn}.self_s"] = tr["self_s"].get(fn, 0.0)
    for fn, counters in layertrace.COUNTERS.items():
        for c in counters:
            key = f"{fn}.{c}"
            if fn in tr["absent"] or key in tr["broken_counters"]:
                absent.append(key)
            else:
                metrics[key] = tr["counts"].get(key, 0)
    metrics["cli.self_s"] = tr["cli_self_s"]
    metrics["host.probe_s"] = traced["probe_s"]
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(untraced_run_s)
    metrics["trace.covered_share"] = 1.0 - tr["cli_self_s"] / wall
    return metrics, absent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into an exception, so that a running child is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "qcollide" / "cli.py").is_file():
        print(f"error: {SRC / 'qcollide'} not found; run from a qcollide checkout",
              file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def _measure(args, reference: dict, work: Path) -> int:
    noise_path = work / "noise.cfg"
    noise_path.write_text(NOISE_CONFIG)
    spec = WORKLOADS[args.workload]

    samples, failures, run_problems = [], [], []
    first_files = None
    env = None
    durations = []
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if i >= MIN_SAMPLES and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed >= HARD_LIMIT_S:
            run_problems.append("no time left for the minimum samples")
            break
        traced = bool(args.trace) and i % 2 == 1
        out_dir = work / f"out{i}"
        req = {
            "argv": simulate_argv(args.workload, args.seed, out_dir, noise_path),
            "model": spec["model"],
            "noise": str(noise_path) if spec["noise"] else None,
            "trace": traced,
            "env": env is None,
        }
        t0 = time.perf_counter()
        result, problems = run_sample(req, work / f"result{i}.json", HARD_LIMIT_S - elapsed)
        durations.append(time.perf_counter() - t0)
        if result is not None and not problems:
            problems = check_output(args.workload, out_dir, reference)
            files = checks.output_files(out_dir)
            if first_files is None:
                first_files = files
            else:
                problems += checks.check_repeat(first_files, files)
            env = env or result.get("env")
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            failures.append({"sample": i, "traced": traced, "problems": problems})
        else:
            result["traced"] = traced
            samples.append(result)
        i += 1
        if result is None:
            break  # the program cannot run at all; do not spend the budget on it

    attempted = i
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    for f in failures:
        print(f"FAILED sample {f['sample']}: " + "; ".join(f["problems"])[:4000],
              file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no successful sample to report", file=sys.stderr)
        return 1

    metrics: dict[str, float] = {}
    units = PER_LAYER if args.trace else END_TO_END
    absent: list[str] = []
    spans = None
    if args.trace:
        traced.sort(key=lambda s: s["run_s"])
        rep = traced[(len(traced) - 1) // 2]
        metrics, absent = layer_metrics(rep, [s["run_s"] for s in untraced])
        spans = rep["trace"].pop("spans")
        layer_sum = sum(rep["trace"]["self_s"].values()) + rep["trace"]["cli_self_s"]
        if abs(layer_sum - rep["run_s"]) > 1e-6 * max(1.0, rep["run_s"]):
            run_problems.append(
                f"layer self times add up to {layer_sum}, traced wall is {rep['run_s']}")
        for s in traced:
            s["trace"].pop("spans", None)
    else:
        for key in END_TO_END:
            metrics[key] = statistics.median(s[key] for s in untraced)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "environment": env,
        "attempted": attempted,
        "failures": failures,
        "run_problems": run_problems,
        "samples": samples,
        "metrics": metrics,
        "absent": absent,
        "spans": spans,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"environment: {json.dumps(env)} commit: {record['commit']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced samples, {len(failures)} failed")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    if not args.trace:
        for key in ("run_s", "cpu_s", "probe_s"):
            print(f"  ({key} = {statistics.median(s[key] for s in untraced):.6g} s, unnormalised)")
    for key in absent:
        print(f"  {key}: absent (function not found)")
    for problem in run_problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    failed = len(failures)
    print(json.dumps({
        "correct": not failures and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

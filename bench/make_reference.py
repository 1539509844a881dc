"""Regenerate ``bench/reference.json``: the frozen exact noisy-state values and
the tolerances that the shot-based workloads are checked against.

Usage (from the repository root; takes a few minutes):

    PYTHONPATH=src python3 bench/make_reference.py

For each noisy workload the exact values come from ``collision.evolve`` with
the workload's noise config and no shots, with the same quantities the CLI
reports (``C_lower`` and ``C_sharp_upper`` of the system-ancilla state). The
tolerance of each value is TOL_FACTOR times the largest deviation between
the shot-based and the exact value seen over CALIBRATION_SEEDS, and at least
TOL_FLOOR. The calibration seeds are kept apart from the small seeds a
benchmark run is usually given, so those runs test the tolerance afresh.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from child import MODEL_BUILDERS

from qcollide import cli, collision, entangle, noisytomo

CALIBRATION_SEEDS = tuple(range(100, 108))
TOL_FACTOR = 2.0
TOL_FLOOR = 0.02  # a few bootstrap standard errors at 1024 shots


def exact_values(workload: str) -> dict[str, list[float]]:
    spec = run.WORKLOADS[workload]
    noise = noisytomo.NoiseConfig.from_text(run.NOISE_CONFIG)
    model = getattr(collision, MODEL_BUILDERS[spec["model"]])()
    args = spec["args"]
    # Without --collisions the CLI runs the toy model to its maximum, N = 2.
    n_max = int(args[args.index("--collisions") + 1]) if "--collisions" in args else 2
    c_lower, c_sharp_upper = [], []
    for n in range(n_max + 1):
        state = collision.evolve(model, n, noise=noise).joint_state
        c_lower.append(float(entangle.concurrence_lower(state, model.system_labels)))
        c_sharp_upper.append(float(entangle.assistance_upper(state, model.system_labels)))
    return {"C_lower": c_lower, "C_sharp_upper": c_sharp_upper}


def shot_values(workload: str, seed: int, work: Path) -> list[list[float]]:
    out = work / f"{workload}-{seed}"
    code = cli.main(run.simulate_argv(workload, seed, out, work / "noise.cfg"))
    if code != 0:
        raise SystemExit(f"{workload} seed {seed}: qcollide exited {code}")
    rows = (out / "concurrence.csv").read_text().splitlines()[1:]
    shutil.rmtree(out)
    return [[float(x) for x in r.split(",")[1:3]] for r in rows]


def main() -> int:
    work = run.WORK / "reference"
    work.mkdir(parents=True, exist_ok=True)
    (work / "noise.cfg").write_text(run.NOISE_CONFIG)
    commit = run.git_commit()
    reference = {"commit": commit, "noise_config": run.NOISE_CONFIG,
                 "calibration_seeds": list(CALIBRATION_SEEDS),
                 "tolerance_factor": TOL_FACTOR, "workloads": {}}
    for workload in ("two-qubit-noisy", "toy-noisy-mitigated"):
        exact = exact_values(workload)
        worst = {col: [0.0] * len(vals) for col, vals in exact.items()}
        for seed in CALIBRATION_SEEDS:
            for n, row in enumerate(shot_values(workload, seed, work)):
                for col, value in zip(exact, row):
                    worst[col][n] = max(worst[col][n], abs(value - exact[col][n]))
            print(f"{workload} seed {seed}: worst deviation so far {worst}", flush=True)
        entry = {
            "collisions": len(exact["C_lower"]) - 1,
            "exact": exact,
            "max_deviation": worst,
            "tolerance": {col: [float(f"{max(TOL_FACTOR * w, TOL_FLOOR):.2g}") for w in ws]
                          for col, ws in worst.items()},
            "witness": workload == "toy-noisy-mitigated",
        }
        reference["workloads"][workload] = entry
    shutil.rmtree(work)
    if not any(run.WORK.iterdir()):
        run.WORK.rmdir()
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

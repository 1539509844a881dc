"""The shot-based toy-model pipeline (noisy sampling, readout mitigation,
tomography and bootstrap) against ``concurrence.csv`` and ``nonmarkov.csv``
values frozen before reconstruction used precomputed tables.

Regenerate only for an intended change of the results:
``PYTHONPATH=src python tests/test_golden_tomography.py``.
"""

import csv
import json
import tempfile
from pathlib import Path

from conftest import assert_csv_matches_golden
from qcollide.cli import main

GOLDEN = Path(__file__).with_name("data") / "golden_toy_shots.json"
DRIFT_TOL = 1e-12
ARGS = ["simulate", "--model", "toy", "--shots", "256", "--mitigate", "--seed", "0"]


def _run(tmp: Path) -> dict:
    cfg = tmp / "noise.cfg"
    cfg.write_text("t1_us = 280.0\n")
    out = tmp / "out"
    assert main([*ARGS, "--noise", str(cfg), "--out", str(out)]) == 0
    return {name: list(csv.reader((out / name).read_text().splitlines()))
            for name in ("concurrence.csv", "nonmarkov.csv")}


def test_toy_shot_pipeline_matches_golden(tmp_path):
    frozen = json.loads(GOLDEN.read_text())
    got = _run(tmp_path)
    for name, rows in frozen.items():
        assert_csv_matches_golden(got[name], rows, name, DRIFT_TOL)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        frozen = _run(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"wrote {GOLDEN}")

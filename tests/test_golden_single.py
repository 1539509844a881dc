"""The single-qubit pipeline (exact ideal states, and noisy shots with
readout mitigation) against ``concurrence.csv``, ``bloch.csv`` and
``nonmarkov.csv`` values frozen before the Pauli transfer matrices, the
Bloch-image table and the BLP grid scan were batched.

Regenerate only for an intended change of the results:
``PYTHONPATH=src python tests/test_golden_single.py``.
"""

import csv
import json
import tempfile
from pathlib import Path

from conftest import assert_csv_matches_golden
from qcollide.cli import main

GOLDEN = Path(__file__).with_name("data") / "golden_single.json"
DRIFT_TOL = 1e-12
FILES = ("concurrence.csv", "bloch.csv", "nonmarkov.csv")
RUNS = {
    "ideal": ["simulate", "--model", "single"],
    "noisy": ["simulate", "--model", "single", "--collisions", "4", "--shots", "256",
              "--mitigate", "--seed", "3", "--noise", "{cfg}"],
}


def _run(tmp: Path) -> dict:
    cfg = tmp / "noise.cfg"
    cfg.write_text("t1_us = 280.0\n")
    frozen = {}
    for run, args in RUNS.items():
        out = tmp / run
        assert main([a.format(cfg=cfg) for a in args] + ["--out", str(out)]) == 0
        frozen[run] = {name: list(csv.reader((out / name).read_text().splitlines()))
                       for name in FILES}
    return frozen


def test_single_pipeline_matches_golden(tmp_path):
    frozen = json.loads(GOLDEN.read_text())
    got = _run(tmp_path)
    for run, files in frozen.items():
        for name, rows in files.items():
            assert_csv_matches_golden(got[run][name], rows, (run, name), DRIFT_TOL)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        frozen = _run(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"wrote {GOLDEN}")

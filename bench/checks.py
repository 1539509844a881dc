"""Output checks for the benchmark's ``qcollide simulate`` runs.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

OUTPUT_FILES = ("concurrence.csv", "bloch.csv", "nonmarkov.csv", "manifest.txt")

# Closed forms for the ideal single-qubit model at g*dt = pi/4.
IDEAL_TOL = 1e-9
BLP_TOL = 1e-6
BLOCH_MESH = 60


def output_files(out_dir: Path) -> dict[str, bytes]:
    """The bytes of every output file a ``simulate`` run wrote."""
    return {name: (out_dir / name).read_bytes()
            for name in OUTPUT_FILES if (out_dir / name).exists()}


def check_repeat(first: dict[str, bytes], again: dict[str, bytes]) -> list[str]:
    """A repeat at the same seed must write byte-identical files."""
    problems = []
    for name in sorted(set(first) | set(again)):
        if first.get(name) != again.get(name):
            problems.append(f"{name} differs from the first run at the same seed")
    return problems


def _read(out_dir: Path, name: str):
    rows = list(csv.reader((out_dir / name).read_text().splitlines()))
    return rows[0], rows[1:]


def _nonmarkov(out_dir: Path) -> dict[str, str]:
    return dict(_read(out_dir, "nonmarkov.csv")[1])


def _floats(row, problems, where) -> list[float]:
    vals = []
    for x in row:
        try:
            v = float(x)
        except ValueError:
            problems.append(f"{where}: {x!r} is not a number")
            v = math.nan
        else:
            if not math.isfinite(v):
                problems.append(f"{where}: {x!r} is not finite")
        vals.append(v)
    return vals


def _concurrence(out_dir: Path, n_max: int, columns, problems):
    """Parsed concurrence.csv rows, after header, row-count and finiteness checks."""
    header, rows = _read(out_dir, "concurrence.csv")
    if header[:3] != ["n", *columns]:
        problems.append(f"concurrence.csv header {header} does not start with n,{','.join(columns)}")
    if [r[0] for r in rows] != [str(n) for n in range(n_max + 1)]:
        problems.append(f"concurrence.csv has rows {[r[0] for r in rows]}, expected n = 0..{n_max}")
    return [_floats(r, problems, f"concurrence.csv row {i}") for i, r in enumerate(rows)]


def _rhp_series(nm: dict, n_max: int, problems):
    entries = nm.get("rhp_series", "").split(";")
    if [e.split(":")[0] for e in entries] != [str(n) for n in range(n_max + 1)]:
        problems.append(f"rhp_series has {len(entries)} entries, expected {n_max + 1}")
    _floats([e.split(":")[-1] for e in entries], problems, "rhp_series")
    for key in ("rhp_is_lower_bound", "rhp_increase"):
        if nm.get(key) not in ("True", "False"):
            problems.append(f"{key} = {nm.get(key)!r}, expected True or False")


def check_single_ideal(out_dir: Path, n_max: int = 10) -> list[str]:
    """Ideal single-qubit model against independent closed forms."""
    problems: list[str] = []
    rows = _concurrence(out_dir, n_max, ("C", "C_sharp"), problems)
    for n, row in enumerate(rows[: n_max + 1]):
        expected = abs(math.cos(n * math.pi / 4))
        for col, value in zip(("C", "C_sharp"), row[1:3]):
            if not abs(value - expected) <= IDEAL_TOL:
                problems.append(f"{col}({n}) = {value!r}, expected |cos(n pi/4)| = {expected!r}")
    nm = _nonmarkov(out_dir)
    _rhp_series(nm, n_max, problems)
    for key, expected, tol in (("blp_delta", 2.0, BLP_TOL), ("volume_ratio_t2", 1.0, IDEAL_TOL)):
        value = _floats([nm.get(key, "missing")], problems, key)[0]
        if not abs(value - expected) <= tol:
            problems.append(f"{key} = {value!r}, expected {expected} within {tol}")
    if nm.get("rhp_increase") != "True":
        problems.append("rhp_increase is not True")
    header, bloch = _read(out_dir, "bloch.csv")
    if len(bloch) != (n_max + 1) * BLOCH_MESH:
        problems.append(f"bloch.csv has {len(bloch)} rows, expected {(n_max + 1) * BLOCH_MESH}")
    for i, row in enumerate(bloch):
        _floats(row, problems, f"bloch.csv row {i}")
    return problems


def check_noisy(out_dir: Path, ref: dict) -> list[str]:
    """Shot-based run against the frozen exact noisy-state values in ``ref``.

    ``ref`` has ``collisions``, ``exact`` (column -> values for n = 0..N),
    ``tolerance`` (column -> absolute tolerance for each n) and ``witness`` (whether
    C_lower(2) - C_sharp_upper(1) must be positive).
    """
    problems: list[str] = []
    n_max = ref["collisions"]
    columns = tuple(ref["exact"])
    rows = _concurrence(out_dir, n_max, columns, problems)
    for ci, col in enumerate(columns, start=1):
        for n, (row, exact, tol) in enumerate(zip(rows, ref["exact"][col],
                                                  ref["tolerance"][col])):
            if not abs(row[ci] - exact) <= tol:
                problems.append(f"{col}({n}) = {row[ci]!r}, exact noisy value {exact!r}, "
                                f"tolerance {tol}")
    _rhp_series(_nonmarkov(out_dir), n_max, problems)
    if ref["witness"] and len(rows) > 2:
        margin = rows[2][1] - rows[1][2]
        if not margin > 0:
            problems.append(f"witness margin C_lower(2) - C_sharp_upper(1) = {margin!r} is not > 0")
    return problems

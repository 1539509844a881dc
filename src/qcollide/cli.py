"""Experiment runner: reproduces the simulation pipelines end to end and
emits CSV artifacts plus a run manifest.

Subcommands: simulate, witness, nonmarkov, transpile-check, continuum-check.
Exit codes: 0 success, 1 usage error, 2 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, channel, collision, entangle, nonmarkov, noisytomo, pipeline
from . import circuit as circ

MODELS = {
    "single": collision.single_qubit_model,
    "two-qubit": collision.two_qubit_model,
    "swap": collision.swap_model,
    "toy": collision.toy_model,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _simulate_args(sim) -> None:
    sim.add_argument("--model", choices=sorted(MODELS), default="single")
    sim.add_argument("--gdt", type=float, default=None,
                     help="collision strength g*dt in radians, single and two-qubit "
                          "only (default: pi/4)")
    sim.add_argument("--collisions", type=int, default=None,
                     help="maximum collision count N (default: model-specific)")
    sim.add_argument("--noise", default="ideal",
                     help="noise config file path, or 'ideal'")
    sim.add_argument("--shots", type=int, default=0,
                     help="tomography shots per setting (0: use exact states)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--mitigate", action="store_true",
                     help="apply readout-error mitigation to shot data")
    sim.add_argument("--out", required=True, help="output directory")


def _witness_args(wit) -> None:
    wit.add_argument("--csv", required=True, help="concurrence.csv from simulate")
    wit.add_argument("--t1", type=int, required=True)
    wit.add_argument("--t2", type=int, required=True)
    wit.add_argument("--out", default=None, help="optional report file")


def _nonmarkov_args(nm) -> None:
    nm.add_argument("--gdt", type=float, default=np.pi / 4)
    nm.add_argument("--t1", type=int, default=2, help="collision count at t1")
    nm.add_argument("--t2", type=int, default=4, help="collision count at t2")


def _continuum_args(cc) -> None:
    cc.add_argument("--points", type=int, default=50)
    cc.add_argument("--tmax", type=float, default=1.4)


def _build_parser(argv=()) -> _Parser:
    """The parser with only the subparser that ``argv[0]`` names, or all of
    them if it names none (no arguments, ``-h``, an unknown command).  The
    usage line keeps all names, as an "unrecognized arguments" error prints
    it; the metavar is set only then, as a missing or unknown command's
    error would print it instead of "command"."""
    p = _Parser(prog="qcollide", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in COMMANDS else None
    if only:
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    for name, (help_text, add_args, _) in COMMANDS.items():
        if only in (None, name):
            add_args(sub.add_parser(name, help=help_text))
    return p


class _InputError(Exception):
    """A usage or input error found after argument parsing (exit code 1)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _InputError(message)


def _load_noise(arg: str):
    """The noise config in file ``arg`` (None for 'ideal')."""
    if arg == "ideal":
        return None
    text = Path(arg).read_text()
    try:
        return noisytomo.NoiseConfig.from_text(text)
    except ValueError as exc:
        raise _InputError(f"noise config {arg}: {exc}") from exc


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _run_simulate(args) -> int:
    _require(args.gdt is None or math.isfinite(args.gdt), "--gdt must be finite")
    _require(args.gdt is None or args.model in ("single", "two-qubit"),
             f"--gdt does not apply to --model {args.model}")
    build = MODELS[args.model]
    model = build() if args.gdt is None else build(args.gdt)
    noise = _load_noise(args.noise)
    inputs = (args.shots, args.seed, args.mitigate)
    try:
        n_max = pipeline.check_inputs(model, args.collisions, noise, *inputs)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = pipeline.simulate(model, n_max, noise, *inputs)
    c_col, cs_col = ("C", "C_sharp") if report.exact else ("C_lower", "C_sharp_upper")
    cols = [report.conc, report.assist, report.conc_err, report.assist_err, report.fidelity]
    conc_rows = [[n, *row] for n, row in enumerate(np.column_stack(cols).tolist())]
    _write_csv(out_dir / "concurrence.csv",
               ["n", c_col, cs_col, f"{c_col}_err", f"{cs_col}_err", "fidelity_to_ideal"],
               conc_rows)
    if report.bloch is not None:
        # One int and three floats per row: no cell needs quoting, and csv
        # writes floats as repr, so this is _write_csv's text in one pass.
        (out_dir / "bloch.csv").write_text("n,x,y,z\n" + "".join(
            f"{n},{x!r},{y!r},{z!r}\n" for n, pts in enumerate(report.bloch.tolist())
            for x, y, z in pts))
    nm_lines = [["rhp_series", ";".join(f"{n}:{v!r}" for n, v in report.rhp_series)],
                ["rhp_is_lower_bound", str(not report.exact)],
                ["rhp_increase", str(report.rhp_increase)]]
    if report.blp_pair is not None:
        nm_lines += [["blp_t1_t2", "{};{}".format(*report.blp_pair)],
                     ["blp_delta", report.blp_delta],
                     ["blp_argmax_a", ";".join(map(repr, report.blp_argmax))],
                     ["volume_ratio_t1", report.volumes[0]],
                     ["volume_ratio_t2", report.volumes[1]]]
    _write_csv(out_dir / "nonmarkov.csv", ["quantity", "value"], nm_lines)
    # Only the QSD imports SciPy. Reading its version without importing it
    # (importlib.metadata) takes ~25 ms, most of an ideal single run.
    scipy = sys.modules.get("scipy")
    manifest = [
        f"qcollide {__version__}",
        f"model = {args.model}",
        f"gdt = {model.g_dt!r}",
        f"collisions = {n_max}",
        f"noise = {args.noise}",
        *(f"noise.{line}" for line in ("" if noise is None else noise.to_text()).splitlines()),
        f"numpy = {np.__version__}",
        f"scipy = {'not loaded' if scipy is None else scipy.__version__}",
        f"shots = {args.shots}",
        f"seed = {args.seed}",
        f"mitigate = {args.mitigate}",
    ]
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"wrote {out_dir}/concurrence.csv ({len(conc_rows)} rows)")
    return 0


def _write_csv(path: Path, header, rows):
    """CSV of Python scalars: csv writes floats as ``repr``."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    path.write_text(buf.getvalue())


# --------------------------------------------------------------------------
# witness
# --------------------------------------------------------------------------

def _witness_rows(path: str):
    """Header and {n: [C, C♯, C_err, C♯_err]} of a concurrence.csv; a file
    without data rows, a short row, a non-numeric or non-finite cell or a
    repeated n is an input error."""
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    _require(len(rows) > 1, f"{path}: no data rows")
    _require(len(rows[0]) >= 5, f"{path}: header has fewer than 5 columns")
    by_n = {}
    for line, row in enumerate(rows[1:], start=2):
        _require(len(row) >= 5, f"{path} line {line}: fewer than 5 cells")
        try:
            n, cells = int(row[0]), [float(x) for x in row[1:5]]
        except ValueError:
            raise _InputError(f"{path} line {line}: n must be an integer and "
                              "the next four cells numbers") from None
        _require(all(map(math.isfinite, cells)), f"{path} line {line}: non-finite cell")
        _require(n not in by_n, f"{path} line {line}: repeated n={n}")
        by_n[n] = cells
    return rows[0], by_n


def _run_witness(args) -> int:
    _require(args.t1 < args.t2, "--t1 must be earlier than --t2")
    header, by_n = _witness_rows(args.csv)
    _require(args.t1 in by_n and args.t2 in by_n,
             f"rows for n={args.t1} and n={args.t2} required")
    exact = header[1] == "C"
    left = by_n[args.t1][1]   # assistance (or its upper bound) at t1
    right = by_n[args.t2][0]  # concurrence (or its lower bound) at t2
    err = float(np.hypot(by_n[args.t1][3], by_n[args.t2][2]))
    report = entangle.WitnessReport.of_sides(args.t1, args.t2, exact, left, right)
    text = json.dumps({
        "t1": args.t1,
        "t2": args.t2,
        "exact": exact,
        f"left_{header[2]}": left,
        f"right_{header[1]}": right,
        "margin": report.margin,
        "bootstrap_err": err,
        "quantum_memory": report.quantum_memory,
    }, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


# --------------------------------------------------------------------------
# nonmarkov / transpile-check / continuum-check
# --------------------------------------------------------------------------

def _run_nonmarkov(args) -> int:
    _require(math.isfinite(args.gdt), "--gdt must be finite")
    _require(min(args.t1, args.t2) >= 0, "--t1 and --t2 must be nonnegative")
    # The backflow from t1 to t2 is a trace-distance increase only forwards
    # in time; a reversed pair would report a loss as backflow.
    _require(args.t1 < args.t2, "--t1 must be earlier than --t2")
    model = collision.single_qubit_model(args.gdt)
    records = collision.evolve_series(model, args.t2)
    rec1, rec2 = records[args.t1], records[args.t2]
    series, _, increase = nonmarkov.rhp_series(records, model.system_labels)
    delta, pair = nonmarkov.blp_max_increase(rec1.reduced_channel, rec2.reduced_channel)
    v1 = nonmarkov.bloch_volume(rec1.reduced_channel)
    v2 = nonmarkov.bloch_volume(rec2.reduced_channel)
    print(f"rhp series: {[(n, round(v, 6)) for n, v in series]}")
    print(f"rhp increase detected: {increase}")
    print(f"blp max trace-distance increase: {delta:.6f}")
    print(f"volume ratio at t1: {v1:.6f}, at t2: {v2:.6f}")
    return 0


def _run_transpile_check(_args) -> int:
    failures = []
    bell_ref = circ.reference_bell_circuit()
    bell_target = circ.unitary_of_circuit(circ.bell_prep_circuit())
    ok, phase = circ.equivalent_up_to_global_phase(
        circ.unitary_of_circuit(bell_ref), bell_target
    )
    phase_ok = ok and abs(abs(phase) - np.pi) < 1e-8
    print(f"bell-preparation sequence: {'pass' if phase_ok else 'FAIL'} "
          f"(phase {phase:+.6f}, {circ.gate_count(bell_ref)})")
    if not phase_ok:
        failures.append("bell")

    coll_ref = circ.reference_collision_circuit()
    target = collision.collision_unitary(np.pi / 4)
    dev = np.abs(circ.unitary_of_circuit(coll_ref) - target).max()
    n_ecr = circ.gate_count(coll_ref).get("ECR", 0)
    ok = dev < 1e-8 and n_ecr <= 2
    print(f"collision-unitary sequence: {'pass' if ok else 'FAIL'} "
          f"(max dev {dev:.2e}, {circ.gate_count(coll_ref)})")
    if not ok:
        failures.append("collision")

    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(10):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        t = circ.transpile(circ.Circuit(("a", "b"),
                                        [circ.Gate("UNITARY", ("a", "b"), matrix=u)]))
        worst = max(worst, float(np.abs(circ.unitary_of_circuit(t) - u).max()))
    ok = worst < 1e-8
    print(f"random transpile round-trips: {'pass' if ok else 'FAIL'} "
          f"(worst dev {worst:.2e})")
    if not ok:
        failures.append("random")
    return 2 if failures else 0


def _run_continuum_check(args) -> int:
    _require(args.points >= 0, "--points must be nonnegative")
    _require(math.isfinite(args.tmax), "--tmax must be finite")
    grid = np.linspace(0.0, args.tmax, args.points)
    grid = grid[(grid > 0) & (np.abs(np.cos(grid)) > 1e-3)]
    _require(grid.size > 0, "--points and --tmax leave no grid point with t > 0")
    worst_rate = max(abs(collision.lindblad_rate(t) - np.tan(t)) for t in grid)
    worst_transfer = 0.0
    for n in range(1, 9):
        t = 0.9
        model = collision.single_qubit_model(g_dt=t / n)
        rec = collision.evolve(model, n)
        dev = np.abs(
            channel.transfer_of_channel(rec.reduced_channel).M
            - collision.continuum_transfer(t).M
        ).max()
        worst_transfer = max(worst_transfer, float(dev))
    print(f"max |rate(t) - tan(t)| over grid: {worst_rate:.3e}")
    print(f"max transfer-matrix deviation (n = 1..8): {worst_transfer:.3e}")
    ok = worst_rate < 1e-4 and worst_transfer < 1e-10
    print("continuum check:", "pass" if ok else "FAIL")
    return 0 if ok else 2


# name -> (help, argument builder, runner), in the order of the command list.
COMMANDS = {
    "simulate": ("run a collision-model experiment", _simulate_args, _run_simulate),
    "witness": ("evaluate the quantum-memory witness", _witness_args, _run_witness),
    "nonmarkov": ("non-Markovianity diagnostics", _nonmarkov_args, _run_nonmarkov),
    "transpile-check": ("verify the native-gate sequences", lambda _: None, _run_transpile_check),
    "continuum-check": ("verify the continuum limit", _continuum_args, _run_continuum_check),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError) as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

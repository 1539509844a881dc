"""Experiment runner: reproduces the simulation pipelines end to end and
emits CSV artifacts plus a run manifest.

Subcommands: simulate, witness, nonmarkov, transpile-check, continuum-check.
Exit codes: 0 success, 1 usage error, 2 numerical-invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, channel, collision, entangle, nonmarkov, noisytomo, qmat
from . import circuit as circ

MODELS = {
    "single": collision.single_qubit_model,
    "two-qubit": collision.two_qubit_model,
    "swap": lambda g_dt=None: collision.swap_model(),
    "toy": lambda g_dt=None: collision.toy_model(),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="qcollide", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a collision-model experiment")
    sim.add_argument("--model", choices=sorted(MODELS), default="single")
    sim.add_argument("--gdt", type=float, default=np.pi / 4,
                     help="collision strength g*dt in radians")
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

    wit = sub.add_parser("witness", help="evaluate the quantum-memory witness")
    wit.add_argument("--csv", required=True, help="concurrence.csv from simulate")
    wit.add_argument("--t1", type=int, required=True)
    wit.add_argument("--t2", type=int, required=True)
    wit.add_argument("--out", default=None, help="optional report file")

    nm = sub.add_parser("nonmarkov", help="non-Markovianity diagnostics")
    nm.add_argument("--gdt", type=float, default=np.pi / 4)
    nm.add_argument("--t1", type=int, default=2, help="collision count at t1")
    nm.add_argument("--t2", type=int, default=4, help="collision count at t2")

    sub.add_parser("transpile-check", help="verify the native-gate sequences")

    cc = sub.add_parser("continuum-check", help="verify the continuum limit")
    cc.add_argument("--points", type=int, default=50)
    cc.add_argument("--tmax", type=float, default=1.4)
    return p


class _InputError(Exception):
    """A usage or input error found after argument parsing (exit code 1)."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise _InputError(message)


def _load_noise(arg: str):
    if arg == "ideal":
        return None
    text = Path(arg).read_text()
    try:
        return noisytomo.NoiseConfig.from_text(text)
    except ValueError as exc:
        raise _InputError(f"noise config {arg}: {exc}") from exc


def _fmt(x) -> str:
    return repr(float(x))


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _state_for(model, n, noise, shots, seed, calibration):
    """(state for quantities, ideal record, record used, bootstrap replicas).

    ``calibration`` is the pair of readout-calibration counts used to
    mitigate the shot data, or None for raw counts."""
    ideal = collision.evolve(model, n)
    if noise is None:
        return ideal.joint_state, ideal, ideal, []
    noisy = collision.evolve(model, n, noise=noise)
    if shots <= 0:
        return noisy.joint_state, ideal, noisy, []
    measured = model.ancilla_labels + model.system_labels
    counts = noisytomo._sample_state(noisy.joint_state, measured, shots, seed * 1000 + n,
                                     noise, noisytomo.all_settings(len(measured)))
    if calibration is not None:
        counts = noisytomo.mitigate_readout(counts, *calibration)
    state = noisytomo.reconstruct(counts).state
    replicas = _bootstrap_states(counts, seed * 1000 + n, reps=20)
    return state, ideal, noisy, replicas


def _bootstrap_states(counts, seed, reps=20):
    """Reconstructed states of ``reps`` multinomial resamples of the counts.

    Each replica draws one multinomial per setting, in ``counts.counts``
    order, from one generator; all replicas are reconstructed in one call."""
    rng = np.random.default_rng([seed, 777])
    k = len(counts.measured)
    row = {s: i for i, s in enumerate(noisytomo.all_settings(k))}
    freqs = [(row[s], counts.frequencies(s)) for s in counts.counts]
    table = np.zeros((reps, 3**k, 2**k))
    for rep in table:
        for i, f in freqs:
            rep[i] = rng.multinomial(counts.shots, f) / counts.shots
    mats, _ = noisytomo._reconstruct_frequencies(table)
    reg = qmat.QubitRegister(counts.measured)
    return [qmat.DensityMatrix(reg, m, validate=False) for m in mats]


def _quantities(state, sys_labels):
    if state.register.n == 2:
        return entangle.concurrence_2q(state), entangle.assistance_2q(state)
    return (
        entangle.concurrence_lower(state, sys_labels),
        entangle.assistance_upper(state, sys_labels),
    )


def _run_simulate(args) -> int:
    _require(math.isfinite(args.gdt), "--gdt must be finite")
    _require(args.seed >= 0, "--seed must be nonnegative")
    noise = _load_noise(args.noise)
    _require(noise is None or args.shots > 0,
             "--shots must be positive when noise is enabled")
    _require(noise is not None or (args.shots == 0 and not args.mitigate),
             "--shots and --mitigate need --noise")
    builder = MODELS[args.model]
    model = builder(args.gdt) if args.model in ("single", "two-qubit") else builder()
    n_max = args.collisions
    if n_max is None:
        n_max = 2 if model.kind in ("Toy", "Swap") else 10
    try:
        collision._check_steps(model, n_max)
    except ValueError as exc:
        raise _InputError(f"--collisions {n_max}: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sys_labels = model.system_labels
    exact = len(sys_labels) == 1
    calibration = None
    if noise is not None and args.mitigate:
        jobs = noisytomo.calibration_jobs(model.register,
                                          model.ancilla_labels + sys_labels,
                                          shots=args.shots, seed=args.seed * 1000 + 900)
        calibration = [noisytomo.sample_calibration(j, noise=noise) for j in jobs]

    conc_rows = []
    bloch_rows = []
    records = []
    for n in range(n_max + 1):
        state, ideal_rec, used_rec, replicas = _state_for(
            model, n, noise, args.shots, args.seed, calibration
        )
        c, c_sharp = _quantities(state, sys_labels)
        err_c = err_cs = 0.0
        if replicas:
            vals = np.array([_quantities(s, sys_labels) for s in replicas])
            err_c = float(vals[:, 0].std(ddof=1))
            err_cs = float(vals[:, 1].std(ddof=1))
        fid = qmat.state_fidelity(ideal_rec.joint_state, state)
        conc_rows.append([n, c, c_sharp, err_c, err_cs, fid])
        records.append(collision.EvolutionRecord(n, state, used_rec.reduced_channel))
        if len(sys_labels) == 1:
            for pt in collision.bloch_image_samples(used_rec, mesh=60):
                bloch_rows.append([n, pt[0], pt[1], pt[2]])

    c_col = "C" if exact else "C_lower"
    cs_col = "C_sharp" if exact else "C_sharp_upper"
    _write_csv(out_dir / "concurrence.csv",
               ["n", c_col, cs_col, f"{c_col}_err", f"{cs_col}_err", "fidelity_to_ideal"],
               conc_rows)
    if bloch_rows:
        _write_csv(out_dir / "bloch.csv", ["n", "x", "y", "z"], bloch_rows)

    # non-Markovianity summary (single-qubit system channels only for BLP/volume)
    nm_lines = []
    series, lower_flag, increase = nonmarkov.rhp_series(records, sys_labels)
    nm_lines.append(["rhp_series", ";".join(f"{n}:{_fmt(v)}" for n, v in series)])
    nm_lines.append(["rhp_is_lower_bound", str(lower_flag)])
    nm_lines.append(["rhp_increase", str(increase)])
    if len(sys_labels) == 1 and n_max >= 4:
        t1_idx = min(range(n_max + 1), key=lambda i: conc_rows[i][1])
        t2_idx = max(range(t1_idx, n_max + 1), key=lambda i: conc_rows[i][1])
        ch1 = records[t1_idx].reduced_channel
        ch2 = records[t2_idx].reduced_channel
        delta, pair = nonmarkov.blp_max_increase(ch1, ch2)
        nm_lines.append(["blp_t1_t2", f"{t1_idx};{t2_idx}"])
        nm_lines.append(["blp_delta", _fmt(delta)])
        nm_lines.append(["blp_argmax_a", ";".join(_fmt(x) for x in pair[0])])
        nm_lines.append(["volume_ratio_t1", _fmt(nonmarkov.bloch_volume(ch1))])
        nm_lines.append(["volume_ratio_t2", _fmt(nonmarkov.bloch_volume(ch2))])
    _write_csv(out_dir / "nonmarkov.csv", ["quantity", "value"], nm_lines)

    manifest = [
        f"qcollide {__version__}",
        f"model = {args.model}",
        f"gdt = {args.gdt!r}",
        f"collisions = {n_max}",
        f"noise = {args.noise}",
        f"shots = {args.shots}",
        f"seed = {args.seed}",
        f"mitigate = {args.mitigate}",
    ]
    (out_dir / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"wrote {out_dir}/concurrence.csv ({len(conc_rows)} rows)")
    return 0


def _write_csv(path: Path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([x if isinstance(x, str) else
                    (x if isinstance(x, (int, np.integer)) else _fmt(x))
                    for x in row])
    path.write_text(buf.getvalue())


# --------------------------------------------------------------------------
# witness
# --------------------------------------------------------------------------

def _run_witness(args) -> int:
    rows = list(csv.reader(Path(args.csv).read_text().splitlines()))
    header, data = rows[0], rows[1:]
    by_n = {int(r[0]): r for r in data}
    if args.t1 not in by_n or args.t2 not in by_n:
        print(f"error: rows for n={args.t1} and n={args.t2} required",
              file=sys.stderr)
        return 1
    exact = header[1] == "C"
    left = float(by_n[args.t1][2])   # assistance (or its upper bound) at t1
    right = float(by_n[args.t2][1])  # concurrence (or its lower bound) at t2
    err = float(np.hypot(float(by_n[args.t1][4]), float(by_n[args.t2][3])))
    report = entangle.WitnessReport.of_sides(args.t1, args.t2, exact, left, right)
    lines = [
        "{",
        f'  "t1": {args.t1},',
        f'  "t2": {args.t2},',
        f'  "exact": {str(exact).lower()},',
        f'  "left_{header[2]}": {_fmt(left)},',
        f'  "right_{header[1]}": {_fmt(right)},',
        f'  "margin": {_fmt(report.margin)},',
        f'  "bootstrap_err": {_fmt(err)},',
        f'  "quantum_memory": {str(report.quantum_memory).lower()}',
        "}",
    ]
    text = "\n".join(lines)
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
    model = collision.single_qubit_model(args.gdt)
    records = [collision.evolve(model, n) for n in range(max(args.t1, args.t2) + 1)]
    rec1, rec2 = records[args.t1], records[args.t2]
    series, _, increase = nonmarkov.rhp_series(records[: args.t2 + 1], model.system_labels)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _run_simulate(args)
        if args.command == "witness":
            return _run_witness(args)
        if args.command == "nonmarkov":
            return _run_nonmarkov(args)
        if args.command == "transpile-check":
            return _run_transpile_check(args)
        if args.command == "continuum-check":
            return _run_continuum_check(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, AssertionError) as exc:
        print(f"numerical invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())

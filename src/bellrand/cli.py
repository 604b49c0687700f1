"""Batch harness exposing each pipeline stage as a subcommand.

Subcommands: certify (bound from a behavior), bellbound (bound from Bell
operator values), optimize (see-saw over settings), sweep (grid over state
parameters with optimized settings), tomography (state-constrained bounds).
Each option is declared once, as a flag with its type and default, in one
of five parent groups (io, state, scenario, search, grids); a subcommand
takes only the groups it reads, so a flag it does not read is a usage error.
Configuration comes from those defaults, then a flat key=value file given
with --config, then command-line flags, later sources winning. A config
value goes through its flag's own parser; a config key that no subcommand
knows is an input error; keys of other subcommands are ignored. All grids,
counts and output directories are validated before any solve. Identical
configuration (including seed) run at the same BLAS thread count produces
byte-identical output files; a different thread count can change the last
digits.

Exit codes: 0 success, 1 input error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import npa, qstate, seesaw
from .guessprob import (
    TomographicProgram,
    _hmin,
    bell_constrained_bound,
    chsh_coefficients,
    guessing_probability,
    ibeta_coefficients,
    report_to_text,
)
from .qstate import MeasurementSet

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2


def validate(args: argparse.Namespace):
    """Reject settings no solve can use, before any solve. Only the options
    that the chosen subcommand declares are in ``args``; each is checked
    when it is there. The level and the generation pair are the library's
    to check: every bound checks both before any solve."""
    if "v" in args and not 0.0 <= args.v <= 1.0:
        raise ValueError("v must lie in [0, 1]")
    # same slack as qstate.make_state, so pi/4 itself passes
    if "theta" in args and not 0.0 <= args.theta <= math.pi / 4 + 1e-12:
        raise ValueError("theta must lie in [0, pi/4]")
    if "epsilon" in args and not args.epsilon > 0.0:  # NaN fails every comparison
        raise ValueError("epsilon must be > 0")
    for key in ("starts", "jobs", "max_iterations", "map_grid"):
        if key in args and getattr(args, key) < 1:
            raise ValueError(f"{key.replace('_', '-')} must be >= 1")
    if "mx" in args and (args.mx < 1 or args.my < 1):
        raise ValueError("scenario needs at least one input per side")
    if "v_grid" in args:
        for key in ("v_grid", "theta_grid"):
            if getattr(args, key) == ():
                raise ValueError(f"{key.replace('_', '-')} is empty")
        for v in args.v_grid or ():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"v-grid value {v} outside [0, 1]")
        for theta in args.theta_grid or ():
            if not 0.0 <= theta <= math.pi / 4 + 1e-12:
                raise ValueError(f"theta-grid value {theta} outside [0, pi/4]")
    # outputs are written after the work: a path that cannot be opened
    # would lose all of it
    for key in ("out", "trace", "angle_map"):
        if key not in args or not getattr(args, key):
            continue
        path, flag = getattr(args, key), key.replace("_", "-")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} directory {os.path.dirname(path)!r} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"{flag} path {path!r} is a directory")


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Grid syntax: comma list `a,b,c` or inclusive range `start:stop:count`."""
    spec = spec.strip()
    if not spec:
        return ()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"range grid must be start:stop:count, got {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("grid count must be >= 1")
        return tuple(np.linspace(start, stop, count))
    return tuple(float(p) for p in spec.split(","))


def _parse_angles(spec: str) -> tuple[float, ...]:
    return tuple(float(p) for p in spec.split(","))


def _read_config_file(path: str) -> dict[str, str]:
    """Raw values of a flat ``key = value`` file, with '-' in keys read as '_'."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError(f"config line must be key=value: {ln!r}")
            key, val = (part.strip() for part in ln.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _apply_config(path: str, subparsers: dict, subcommand: str):
    """Make the config file's values the chosen subcommand's defaults, each
    converted by its own flag's type. A key that no subcommand declares, or
    a value its flag would reject, is an input error; keys of other
    subcommands are ignored after that check."""
    declared = {
        a.dest: a for p in subparsers.values() for a in p._actions
        if a.dest not in ("help", "config")
    }
    chosen = {a.dest for a in subparsers[subcommand]._actions}
    values = {}
    for key, raw in _read_config_file(path).items():
        if key not in declared:
            raise ValueError(f"unknown config key {key!r}")
        value = declared[key].type(raw)
        if key in chosen:
            values[key] = value
    subparsers[subcommand].set_defaults(**values)


def _write(path: str | None, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"


def cmd_certify(args: argparse.Namespace) -> int:
    # the bound checks the generation pair against the behavior's own scenario
    if args.behavior:
        with open(args.behavior) as fh:
            b = qstate.behavior_from_csv(fh.read())
    else:
        base = seesaw.initial_settings(args.mx, args.my)
        meas = MeasurementSet(args.alice or base.alice_angles,
                              args.bob or base.bob_angles)
        b = qstate.behavior(qstate.make_state(args.v, args.theta), meas)
    report = guessing_probability(b, args.level, args.xstar, args.ystar)
    _write(args.out, report_to_text(report))
    return EXIT_OK if report.status == "optimal" else EXIT_SOLVER


def cmd_bellbound(args: argparse.Namespace) -> int:
    if args.beta is None and args.ibeta_value is not None:
        raise ValueError("--ibeta-value requires --beta")
    if args.beta is not None and args.ibeta_value is None:
        raise ValueError("--beta requires --ibeta-value")
    exprs = []
    values = []
    if args.value is not None:
        exprs.append(chsh_coefficients(args.mx, args.my))
        values.append(args.value)
    if args.ibeta_value is not None:
        exprs.append(ibeta_coefficients(args.beta, args.mx, args.my))
        values.append(args.ibeta_value)
    if not exprs:
        raise ValueError("give --value (CHSH) and/or --ibeta-value with --beta")
    report = bell_constrained_bound(
        np.asarray(exprs), np.asarray(values), args.mx, args.my,
        args.level, args.xstar, args.ystar,
    )
    _write(args.out, report_to_text(report))
    if report.status == "infeasible":
        sys.stderr.write("constraint values are infeasible at this level\n")
    return EXIT_OK if report.status == "optimal" else EXIT_SOLVER


def cmd_optimize(args: argparse.Namespace) -> int:
    state = qstate.make_state(args.v, args.theta)
    try:
        res = seesaw.optimize(
            state, args.mx, args.my, args.level, args.xstar, args.ystar,
            args.epsilon, args.starts, args.seed, args.max_iterations,
        )
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_SOLVER
    rep = res.best_report
    lines = [
        f"hmin {rep.hmin:.12g}",
        f"G {rep.guessing_probability:.12g}",
        f"level {rep.level}",
        f"status {rep.status}",
        f"starts_used {res.starts_used}",
        f"converged {res.converged}",
        f"iterations {len(res.trajectory)}",
        "alice " + ",".join(_fmt(a) for a in res.best_meas.alice_angles),
        "bob " + ",".join(_fmt(b) for b in res.best_meas.bob_angles),
    ]
    _write(args.out, "\n".join(lines) + "\n")
    if args.trace:
        rows = ["start,iteration,g,hmin"]
        for s_idx, traj in enumerate(res.start_trajectories):
            for it, g in enumerate(traj):
                rows.append(f"{s_idx},{it},{_fmt(g)},{_fmt(_hmin(g))}")
        _write(args.trace, "\n".join(rows) + "\n")
    return EXIT_OK if rep.status == "optimal" else EXIT_SOLVER


def _sweep_point(packed):
    idx, v, theta, args = packed
    state = qstate.make_state(v, theta)
    chsh_meas = qstate.chsh_optimal_settings(theta)
    chsh = qstate.chsh_value(qstate.behavior(state, chsh_meas))
    row: dict[str, object] = {
        "v": v, "theta": theta, "mx": args.mx, "my": args.my, "level": args.level,
        "chsh": chsh,
    }
    try:
        res = seesaw.optimize(
            state, args.mx, args.my, args.level, args.xstar, args.ystar,
            args.epsilon, args.starts, args.seed + idx, args.max_iterations,
        )
        row["hmin"] = res.best_report.hmin
        row["starts"] = res.starts_used
        row["converged"] = res.converged
        row["status"] = res.best_report.status
    except RuntimeError:
        row["hmin"] = math.nan
        row["starts"] = 0
        row["converged"] = False
        row["status"] = "failed"
    rb = bell_constrained_bound(
        chsh_coefficients(args.mx, args.my), chsh, args.mx, args.my,
        args.level, args.xstar, args.ystar,
    )
    row["hmin_chsh"] = rb.hmin if rb.status == "optimal" else math.nan
    return row


_SWEEP_COLUMNS = (
    "v", "theta", "mx", "my", "level", "hmin", "chsh", "hmin_chsh",
    "starts", "converged", "status",
)


def cmd_sweep(args: argparse.Namespace) -> int:
    vs = args.v_grid or (args.v,)
    thetas = args.theta_grid or (args.theta,)
    points = [(v, th) for th in thetas for v in vs]
    # point idx is seeded --seed + idx; the pool and the loop keep task order
    tasks = [(idx, v, th, args) for idx, (v, th) in enumerate(points)]
    if args.jobs > 1:
        # concurrent.futures and multiprocessing load only for a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in results:
        cells = []
        for col in _SWEEP_COLUMNS:
            val = row[col]
            cells.append(_fmt(val) if isinstance(val, float) else str(val))
        lines.append(",".join(cells))
    _write(args.out, "\n".join(lines) + "\n")
    bad = [r for r in results if r["status"] != "optimal"]
    return EXIT_SOLVER if bad else EXIT_OK


_GNUPLOT = """\
# plot companion for {csv}; run gnuplot from its directory
set datafile separator ","
set key autotitle columnhead
set xlabel "{xlabel}"
set ylabel "hmin [bits]"
plot "{csv}" using {using} with linespoints
"""


def cmd_tomography(args: argparse.Namespace) -> int:
    vs = args.v_grid or (args.v,)
    thetas = args.theta_grid or (args.theta,)
    points = [(v, th) for v in vs for th in thetas]
    lines = ["v,theta,level,alpha,beta,hmin,status"]
    worst = "optimal"
    for v, th in points:
        state = qstate.make_state(v, th)
        alpha, beta, rep = seesaw.tomographic_optimize(state, args.grid_size)
        if rep.status != "optimal":
            worst = rep.status
        lines.append(
            f"{_fmt(v)},{_fmt(th)},{rep.level},{_fmt(alpha)},{_fmt(beta)},"
            f"{_fmt(rep.hmin)},{rep.status}"
        )
    _write(args.out, "\n".join(lines) + "\n")
    if args.out:
        _write(
            args.out + ".gp",
            _GNUPLOT.format(
                csv=os.path.basename(args.out), xlabel="theta", using="2:6"
            ),
        )
    map_path = args.angle_map
    if map_path:
        program = TomographicProgram(qstate.make_state(args.v, args.theta))
        angles = np.arange(args.map_grid) * math.pi / args.map_grid
        pairs = [(float(alpha), float(beta)) for alpha in angles for beta in angles]
        rows = ["alpha1,beta1,hmin"]
        for (alpha, beta), rep in zip(pairs, program.batch(pairs)):
            if rep.status != "optimal":
                worst = rep.status
            rows.append(f"{_fmt(alpha)},{_fmt(beta)},{_fmt(rep.hmin)}")
        _write(map_path, "\n".join(rows) + "\n")
        _write(
            map_path + ".gp",
            _GNUPLOT.format(
                csv=os.path.basename(map_path), xlabel="alpha1", using="1:2:3"
            ),
        )
    return EXIT_OK if worst == "optimal" else EXIT_SOLVER


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name. Each option is
    declared here once, with its type and default, in the parent group of
    the subcommands that read it."""
    io, state, scenario, search, grids = (
        argparse.ArgumentParser(add_help=False) for _ in range(5)
    )
    io.add_argument("--out", type=str)
    io.add_argument("--config", type=str)
    state.add_argument("--v", type=float, default=1.0)
    state.add_argument("--theta", type=float, default=math.pi / 4)
    scenario.add_argument("--level", type=int, choices=npa.LEVELS, default=2)
    scenario.add_argument("--mx", type=int, default=2)
    scenario.add_argument("--my", type=int, default=2)
    scenario.add_argument("--xstar", type=int, default=1)
    scenario.add_argument("--ystar", type=int, default=1)
    search.add_argument("--epsilon", type=float, default=1e-6)
    search.add_argument("--starts", type=int, default=8)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--max-iterations", type=int, default=50)
    grids.add_argument("--v-grid", type=_parse_grid)
    grids.add_argument("--theta-grid", type=_parse_grid)

    parser = argparse.ArgumentParser(
        prog="bellrand",
        description="Certified randomness bounds for two-qubit Bell experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # no prefix passes for a whole flag: bellbound would read --v as --value
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("certify", parents=[io, state, scenario],
            help="bound randomness from a behavior",
            description="Bound randomness from a behavior: a --behavior file, "
            "or the state --v/--theta measured at --alice/--bob. --mx/--my "
            "only size the default settings when --alice/--bob are not given, "
            "and --xstar/--ystar are checked against the settings measured.")
    p.add_argument("--behavior", type=str, help="behavior CSV path")
    p.add_argument("--alice", type=_parse_angles)
    p.add_argument("--bob", type=_parse_angles)
    p.set_defaults(run=cmd_certify)

    p = add("bellbound", parents=[io, scenario],
            help="bound randomness from Bell operator values")
    p.add_argument("--value", type=float, help="CHSH value")
    p.add_argument("--beta", type=float, help="marginal weight of the tilted operator")
    p.add_argument("--ibeta-value", type=float, help="tilted-operator value")
    p.set_defaults(run=cmd_bellbound)

    p = add("optimize", parents=[io, state, scenario, search],
            help="see-saw search over measurement settings")
    p.add_argument("--trace", type=str, help="per-start trajectory CSV path")
    p.set_defaults(run=cmd_optimize)

    p = add("sweep", parents=[io, state, scenario, search, grids],
            help="optimized bounds over a (v, theta) grid")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(run=cmd_sweep)

    p = add("tomography", parents=[io, state, grids],
            help="state-constrained bounds over a grid")
    p.add_argument("--grid-size", type=int, default=12)
    p.add_argument("--angle-map", type=str,
                   help="write an alpha/beta map CSV at the fixed (v, theta)")
    p.add_argument("--map-grid", type=int, default=24)
    p.set_defaults(run=cmd_tomography)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # defaults < config file < flags: the file's values become
            # defaults, then the flags are parsed again over them
            _apply_config(args.config, subparsers, args.subcommand)
            args = parser.parse_args(argv)
        validate(args)
        return args.run(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

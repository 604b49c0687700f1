"""Batch harness exposing each pipeline stage as a subcommand.

Subcommands: certify (bound from a behavior), bellbound (bound from Bell
operator values), optimize (see-saw over settings), sweep (grid over state
parameters with optimized settings), tomography (state-constrained bounds).
Configuration comes from defaults, then a flat key=value file given with
--config, then command-line flags, later sources winning. A config key
that no subcommand knows is an input error; keys of other subcommands are
ignored. All grids and counts are validated before any solve. Identical
configuration (including seed) run at the same BLAS thread count produces
byte-identical output files; a different thread count can change the last
digits.

Exit codes: 0 success, 1 input error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic, qstate, seesaw
from .guessprob import (
    bell_constrained_bound,
    chsh_coefficients,
    guessing_probability,
    ibeta_coefficients,
    report_to_text,
    tomographic_guessing,
)
from .qstate import MeasurementSet
from .sdp import SolveOptions

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2

_DEFAULTS: dict[str, object] = {
    "level": 2,
    "v": 1.0,
    "theta": math.pi / 4,
    "mx": 2,
    "my": 2,
    "xstar": 1,
    "ystar": 1,
    "epsilon": 1e-6,
    "starts": 8,
    "seed": 0,
    "max_iterations": 50,
    "jobs": 1,
    "gap_tol": 1e-8,
    "feas_tol": 1e-8,
    "grid_size": 12,
    "map_grid": 24,
}

_CONVERT = {
    "level": int, "mx": int, "my": int, "xstar": int, "ystar": int,
    "starts": int, "seed": int, "max_iterations": int, "jobs": int,
    "grid_size": int, "map_grid": int,
    "v": float, "theta": float, "epsilon": float,
    "gap_tol": float, "feas_tol": float,
    "value": float, "beta": float, "ibeta_value": float,
}


@dataclass(frozen=True)
class RunConfig:
    """Merged configuration for one subcommand run."""

    subcommand: str
    settings: dict

    def __getattr__(self, name):
        try:
            return self.settings[name]
        except KeyError:
            raise AttributeError(name) from None

    def validate(self):
        s = self.settings
        if s.get("level") not in (1, 2, 3):
            raise ValueError("level must be 1, 2, or 3")
        if not 0.0 <= s.get("v", 1.0) <= 1.0:
            raise ValueError("v must lie in [0, 1]")
        if s.get("epsilon", 1.0) <= 0.0:
            raise ValueError("epsilon must be > 0")
        if s.get("starts", 1) < 1:
            raise ValueError("starts must be >= 1")
        if s.get("jobs", 1) < 1:
            raise ValueError("jobs must be >= 1")
        if s.get("max_iterations", 1) < 1:
            raise ValueError("max-iterations must be >= 1")
        if s.get("map_grid", 1) < 1:
            raise ValueError("map-grid must be >= 1")
        if s.get("mx", 1) < 1 or s.get("my", 1) < 1:
            raise ValueError("scenario needs at least one input per side")
        if not s.get("behavior"):
            # with a behavior file, the scenario comes from the file instead
            if not (1 <= s.get("xstar", 1) <= s.get("mx", 1)):
                raise ValueError("xstar outside scenario")
            if not (1 <= s.get("ystar", 1) <= s.get("my", 1)):
                raise ValueError("ystar outside scenario")
        for key in ("v_grid", "theta_grid"):
            if key in s and len(s[key]) == 0:
                raise ValueError(f"{key.replace('_', '-')} is empty")
        for v in s.get("v_grid") or ():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"v-grid value {v} outside [0, 1]")
        for theta in s.get("theta_grid") or ():
            # same slack as qstate.make_state, so pi/4 itself passes
            if not 0.0 <= theta <= math.pi / 4 + 1e-12:
                raise ValueError(f"theta-grid value {theta} outside [0, pi/4]")


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


def _read_config_file(path: str) -> dict:
    out: dict[str, object] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ValueError(f"config line must be key=value: {ln!r}")
            key, val = (part.strip() for part in ln.split("=", 1))
            key = key.replace("-", "_")
            if key in ("v_grid", "theta_grid"):
                out[key] = _parse_grid(val)
            elif key in ("alice", "bob"):
                out[key] = _parse_angles(val)
            elif key in _CONVERT:
                out[key] = _CONVERT[key](val)
            else:
                out[key] = val
    return out


def _merge(args: argparse.Namespace, keys) -> RunConfig:
    """defaults < config file < explicit flags"""
    merged = {k: _DEFAULTS[k] for k in keys if k in _DEFAULTS}
    if getattr(args, "config", None):
        filecfg = _read_config_file(args.config)
        for k, val in filecfg.items():
            if k in keys:
                merged[k] = val
            elif k not in _KNOWN_KEYS:
                raise ValueError(f"unknown config key {k!r}")
    for k in keys:
        val = getattr(args, k, None)
        if val is not None:
            merged[k] = val
    cfg = RunConfig(subcommand=args.subcommand, settings=merged)
    cfg.validate()
    return cfg


def _solve_options(cfg: RunConfig) -> SolveOptions:
    return SolveOptions(gap_tol=cfg.gap_tol, feas_tol=cfg.feas_tol)


def _write(path: str | None, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(x: float) -> str:
    return f"{x + 0.0:.12g}"


def _settings_for(cfg: RunConfig) -> MeasurementSet:
    alice = cfg.settings.get("alice")
    bob = cfg.settings.get("bob")
    base = seesaw.initial_settings(cfg.mx, cfg.my)
    return MeasurementSet(alice or base.alice_angles, bob or base.bob_angles)


def cmd_certify(cfg: RunConfig) -> int:
    if cfg.settings.get("behavior"):
        # scenario comes from the file; generation flags are checked against it
        with open(cfg.settings["behavior"]) as fh:
            b = qstate.behavior_from_csv(fh.read())
    else:
        meas = _settings_for(cfg)
        state = qstate.make_state(cfg.v, cfg.theta)
        b = qstate.behavior(state, meas)
    if not (1 <= cfg.xstar <= b.mx and 1 <= cfg.ystar <= b.my):
        raise ValueError("generation setting outside the behavior's scenario")
    report = guessing_probability(
        b, cfg.level, cfg.xstar, cfg.ystar, _solve_options(cfg)
    )
    _write(cfg.settings.get("out"), report_to_text(report))
    return EXIT_OK if report.status == "optimal" else EXIT_SOLVER


def cmd_bellbound(cfg: RunConfig) -> int:
    exprs = []
    values = []
    if cfg.settings.get("value") is not None:
        exprs.append(chsh_coefficients(cfg.mx, cfg.my))
        values.append(cfg.settings["value"])
    if cfg.settings.get("ibeta_value") is not None:
        if cfg.settings.get("beta") is None:
            raise ValueError("--ibeta-value requires --beta")
        exprs.append(ibeta_coefficients(cfg.settings["beta"], cfg.mx, cfg.my))
        values.append(cfg.settings["ibeta_value"])
    if not exprs:
        raise ValueError("give --value (CHSH) and/or --ibeta-value with --beta")
    report = bell_constrained_bound(
        np.asarray(exprs), np.asarray(values), cfg.mx, cfg.my,
        cfg.level, cfg.xstar, cfg.ystar, _solve_options(cfg),
    )
    _write(cfg.settings.get("out"), report_to_text(report))
    if report.status == "infeasible":
        sys.stderr.write("constraint values are infeasible at this level\n")
    return EXIT_OK if report.status == "optimal" else EXIT_SOLVER


def cmd_optimize(cfg: RunConfig) -> int:
    state = qstate.make_state(cfg.v, cfg.theta)
    try:
        res = seesaw.optimize(
            state, cfg.mx, cfg.my, cfg.level, cfg.xstar, cfg.ystar,
            cfg.epsilon, cfg.starts, cfg.seed, cfg.max_iterations,
            _solve_options(cfg),
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
    _write(cfg.settings.get("out"), "\n".join(lines) + "\n")
    trace_path = cfg.settings.get("trace")
    if trace_path:
        rows = ["start,iteration,g,hmin"]
        for s_idx, traj in enumerate(res.start_trajectories):
            for it, g in enumerate(traj):
                h = -math.log2(min(max(g, 0.25), 1.0))
                rows.append(f"{s_idx},{it},{_fmt(g)},{_fmt(h)}")
        _write(trace_path, "\n".join(rows) + "\n")
    return EXIT_OK if rep.status == "optimal" else EXIT_SOLVER


def _sweep_point(packed):
    idx, v, theta, cfg_settings = packed
    cfg = RunConfig(subcommand="sweep", settings=cfg_settings)
    state = qstate.make_state(v, theta)
    opts = _solve_options(cfg)
    chsh_meas = qstate.chsh_optimal_settings(theta)
    chsh = qstate.chsh_value(qstate.behavior(state, chsh_meas))
    row: dict[str, object] = {
        "v": v, "theta": theta, "mx": cfg.mx, "my": cfg.my, "level": cfg.level,
        "chsh": chsh,
    }
    try:
        res = seesaw.optimize(
            state, cfg.mx, cfg.my, cfg.level, cfg.xstar, cfg.ystar,
            cfg.epsilon, cfg.starts, cfg.seed + idx, cfg.max_iterations, opts,
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
        chsh_coefficients(cfg.mx, cfg.my), chsh, cfg.mx, cfg.my,
        cfg.level, cfg.xstar, cfg.ystar, opts,
    )
    row["hmin_chsh"] = rb.hmin if rb.status == "optimal" else math.nan
    return idx, row


_SWEEP_COLUMNS = (
    "v", "theta", "mx", "my", "level", "hmin", "chsh", "hmin_chsh",
    "starts", "converged", "status",
)


def cmd_sweep(cfg: RunConfig) -> int:
    vs = cfg.settings.get("v_grid") or (cfg.v,)
    thetas = cfg.settings.get("theta_grid") or (cfg.theta,)
    points = [(v, th) for th in thetas for v in vs]
    if not points:
        raise ValueError("empty grid")
    tasks = [
        (idx, v, th, cfg.settings) for idx, (v, th) in enumerate(points)
    ]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    lines = [",".join(_SWEEP_COLUMNS)]
    for _, row in results:
        cells = []
        for col in _SWEEP_COLUMNS:
            val = row[col]
            cells.append(_fmt(val) if isinstance(val, float) else str(val))
        lines.append(",".join(cells))
    _write(cfg.settings.get("out"), "\n".join(lines) + "\n")
    bad = [r for _, r in results if r["status"] not in ("optimal",)]
    return EXIT_SOLVER if bad else EXIT_OK


_GNUPLOT = """\
# plot companion for {csv}
set datafile separator ","
set key autotitle columnhead
set xlabel "{xlabel}"
set ylabel "hmin [bits]"
plot "{csv}" using {using} with linespoints
"""


def cmd_tomography(cfg: RunConfig) -> int:
    vs = cfg.settings.get("v_grid") or (cfg.v,)
    thetas = cfg.settings.get("theta_grid") or (cfg.theta,)
    points = [(v, th) for v in vs for th in thetas]
    if not points:
        raise ValueError("empty grid")
    opts = _solve_options(cfg)
    lines = ["v,theta,level,alpha,beta,hmin,status"]
    worst = "optimal"
    for v, th in points:
        state = qstate.make_state(v, th)
        alpha, beta, rep = seesaw.tomographic_optimize(
            state, cfg.grid_size, 1e-6, opts
        )
        if rep.status != "optimal":
            worst = rep.status
        lines.append(
            f"{_fmt(v)},{_fmt(th)},{rep.level},{_fmt(alpha)},{_fmt(beta)},"
            f"{_fmt(rep.hmin)},{rep.status}"
        )
    out = cfg.settings.get("out")
    _write(out, "\n".join(lines) + "\n")
    if out:
        _write(out + ".gp", _GNUPLOT.format(csv=out, xlabel="theta", using="2:6"))
    map_path = cfg.settings.get("angle_map")
    if map_path:
        state = qstate.make_state(cfg.v, cfg.theta)
        n = cfg.map_grid
        rows = ["alpha1,beta1,hmin"]
        for alpha in np.arange(n) * math.pi / n:
            for beta in np.arange(n) * math.pi / n:
                rep = tomographic_guessing(state, alpha, beta, opts)
                rows.append(f"{_fmt(alpha)},{_fmt(beta)},{_fmt(rep.hmin)}")
        _write(map_path, "\n".join(rows) + "\n")
        _write(
            map_path + ".gp",
            _GNUPLOT.format(csv=map_path, xlabel="alpha1", using="1:2:3"),
        )
    return EXIT_OK if worst == "optimal" else EXIT_SOLVER


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--level", type=int, choices=(1, 2, 3))
    common.add_argument("--v", type=float)
    common.add_argument("--theta", type=float)
    common.add_argument("--mx", type=int)
    common.add_argument("--my", type=int)
    common.add_argument("--xstar", type=int)
    common.add_argument("--ystar", type=int)
    common.add_argument("--epsilon", type=float)
    common.add_argument("--starts", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--max-iterations", dest="max_iterations", type=int)
    common.add_argument("--gap-tol", dest="gap_tol", type=float)
    common.add_argument("--feas-tol", dest="feas_tol", type=float)
    common.add_argument("--out", type=str)
    common.add_argument("--config", type=str)

    parser = argparse.ArgumentParser(
        prog="bellrand",
        description="Certified randomness bounds for two-qubit Bell experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("certify", parents=[common],
                       help="bound randomness from a behavior")
    p.add_argument("--behavior", type=str, help="behavior CSV path")
    p.add_argument("--alice", type=_parse_angles)
    p.add_argument("--bob", type=_parse_angles)

    p = sub.add_parser("bellbound", parents=[common],
                       help="bound randomness from Bell operator values")
    p.add_argument("--value", type=float, help="CHSH value")
    p.add_argument("--beta", type=float, help="marginal weight of the tilted operator")
    p.add_argument("--ibeta-value", dest="ibeta_value", type=float,
                   help="tilted-operator value")

    p = sub.add_parser("optimize", parents=[common],
                       help="see-saw search over measurement settings")
    p.add_argument("--trace", type=str, help="per-start trajectory CSV path")

    p = sub.add_parser("sweep", parents=[common],
                       help="optimized bounds over a (v, theta) grid")
    p.add_argument("--v-grid", dest="v_grid", type=_parse_grid)
    p.add_argument("--theta-grid", dest="theta_grid", type=_parse_grid)
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("tomography", parents=[common],
                       help="state-constrained bounds over a grid")
    p.add_argument("--v-grid", dest="v_grid", type=_parse_grid)
    p.add_argument("--theta-grid", dest="theta_grid", type=_parse_grid)
    p.add_argument("--grid-size", dest="grid_size", type=int)
    p.add_argument("--angle-map", dest="angle_map", type=str,
                   help="write an alpha/beta map CSV at the fixed (v, theta)")
    p.add_argument("--map-grid", dest="map_grid", type=int)
    return parser


_EXTRA_KEYS = {
    "certify": ("behavior", "alice", "bob", "out"),
    "bellbound": ("value", "beta", "ibeta_value", "out"),
    "optimize": ("trace", "out"),
    "sweep": ("v_grid", "theta_grid", "jobs", "out"),
    "tomography": ("v_grid", "theta_grid", "grid_size", "angle_map",
                   "map_grid", "out"),
}

# keys of other subcommands are ignored in a config file, others rejected
_KNOWN_KEYS = set(_DEFAULTS).union(*_EXTRA_KEYS.values())

_COMMANDS = {
    "certify": cmd_certify,
    "bellbound": cmd_bellbound,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "tomography": cmd_tomography,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    keys = tuple(_DEFAULTS) + _EXTRA_KEYS[args.subcommand]
    try:
        cfg = _merge(args, keys)
        return _COMMANDS[args.subcommand](cfg)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

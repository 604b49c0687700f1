#!/usr/bin/env python3
"""Regenerate the figure dataset CSVs under figures/.

Datasets:
  fig_randomness_vs_theta.csv   optimized hmin against theta for several
                                visibilities, two settings per side
  fig_randomness_vs_chsh.csv    the same optimized points against the CHSH
                                value of their behavior, plus a CHSH-only
                                baseline curve over the quantum range
  fig_bounds_comparison.csv     fixed-direction bounds at v = 0.99 (tilted
                                operator, CHSH, both stacked, full behavior)
                                next to the optimized bound
  fig_noise_threshold.csv       optimized hmin against visibility at
                                theta = pi/4; drops to zero below 1/sqrt(2)
  fig_settings_comparison.csv   (--full only) two against four settings per
                                side at the first relaxation level

Grids are coarse by default so a run finishes in minutes; --full refines
them. Exact interior values depend on relaxation level and see-saw budget,
so these files are meant for plotting and visual comparison, not asserts.
"""

import argparse
import math
import pathlib
import time

import numpy as np

from bellrand import guessprob, qstate, seesaw

OUTDIR = pathlib.Path(__file__).resolve().parent.parent / "figures"
TSIRELSON = 2.0 * math.sqrt(2.0)


def write_csv(path: pathlib.Path, header: str, rows):
    lines = [header]
    lines += [",".join(f"{x:.8g}" if isinstance(x, float) else str(x) for x in row)
              for row in rows]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def optimized_point(v, theta, level, n_starts, cap, mx=2, my=2):
    state = qstate.make_state(v, theta)
    res = seesaw.optimize(
        state, mx=mx, my=my, level=level, epsilon=1e-4,
        n_starts=n_starts, seed=0, max_iterations=cap,
    )
    chsh = (
        qstate.chsh_value(qstate.behavior(state, res.best_meas))
        if (mx, my) == (2, 2) else math.nan
    )
    return res.best_report.hmin, chsh, res.best_report.status


def emit_optimized_curves(args):
    v_list = (0.95, 0.99, 1.0)
    thetas = np.linspace(math.pi / 32, math.pi / 4, 15 if args.full else 8)
    theta_rows, chsh_rows = [], []
    for v in v_list:
        for theta in map(float, thetas):
            hmin, chsh, status = optimized_point(
                v, theta, args.level, args.starts, args.cap
            )
            theta_rows.append((v, theta, args.level, hmin, status))
            chsh_rows.append((v, theta, chsh, hmin, status))
    write_csv(
        OUTDIR / "fig_randomness_vs_theta.csv",
        "v,theta,level,hmin,status", theta_rows,
    )

    baseline = []
    for s in map(float, np.linspace(2.0 + 1e-6, TSIRELSON, 17)):
        rep = guessprob.bell_constrained_bound(
            guessprob.chsh_coefficients(), [s], 2, 2, level=args.level
        )
        baseline.append((0.0, 0.0, s, rep.hmin, f"chsh_only_{rep.status}"))
    write_csv(
        OUTDIR / "fig_randomness_vs_chsh.csv",
        "v,theta,chsh,hmin,status", chsh_rows + baseline,
    )


def emit_bounds_comparison(args):
    # the optimized line needs a generous start budget at small theta,
    # where most see-saw starts collapse to a zero-randomness optimum
    starts = max(args.starts, 8)
    rows = []
    for theta in map(float, np.linspace(math.pi / 16, math.pi / 4, 9)):
        state = qstate.make_state(0.99, theta)
        b = qstate.behavior(state, qstate.chsh_optimal_settings(theta))
        beta = qstate.beta_coefficient(theta)
        tilted_c = guessprob.ibeta_coefficients(beta)
        chsh_c = guessprob.chsh_coefficients()
        vals = (qstate.ibeta_value(b, beta), qstate.chsh_value(b))
        tilted = guessprob.bell_constrained_bound(
            tilted_c, [vals[0]], 2, 2, level=args.level
        )
        chsh = guessprob.bell_constrained_bound(
            chsh_c, [vals[1]], 2, 2, level=args.level
        )
        both = guessprob.bell_constrained_bound(
            [tilted_c, chsh_c], list(vals), 2, 2, level=args.level
        )
        full = guessprob.guessing_probability(b, level=args.level)
        optimized, _, _ = optimized_point(
            0.99, theta, args.level, starts, max(args.cap, 40)
        )
        rows.append((
            theta, tilted.hmin, chsh.hmin, both.hmin, full.hmin, optimized
        ))
    write_csv(
        OUTDIR / "fig_bounds_comparison.csv",
        "theta,hmin_tilted,hmin_chsh,hmin_both,hmin_full,hmin_optimized",
        rows,
    )


def emit_noise_curve(args):
    rows = []
    for v in map(float, np.linspace(0.65, 1.0, 15 if args.full else 8)):
        hmin, _, status = optimized_point(
            v, math.pi / 4, args.level, args.starts, args.cap
        )
        rows.append((v, args.level, hmin, status))
    write_csv(OUTDIR / "fig_noise_threshold.csv", "v,level,hmin,status", rows)


def emit_settings_comparison(args):
    # four settings per side is only tractable at the first level; compare
    # against two settings at the same level so the ordering is meaningful
    rows = []
    for theta in map(float, np.linspace(math.pi / 16, math.pi / 4, 5)):
        two, _, _ = optimized_point(0.99, theta, 1, 2, 15)
        four, _, _ = optimized_point(0.99, theta, 1, 2, 15, mx=4, my=4)
        rows.append((0.99, theta, two, four))
    write_csv(
        OUTDIR / "fig_settings_comparison.csv",
        "v,theta,hmin_2x2,hmin_4x4", rows,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--level", type=int, default=2, choices=(1, 2, 3))
    parser.add_argument("--starts", type=int, default=3)
    parser.add_argument("--cap", type=int, default=30,
                        help="see-saw outer iteration cap")
    parser.add_argument("--full", action="store_true",
                        help="finer grids plus the settings comparison")
    args = parser.parse_args()

    OUTDIR.mkdir(exist_ok=True)
    t0 = time.time()
    emit_optimized_curves(args)
    emit_bounds_comparison(args)
    emit_noise_curve(args)
    if args.full:
        emit_settings_comparison(args)
    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()

"""The tracked figure datasets under figures/.

Each ``figures/<subcommand>-<name>.cfg`` is a ``--config`` for that
subcommand, and its ``out`` and ``angle-map`` keys name the files it
writes. Every dataset is regenerated, at one OpenBLAS thread, from the
repository root by

    for cfg in figures/*.cfg; do n=$(basename "$cfg" .cfg); bellrand "${n%%-*}" --config "$cfg"; done

These tests read the tracked files and write only to a temporary directory.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellrand import cli

ROOT = Path(__file__).resolve().parents[1]
FIGURES = ROOT / "figures"
CONFIGS = sorted(FIGURES.glob("*.cfg"))
_, SUBPARSERS = cli._build_parser()


def subcommand(cfg):
    return cfg.stem.split("-", 1)[0]


def settings(cfg):
    """The options the subcommand runs with under this config alone."""
    parser, subparsers = cli._build_parser()
    cli._apply_config(str(cfg), subparsers, subcommand(cfg))
    return vars(parser.parse_args([subcommand(cfg)]))


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def outputs(cfg):
    """The tracked files the config writes."""
    s = settings(cfg)
    paths = [ROOT / s[key] for key in ("out", "angle_map") if s.get(key)]
    if subcommand(cfg) == "tomography":
        paths += [p.with_name(p.name + ".gp") for p in paths]
    return paths


def configs_of(sub):
    return [cfg for cfg in CONFIGS if subcommand(cfg) == sub]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.stem)
def test_config_reads_only_its_subcommands_keys(cfg):
    # --config ignores other subcommands' keys, so a misplaced key would
    # change nothing in silence
    assert subcommand(cfg) in SUBPARSERS
    declared = {a.dest for a in SUBPARSERS[subcommand(cfg)]._actions}
    keys = set(cli._read_config_file(cfg))
    assert keys <= declared - {"help", "config"}
    assert "out" in keys


def test_figures_holds_configs_and_their_outputs_only():
    expected = set(CONFIGS)
    for cfg in CONFIGS:
        expected.update(outputs(cfg))
    assert set(FIGURES.iterdir()) == expected


def sweep_rows():
    for cfg in configs_of("sweep"):
        for row in read_rows(ROOT / settings(cfg)["out"]):
            yield cfg.stem, row


def test_sweep_rows_without_chsh_violation_certify_nothing():
    # the chsh column is the state's maximal CHSH value (Horodecki). At
    # most 2, a local strategy reaches it, so the CHSH-only bound is G = 1;
    # and with two settings per side every behavior of the state then
    # meets every CHSH inequality, so it has a local model (Fine)
    checked = 0
    for name, row in sweep_rows():
        if float(row["chsh"]) <= 2.0:
            checked += 1
            assert float(row["hmin_chsh"]) <= 1e-6, (name, row)
            if row["mx"] == row["my"] == "2":
                assert float(row["hmin"]) <= 1e-6, (name, row)
    assert checked


def test_sweep_rows_stay_below_the_tomographic_rate():
    # the state, purified to Eve and measured at the see-saw's settings, is
    # one quantum realization of the behavior, so no device-independent
    # bound certifies more than the tomographic rate at the same (v, theta)
    (cfg,) = configs_of("tomography")
    tomography = [
        (float(row["v"]), float(row["theta"]), float(row["hmin"]))
        for row in read_rows(ROOT / settings(cfg)["out"])
    ]
    checked = 0
    for name, row in sweep_rows():
        v, theta = float(row["v"]), float(row["theta"])
        for tv, ttheta, hmin in tomography:
            if abs(tv - v) <= 1e-9 and abs(ttheta - theta) <= 1e-9:
                checked += 1
                assert float(row["hmin"]) <= hmin + 1e-6, (name, row)
    assert checked


def test_tomography_rate_is_not_monotonic_in_entanglement(checks):
    (cfg,) = configs_of("tomography")
    rows = read_rows(ROOT / settings(cfg)["out"])
    assert all(row["status"] == "optimal" for row in rows)
    curves = {}
    for row in rows:
        curves.setdefault(float(row["v"]), []).append(
            (float(row["theta"]), float(row["hmin"]))
        )
    for theta, hmin in curves[1.0]:
        assert abs(hmin - checks.pure_state_hmin(theta)) <= 1e-9
    for v, curve in curves.items():
        hmins = [h for _, h in sorted(curve)]
        # the dip: both the product state and the maximally entangled one
        # give more randomness than a partially entangled state
        assert min(hmins[1:-1]) <= min(hmins[0], hmins[-1]) - 0.05, v
    # rho_v' = (v'/v) rho_v + (1 - v'/v) I/4 for v' < v, and Eve guesses
    # the I/4 part perfectly, so hmin cannot rise as v falls
    visibilities = sorted(curves, reverse=True)
    for high, low in zip(visibilities, visibilities[1:]):
        for (t_high, h_high), (t_low, h_low) in zip(
            sorted(curves[high]), sorted(curves[low])
        ):
            assert t_high == t_low
            assert h_low <= h_high, (low, t_low)


def rerun(cfg, tmp_path, flags):
    """Run the config at one OpenBLAS thread with ``flags`` on top, from a
    directory where the config's own output paths do not exist."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "bellrand", subcommand(cfg), "--config", str(cfg),
         *flags],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    return run.returncode, run.stderr


def exact(x):
    # a flag value that parses back to the same float
    return repr(float(x))


def cut_down_sweep(cfg, tmp_path):
    # one point: the last with v < 1, since pure states are the boundary
    # solves whose last digits depend on the BLAS; a sweep point's see-saw
    # seed is the config's seed plus the point's index
    s = settings(cfg)
    points = [(v, th) for th in s["theta_grid"] for v in s["v_grid"]]
    idx = max(i for i, (v, _) in enumerate(points) if v < 1.0)
    v, theta = points[idx]
    out = tmp_path / "sweep.csv"
    flags = ["--v-grid", exact(v), "--theta-grid", exact(theta),
             "--seed", str(s["seed"] + idx), "--out", str(out)]
    return flags, [("v", "theta", out, ROOT / s["out"])]


def cut_down_tomography(cfg, tmp_path):
    # two visibilities, three angles and a coarser angle map, whose
    # points lie on the tracked map's grid
    s = settings(cfg)
    vs, thetas = s["v_grid"], s["theta_grid"]
    assert s["map_grid"] % 4 == 0
    out, amap = tmp_path / "tomo.csv", tmp_path / "map.csv"
    flags = [
        "--v-grid", ",".join(map(exact, (vs[0], vs[-1]))),
        "--theta-grid", ",".join(map(exact, (thetas[0], thetas[len(thetas) // 2],
                                             thetas[-1]))),
        "--map-grid", "4", "--out", str(out), "--angle-map", str(amap),
    ]
    return flags, [("v", "theta", out, ROOT / s["out"]),
                   ("alpha1", "beta1", amap, ROOT / s["angle_map"])]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.stem)
def test_cut_down_rerun_matches_tracked_rows(cfg, tmp_path):
    # status exactly and hmin to 1e-9; the optimal angles are not unique,
    # so another BLAS may report other ones
    cut_down = {"sweep": cut_down_sweep, "tomography": cut_down_tomography}
    flags, files = cut_down[subcommand(cfg)](cfg, tmp_path)
    code, err = rerun(cfg, tmp_path, flags)
    assert code == 0, err
    for k1, k2, got_path, tracked_path in files:
        tracked = {(r[k1], r[k2]): r for r in read_rows(tracked_path)}
        got = read_rows(got_path)
        assert got
        for row in got:
            want = tracked[row[k1], row[k2]]
            assert row.get("status") == want.get("status")
            assert math.isclose(float(row["hmin"]), float(want["hmin"]),
                                rel_tol=0.0, abs_tol=1e-9), row

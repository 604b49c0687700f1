import argparse
import math
from types import SimpleNamespace

import pytest

from bellrand import cli, guessprob, qstate
from bellrand.qstate import (
    MeasurementSet, behavior, behavior_to_csv, chsh_optimal_settings, make_state,
)


def interior_csv():
    b = behavior(make_state(0.9, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    return behavior_to_csv(b)


def parse_report(text):
    # key/value lines are space-separated; table rows carry no spaces
    fields = {}
    for line in text.strip().splitlines():
        if " " in line:
            key, val = line.split(" ", 1)
            fields[key] = val
    return fields


def test_certify_from_behavior_file(tmp_path):
    src = tmp_path / "behavior.csv"
    out = tmp_path / "report.txt"
    src.write_text(interior_csv())
    code = cli.main(
        ["certify", "--behavior", str(src), "--level", "1", "--out", str(out)]
    )
    assert code == 0
    fields = parse_report(out.read_text())
    assert fields["status"] == "optimal"
    assert fields["level"] == "1"
    assert 0.25 <= float(fields["G"]) <= 1.0


def test_certify_signalling_behavior_file(tmp_path):
    b = behavior(make_state(0.9, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    p = b.probs.copy()
    # p(+,+|1,1) up and p(+,-|1,1) down: Bob's marginal at x = 1 moves
    qstate.table(p, 2, 2)[1, 1, 0, 0] += 1e-3
    qstate.table(p, 2, 2)[1, 0, 0, 0] -= 1e-3
    src = tmp_path / "behavior.csv"
    out = tmp_path / "report.txt"
    src.write_text(behavior_to_csv(qstate.Behavior(2, 2, p)))
    code = cli.main(["certify", "--behavior", str(src), "--out", str(out)])
    assert code == 2
    assert parse_report(out.read_text())["status"] == "infeasible"


def test_certify_writes_stdout(capsys):
    code = cli.main(
        ["certify", "--v", "0.9", "--level", "1", "--alice", "0,1.5707963",
         "--bob", "0.78539816,-0.78539816"]
    )
    assert code == 0
    fields = parse_report(capsys.readouterr().out)
    assert fields["status"] == "optimal"


def test_certify_missing_row_names_component(tmp_path, capsys):
    lines = interior_csv().strip().splitlines()
    dropped = [ln for ln in lines if not ln.startswith("-1,1,2,2")]
    assert len(dropped) == len(lines) - 1
    src = tmp_path / "behavior.csv"
    src.write_text("\n".join(dropped) + "\n")
    code = cli.main(["certify", "--behavior", str(src), "--level", "1"])
    assert code == 1
    assert "(-1,1,2,2)" in capsys.readouterr().err


def test_certify_non_finite_entry_names_component(tmp_path, capsys):
    lines = interior_csv().strip().splitlines()
    lines = [
        "-1,1,2,1,nan" if ln.startswith("-1,1,2,1,") else ln for ln in lines
    ]
    src = tmp_path / "behavior.csv"
    src.write_text("\n".join(lines) + "\n")
    code = cli.main(["certify", "--behavior", str(src), "--level", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "behavior entry for (a,b,x,y)=(-1,1,2,1) is not finite" in err


@pytest.mark.parametrize("label", ["1.5", "inf"])
def test_certify_non_integral_label_is_input_error(tmp_path, capsys, label):
    lines = interior_csv().strip().splitlines()
    parts = lines[1].split(",")
    assert parts[2] == "1"
    parts[2] = label
    lines[1] = ",".join(parts)
    src = tmp_path / "behavior.csv"
    src.write_text("\n".join(lines) + "\n")
    code = cli.main(["certify", "--behavior", str(src), "--level", "1"])
    assert code == 1
    assert "bad behavior row" in capsys.readouterr().err


def test_certify_generation_outside_file_scenario(tmp_path, capsys):
    src = tmp_path / "behavior.csv"
    src.write_text(interior_csv())
    code = cli.main(
        ["certify", "--behavior", str(src), "--level", "1", "--ystar", "3"]
    )
    assert code == 1
    assert "generation" in capsys.readouterr().err


def test_certify_generation_checked_against_measured_settings(capsys):
    # three Alice settings make x* = 3 valid, whatever --mx says
    code = cli.main(
        ["certify", "--alice", "0,1,2", "--bob", "0,1", "--xstar", "3",
         "--level", "1", "--v", "0.95", "--theta", "0.4"]
    )
    assert code == 0
    assert parse_report(capsys.readouterr().out)["xstar"] == "3"
    # the default settings have two
    assert cli.main(["certify", "--xstar", "3", "--level", "1"]) == 1
    assert "generation" in capsys.readouterr().err


def test_certify_header_only_file(tmp_path, capsys):
    src = tmp_path / "behavior.csv"
    src.write_text("a,b,x,y,p\n")
    assert cli.main(["certify", "--behavior", str(src)]) == 1
    assert "behavior CSV has no rows" in capsys.readouterr().err


def test_certify_missing_file(tmp_path):
    code = cli.main(["certify", "--behavior", str(tmp_path / "nope.csv")])
    assert code == 1


def test_bellbound_tsirelson(tmp_path):
    out = tmp_path / "bound.txt"
    code = cli.main(
        ["bellbound", "--value", repr(2.0 * math.sqrt(2.0)), "--out", str(out)]
    )
    assert code == 0
    fields = parse_report(out.read_text())
    assert abs(float(fields["hmin"]) - 1.22845) <= 2e-3


def test_bellbound_infeasible_value(capsys):
    code = cli.main(["bellbound", "--value", "3.0"])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_bellbound_dependent_operators_infeasible(capsys):
    # --beta 0 makes the tilted operator equal CHSH, so the values conflict
    code = cli.main(
        ["bellbound", "--value", "2.5", "--beta", "0", "--ibeta-value", "2.6"]
    )
    assert code == 2
    assert "infeasible at this level" in capsys.readouterr().err


def test_bellbound_requires_an_operator(capsys):
    assert cli.main(["bellbound"]) == 1
    assert cli.main(["bellbound", "--ibeta-value", "2.6"]) == 1
    assert "--ibeta-value requires --beta" in capsys.readouterr().err
    # a weight without its value would be dropped in silence
    assert cli.main(["bellbound", "--value", "2.5", "--beta", "0.7"]) == 1
    assert "--beta requires --ibeta-value" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--value", "inf"], "values must be finite"),
    (["--value", "nan"], "values must be finite"),
    (["--value", "2.5", "--beta", "nan", "--ibeta-value", "2.6"],
     "coefficients must be finite"),
    (["--value", "2.5", "--beta", "inf", "--ibeta-value", "2.6"],
     "coefficients must be finite"),
    (["--beta", "0.5", "--ibeta-value", "inf"], "values must be finite"),
])
def test_bellbound_rejects_non_finite_input(flags, message, capsys):
    # an input error before any rank test or solve, with no numpy warning
    assert cli.main(["bellbound", *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: operator {message}\n"


def test_optimize_summary_and_trace(tmp_path):
    out = tmp_path / "summary.txt"
    trace = tmp_path / "trace.csv"
    code = cli.main(
        ["optimize", "--v", "0.9", "--level", "1", "--epsilon", "1e-3",
         "--starts", "2", "--seed", "3", "--max-iterations", "15",
         "--out", str(out), "--trace", str(trace)]
    )
    assert code == 0
    fields = parse_report(out.read_text())
    assert fields["status"] == "optimal"
    assert fields["converged"] == "True"
    assert len(fields["alice"].split(",")) == 2
    rows = trace.read_text().strip().splitlines()
    assert rows[0] == "start,iteration,g,hmin"
    starts_seen = {row.split(",")[0] for row in rows[1:]}
    assert starts_seen == {"0", "1"}
    assert len(rows) - 1 == int(fields["iterations"]) or len(rows) - 1 >= int(
        fields["iterations"]
    )


def test_optimize_rejects_bad_epsilon(capsys):
    assert cli.main(["optimize", "--epsilon", "0"]) == 1
    assert "epsilon" in capsys.readouterr().err
    # NaN passes an `epsilon <= 0` test and would never stop a start early
    assert cli.main(["optimize", "--level", "1", "--epsilon", "nan"]) == 1
    assert capsys.readouterr().err == "error: epsilon must be positive\n"


def test_sweep_deterministic_and_parallel(tmp_path):
    args = ["sweep", "--theta-grid", repr(math.pi / 4), "--v-grid", "0.5,0.9",
            "--level", "1", "--epsilon", "1e-3", "--starts", "2",
            "--max-iterations", "15"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    third = tmp_path / "c.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert cli.main(args + ["--jobs", "2", "--out", str(third)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == third.read_bytes()
    rows = first.read_text().strip().splitlines()
    assert rows[0] == "v,theta,mx,my,level,hmin,chsh,hmin_chsh,starts,converged,status"
    assert len(rows) == 3
    low, high = rows[1].split(","), rows[2].split(",")
    assert float(low[0]) == 0.5 and float(high[0]) == 0.9
    # local point certifies nothing, interior point certifies something
    assert float(low[5]) <= 1e-3
    assert float(high[5]) >= 0.01
    assert float(high[5]) >= float(high[7]) - 1e-6


def test_sweep_tsirelson_row_beats_chsh_bound(tmp_path):
    # at the pure maximally entangled state the optimized settings certify
    # at least what the CHSH value alone does, by a margin of a few 1e-4
    out = tmp_path / "tsirelson.csv"
    code = cli.main(
        ["sweep", "--v-grid", "1.0", "--theta-grid", repr(math.pi / 4),
         "--level", "2", "--starts", "2", "--epsilon", "1e-4", "--jobs", "1",
         "--out", str(out)]
    )
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["status"] == "optimal"
    assert float(fields["hmin"]) >= float(fields["hmin_chsh"]) - 1e-6


def test_sweep_row_survives_failed_gram_factor(failing_gram_factor, capsys):
    # numpy's LinAlgError is a ValueError, which main reports as an input
    # error (exit 1, no CSV); one raised by the solver's final projection
    # must instead end that solve numerical_failure and keep the row
    code = cli.main(["sweep", "--v-grid", "0.95", "--theta-grid", "0.4",
                     "--level", "2", "--starts", "1", "--epsilon", "1e-4",
                     "--jobs", "1"])
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header == ",".join(cli._SWEEP_COLUMNS)
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["v"], fields["theta"]) == ("0.95", "0.4")
    assert code == (0 if fields["status"] == "optimal" else 2)


def test_optimize_without_a_certified_start_exits_2(failing_seesaw_bound, capsys):
    # the report of the first start's failed solve, at its initial settings
    assert cli.main(["optimize", "--level", "1", "--starts", "2"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines() == [
        "hmin nan", "G nan", "level 0", "status numerical_failure",
        "starts_used 0", "converged False", "iterations 0",
        "alice 0,1.57079632679", "bob 0.785398163397,2.35619449019",
    ]


def test_sweep_row_without_a_certified_start_fails(failing_seesaw_bound, capsys):
    code = cli.main(["sweep", "--v-grid", "0.9", "--theta-grid", "0.4",
                     "--level", "1", "--starts", "2", "--jobs", "1"])
    assert code == 2
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["v"], fields["theta"]) == ("0.9", "0.4")
    failed = {
        "hmin": "nan", "starts": "0", "converged": "False",
        "status": "numerical_failure",
    }
    assert {key: fields[key] for key in failed} == failed


def test_sweep_rejects_empty_grid(capsys):
    assert cli.main(["sweep", "--v-grid", ""]) == 1
    assert "v-grid is empty" in capsys.readouterr().err


def failing_solve(*args, **kwargs):
    raise AssertionError("solver called before the inputs were checked")


@pytest.fixture
def solves_fail(monkeypatch):
    """Make every solve a command can reach fail the test: the see-saw's
    bounds, the CHSH-only bound of a sweep row and the tomographic batches."""
    monkeypatch.setattr(cli.seesaw, "guessing_probability", failing_solve)
    monkeypatch.setattr(cli, "bell_constrained_bound", failing_solve)
    monkeypatch.setattr(guessprob.TomographicProgram, "batch", failing_solve)


def test_grids_validated_before_any_solve(solves_fail, capsys):
    assert cli.main(["sweep", "--v-grid", "0.9,1.5", "--theta-grid", "0.5",
                     "--level", "2", "--starts", "2"]) == 1
    assert "visibility v=1.5 outside [0, 1]" in capsys.readouterr().err
    assert cli.main(["tomography", "--v-grid", "0.9", "--theta-grid", "0.3,0.9",
                     "--grid-size", "8"]) == 1
    assert "theta=0.9 outside [0, pi/4]" in capsys.readouterr().err
    assert cli.main(["sweep", "--v-grid", "0.9", "--theta-grid", "nan"]) == 1
    assert "theta=nan outside [0, pi/4]" in capsys.readouterr().err


def test_iteration_and_map_counts_validated_before_any_solve(
    solves_fail, capsys, tmp_path
):
    amap = str(tmp_path / "map.csv")
    for grid in ("0", "-3"):
        assert cli.main(["tomography", "--v", "0.9", "--grid-size", "8",
                         "--map-grid", grid, "--angle-map", amap]) == 1
        assert "map-grid must be >= 1" in capsys.readouterr().err
    for sub in (["optimize"], ["sweep", "--v-grid", "0.9"]):
        assert cli.main(sub + ["--level", "1", "--max-iterations", "0"]) == 1
        assert "max_iterations must be at least 1" in capsys.readouterr().err


def test_sweep_with_an_invalid_last_point_solves_nothing(solves_fail, capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--v-grid", "0.8,0.9,1.2", "--theta-grid", "0.5",
                     "--level", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: visibility v=1.2 outside [0, 1]\n"
    assert not out.exists()


def test_sweep_workers_check_the_search_settings(capsys, tmp_path):
    # each worker's optimize checks epsilon at its entry, before any solve
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", "--v-grid", "0.9", "--theta-grid", "0.5",
                     "--level", "1", "--epsilon", "0", "--jobs", "2",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: epsilon must be positive\n"
    assert not out.exists()


@pytest.mark.parametrize("sub,flag", [
    (["optimize", "--v", "0.95", "--theta", "0.4", "--starts", "1"], "--trace"),
    (["optimize", "--v", "0.95", "--theta", "0.4", "--starts", "1"], "--out"),
    (["sweep", "--v-grid", "0.95", "--theta-grid", "0.4"], "--out"),
    (["tomography", "--v", "0.95", "--grid-size", "8"], "--angle-map"),
])
def test_output_paths_checked_before_any_solve(
    monkeypatch, capsys, tmp_path, sub, flag
):
    # outputs are written after the work, which a path in a missing
    # directory, or naming a directory, would lose
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called before the output path was validated")

    monkeypatch.setattr(cli.seesaw, "optimize", no_solve)
    monkeypatch.setattr(cli.seesaw, "tomographic_optimize", no_solve)
    path = tmp_path / "missing" / "x.csv"
    assert cli.main(sub + [flag, str(path)]) == 1
    assert "does not exist" in capsys.readouterr().err
    assert not path.parent.exists()
    assert cli.main(sub + [flag, str(tmp_path)]) == 1
    assert "is a directory" in capsys.readouterr().err


def test_tomography_outputs_with_plot_companion(tmp_path):
    out = tmp_path / "tomo.csv"
    amap = tmp_path / "map.csv"
    code = cli.main(
        ["tomography", "--v", "1.0", "--theta", "0", "--grid-size", "8",
         "--map-grid", "8", "--angle-map", str(amap), "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "v,theta,level,alpha,beta,hmin,status"
    assert len(rows) == 2
    assert rows[1].endswith("optimal")
    assert abs(float(rows[1].split(",")[5]) - 2.0) <= 1e-3
    # the companions name their CSV by basename, so gnuplot finds it when
    # started in the directory that holds both
    gp = (tmp_path / "tomo.csv.gp").read_text()
    assert 'plot "tomo.csv" using 2:6' in gp
    map_rows = amap.read_text().strip().splitlines()
    assert map_rows[0] == "alpha1,beta1,hmin"
    assert len(map_rows) == 1 + 64
    assert 'plot "map.csv" using 1:2:3' in (tmp_path / "map.csv.gp").read_text()


def test_tomography_capped_map_point_exits_solver(monkeypatch, tmp_path):
    # the rows are pure states, solved in closed form and optimal; the map
    # at v = 0.95 runs the ascent, which a zero step cap stops at once
    monkeypatch.setattr(guessprob, "_ASCENT_MAX_STEPS", 0)
    amap = tmp_path / "map.csv"
    code = cli.main(
        ["tomography", "--v-grid", "1.0", "--theta-grid", "0.3", "--grid-size", "8",
         "--v", "0.95", "--theta", "0.3", "--map-grid", "3", "--angle-map", str(amap)]
    )
    assert code == 2
    map_rows = amap.read_text().strip().splitlines()
    assert map_rows[0] == "alpha1,beta1,hmin"
    assert len(map_rows) == 1 + 9


# a small see-saw, so that a rule not checked at the first bound shows up
# as the failing solve of a later one, not as a long run
BOUNDS = [
    ["certify"],
    ["bellbound", "--value", "2.6"],
    ["optimize", "--starts", "1"],
    ["sweep", "--v-grid", "0.9", "--starts", "1"],
]


@pytest.mark.parametrize("sub", BOUNDS, ids=lambda sub: sub[0])
def test_config_level_checked_by_the_library(monkeypatch, capsys, tmp_path, sub):
    # argparse checks --level's choices on the command line only; a config
    # value reaches the first bound, which rejects it before any solve
    monkeypatch.setattr(guessprob, "solve", failing_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 4\n")
    assert cli.main(sub + ["--config", str(cfg)]) == 1
    assert "level must be 1, 2 or 3, got 4" in capsys.readouterr().err


@pytest.mark.parametrize("sub", BOUNDS, ids=lambda sub: sub[0])
def test_generation_pair_checked_by_the_library(monkeypatch, capsys, sub):
    # certify's default settings have two inputs per side, as --mx/--my do
    monkeypatch.setattr(guessprob, "solve", failing_solve)
    assert cli.main(sub + ["--xstar", "3"]) == 1
    assert "generation setting (3,1) outside scenario (2,2)" in capsys.readouterr().err


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# solver settings\nlevel = 1\nv = 0.9\n")
    out = tmp_path / "r1.txt"
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    assert parse_report(out.read_text())["level"] == "1"
    out2 = tmp_path / "r2.txt"
    assert cli.main(
        ["certify", "--config", str(cfg), "--level", "2", "--out", str(out2)]
    ) == 0
    assert parse_report(out2.read_text())["level"] == "2"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levle = 1\nv = 0.9\n")
    assert cli.main(["certify", "--config", str(cfg)]) == 1
    assert "unknown config key 'levle'" in capsys.readouterr().err
    cfg.write_text("gap-tol = 1e-6\n")
    assert cli.main(["certify", "--config", str(cfg)]) == 1
    assert "unknown config key 'gap_tol'" in capsys.readouterr().err
    # a key another subcommand knows is ignored, as before, and so is the
    # range check of its value
    cfg.write_text("level = 1\nv = 0.9\ngrid-size = 8\nmap-grid = 0\n")
    out = tmp_path / "r.txt"
    assert cli.main(["certify", "--config", str(cfg), "--out", str(out)]) == 0
    assert parse_report(out.read_text())["level"] == "1"


def test_config_grids_match_flags(tmp_path):
    # grids given in a config file go through the flags' own parsers
    common = ["--level", "1", "--epsilon", "1e-3", "--starts", "2",
              "--max-iterations", "15"]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("v-grid = 0.9,1.0\ntheta-grid = 0.3:0.785398:2\n")
    from_file = tmp_path / "file.csv"
    from_flags = tmp_path / "flags.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(from_file)]
                    + common) == 0
    assert cli.main(["sweep", "--v-grid", "0.9,1.0", "--theta-grid",
                     "0.3:0.785398:2", "--out", str(from_flags)] + common) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    assert len(from_file.read_text().strip().splitlines()) == 1 + 4


def test_config_angles_match_flags(tmp_path):
    cfg = tmp_path / "certify.cfg"
    cfg.write_text("alice = 0,1.5707963\nbob = 0.78539816,-0.78539816\n"
                   "v = 0.9\nlevel = 1\n")
    from_file = tmp_path / "file.txt"
    from_flags = tmp_path / "flags.txt"
    assert cli.main(["certify", "--config", str(cfg),
                     "--out", str(from_file)]) == 0
    assert cli.main(["certify", "--alice", "0,1.5707963",
                     "--bob", "0.78539816,-0.78539816", "--v", "0.9",
                     "--level", "1", "--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_config_malformed_value_is_input_error(tmp_path, capsys):
    # an input error (exit 1), not argparse's usage error (exit 2), also
    # for a key the subcommand ignores
    cfg = tmp_path / "run.cfg"
    for line in ("level = abc", "grid-size = abc"):
        cfg.write_text(line + "\n")
        assert cli.main(["certify", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


def test_rejected_flags_exit_via_argparse():
    with pytest.raises(SystemExit) as info:
        cli.main(["unknown-subcommand"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["certify", "--level", "5"])
    assert info.value.code == 2
    # solver tolerances are fixed, not flags; a subcommand declares only the
    # options it reads, and a prefix does not pass for another flag
    for argv in (
        ["certify", "--gap-tol", "1e-6"],
        ["tomography", "--level", "2"],
        ["tomography", "--starts", "3"],
        ["bellbound", "--v", "0.9", "--value", "2.6"],
        ["certify", "--epsilon", "1e-4"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv


_STUB_REPORT = guessprob.GuessReport(
    guessing_probability=0.5, hmin=1.0, level=1, xstar=1, ystar=1,
    status="optimal",
    attack_weights={key: 0.25 for key in ((1, 1), (1, -1), (-1, 1), (-1, -1))},
    bell_expression=None, iterations=0, gap=0.0, primal_residual=0.0,
    dual_residual=0.0, certificate_defect=0.0,
)


def test_every_listed_option_is_read(monkeypatch, tmp_path):
    # each subcommand's options, read through an args object that records
    # attribute reads, with every solve replaced by a cheap stub; a read by
    # validate alone does not count, since checking a value is not using it
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    def validate_unrecorded(args):
        seen = set(reads)
        validate(args)
        reads.intersection_update(seen)

    parse, validate = argparse.ArgumentParser.parse_args, cli.validate
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, argv: Recording(**vars(parse(self, argv))))
    monkeypatch.setattr(cli, "validate", validate_unrecorded)
    meas = MeasurementSet((0.0, 1.0), (0.5, -0.5))
    monkeypatch.setattr(cli.seesaw, "optimize", lambda *a: SimpleNamespace(
        best_report=_STUB_REPORT, best_meas=meas, starts_used=1,
        converged=True, trajectory=[0.5], start_trajectories=[[0.5]],
    ))
    monkeypatch.setattr(cli.seesaw, "tomographic_optimize",
                        lambda *a: (0.0, 0.5, _STUB_REPORT))
    monkeypatch.setattr(cli, "guessing_probability", lambda *a: _STUB_REPORT)
    monkeypatch.setattr(cli, "bell_constrained_bound", lambda *a: _STUB_REPORT)
    monkeypatch.setattr(cli, "TomographicProgram", lambda state: SimpleNamespace(
        batch=lambda pairs: [_STUB_REPORT] * len(pairs)
    ))
    src = tmp_path / "behavior.csv"
    src.write_text(interior_csv())
    out = ["--out", str(tmp_path / "out")]
    runs = {
        "certify": [["--behavior", str(src)], []],
        "bellbound": [["--value", "2.5", "--beta", "0.5", "--ibeta-value", "2.6"]],
        "optimize": [["--trace", str(tmp_path / "trace.csv")]],
        "sweep": [[]],
        "tomography": [["--angle-map", str(tmp_path / "map.csv")]],
    }
    _, subparsers = cli._build_parser()
    assert set(runs) == set(subparsers)
    for name, variants in runs.items():
        reads.clear()
        for flags in variants:
            assert cli.main([name, *flags, *out]) == 0
        listed = {a.dest for a in subparsers[name]._actions} - {"help"}
        assert listed - reads == set(), name


def test_v_out_of_range(capsys):
    assert cli.main(["certify", "--v", "1.5", "--level", "1"]) == 1
    assert "visibility v=1.5 outside [0, 1]" in capsys.readouterr().err


def test_tomography_theta_out_of_range_before_any_work(solves_fail, capsys, tmp_path):
    # --theta only places the angle map, written after the rows
    out, amap = tmp_path / "o.csv", tmp_path / "m.csv"
    assert cli.main(["tomography", "--v-grid", "0.9", "--theta-grid", "0.3",
                     "--grid-size", "8", "--theta", "2", "--angle-map", str(amap),
                     "--out", str(out)]) == 1
    assert "theta=2.0 outside [0, pi/4]" in capsys.readouterr().err
    assert not out.exists() and not amap.exists()


def test_a_value_that_is_not_read_is_not_checked(capsys, tmp_path):
    # a --behavior file fixes the state, and without --angle-map, --theta
    # places nothing when --theta-grid is given
    src = tmp_path / "behavior.csv"
    src.write_text(interior_csv())
    assert cli.main(["certify", "--behavior", str(src), "--v", "5", "--level", "1"]) == 0
    assert cli.main(["tomography", "--v-grid", "0.9", "--theta-grid", "0.3",
                     "--grid-size", "8", "--theta", "2"]) == 0
    assert capsys.readouterr().err == ""

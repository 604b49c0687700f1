import math

import pytest

from bellrand import cli, qstate
from bellrand.qstate import behavior, behavior_to_csv, chsh_optimal_settings, make_state


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
    p[qstate.component_index(1, 1, 1, 1, 2, 2)] += 1e-3
    p[qstate.component_index(1, -1, 1, 1, 2, 2)] -= 1e-3
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
    assert capsys.readouterr().err == "error: epsilon must be > 0\n"


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


def test_sweep_rejects_empty_grid(capsys):
    assert cli.main(["sweep", "--v-grid", ""]) == 1
    assert "v-grid is empty" in capsys.readouterr().err


def test_grids_validated_before_any_solve(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called before the grid was validated")

    monkeypatch.setattr(cli.seesaw, "optimize", no_solve)
    monkeypatch.setattr(cli.seesaw, "tomographic_optimize", no_solve)
    assert cli.main(["sweep", "--v-grid", "0.9,1.5", "--theta-grid", "0.5",
                     "--level", "2", "--starts", "2"]) == 1
    assert "v-grid value 1.5" in capsys.readouterr().err
    assert cli.main(["tomography", "--v-grid", "0.9", "--theta-grid", "0.3,0.9",
                     "--grid-size", "8"]) == 1
    assert "theta-grid value 0.9" in capsys.readouterr().err
    assert cli.main(["sweep", "--v-grid", "0.9", "--theta-grid", "nan"]) == 1
    assert "theta-grid value nan" in capsys.readouterr().err


def test_iteration_and_map_counts_validated_before_any_solve(
    monkeypatch, capsys, tmp_path
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver called before the settings were validated")

    monkeypatch.setattr(cli.seesaw, "optimize", no_solve)
    monkeypatch.setattr(cli.seesaw, "tomographic_optimize", no_solve)
    monkeypatch.setattr(cli, "tomographic_program", no_solve)
    amap = str(tmp_path / "map.csv")
    for grid in ("0", "-3"):
        assert cli.main(["tomography", "--v", "0.9", "--grid-size", "8",
                         "--map-grid", grid, "--angle-map", amap]) == 1
        assert "map-grid must be >= 1" in capsys.readouterr().err
    for sub in (["optimize"], ["sweep", "--v-grid", "0.9"]):
        assert cli.main(sub + ["--level", "1", "--max-iterations", "0"]) == 1
        assert "max-iterations must be >= 1" in capsys.readouterr().err


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
    gp = (tmp_path / "tomo.csv.gp").read_text()
    assert "plot" in gp and "tomo.csv" in gp
    map_rows = amap.read_text().strip().splitlines()
    assert map_rows[0] == "alpha1,beta1,hmin"
    assert len(map_rows) == 1 + 64
    assert (tmp_path / "map.csv.gp").exists()


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
    # solver tolerances are fixed, not flags
    with pytest.raises(SystemExit) as info:
        cli.main(["certify", "--gap-tol", "1e-6"])
    assert info.value.code == 2


def test_v_out_of_range(capsys):
    assert cli.main(["certify", "--v", "1.5", "--level", "1"]) == 1
    assert "v must lie" in capsys.readouterr().err

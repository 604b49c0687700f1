import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import bellrand
import bellrand.cli
from bellrand import guessprob, qstate, seesaw
from bellrand.guessprob import BellExpression
from bellrand.qstate import MeasurementSet, behavior, chsh_value, make_state

TSIRELSON = 2.0 * math.sqrt(2.0)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def minus_chsh():
    return BellExpression(2, 2, -guessprob.chsh_coefficients())


def random_instance(seed, coeff_scale=1.0):
    rng = np.random.default_rng(seed)
    f = BellExpression(2, 2, rng.uniform(-coeff_scale, coeff_scale, 16))
    state = make_state(rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi / 4))
    meas = MeasurementSet(
        tuple(rng.uniform(0.0, 2.0 * math.pi, 2)),
        tuple(rng.uniform(0.0, 2.0 * math.pi, 2)),
    )
    return f, state, meas


def test_update_recovers_tsirelson_angles():
    # with Bob on the CHSH-optimal pair the eigen update lands Alice on
    # (0, pi/2) and the settings reach the Tsirelson boundary
    state = make_state(1.0, math.pi / 4)
    start = MeasurementSet((0.3, 2.0), (math.pi / 4, -math.pi / 4))
    out = seesaw.update_measurements(minus_chsh(), state, start)
    assert abs(chsh_value(behavior(state, out)) - TSIRELSON) <= 1e-9
    for angle, target in zip(out.alice_angles, (0.0, math.pi / 2)):
        assert np.allclose(
            qstate.projector(angle, 1), qstate.projector(target, 1), atol=1e-9
        )


def test_update_zero_expression_keeps_angles():
    f = BellExpression(2, 2, np.zeros(16))
    meas = MeasurementSet((0.3, 1.1), (0.7, 2.9))
    out = seesaw.update_measurements(f, make_state(0.8, 0.5), meas)
    assert out.alice_angles == meas.alice_angles
    assert out.bob_angles == meas.bob_angles


def test_update_dimension_mismatch():
    meas = MeasurementSet((0.0, 1.0), (0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="measurement count"):
        seesaw.update_measurements(minus_chsh(), make_state(1.0, 0.5), meas)


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_update_never_increases_objective(seed):
    f, state, meas = random_instance(seed)
    before = f.value(behavior(state, meas))
    out = seesaw.update_measurements(f, state, meas)
    assert f.value(behavior(state, out)) <= before + 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_update_constant_on_white_noise(seed):
    # at v=0 every behavior component is 1/4 whatever the angles
    f, _, meas = random_instance(seed)
    state = make_state(0.0, 0.4)
    before = f.value(behavior(state, meas))
    out = seesaw.update_measurements(f, state, meas)
    assert abs(f.value(behavior(state, out)) - before) <= 1e-12


@pytest.mark.parametrize("rank", (4, 1))
@pytest.mark.parametrize("mx,my", [(mx, my) for mx in (1, 2, 3) for my in (1, 2, 3)])
def test_update_exact_on_general_real_states(mx, my, rank):
    # random real states of full rank or rank one, random f; the update
    # must not raise f.p, and Bob's pass, which runs last, must leave each
    # Bob angle optimal given the returned Alice angles
    rng = np.random.default_rng([mx, my, rank])
    a = rng.normal(size=(4, rank))
    state = qstate.DensityMatrix(a @ a.T / np.sum(a * a))
    f = BellExpression(mx, my, rng.uniform(-1.0, 1.0, 4 * mx * my))
    meas = MeasurementSet(
        tuple(rng.uniform(0.0, 2.0 * math.pi, mx)),
        tuple(rng.uniform(0.0, 2.0 * math.pi, my)),
    )
    out = seesaw.update_measurements(f, state, meas)
    reached = behavior(state, out)
    value = f.value(reached)
    assert value <= f.value(behavior(state, meas)) + 1e-12
    # one behavior with Bob measuring every grid angle gives f.p with Bob's
    # input y moved to each of them: swap input y's terms for the grid's
    grid = tuple(np.arange(720) * (2.0 * math.pi / 720))
    swept = behavior(state, MeasurementSet(out.alice_angles, grid)).table
    coeffs, at = f.table, reached.table
    for y in range(my):
        own = np.sum(coeffs[..., y] * at[..., y])
        moved = value - own + np.einsum("abx,abxg->g", coeffs[..., y], swept)
        assert moved.min() >= value - 1e-12


def test_optimize_parameter_validation():
    state = make_state(0.9, math.pi / 4)
    for epsilon in (0.0, math.nan):  # NaN fails every comparison
        with pytest.raises(ValueError, match="epsilon must be positive"):
            seesaw.optimize(state, epsilon=epsilon)
    with pytest.raises(ValueError, match="n_starts"):
        seesaw.optimize(state, n_starts=0)
    with pytest.raises(ValueError, match="max_iterations must be at least 1"):
        seesaw.optimize(state, max_iterations=0)
    with pytest.raises(ValueError, match="grid_size"):
        seesaw.tomographic_optimize(state, grid_size=4)


def test_optimize_without_a_certified_start_raises(failing_seesaw_bound):
    with pytest.raises(RuntimeError, match="every start failed to certify a bound"):
        seesaw.optimize(make_state(0.9, math.pi / 4), level=1, n_starts=2)


def test_optimize_local_state_stops_immediately():
    result = seesaw.optimize(
        make_state(0.5, math.pi / 4), level=1, n_starts=1, seed=0
    )
    assert result.converged
    assert len(result.trajectory) == 1
    assert result.best_report.guessing_probability == 1.0
    assert result.best_report.iterations == 0
    assert result.best_report.hmin == 0.0


def test_iteration_cap_reports_certified_settings():
    # the cap ends the start after one more settings update; best_meas must
    # be the settings at which best_report was certified
    state = make_state(0.9, math.pi / 4)
    result = seesaw.optimize(
        state, level=2, epsilon=1e-4, n_starts=1, seed=3, max_iterations=2
    )
    again = guessprob.guessing_probability(behavior(state, result.best_meas), level=2)
    assert (
        abs(again.guessing_probability - result.best_report.guessing_probability)
        <= 1e-6
    )


def test_failed_solve_keeps_certified_values(monkeypatch):
    # the third solve fails: the start stops there but keeps its second
    # certified report and the settings it was made at
    state = make_state(0.9, math.pi / 4)
    seen = []

    def third_fails(b, *args):
        if len(seen) == 2:
            rep = dataclasses.replace(seen[-1][1], status="numerical_failure")
        else:
            rep = guessprob.guessing_probability(b, *args)
        seen.append((b, rep))
        return rep

    monkeypatch.setattr(seesaw, "guessing_probability", third_fails)
    result = seesaw.optimize(state, level=1, n_starts=1)
    assert len(seen) == 3
    assert result.starts_used == 1
    assert not result.converged
    assert result.best_report is seen[1][1]
    assert np.array_equal(behavior(state, result.best_meas).probs, seen[1][0].probs)


@pytest.fixture(scope="module")
def interior_result():
    return seesaw.optimize(
        make_state(0.9, math.pi / 4),
        level=2,
        epsilon=1e-4,
        n_starts=3,
        seed=3,
        max_iterations=40,
    )


def test_optimize_descent_and_convergence(interior_result):
    result = interior_result
    assert result.converged
    assert result.starts_used == 3
    for traj in result.start_trajectories:
        drops = np.diff(np.asarray(traj))
        assert np.all(drops <= 1e-9)
    finals = [traj[-1] for traj in result.start_trajectories]
    assert abs(result.best_report.guessing_probability - min(finals)) <= 1e-12
    assert result.trajectory[-1] == min(finals)


def test_optimize_beats_first_start(interior_result):
    # the best certified g never exceeds the very first certified value
    first = interior_result.start_trajectories[0][0]
    assert interior_result.best_report.guessing_probability <= first + 1e-9


def test_optimize_report_matches_recompute(interior_result):
    b = behavior(make_state(0.9, math.pi / 4), interior_result.best_meas)
    again = guessprob.guessing_probability(b, level=2)
    assert (
        abs(
            again.guessing_probability
            - interior_result.best_report.guessing_probability
        )
        <= 1e-6
    )


def test_optimize_deterministic(interior_result):
    again = seesaw.optimize(
        make_state(0.9, math.pi / 4),
        level=2,
        epsilon=1e-4,
        n_starts=3,
        seed=3,
        max_iterations=40,
    )
    assert again.start_trajectories == interior_result.start_trajectories
    assert again.best_meas.alice_angles == interior_result.best_meas.alice_angles
    assert again.best_meas.bob_angles == interior_result.best_meas.bob_angles


def test_optimize_approaches_two_bits_noiseless():
    result = seesaw.optimize(
        make_state(1.0, math.pi / 4),
        level=2,
        epsilon=1e-4,
        n_starts=4,
        seed=0,
        max_iterations=50,
    )
    assert result.best_report.hmin >= 1.85


def test_more_settings_not_worse():
    state = make_state(0.99, math.pi / 4)
    small = seesaw.optimize(
        state, mx=2, my=2, level=1, epsilon=1e-3, n_starts=2, seed=1,
        max_iterations=15,
    )
    large = seesaw.optimize(
        state, mx=4, my=4, level=1, epsilon=1e-3, n_starts=2, seed=1,
        max_iterations=15,
    )
    assert large.best_report.hmin >= small.best_report.hmin - 1e-6


def test_initial_settings_padding():
    base = qstate.canonical_settings()
    two_three = seesaw.initial_settings(2, 3)
    assert two_three.alice_angles == base.alice_angles
    assert two_three.bob_angles == base.bob_angles
    wide = seesaw.initial_settings(3, 4)
    assert wide.alice_angles[:2] == base.alice_angles
    assert wide.bob_angles[:3] == base.bob_angles
    assert len(wide.alice_angles) == 3
    assert len(wide.bob_angles) == 4
    narrow = seesaw.initial_settings(1, 1)
    assert narrow.alice_angles == (0.0,)
    assert narrow.bob_angles == (math.pi / 4,)


def test_tomographic_optimize_separable_pure():
    # |00> still certifies two bits tomographically, measured off-axis
    alice, bob, report = seesaw.tomographic_optimize(
        make_state(1.0, 0.0), grid_size=8
    )
    assert report.status == "optimal"
    assert abs(report.guessing_probability - 0.25) <= 1e-4


def test_tomographic_optimize_reports_its_endpoint():
    # the report kept from the search is the one a fresh solve gives there
    state = make_state(0.95, 0.3)
    alice, bob, report = seesaw.tomographic_optimize(state, grid_size=8)
    assert report == guessprob.tomographic_guessing(state, alice, bob)


@pytest.mark.parametrize("v", [1.0, 0.95])
def test_tomographic_optimize_decomposes_the_state_once(monkeypatch, v):
    # the ascent's Newton steps take eigh of 6x6 Hessians; only the
    # state's decomposition is 4x4
    decompositions = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        if np.shape(a) == (4, 4):
            decompositions.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    seesaw.tomographic_optimize(make_state(v, 0.3), grid_size=8)
    assert len(decompositions) == 1


@pytest.mark.parametrize("grid_size,theta", [
    (8, 23 * math.pi / 128), (12, 13 * math.pi / 64),
])
def test_tomographic_optimize_finds_pure_state_optimum(checks, grid_size, theta):
    # the theta on each grid whose best grid point alone led the simplex
    # search to a local optimum, 4.4e-2 (grid 8) and 2.7e-2 (grid 12) high
    _, _, report = seesaw.tomographic_optimize(make_state(1.0, theta), grid_size)
    target = checks.pure_state_g(theta)
    assert abs(report.guessing_probability - target) <= 1e-6


def _nelder_mead(f, x0):
    """Run seesaw._simplex_search from x0 with f evaluated at each point it
    asks for; return its best vertex and lowest value."""
    search = seesaw._simplex_search(x0)
    try:
        x = next(search)
        while True:
            x = search.send(f(x))
    except StopIteration as done:
        return done.value


def _refine_one_at_a_time(state, grid_size):
    """tomographic_optimize's search with one-pair evaluations and the
    refines run one after another; returns its result and the number of
    distinct pairs evaluated."""
    reports = {}

    def g(x):
        if x not in reports:
            reports[x] = guessprob.tomographic_guessing(state, *x)
        return reports[x].guessing_probability

    angles = np.arange(grid_size) * math.pi / grid_size
    grid = [(float(a), float(b)) for a in angles for b in angles]
    values = [g(pair) for pair in grid]
    best_g, best = math.inf, None
    for k in sorted(range(len(grid)), key=values.__getitem__)[:3]:
        (alpha, beta), value = _nelder_mead(g, grid[k])
        if value < best_g:
            best_g, best = value, (alpha, beta, reports[alpha, beta])
    return best, len(reports)


@pytest.mark.parametrize("grid_size", [8, 12])
@pytest.mark.parametrize("v", [1.0, 0.999, 0.95])
def test_tomographic_lockstep_matches_one_refine_at_a_time(monkeypatch, v, grid_size):
    state = make_state(v, math.pi / 8)
    expected, distinct = _refine_one_at_a_time(state, grid_size)
    program = guessprob.TomographicProgram(state)
    evaluate = program.batch
    evaluated = []

    def batch(pairs):
        evaluated.extend(pairs)
        return evaluate(pairs)

    monkeypatch.setattr(program, "batch", batch)
    monkeypatch.setattr(seesaw, "TomographicProgram", lambda _: program)
    assert seesaw.tomographic_optimize(state, grid_size) == expected
    assert len(evaluated) == len(set(evaluated)) == distinct


def _replay(f, x0):
    """Check that the simplex search and scipy's Nelder-Mead evaluate the same
    points in the same order and return the same vertex and value; return
    scipy's result and the points."""
    ours, theirs = [], []

    def recording(points):
        def g(x):
            points.append((float(x[0]), float(x[1])))
            return f(x)
        return g

    x, value = _nelder_mead(recording(ours), x0)
    res = minimize(
        recording(theirs), np.asarray(x0), method="Nelder-Mead",
        options={"xatol": seesaw._REFINE_XATOL, "fatol": seesaw._REFINE_FATOL},
    )
    assert ours == theirs
    assert x == (float(res.x[0]), float(res.x[1]))
    assert value == res.fun
    return res, ours


def test_nelder_mead_replays_scipy_on_the_tomographic_refine():
    state = make_state(0.999, math.pi / 8)
    program = guessprob.TomographicProgram(state)

    def g(x):
        return program.batch([(float(x[0]), float(x[1]))])[0].guessing_probability

    angles = np.arange(8) * math.pi / 8
    grid = [(float(a), float(b)) for a in angles for b in angles]
    values = [g(pair) for pair in grid]
    for k in sorted(range(len(grid)), key=values.__getitem__)[:3]:
        _replay(g, grid[k])


@pytest.mark.parametrize("f,x0", [
    # a zero coordinate moves to 0.00025 in the initial simplex, where
    # another is scaled by 1.05
    (lambda x: (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.1) ** 2, (0.0, 0.5)),
    # a bowl rounded to two decimals: some outside contraction ties with its
    # reflection, and a tie keeps the contraction
    (lambda x: round(x[0] ** 2 + x[1] ** 2, 2), (-1.3, 0.2)),
], ids=["zero-coordinate", "ties"])
def test_nelder_mead_replays_scipy(f, x0):
    _replay(f, x0)


def test_nelder_mead_replays_scipy_through_shrinks():
    # flat around the start: every value ties, so each step's contraction
    # fails and the simplex shrinks (reflect, contract, two shrink
    # evaluations) until it is within the tolerance
    res, _ = _replay(lambda x: max(1.0, x[0] ** 2 + x[1] ** 2), (0.3, 0.2))
    assert res.nfev == 3 + 4 * (res.nit - 1)


def test_nelder_mead_replays_scipy_at_the_evaluation_cap():
    # unbounded below, so the cap stops the search inside a step: its last
    # point beats every vertex, and the abandoned step never stored it
    def f(x):
        return -(x[0] + x[1])

    res, points = _replay(f, (1.0, 1.0))
    assert res.nfev == len(points) == seesaw._REFINE_CAP
    assert res.fun > min(f(p) for p in points)


_IMPORT_GRAPH_SCRIPT = """
import math, sys
import bellrand, bellrand.cli
from bellrand import cli, qstate, seesaw
seesaw.tomographic_optimize(qstate.make_state(0.999, math.pi / 8), 8)
fast = ["--level", "1", "--starts", "1", "--max-iterations", "2"]
for argv in (
    ["certify", "--v", "0.95", "--theta", "0.4", "--level", "1"],
    ["bellbound", "--value", "2.6", "--level", "1"],
    ["optimize", "--v", "0.95", "--theta", "0.4", *fast],
    ["sweep", "--v-grid", "0.95", "--theta-grid", "0.4", *fast],
    ["tomography", "--v", "0.95", "--theta", "0.3", "--grid-size", "8",
     "--map-grid", "2", "--angle-map", sys.argv[1]],
):
    assert cli.main(argv) == 0, argv
assert "scipy.optimize" not in sys.modules, "a command loaded scipy.optimize"
"""


_NO_SDP_SCRIPT = """
import sys
import bellrand, bellrand.cli
from bellrand import cli
for argv in (
    ["tomography", "--v", "0.95", "--theta", "0.3", "--grid-size", "8",
     "--map-grid", "2", "--angle-map", sys.argv[1]],
    ["bellbound", "--value", "1.5"],
    ["certify", "--v", "0.5", "--theta", "0.3"],
    ["--help"],
):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 0, argv
assert "scipy" in sys.modules, "scipy itself was not loaded"
loaded = [name for name in ("scipy.sparse", "scipy.linalg", "concurrent.futures")
          if name in sys.modules]
assert not loaded, f"a command that poses no SDP loaded {loaded}"
"""


def run_fresh(script, tmp_path):
    # a fresh interpreter: other test modules import scipy's subpackages
    # into this one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "map.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_no_command_loads_scipy_optimize(tmp_path):
    run_fresh(_IMPORT_GRAPH_SCRIPT, tmp_path)


def test_commands_without_sdp_load_no_sdp_stack(tmp_path):
    # the import, tomography, a local bellbound or certify and --help pose
    # no SDP, so scipy.sparse, scipy.linalg and the process pool stay out
    run_fresh(_NO_SDP_SCRIPT, tmp_path)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py replaces module attributes by name; a renamed or
    # dropped one breaks every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer(bellrand)
    try:
        tracer.install()
    finally:
        tracer.remove()
    # and puts every original back
    assert seesaw.tomographic_guessing is guessprob.tomographic_guessing


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from bellrand import *", namespace)
    for name in bellrand.__all__:
        assert namespace[name] is getattr(bellrand, name), name

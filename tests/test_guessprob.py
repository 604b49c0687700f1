import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from bellrand import cli, guessprob, qstate, sdp, seesaw
from bellrand.guessprob import OUTCOME_PAIRS
from bellrand.qstate import (
    MeasurementSet,
    behavior,
    canonical_settings,
    chsh_optimal_settings,
    chsh_value,
    components,
    ibeta_value,
    make_state,
)

TSIRELSON = 2.0 * math.sqrt(2.0)

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
visibilities = st.floats(min_value=0.0, max_value=1.0)
thetas = st.floats(min_value=0.0, max_value=math.pi / 4)


def entry(a, b, x, y):
    """The index of p(a,b|x,y) in ``qstate.table``."""
    return (a + 1) // 2, (b + 1) // 2, x - 1, y - 1


def check_report_invariants(report, b):
    # solved instances obey the guessing-report contract
    g = report.guessing_probability
    assert 0.25 - 1e-8 <= g <= 1.0 + 1e-8
    best = b.table[:, :, report.xstar - 1, report.ystar - 1].max()
    assert g >= best - 1e-7
    weights = report.attack_weights
    assert abs(sum(weights.values()) - 1.0) <= 1e-7
    assert all(v >= -1e-8 for v in weights.values())
    expr = report.bell_expression
    assert abs(expr.value(b) - g) <= 1e-6
    assert abs(report.hmin + math.log2(min(max(g, 0.25), 1.0))) <= 1e-12


@pytest.fixture(scope="module")
def phi_plus_behavior():
    return behavior(
        make_state(1.0, math.pi / 4), chsh_optimal_settings(math.pi / 4)
    )


@pytest.fixture(scope="module")
def phi_plus_report(phi_plus_behavior):
    return guessprob.guessing_probability(phi_plus_behavior, level=2)


@pytest.fixture(scope="module")
def interior_behavior():
    return behavior(
        make_state(0.9, math.pi / 4), chsh_optimal_settings(math.pi / 4)
    )


@pytest.fixture(scope="module")
def interior_report(interior_behavior):
    return guessprob.guessing_probability(interior_behavior, level=2)


def test_primal_structure_level_two(phi_plus_behavior):
    b = phi_plus_behavior
    problem = guessprob.build_primal(b, 2, 1, 1)
    assert problem.block_orders == (13, 13, 13, 13)
    # the 9 Collins-Gisin rows come first: normalization, Alice's and Bob's
    # +1 marginals, then p(+,+|x,y), each one entry in every block
    cg = [1.0]
    cg += [b.table[entry(1, 1, x, 1)] + b.table[entry(1, -1, x, 1)] for x in (1, 2)]
    cg += [b.table[entry(1, 1, 1, y)] + b.table[entry(-1, 1, 1, y)] for y in (1, 2)]
    cg += [b.table[entry(1, 1, x, y)] for x in (1, 2) for y in (1, 2)]
    assert np.allclose(problem.rhs, cg, rtol=0.0, atol=1e-12)
    # each shared row reads one upper-triangle entry, the same in every block
    shared = np.triu(problem.shared.toarray().reshape(-1, 13, 13))
    assert [np.count_nonzero(m) for m in shared] == [1] * 9
    # every own row equates two upper-triangle entries of one block, and
    # each block carries the whole pattern
    own = problem.own.toarray().reshape(-1, 13, 13)
    assert own.shape[0] > 0
    assert all(np.count_nonzero(np.triu(m)) == 2 for m in own)
    assert np.all(own.sum(axis=(1, 2)) == 0.0)
    assert problem.n_constraints == 9 + 4 * own.shape[0]


def test_generation_setting_validated(phi_plus_behavior):
    with pytest.raises(ValueError, match="generation setting"):
        guessprob.build_primal(phi_plus_behavior, 2, 3, 1)
    with pytest.raises(ValueError, match="generation setting"):
        guessprob.guessing_probability(phi_plus_behavior, level=2, ystar=5)


def test_deterministic_behavior_guessed_exactly():
    b = behavior(make_state(1.0, 0.0), MeasurementSet((0.0, 0.0), (0.0, 0.0)))
    report = guessprob.guessing_probability(b, level=1)
    assert report.status == "optimal"
    assert abs(report.guessing_probability - 1.0) <= 1e-6
    assert report.hmin == 0.0
    # dominant weight one, the rest cleaned to exact zero
    assert abs(report.attack_weights[(1, 1)] - 1.0) <= 1e-6
    assert report.attack_weights[(-1, -1)] == 0.0


def test_uniform_behavior_guessed_exactly():
    b = behavior(make_state(0.0, 0.3), MeasurementSet((0.1, 1.0), (0.4, 2.0)))
    report = guessprob.guessing_probability(b, level=1)
    assert report.status == "optimal"
    assert abs(report.guessing_probability - 1.0) <= 1e-6


def test_tsirelson_statistics_level_two(phi_plus_behavior, phi_plus_report):
    report = phi_plus_report
    assert report.status == "optimal"
    assert abs(report.hmin - 1.22845) <= 2e-3
    check_report_invariants(report, phi_plus_behavior)


def test_two_bits_from_canonical_settings():
    b = behavior(make_state(1.0, math.pi / 4), canonical_settings())
    report = guessprob.guessing_probability(b, level=2, xstar=2, ystar=3)
    assert report.status == "optimal"
    assert report.hmin >= 1.98
    assert abs(report.guessing_probability - 0.25) <= 5e-4
    check_report_invariants(report, b)


def test_interior_report_invariants(interior_behavior, interior_report):
    assert interior_report.status == "optimal"
    check_report_invariants(interior_report, interior_behavior)


def test_level_three_not_looser(interior_behavior, interior_report):
    report3 = guessprob.guessing_probability(interior_behavior, level=3)
    assert report3.status == "optimal"
    assert (
        report3.guessing_probability
        <= interior_report.guessing_probability + 1e-6
    )


def test_reconstruction_matches_input(interior_behavior, solves):
    # sum_ab p~_ab rebuilt from the blocks' Collins-Gisin moments
    report = guessprob.guessing_probability(interior_behavior, level=2)
    assert report.status == "optimal"
    [(_, sol)] = solves
    layout = guessprob._moment_layout(2, 2, 2)
    total = layout.from_cg @ sum(layout.cg @ x.ravel() for x in sol.primal_blocks)
    assert np.max(np.abs(total - interior_behavior.probs)) <= 1e-7


def test_full_statistics_tighter_than_chsh_alone(
    interior_behavior, interior_report
):
    value = chsh_value(interior_behavior)
    constrained = guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [value], 2, 2, level=2
    )
    assert constrained.status == "optimal"
    assert (
        interior_report.guessing_probability
        <= constrained.guessing_probability + 1e-6
    )


def test_chsh_bound_at_tsirelson():
    report = guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [TSIRELSON], 2, 2, level=2
    )
    assert report.status == "optimal"
    assert abs(report.hmin - 1.22845) <= 2e-3
    assert abs(sum(report.attack_weights.values()) - 1.0) <= 1e-7


def test_chsh_bound_at_local_value():
    report = guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [2.0], 2, 2, level=2
    )
    assert report.status == "optimal"
    assert report.guessing_probability == 1.0
    assert report.iterations == 0
    assert report.hmin == 0.0


def test_chsh_bound_interpolates():
    report = guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [2.5], 2, 2, level=2
    )
    assert report.status == "optimal"
    assert 0.0 + 1e-3 < report.hmin < 1.22845 - 1e-3
    assert abs(report.guessing_probability - 0.7967319874) <= 1e-4


def test_chsh_bound_infeasible_value():
    # found after a solve, so the report has the shape of one rejected
    # before any: no attack weights are read off the infeasible primal
    for value in (2.8285, 3.0, -3.9):
        report = guessprob.bell_constrained_bound(
            guessprob.chsh_coefficients(), [value], 2, 2, level=2
        )
        assert report.status == "infeasible"
        assert math.isnan(report.guessing_probability)
        assert report.bell_expression is None
        assert all(math.isnan(w) for w in report.attack_weights.values())


def test_chsh_bound_just_above_tsirelson_infeasible():
    # these solves stall, and their certificates pass the coarse gap test:
    # the operator range must still reject them, or noise past 2 sqrt 2
    # would certify extra randomness (at 2.82843, within 1e-6 of the range,
    # hmin 1.22836 against 1.22780 at the Tsirelson point)
    for value in (2.82843, 2.82844, 2.82845):
        report = guessprob.bell_constrained_bound(
            guessprob.chsh_coefficients(), [value], 2, 2, level=2
        )
        assert report.status == "infeasible"
        assert math.isnan(report.guessing_probability)


def _chsh_bound(value):
    return lambda: guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [value], 2, 2, level=2
    )


@pytest.mark.parametrize("bound, counts", [
    (_chsh_bound(1.5), [0]),
    (_chsh_bound(2.5), [1]),
    (_chsh_bound(3.0), [1]),
    (_chsh_bound(TSIRELSON), [3, 1]),
    (_chsh_bound(2.82843), [3]),
    (lambda: guessprob.bell_constrained_bound(
        np.vstack([guessprob.ibeta_coefficients(0.0), guessprob.chsh_coefficients()]),
        [2.5, 2.6], 2, 2, level=2,
    ), [0]),
    (lambda: guessprob.guessing_probability(
        behavior(make_state(0.6, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    ), [0]),
    (lambda: guessprob.guessing_probability(
        behavior(make_state(0.9, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    ), [1]),
], ids=["chsh-local", "chsh-2.5", "chsh-farkas", "tsirelson", "chsh-2.82843",
        "dependent-inconsistent", "full-local", "full-interior"])
def test_solves_per_bound(monkeypatch, bound, counts):
    # a bound solves its program once, and none where it is decided without
    # a solve; the two solves of a Bell operator's range come only after a
    # solve that did not end optimal, and a repeat reads them from the cache
    guessprob._operator_range.cache_clear()
    solves = []

    def counting(problem):
        solves.append(problem)
        return sdp.solve(problem)

    monkeypatch.setattr(guessprob, "solve", counting)
    texts, made = [], []
    for _ in counts:
        before = len(solves)
        texts.append(guessprob.report_to_text(bound()))
        made.append(len(solves) - before)
    assert made == counts
    assert len(set(texts)) == 1


def test_stacked_operators_not_looser(interior_behavior):
    beta = 0.5
    chsh = guessprob.chsh_coefficients()
    ibeta = guessprob.ibeta_coefficients(beta)
    vals = [chsh_value(interior_behavior), ibeta_value(interior_behavior, beta)]
    single = guessprob.bell_constrained_bound(chsh, [vals[0]], 2, 2, level=2)
    both = guessprob.bell_constrained_bound(
        np.vstack([chsh, ibeta]), vals, 2, 2, level=2
    )
    assert both.status == "optimal"
    assert both.guessing_probability <= single.guessing_probability + 1e-6


def test_operator_value_shape_checks():
    chsh = guessprob.chsh_coefficients()
    with pytest.raises(ValueError, match="one value per"):
        guessprob.bell_constrained_bound(chsh, [2.0, 2.1], 2, 2)
    with pytest.raises(ValueError, match="length"):
        guessprob.bell_constrained_bound(np.zeros(7), [2.0], 2, 2)


def signalling_behavior(shift=1e-3):
    # moving `shift` from p(+,-|1,1) to p(+,+|1,1) keeps every block
    # normalized but makes Bob's y = 1 marginal depend on x by 2 * shift
    b = behavior(make_state(0.9, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    p = b.probs.copy()
    qstate.table(p, 2, 2)[entry(1, 1, 1, 1)] += shift
    qstate.table(p, 2, 2)[entry(1, -1, 1, 1)] -= shift
    return qstate.Behavior(2, 2, p)


def signalling_behavior_2x3():
    # Alice's x = 1 marginal moves up at y = 2 and down at y = 3, so its
    # average over y, and with it every Collins-Gisin coordinate, is unchanged
    b = behavior(make_state(0.9, math.pi / 8), seesaw.initial_settings(2, 3))
    p = b.probs.copy()
    for y, shift in ((2, 1e-3), (3, -1e-3)):
        qstate.table(p, 2, 3)[entry(1, 1, 1, y)] += shift
        qstate.table(p, 2, 3)[entry(-1, 1, 1, y)] -= shift
    return qstate.Behavior(2, 3, p)


def test_signalling_behavior_infeasible():
    for b, defect in (
        (signalling_behavior(), 2e-3), (signalling_behavior_2x3(), 4e-3)
    ):
        assert abs(b.no_signaling_defect() - defect) <= 1e-12
        report = guessprob.guessing_probability(b, level=2)
        assert report.status == "infeasible"
        assert math.isnan(report.guessing_probability)
        assert report.bell_expression is None


def test_unequal_normalizations_infeasible():
    # p(+,+|1,1) and p(-,-|1,1) raised by 5e-4: no marginal correlator
    # moves, but the (1,1) block sums to 1 + 1e-3
    b = behavior(make_state(0.9, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    p = b.probs.copy()
    qstate.table(p, 2, 2)[entry(1, 1, 1, 1)] += 5e-4
    qstate.table(p, 2, 2)[entry(-1, -1, 1, 1)] += 5e-4
    b = qstate.Behavior(2, 2, p)
    assert b.no_signaling_defect() <= 1e-15
    report = guessprob.guessing_probability(b, level=2)
    assert report.status == "infeasible"
    assert report.bell_expression is None


def scaled_behavior(scale):
    # every (x, y) block sums to ``scale``: no-signalling, equal normalizations
    b = behavior(make_state(0.99, math.pi / 8), chsh_optimal_settings(math.pi / 8))
    return qstate.Behavior(2, 2, scale * b.probs)


@pytest.mark.parametrize("scale", [0.5, 0.9, 1.5, 1 + 1e-6])
def test_unnormalized_behavior_infeasible_without_solve(monkeypatch, scale):
    monkeypatch.setattr(guessprob, "solve", no_solve)
    report = guessprob.guessing_probability(scaled_behavior(scale), level=2)
    assert report.status == "infeasible"
    assert math.isnan(report.guessing_probability)
    assert report.bell_expression is None


def test_rounding_level_normalization_still_solved():
    exact = guessprob.guessing_probability(scaled_behavior(1.0), level=2)
    report = guessprob.guessing_probability(scaled_behavior(1 + 5e-8), level=2)
    assert report.status == "optimal"
    assert abs(report.guessing_probability - exact.guessing_probability) <= 1e-6


@pytest.mark.parametrize("at, label", [
    (entry(-1, 1, 2, 1), "(-1,1,2,1)"), (..., "(-1,-1,1,1)"),
], ids=["one", "all"])
def test_non_finite_behavior_entry_named(monkeypatch, at, label):
    # NaN fails every comparison of the signalling and locality tests
    monkeypatch.setattr(guessprob, "solve", no_solve)
    p = scaled_behavior(1.0).probs.copy()
    qstate.table(p, 2, 2)[at] = math.nan
    with pytest.raises(ValueError, match=re.escape(
        f"behavior entry for (a,b,x,y)={label} is not finite"
    )):
        guessprob.guessing_probability(qstate.Behavior(2, 2, p), level=2)


def chsh_box(s):
    # the no-signalling box E_xy = +-s/4 (minus at (2,2)) with zero
    # marginals: CHSH value s
    p = [
        (1 + a * b * (-s / 4 if (x, y) == (2, 2) else s / 4)) / 4
        for a, b, x, y in components(2, 2)
    ]
    return qstate.Behavior(2, 2, np.array(p))


@pytest.mark.parametrize("s", [3.0, 4.0])
def test_superquantum_box_infeasible(s):
    # CHSH value s > 2 sqrt(2) lies outside the level-2 set; the solver
    # never calls an instance infeasible, the Farkas ray of its returned
    # dual does
    report = guessprob.guessing_probability(chsh_box(s), level=2)
    assert report.status == "infeasible"
    assert math.isnan(report.guessing_probability)
    assert report.bell_expression is None
    assert all(math.isnan(w) for w in report.attack_weights.values())


def test_rounding_level_signalling_still_solved():
    b = signalling_behavior(5e-10)
    assert abs(b.no_signaling_defect() - 1e-9) <= 1e-12
    report = guessprob.guessing_probability(b, level=2)
    assert report.status == "optimal"
    assert abs(report.bell_expression.value(b) - report.guessing_probability) <= 1e-6


def test_certificate_2x3_at_generation_pair_two_three(checks, quantum_samples):
    b = behavior(make_state(0.9, math.pi / 8), seesaw.initial_settings(2, 3))
    report = guessprob.guessing_probability(b, level=2, xstar=2, ystar=3)
    assert report.status == "optimal"
    check_report_invariants(report, b)
    point = {"mx": 2, "my": 3, "xstar": 2, "ystar": 3}
    assert checks.check_bound(point, report, b.probs, quantum_samples(2, 3)) == []


@pytest.fixture
def solves(monkeypatch):
    # every (problem, solution) pair the guessing-probability programs make
    seen = []

    def recording(problem):
        sol = sdp.solve(problem)
        seen.append((problem, sol))
        return sol

    monkeypatch.setattr(guessprob, "solve", recording)
    return seen


def _full_statistics(mx, my, level):
    b = behavior(make_state(0.9, 0.5), seesaw.initial_settings(mx, my))
    return lambda: guessprob.guessing_probability(b, level=level)


PROGRAMS = {
    "full-2x2-L1": _full_statistics(2, 2, 1),
    "full-2x2-L2": _full_statistics(2, 2, 2),
    "full-2x2-L3": _full_statistics(2, 2, 3),
    "full-2x3-L2": _full_statistics(2, 3, 2),
    "full-3x3-L2": _full_statistics(3, 3, 2),
    "chsh": lambda: guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [2.5], 2, 2, level=2
    ),
    "chsh-and-tilted": lambda: guessprob.bell_constrained_bound(
        np.vstack([guessprob.chsh_coefficients(), guessprob.ibeta_coefficients(0.5)]),
        [2.5, 2.6], 2, 2, level=2,
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rows_independent_and_primal_on_rows(name, solves):
    # every posed row is kept, and the returned primal meets every row
    report = PROGRAMS[name]()
    assert report.status == "optimal"
    assert solves
    for problem, sol in solves:
        assert sol.removed_rows == ()
        x = sol.primal_blocks.reshape(len(sol.primal_blocks), -1)
        # shared rows on the sum of the blocks, own rows on every block
        for row, rhs in zip(problem.shared.toarray(), problem.rhs):
            value = float(np.sum(x @ row))
            assert abs(value - rhs) <= 1e-9 * (1.0 + abs(rhs))
        assert np.abs(x @ problem.own.toarray().T).max() <= 1e-9


def test_dependent_operators_equal_values():
    # the tilted operator at beta = 0 is CHSH itself
    chsh = guessprob.chsh_coefficients()
    tilted = guessprob.ibeta_coefficients(0.0)
    assert np.array_equal(tilted, chsh)
    alone = guessprob.bell_constrained_bound(chsh, [2.5], 2, 2, level=2)
    both = guessprob.bell_constrained_bound(
        np.vstack([tilted, chsh]), [2.5, 2.5], 2, 2, level=2
    )
    assert alone.status == both.status == "optimal"
    assert abs(alone.guessing_probability - 0.79673198) <= 1e-6
    assert abs(both.guessing_probability - alone.guessing_probability) <= 1e-9


def test_dependent_operators_unequal_values_infeasible():
    chsh = guessprob.chsh_coefficients()
    report = guessprob.bell_constrained_bound(
        np.vstack([guessprob.ibeta_coefficients(0.0), chsh]), [2.5, 2.6],
        2, 2, level=2,
    )
    assert report.status == "infeasible"
    assert math.isnan(report.guessing_probability)
    assert report.bell_expression is None
    assert all(math.isnan(w) for w in report.attack_weights.values())


def test_dual_combination_matches_direct_sum():
    # sparse random shared and own rows over three blocks of order 3
    rng = np.random.default_rng(5)
    n, k = 3, 3

    def rows(count):
        mats = []
        for _ in range(count):
            a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
            a[0, 0] = 1.0 + rng.random()  # no row without a coefficient
            mats.append(a + a.T)
        return mats

    shared, own = rows(4), rows(3)
    problem = sdp.SdpProblem(
        np.zeros((k, n, n)),
        [m.ravel() for m in shared],
        rng.normal(size=len(shared)),
        [m.ravel() for m in own],
    )
    y = rng.normal(size=problem.n_constraints)
    got = guessprob._dual_combination(problem, y)
    assert got.shape == (3, 3, 3)
    y_own = y[len(shared):].reshape(k, len(own))
    for b in range(k):
        want = sum(y[j] * m for j, m in enumerate(shared))
        want = want + sum(y_own[b, r] * m for r, m in enumerate(own))
        assert np.abs(got[b] - want).max() <= 1e-12


def check_local_report(report, mx, my, level, xstar, ystar, weights):
    # the exact report of an instance that a local behavior reaches
    assert report.guessing_probability == 1.0
    assert report.hmin == 0.0
    assert (report.level, report.xstar, report.ystar) == (level, xstar, ystar)
    assert report.status == "optimal"
    assert report.attack_weights == weights
    assert abs(sum(weights.values()) - 1.0) <= 1e-12
    expr = report.bell_expression
    assert (expr.mx, expr.my) == (mx, my)
    assert np.all(expr.coeffs == 0.0) and expr.offset == 1.0
    assert report.iterations == 0
    assert report.gap == report.primal_residual == report.dual_residual == 0.0
    assert report.certificate_defect == 0.0


def no_solve(*args, **kwargs):
    raise AssertionError("closed-form instance reached the solver")


@pytest.mark.parametrize("b, xstar, ystar", [
    (behavior(make_state(0.6, math.pi / 4), chsh_optimal_settings(math.pi / 4)), 2, 1),
    (behavior(make_state(1.0, 0.0), MeasurementSet((0.0, 0.0), (0.0, 0.0))), 1, 1),
    (behavior(make_state(0.5, math.pi / 8), canonical_settings()), 2, 3),
    (behavior(make_state(0.7, 0.3), MeasurementSet((0.3,), (1.0, 2.0, 3.0))), 1, 2),
], ids=["noisy-2x2", "deterministic-2x2", "noisy-2x3", "one-input-1x3"])
def test_local_behavior_closed_form(monkeypatch, b, xstar, ystar):
    monkeypatch.setattr(guessprob, "solve", no_solve)
    report = guessprob.guessing_probability(b, level=2, xstar=xstar, ystar=ystar)
    weights = {k: b.table[entry(*k, xstar, ystar)] for k in OUTCOME_PAIRS}
    check_local_report(report, b.mx, b.my, 2, xstar, ystar, {
        k: (0.0 if abs(w) < 1e-9 else w) for k, w in weights.items()
    })
    assert report.bell_expression.value(b) == 1.0


@pytest.mark.parametrize("mx, my", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("value", [-2.0, 0.0, 2.0])
def test_chsh_local_value_closed_form(monkeypatch, mx, my, value):
    # CHSH runs from -2 to 2 over deterministic strategies; Eve's guesses
    # mix the two extreme strategies' outcomes at (x*, y*) = (mx, my)
    monkeypatch.setattr(guessprob, "solve", no_solve)
    chsh = guessprob.chsh_coefficients(mx, my)
    report = guessprob.bell_constrained_bound(
        chsh, [value], mx, my, level=2, xstar=mx, ystar=my
    )
    (lo, at_lo), (hi, at_hi) = guessprob._local_extremes(chsh, mx, my, mx, my)
    assert (lo, hi) == (-2.0, 2.0)
    t = (value + 2.0) / 4.0
    weights = dict.fromkeys(OUTCOME_PAIRS, 0.0)
    weights[at_lo] += 1.0 - t
    weights[at_hi] += t
    check_local_report(report, mx, my, 2, mx, my, weights)


@pytest.mark.parametrize("bound", [
    lambda level: guessprob.guessing_probability(
        behavior(make_state(0.6, math.pi / 4), chsh_optimal_settings(math.pi / 4)),
        level=level),
    lambda level: guessprob.guessing_probability(signalling_behavior(), level=level),
    lambda level: guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [1.5], 2, 2, level=level),
], ids=["local", "signalling", "locally-reachable-value"])
@pytest.mark.parametrize("level", [0, 4, 7])
def test_unknown_level_rejected_without_solve(monkeypatch, bound, level):
    # these instances are decided before any moment layout is built, so
    # the level is checked at entry
    monkeypatch.setattr(guessprob, "solve", no_solve)
    with pytest.raises(ValueError, match=f"level must be 1, 2 or 3, got {level}"):
        bound(level)


def deterministic_behaviors(mx, my):
    # (Alice's outcomes, Bob's outcomes, flat behavior) of every
    # deterministic strategy
    for alice in itertools.product((-1, 1), repeat=mx):
        for bob in itertools.product((-1, 1), repeat=my):
            yield alice, bob, np.array([
                float(alice[x - 1] == a and bob[y - 1] == bb)
                for a, bb, x, y in components(mx, my)
            ])


@pytest.mark.parametrize("mx, my", [(2, 2), (3, 2), (2, 4), (3, 3)])
def test_local_extremes_match_enumeration(mx, my):
    rng = np.random.default_rng([mx, my])
    strategies = list(deterministic_behaviors(mx, my))
    for xstar, ystar in ((1, 1), (mx, my)):
        coeffs = rng.normal(size=4 * mx * my)
        values = [coeffs @ p for _, _, p in strategies]
        extremes = guessprob._local_extremes(coeffs, mx, my, xstar, ystar)
        for (value, guess), want in zip(extremes, (min(values), max(values))):
            assert abs(value - want) <= 1e-12
            # a strategy with this value gives that guess
            assert any(
                abs(coeffs @ p - want) <= 1e-12
                and (alice[xstar - 1], bob[ystar - 1]) == guess
                for alice, bob, p in strategies
            )


def local_polytope_contains(b):
    # linear program over the weights of the 2^(mx+my) deterministic
    # strategies: feasible exactly when b has a local model
    d = np.array([p for _, _, p in deterministic_behaviors(b.mx, b.my)]).T
    res = linprog(
        np.zeros(d.shape[1]), A_eq=d, b_eq=b.probs, bounds=(0, None), method="highs"
    )
    assert res.status in (0, 2)
    return res.status == 0


@pytest.mark.parametrize("mx, my", [(2, 2), (2, 3), (2, 4)])
def test_local_criterion_matches_linear_program(mx, my):
    # noisy states measured near the CHSH-optimal settings, with extra
    # inputs at random angles: about a third of them are nonlocal
    rng = np.random.default_rng([mx, my])
    fired = 0
    for _ in range(200):
        v, theta = rng.uniform(0.6, 1.0), rng.uniform(0.0, math.pi / 4)
        base = chsh_optimal_settings(theta)
        alice = np.append(base.alice_angles, rng.uniform(0.0, 2.0 * math.pi, mx - 2))
        bob = np.append(base.bob_angles, rng.uniform(0.0, 2.0 * math.pi, my - 2))
        b = behavior(make_state(v, theta), MeasurementSet(
            tuple(alice + rng.normal(0.0, 0.3, mx)), tuple(bob + rng.normal(0.0, 0.3, my))
        ))
        local = guessprob._has_local_model(b)
        assert local == local_polytope_contains(b)
        if local:
            # the level-1 relaxation, the loosest, gives G = 1 up to rounding
            fired += 1
            _, g, _, status = guessprob._certified(guessprob.build_primal(b, 1, 1, 1))
            assert status == "optimal" and g >= 1.0 - 1e-7
    assert 100 <= fired <= 180


def test_boundary_instances_reach_the_solver(monkeypatch):
    calls = []

    def counted(problem):
        calls.append(problem)
        return sdp.solve(problem)

    monkeypatch.setattr(guessprob, "solve", counted)
    local = behavior(make_state(0.6, math.pi / 4), chsh_optimal_settings(math.pi / 4))
    deterministic = behavior(make_state(1.0, 0.0), MeasurementSet((0.0, 0.0), (0.0, 0.0)))
    assert guessprob._has_local_model(local)
    assert guessprob._has_local_model(deterministic)
    assert guessprob._has_local_model(chsh_box(2.0))
    # a negative entry: 1e-12 moved from p(+,-|1,1) = 0 to p(+,+|1,1)
    negative = deterministic.probs.copy()
    qstate.table(negative, 2, 2)[entry(1, 1, 1, 1)] += 1e-12
    qstate.table(negative, 2, 2)[entry(1, -1, 1, 1)] -= 1e-12
    assert negative.min() < 0.0
    cases = [
        # separable, but 3x3 has facets beyond CHSH
        behavior(make_state(0.3, 0.4), MeasurementSet((0.0, 1.0, 2.0), (0.5, 1.5, 2.5))),
        chsh_box(2.0 + 1e-9),
        qstate.Behavior(2, 2, negative),
        # every normalization off by 1e-8
        qstate.Behavior(2, 2, local.probs * (1.0 + 1e-8)),
    ]
    for k, b in enumerate(cases):
        assert not guessprob._has_local_model(b)
        report = guessprob.guessing_probability(b, level=1)
        assert len(calls) == k + 1
        assert report.iterations > 0
    report = guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [2.0 + 1e-9], 2, 2, level=1
    )
    assert len(calls) == len(cases) + 1
    assert report.status == "optimal" and report.iterations > 0


def test_chsh_coefficients_match_correlator_form():
    coeffs = guessprob.chsh_coefficients()
    b = behavior(make_state(0.8, 0.6), chsh_optimal_settings(0.6))
    assert abs(float(coeffs @ b.probs) - chsh_value(b)) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(v=visibilities, theta=thetas, beta=st.floats(min_value=-2, max_value=2))
def test_ibeta_coefficients_match_helper(v, theta, beta):
    b = behavior(make_state(v, theta), canonical_settings())
    coeffs = guessprob.ibeta_coefficients(beta, 2, 3)
    assert abs(float(coeffs @ b.probs) - ibeta_value(b, beta)) <= 1e-10


def _assert_bracket(v, theta, level, meas, xstar, ystar):
    # the state measured at the settings is one quantum realization of its
    # behavior, so the tomographic primal value f = G - gap, an achievable
    # attack, bounds every certified device-independent G from below
    state = make_state(v, theta)
    report = guessprob.guessing_probability(behavior(state, meas), level, xstar, ystar)
    attack = guessprob.tomographic_guessing(
        state, meas.alice_angles[xstar - 1], meas.bob_angles[ystar - 1]
    )
    f = attack.guessing_probability - attack.gap
    assert report.guessing_probability >= f - 1e-9


@st.composite
def near_chsh_settings(draw, theta, mx, my):
    """Each side's first two inputs within 0.5 of the CHSH-optimal pair,
    where most behaviors are nonlocal, and a third input anywhere."""
    chsh = chsh_optimal_settings(theta)

    def side(base, n):
        near = st.floats(min_value=-0.5, max_value=0.5)
        return tuple(phi + draw(near) for phi in base) + (draw(angles),) * (n - 2)

    return MeasurementSet(side(chsh.alice_angles, mx), side(chsh.bob_angles, my))


# level 3 on 2x2 only
@pytest.mark.parametrize("mx, my, level", [
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2),
])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    noise=st.floats(min_value=0.0, max_value=0.4),
    tilt=st.floats(min_value=0.0, max_value=math.pi / 4),
    data=st.data(),
)
def test_certified_bound_is_above_tomographic_attack(mx, my, level, noise, tilt, data):
    # draws start from the simplest value, 0: here the pure maximally
    # entangled state, which is nonlocal at the CHSH-optimal settings
    v, theta = 1.0 - noise, math.pi / 4 - tilt
    meas = data.draw(near_chsh_settings(theta, mx, my))
    xstar, ystar = data.draw(st.integers(1, mx)), data.draw(st.integers(1, my))
    _assert_bracket(v, theta, level, meas, xstar, ystar)


# the level-2 see-saw optima at v = 1 (optimize: 3 starts, seed 0,
# epsilon 1e-4, cap 30), where the certified G sits only 1.3e-4 above the
# tomographic attack; random settings leave G far above it
@pytest.mark.parametrize("theta, alice, bob", [
    (math.pi / 4, (6.282953407730265, 1.5707964892460926),
     (0.7855141798321508, 2.356078527572435)),
    (math.pi / 8, (6.087915651732729, 2.0899408145260776),
     (1.2391573319847902, 2.67035607948029)),
])
def test_certified_bound_is_above_tomographic_attack_at_see_saw_optima(theta, alice, bob):
    _assert_bracket(1.0, theta, 2, MeasurementSet(alice, bob), 1, 1)


def test_tomographic_mixed_state_guessed():
    report = guessprob.tomographic_guessing(make_state(0.0, 0.3), 0.7, 1.9)
    assert report.status == "optimal"
    assert abs(report.guessing_probability - 1.0) <= 1e-6
    assert report.level == 0
    assert report.bell_expression is None


def test_tomographic_maximally_entangled_two_bits():
    report = guessprob.tomographic_guessing(
        make_state(1.0, math.pi / 4), 0.0, math.pi / 2
    )
    assert report.status == "optimal"
    assert abs(report.guessing_probability - 0.25) <= 1e-6
    assert abs(report.hmin - 2.0) <= 1e-5
    assert abs(sum(report.attack_weights.values()) - 1.0) <= 1e-7


def test_tomographic_product_state_endpoints():
    # |00> against x-basis measurements is uniform yet fully tracked by rho
    unbiased = guessprob.tomographic_guessing(
        make_state(1.0, 0.0), math.pi / 2, math.pi / 2
    )
    assert abs(unbiased.guessing_probability - 0.25) <= 1e-6
    aligned = guessprob.tomographic_guessing(make_state(1.0, 0.0), 0.0, 0.0)
    assert abs(aligned.guessing_probability - 1.0) <= 1e-6


@settings(max_examples=50, deadline=None)
@given(theta=thetas, alpha=angles, beta=angles)
def test_tomographic_pure_state_closed_form(theta, alpha, beta):
    # a pure state leaves Eve one decomposition: G is the largest outcome
    # probability, certified exactly with all weight on that outcome pair
    state = make_state(1.0, theta)
    probs = {
        (a, b): float(np.trace(state.entries @ np.kron(
            qstate.projector(alpha, a), qstate.projector(beta, b)
        )))
        for a, b in OUTCOME_PAIRS
    }
    report = guessprob.tomographic_guessing(state, alpha, beta)
    assert abs(report.guessing_probability - max(probs.values())) <= 1e-12
    assert report.status == "optimal"
    assert report.iterations == 0
    assert report.certificate_defect == 0.0
    assert report.gap == report.primal_residual == report.dual_residual == 0.0
    [(pair, weight)] = [kv for kv in report.attack_weights.items() if kv[1] != 0.0]
    assert abs(weight - 1.0) <= 1e-12
    assert abs(probs[pair] - max(probs.values())) <= 1e-12


@pytest.mark.parametrize("theta,alpha,beta", [
    (0.0, 0.0, 0.0), (0.3, 0.7, 1.9), (math.pi / 8, 0.4, 2.6), (0.6, 1.0, 2.2),
])
def test_tomographic_pure_state_continuous_with_full_rank(theta, alpha, beta):
    # just below v = 1 the state has full rank and is solved iteratively;
    # the angles give one most likely outcome pair, since a tie (as at
    # theta = pi/4) lets the blocks mix the tied pairs and gain O(sqrt(1-v))
    pure = guessprob.tomographic_guessing(make_state(1.0, theta), alpha, beta)
    mixed = guessprob.tomographic_guessing(make_state(1.0 - 1e-9, theta), alpha, beta)
    assert mixed.status == "optimal"
    # rho_v = v rho_1 + (1 - v) I/4, and scaling rho_1's blocks by v is feasible
    g_pure, g_mixed = pure.guessing_probability, mixed.guessing_probability
    assert g_mixed >= (1.0 - 1e-9) * g_pure - 1e-12
    assert abs(g_pure - g_mixed) <= 1e-6


@settings(max_examples=50, deadline=None)
@given(
    v=st.floats(min_value=0.0, max_value=0.9999), theta=thetas, alpha=angles,
    beta=angles,
)
def test_tomographic_discrimination_primal_and_certificate(v, theta, alpha, beta):
    # the ascent's orthonormal measurement m_k gives blocks
    # sqrt(rho) m_k m_k^T sqrt(rho) that sum to rho, and its certificate Y,
    # lifted by the defect, dominates every v_k v_k^T = sqrt(rho) e_k e_k^T sqrt(rho)
    state = make_state(v, theta)
    rho = state.entries
    w, q = np.linalg.eigh(rho)
    root = (q * np.sqrt(np.clip(w, 0.0, None))) @ q.T
    basis = guessprob._product_basis([(alpha, beta)])[0]
    for k, (a, b) in enumerate(OUTCOME_PAIRS):
        pi = np.kron(qstate.projector(alpha, a), qstate.projector(beta, b))
        assert np.abs(np.outer(basis[:, k], basis[:, k]) - pi).max() <= 1e-15
    vecs = root @ basis
    stacked, _, (status,) = guessprob._discriminate(vecs[None], basis[None])
    cert = guessprob._Certificate(*(field[0] for field in stacked))
    report = guessprob.tomographic_guessing(state, alpha, beta)
    assert status == report.status == "optimal"
    assert report.guessing_probability == cert.g
    blocks = np.einsum("ik,jk->kij", root @ cert.m, root @ cert.m)
    assert np.abs(blocks.sum(axis=0) - rho).max() <= 1e-12
    assert abs(sum(report.attack_weights.values()) - 1.0) <= 1e-8
    primal = float(np.sum(np.einsum("ik,ik->k", cert.m, vecs) ** 2))
    gap_tol = guessprob._ASCENT_GAP_TOL
    assert report.guessing_probability - primal <= gap_tol * (1.0 + primal)
    lifted = cert.y + cert.defect * np.eye(4)
    for k in range(4):
        slack = lifted - np.outer(vecs[:, k], vecs[:, k])
        assert np.linalg.eigvalsh(slack).min() >= -1e-12


def _rank_two_state():
    # half |phi+><phi+|, half |01><01|: singular but not pure
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    e01 = np.array([0.0, 1.0, 0.0, 0.0])
    return qstate.DensityMatrix((np.outer(phi, phi) + np.outer(e01, e01)) / 2.0)


@pytest.mark.parametrize("state, rank", [
    (make_state(1.0, 0.3), 1), (_rank_two_state(), 2), (make_state(0.9, 0.3), 4),
    (make_state(0.999, math.pi / 8), 4),
], ids=["pure", "rank-two", "full-rank", "near-pure"])
def test_tomographic_batch_matches_one_pair_calls(monkeypatch, state, rank):
    # a pair's report does not depend on the batch it is evaluated in: the
    # tomographic refine follows last-bit differences in G
    assert np.sum(np.linalg.eigvalsh(state.entries) > 1e-12) == rank
    program = guessprob.TomographicProgram(state)
    pairs = [tuple(p) for p in np.random.default_rng(20).uniform(0.0, math.pi, (16, 2))]
    single = [guessprob.tomographic_guessing(state, *pair) for pair in pairs]
    assert program.batch(pairs) == single
    assert program.batch(pairs[::-1]) == single[::-1]
    assert program.batch(pairs[:7]) + program.batch(pairs[7:]) == single
    # at cap 2 some full-rank pairs stop capped and some converge; at cap 5
    # the near-pure pairs mix capped, converged and polished certificates,
    # each written into its own row of the batch
    for cap in (1, 2, 5):
        monkeypatch.setattr(guessprob, "_ASCENT_MAX_STEPS", cap)
        capped = [guessprob.tomographic_guessing(state, *pair) for pair in pairs]
        assert program.batch(pairs) == capped


# G of the interior-point solve these instances had before the
# discrimination ascent: the certified G may fall below it by the old
# solver's slack, never rise above it
@pytest.mark.parametrize("v,theta,alpha,beta,g_before", [
    (0.9, 0.5, 0.7, 1.9, 0.5660080426800248),
    (0.999, math.pi / 8, 0.3, 1.2, 0.6189867258804933),
    (0.8, 0.2, 0.0, math.pi / 4, 0.8770152087858701),
    (0.5, 0.6, 1.0, 2.2, 0.865856717755437),
    (0.95, math.pi / 4, 0.0, math.pi / 2, 0.4332805830592424),
    (0.75, math.pi / 4, 0.4, 2.6, 0.7241832968591916),
    (1.0 - 1e-6, 0.3, 0.7, 1.9, 0.4502830376702657),
])
def test_tomographic_mixed_matches_interior_point(v, theta, alpha, beta, g_before):
    report = guessprob.tomographic_guessing(make_state(v, theta), alpha, beta)
    assert report.status == "optimal"
    assert g_before - 1e-7 <= report.guessing_probability <= g_before + 1e-9


@pytest.mark.parametrize("cap", [0, 1])
def test_tomographic_step_cap(monkeypatch, cap):
    # an ascent stopped at its step cap reports max_iterations, and its G
    # still bounds the converged primal value from above
    state = make_state(0.999, math.pi / 8)
    pairs = [(0.3, 1.2), (0.0, math.pi / 4), (1.0, 2.2), (0.7, 1.9)]
    converged = [guessprob.tomographic_guessing(state, *ab) for ab in pairs]
    monkeypatch.setattr(guessprob, "_ASCENT_MAX_STEPS", cap)
    for ab, full in zip(pairs, converged):
        report = guessprob.tomographic_guessing(state, *ab)
        assert report.status == "max_iterations"
        assert report.iterations == cap
        assert report.guessing_probability >= full.guessing_probability - full.gap
    argv = ["tomography", "--v", "0.999", "--theta", repr(math.pi / 8),
            "--grid-size", "8"]
    assert cli.main(argv) == 2


def test_verify_expression_from_solve(
    checks, quantum_samples, phi_plus_behavior, phi_plus_report
):
    # the benchmark's sampler draws complex states and measurements in all
    # three Bloch directions, apart from bellrand
    point = {"mx": 2, "my": 2, "xstar": 1, "ystar": 1}
    assert checks.check_bound(
        point, phi_plus_report, phi_plus_behavior.probs, quantum_samples(2, 2)
    ) == []


def test_bell_expression_validation():
    with pytest.raises(ValueError, match="coefficients"):
        guessprob.BellExpression(2, 2, np.zeros(7))
    f = guessprob.BellExpression(2, 2, np.zeros(16))
    b = behavior(make_state(0.5, 0.2), canonical_settings())
    with pytest.raises(ValueError, match="scenario"):
        f.value(b)


def test_report_text_round_trip(phi_plus_report):
    text = guessprob.report_to_text(phi_plus_report)
    lines = text.strip().splitlines()
    fields = dict(
        ln.split(" ", 1) for ln in lines if " " in ln and "," not in ln
    )
    assert float(fields["G"]) == phi_plus_report.guessing_probability
    assert float(fields["hmin"]) == phi_plus_report.hmin
    assert fields["status"] == "optimal"
    assert int(fields["level"]) == 2
    header = lines.index("a,b,x,y,f")
    table = lines[header + 1 :]
    assert len(table) == 16
    expr = phi_plus_report.bell_expression
    for row in table:
        a, bb, x, y, f = row.split(",")
        assert float(f) == expr.table[entry(int(a), int(bb), int(x), int(y))]


@settings(max_examples=15, deadline=None)
@given(
    v=visibilities,
    theta=thetas,
    a1=angles,
    a2=angles,
    b1=angles,
    b2=angles,
)
def test_level_one_report_invariants(v, theta, a1, a2, b1, b2):
    b = behavior(make_state(v, theta), MeasurementSet((a1, a2), (b1, b2)))
    report = guessprob.guessing_probability(b, level=1)
    assert report.status == "optimal"
    check_report_invariants(report, b)

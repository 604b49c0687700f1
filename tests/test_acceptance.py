"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run with -s to see them live) and
then asserts. Solved reports are accumulated so the duality criterion can
audit every instance the suite produced.
"""

import math

import numpy as np

from bellrand import analytic, guessprob, qstate, sdp, seesaw

TSIRELSON = 2.0 * math.sqrt(2.0)

RECORDED: list = []  # (GuessReport, Behavior | None) for every solved instance


def _verdict(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_chsh_only_endpoint():
    report = guessprob.bell_constrained_bound(
        guessprob.chsh_coefficients(), [TSIRELSON], 2, 2, level=2
    )
    # phi+ under the CHSH-optimal settings reaches the Tsirelson value
    phi_plus = qstate.behavior(
        qstate.make_state(1.0, math.pi / 4),
        qstate.chsh_optimal_settings(math.pi / 4),
    )
    RECORDED.append((report, phi_plus))
    ok = report.status == "optimal" and abs(report.hmin - 1.22845) <= 2e-3
    _verdict(
        1,
        ok,
        f"CHSH value 2*sqrt(2) at level 2 certifies hmin={report.hmin:.5f} "
        f"(target 1.22845 +- 2e-3, status {report.status})",
    )


def test_criterion_2_two_bit_certification():
    b = qstate.behavior(
        qstate.make_state(1.0, math.pi / 4), qstate.canonical_settings()
    )
    report = guessprob.guessing_probability(b, level=2, xstar=2, ystar=3)
    RECORDED.append((report, b))
    level, hmin = 2, report.hmin
    ok = report.status == "optimal" and hmin >= 1.98
    if not ok:
        report = guessprob.guessing_probability(b, level=3, xstar=2, ystar=3)
        RECORDED.append((report, b))
        level, hmin = 3, report.hmin
        ok = report.status == "optimal" and hmin >= 1.99
    _verdict(
        2,
        ok,
        f"v=1 theta=pi/4 canonical settings, generation (2,3), level {level}: "
        f"hmin={hmin:.5f}",
    )


def test_criterion_3_werner_threshold():
    theta = math.pi / 4
    failures = []
    for idx, v in enumerate(np.linspace(0.60, 0.98, 20)):
        v = float(v)
        state = qstate.make_state(v, theta)
        res = seesaw.optimize(
            state, level=2, epsilon=1e-4, n_starts=4, seed=idx,
            max_iterations=30,
        )
        RECORDED.append(
            (res.best_report, qstate.behavior(state, res.best_meas))
        )
        hmin = res.best_report.hmin
        if v <= 0.7071 and hmin > 1e-3:
            failures.append((v, hmin))
        if v >= 0.72 and hmin < 0.01:
            failures.append((v, hmin))
    _verdict(
        3,
        not failures,
        "20-point v sweep at theta=pi/4: hmin <= 1e-3 below v=0.7071 and "
        f">= 0.01 above v=0.72 (violations: {failures})",
    )


def test_criterion_4_analytic_tomographic_agreement():
    worst = 0.0
    for theta in (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4):
        _, _, report = seesaw.tomographic_optimize(qstate.make_state(1.0, theta))
        RECORDED.append((report, None))
        target = analytic.pure_state_guessing(theta).guessing_probability
        worst = max(worst, abs(report.guessing_probability - target))
    ok = worst <= 1e-9
    _verdict(
        4,
        ok,
        f"tomographic optimum vs closed form over five theta at v=1: "
        f"max |G difference| = {worst:.2e} (tolerance 1e-9)",
    )


def test_criterion_5_tomographic_non_monotonicity():
    hmin = {}
    for theta in (0.0, math.pi / 8, math.pi / 4):
        _, _, report = seesaw.tomographic_optimize(qstate.make_state(0.999, theta))
        RECORDED.append((report, None))
        hmin[theta] = report.hmin
    # the dip at every noise level, on grid 8: at least 0.05 bit below both
    # endpoints, and hmin never rising as v falls, which holds exactly since
    # rho_v' mixes rho_v with I/4
    dip, vs = 0.3648, (1.0, 0.95, 0.8)
    rows = {}
    for v in vs:
        for theta in (0.0, dip, math.pi / 4):
            _, _, report = seesaw.tomographic_optimize(qstate.make_state(v, theta), 8)
            RECORDED.append((report, None))
            rows[v, theta] = report
    margins = [
        min(rows[v, 0.0].hmin, rows[v, math.pi / 4].hmin) - rows[v, dip].hmin
        for v in vs
    ]
    monotone = all(
        rows[high, theta].hmin >= rows[low, theta].hmin
        for high, low in zip(vs, vs[1:]) for theta in (0.0, dip, math.pi / 4)
    )
    statuses = {report.status for report in rows.values()}
    ok = (
        hmin[math.pi / 8] < hmin[0.0]
        and hmin[math.pi / 8] < hmin[math.pi / 4]
        and min(margins) >= 0.05
        and monotone
        and statuses == {"optimal"}
    )
    _verdict(
        5,
        ok,
        f"v=0.999 dip: hmin(pi/8)={hmin[math.pi / 8]:.5f} below "
        f"hmin(0)={hmin[0.0]:.5f} and hmin(pi/4)={hmin[math.pi / 4]:.5f}; "
        f"grid-8 dip margins at v={vs}: "
        f"{', '.join(f'{m:.3f}' for m in margins)} bit (>= 0.05), "
        f"non-increasing as v falls: {monotone}, statuses {sorted(statuses)}",
    )


def test_criterion_6_tomographic_optimum_location():
    alice, bob, report = seesaw.tomographic_optimize(
        qstate.make_state(1.0, math.pi / 4)
    )
    RECORDED.append((report, None))
    orthogonal = abs(abs(math.sin(alice - bob)) - 1.0) <= 1e-4
    ok = abs(report.hmin - 2.0) <= 1e-4 and orthogonal
    _verdict(
        6,
        ok,
        f"v=1 theta=pi/4 optimum at angles ({alice:.6f}, {bob:.6f}) "
        f"(orthogonal pair mod symmetry: {orthogonal}), hmin={report.hmin:.6f}",
    )


def test_criterion_7_constraint_ordering():
    grid = (
        (0.80, math.pi / 4),
        (0.85, math.pi / 8),
        (0.90, math.pi / 4),
        (0.95, 3 * math.pi / 16),
        (0.98, math.pi / 4),
    )
    violations = []
    for v, theta in grid:
        b = qstate.behavior(
            qstate.make_state(v, theta), qstate.chsh_optimal_settings(theta)
        )
        full = guessprob.guessing_probability(b, level=2)
        beta = qstate.beta_coefficient(theta)
        tilted = guessprob.bell_constrained_bound(
            guessprob.ibeta_coefficients(beta),
            [qstate.ibeta_value(b, beta)],
            2, 2, level=2,
        )
        chsh = guessprob.bell_constrained_bound(
            guessprob.chsh_coefficients(), [qstate.chsh_value(b)], 2, 2, level=2
        )
        RECORDED.extend([(full, b), (tilted, b), (chsh, b)])
        # operator-constrained bounds never beat the full-statistics bound
        if not (
            full.hmin >= tilted.hmin - 1e-6
            and tilted.hmin >= -1e-6
            and full.hmin >= chsh.hmin - 1e-6
        ):
            violations.append(
                (v, theta, full.hmin, tilted.hmin, chsh.hmin)
            )
    _verdict(
        7,
        not violations,
        "5-point grid: hmin(full) >= hmin(tilted) >= 0 and hmin(full) >= "
        f"hmin(CHSH) within 1e-6 (violations: {violations})",
    )


def test_criterion_8_duality_and_certificates(checks, quantum_samples):
    # every solved instance with a behavior, Bell-value bounds included (each
    # recorded with the behavior its value came from): f.p + offset = G
    # within 1e-6, and f.p' + offset >= p'(a,b|x*,y*) - 1e-6 on 100 quantum
    # behaviors p' per scenario, drawn apart from bellrand (perfbench/checks.py)
    faults, checked = [], 0
    for rep, b in RECORDED:
        if rep.status == "optimal" and b is not None:
            checked += 1
            point = {"mx": b.mx, "my": b.my, "xstar": rep.xstar, "ystar": rep.ystar}
            samples = quantum_samples(b.mx, b.my)
            faults += checks.check_bound(point, rep, b.probs, samples)
    _verdict(
        8,
        checked >= 20 and not faults,
        f"certificates of {checked} solved instances: |G - (f.p + offset)| "
        "<= 1e-6 and f.p' + offset >= p'(a,b|x*,y*) on 100 sampled quantum "
        f"behaviors per scenario (faults: {faults[:3]})",
    )


def test_criterion_9_seesaw_descent():
    state = qstate.make_state(0.9, math.pi / 4)
    bad = []
    for seed in range(20):
        res = seesaw.optimize(
            state, level=2, epsilon=1e-4, n_starts=2, seed=seed,
            max_iterations=50,
        )
        monotone = all(
            np.all(np.diff(np.asarray(traj)) <= 1e-9)
            for traj in res.start_trajectories
        )
        if not (monotone and res.converged):
            bad.append((seed, monotone, res.converged))
    _verdict(
        9,
        not bad,
        "20 seeded see-saw runs: non-increasing trajectories within 1e-9, "
        f"all terminated by the epsilon rule (violations: {bad})",
    )


def test_criterion_10_solver_unit_suite():
    checks = []

    # shared rows over vec(X) of one block, raveled row-major, posed on the
    # sum of the blocks; own rows posed on every block with right-hand side 0
    none = np.zeros((0, 4))
    trace_one = sdp.SdpProblem(
        [np.diag([1.0, 0.0])], np.eye(2).reshape(1, 4), [1.0], none
    )
    sol1 = sdp.solve(trace_one)
    checks.append(abs(sol1.primal_objective - 1.0) <= 1e-7)

    scalar = sdp.SdpProblem([np.array([[1.0]])], [[1.0]], [0.3], np.zeros((0, 1)))
    sol2 = sdp.solve(scalar)
    checks.append(abs(sol2.primal_objective - 0.3) <= 1e-7)
    checks.append(abs(sol2.dual_vector[0] - 1.0) <= 1e-6)

    offdiag = sdp.SdpProblem(
        [np.array([[0.0, 1.0], [1.0, 0.0]])],
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        [0.5, 0.5],
        none,
    )
    sol3 = sdp.solve(offdiag)
    checks.append(abs(sol3.primal_objective - 1.0) <= 1e-7)
    checks.append(np.allclose(sol3.dual_vector, [1.0, 1.0], atol=1e-6))

    rescaled = sdp.SdpProblem([np.array([[1.0]])], [[10.0]], [3.0], np.zeros((0, 1)))
    sol4 = sdp.solve(rescaled)
    checks.append(abs(sol4.primal_objective - sol2.primal_objective) <= 1e-7)
    checks.append(abs(sol4.dual_vector[0] - sol2.dual_vector[0] / 10.0) <= 1e-7)

    # two blocks under tr(X_1 + X_2) = 1 and X_i[0,1] = 0: the optimum 1
    # follows diag(1, 0) to whichever block carries it
    for objective in ([np.zeros((2, 2)), np.diag([1.0, 0.0])],
                      [np.diag([1.0, 0.0]), np.zeros((2, 2))]):
        two_block = sdp.SdpProblem(
            objective, np.eye(2).reshape(1, 4), [1.0], [[0.0, 1.0, 1.0, 0.0]]
        )
        sol5 = sdp.solve(two_block)
        checks.append(abs(sol5.primal_objective - 1.0) <= 1e-7)

    ok = all(checks)
    _verdict(
        10,
        ok,
        f"three SDP unit examples at 1e-7 plus rescaling and block-"
        f"permutation invariances ({sum(checks)}/{len(checks)} checks)",
    )

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrand import guessprob, qstate, sdp


def vec(m):
    """One row over vec(X) of one block: the matrix raveled row-major."""
    return np.ravel(m)


def sym(n, *entries):
    """Symmetric n x n matrix with value v at (i, j) and (j, i)."""
    m = np.zeros((n, n))
    for i, j, v in entries:
        m[i, j] = m[j, i] = v
    return m


def problem_of(objective, shared, rhs, own=None):
    """Problem over the blocks of ``objective``, all of one order n: dense
    ``shared`` and ``own`` rows over one block's vec (no own rows if None)."""
    n = len(objective[0])
    own = np.zeros((0, n * n)) if own is None else np.array(own, ndmin=2)
    return sdp.SdpProblem(objective, np.array(shared, ndmin=2), rhs, own)


def solve_ok(problem):
    sol = sdp.solve(problem)
    assert sol.status == "optimal"
    return sol


def trace_one_problem():
    # maximize <diag(1,0), X> subject to tr X = 1, X >= 0
    return problem_of([np.diag([1.0, 0.0])], [vec(np.eye(2))], [1.0])


def test_trace_one_extremal():
    sol = solve_ok(trace_one_problem())
    assert abs(sol.primal_objective - 1.0) < 1e-7
    assert abs(sol.dual_objective - 1.0) < 1e-7
    assert np.allclose(sol.primal_blocks[0], np.diag([1.0, 0.0]), atol=1e-6)


def test_scalar_equality():
    # maximize x subject to x = 0.3; dual multiplier is 1
    problem = problem_of([np.array([[1.0]])], [[1.0]], [0.3])
    sol = solve_ok(problem)
    assert abs(sol.primal_objective - 0.3) < 1e-7
    assert abs(sol.dual_vector[0] - 1.0) < 1e-6


def test_offdiagonal_objective():
    # maximize X01 + X10 with unit diagonal halves; optimum at rank one
    problem = problem_of(
        [sym(2, (0, 1, 1.0))],
        [vec(sym(2, (0, 0, 1.0))), vec(sym(2, (1, 1, 1.0)))],
        [0.5, 0.5],
    )
    sol = solve_ok(problem)
    assert abs(sol.primal_objective - 1.0) < 1e-7
    assert np.allclose(sol.dual_vector, [1.0, 1.0], atol=1e-6)
    assert np.allclose(sol.primal_blocks[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-6)


def test_row_rescaling_rescales_dual():
    base = problem_of([np.array([[1.0]])], [[1.0]], [0.3])
    scaled = problem_of([np.array([[1.0]])], [[10.0]], [3.0])
    a = solve_ok(base)
    b = solve_ok(scaled)
    assert abs(a.primal_objective - b.primal_objective) < 1e-7
    assert abs(b.dual_vector[0] - a.dual_vector[0] / 10.0) < 1e-7


def _permuted(problem, perm):
    """The same program with its blocks listed in the order ``perm``: every
    row is posed on every block alike, so only the objective moves."""
    return sdp.SdpProblem(
        problem.objective[list(perm)], problem.shared, problem.rhs, problem.own
    )


def _unique_optimum_problem(k, seed):
    # the sum of k order-3 blocks pinned to P by shared rows, and an own
    # row X_i[0,2] = X_i[1,2] on every block (P obeys it too); a random
    # objective, whose optimum is unique
    rng = np.random.default_rng(seed)
    obj = []
    for _ in range(k):
        a = rng.normal(size=(3, 3))
        obj.append(a + a.T)
    p = np.array([[0.5, 0.1, 0.05], [0.1, 0.3, 0.05], [0.05, 0.05, 0.2]])
    shared = [vec(sym(3, (i, j, 1.0))) for i in range(3) for j in range(i, 3)]
    rhs = [p[i, j] for i in range(3) for j in range(i, 3)]
    own = vec(sym(3, (0, 2, 1.0)) - sym(3, (1, 2, 1.0)))
    return problem_of(obj, shared, rhs, [own])


def test_block_permutation_invariance():
    # X0[0,0] + 2 X1[1,1] under diag(X0 + X1) = (1, 0.25): the optimum
    # X0 = diag(1, 0), X1 = diag(0, 0.25) moves with its objective block
    obj = [np.diag([1.0, 0.0]), np.diag([0.0, 2.0])]
    rows = [vec(sym(2, (0, 0, 1.0))), vec(sym(2, (1, 1, 1.0)))]
    forward = problem_of(obj, rows, [1.0, 0.25])
    swapped = problem_of(obj[::-1], rows, [1.0, 0.25])
    a = solve_ok(forward)
    b = solve_ok(swapped)
    assert abs(a.primal_objective - 1.5) < 1e-7
    assert abs(a.primal_objective - b.primal_objective) < 1e-7
    assert np.allclose(a.primal_blocks[0], np.diag([1.0, 0.0]), atol=1e-6)
    assert np.allclose(a.primal_blocks[0], b.primal_blocks[1], atol=1e-6)
    assert np.allclose(a.primal_blocks[1], b.primal_blocks[0], atol=1e-6)
    # three blocks, two of them trading places, and all three reversed
    problem = _unique_optimum_problem(3, seed=5)
    a = solve_ok(problem)
    for perm in ((0, 2, 1), (2, 1, 0)):
        b = solve_ok(_permuted(problem, perm))
        assert abs(a.primal_objective - b.primal_objective) < 1e-7
        for sol in (a, b):
            assert isinstance(sol.primal_blocks, np.ndarray)
            assert sol.primal_blocks.shape == (3, 3, 3)
        for k, i in enumerate(perm):
            assert np.allclose(a.primal_blocks[i], b.primal_blocks[k], atol=1e-6)


def test_negative_diagonal_is_infeasible():
    # X >= 0 scalar cannot equal -1
    problem = problem_of([np.array([[1.0]])], [[1.0]], [-1.0])
    sol = sdp.solve(problem)
    assert sol.status == "infeasible"


def test_iteration_cap_reported(monkeypatch):
    monkeypatch.setattr(sdp, "_MAX_ITERATIONS", 1)
    sol = sdp.solve(trace_one_problem())
    assert sol.status != "optimal"
    assert sol.iterations == 1
    # the returned primal is projected onto the rows even this far out
    assert abs(np.trace(sol.primal_blocks[0]) - 1.0) <= 1e-12


def test_failed_gram_factor_keeps_dual(request):
    # a LinAlgError is a ValueError, which callers read as bad input: a
    # failed projection ends the solve numerical_failure with the same y
    reference = solve_ok(trace_one_problem())
    request.getfixturevalue("failing_gram_factor")
    sol = sdp.solve(trace_one_problem())
    assert sol.status == "numerical_failure"
    assert np.array_equal(sol.dual_vector, reference.dual_vector)
    assert sol.dual_objective == reference.dual_objective
    assert sol.iterations == reference.iterations


def test_failed_decomposition_ends_numerical_failure(monkeypatch):
    # an eigvalsh or svd that does not converge mid-iteration ends the
    # solve with its best iterate instead of raising; here the first
    # step-length eigvalsh of the third iteration (four per iteration)
    calls = []
    real = sdp._max_step

    def max_step(chol_inv, direction):
        calls.append(None)
        if len(calls) > 8:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(chol_inv, direction)

    monkeypatch.setattr(sdp, "_max_step", max_step)
    sol = sdp.solve(trace_one_problem())
    assert sol.status == "numerical_failure"
    assert sol.iterations == 3
    assert np.all(np.isfinite(sol.dual_vector))
    # the best iterate is projected onto the rows as usual
    assert abs(np.trace(sol.primal_blocks[0]) - 1.0) <= 1e-12


def test_entry_accumulation_and_validation():
    # repeated entries of the sparse rows accumulate, explicit zeros are
    # dropped, and the objective is mirrored from its upper triangle
    problem = sdp.SdpProblem(
        [np.array([[1.0, 0.5], [0.5 + 1e-14, 0.0]])],
        sp.coo_matrix(([0.5, 0.5, 0.0], ([0, 0, 0], [0, 0, 1])), shape=(1, 4)),
        [0.3],
        sp.coo_matrix(([1.0, 0.0, -1.0], ([0, 0, 0], [0, 1, 3])), shape=(1, 4)),
    )
    assert problem.shared.toarray().tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert problem.shared.nnz == 1
    assert problem.own.toarray().tolist() == [[1.0, 0.0, 0.0, -1.0]]
    assert problem.objective[0][1, 0] == 0.5
    one = [np.eye(2)]
    row = [vec(np.eye(2))]
    none = np.zeros((0, 4))
    with pytest.raises(ValueError, match=r"got shape \(1, 0, 0\)"):
        sdp.SdpProblem(np.zeros((1, 0, 0)), np.zeros((1, 0)), [1.0], np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"shared rows need 4 columns"):
        sdp.SdpProblem(one, np.ones((1, 5)), [1.0], none)
    with pytest.raises(ValueError, match=r"own rows need 4 columns"):
        sdp.SdpProblem(one, row, [1.0], np.zeros((0, 8)))
    with pytest.raises(ValueError, match="objective block 0: matrix is not symmetric"):
        sdp.SdpProblem([np.array([[0.0, 1.0], [0.0, 0.0]])], row, [1.0], none)
    with pytest.raises(ValueError, match="objective block 1: matrix is not symmetric"):
        sdp.SdpProblem([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]], row, [1.0], none)
    with pytest.raises(ValueError, match="own row 1 is not symmetric"):
        sdp.SdpProblem(
            one, row, [1.0], [vec(np.diag([1.0, -1.0])), [0.0, 1.0, 0.0, 0.0]]
        )
    with pytest.raises(ValueError, match="shared row 0 is not symmetric"):
        sdp.SdpProblem(one, [vec([[0.0, 1.0], [2.0, 0.0]])], [0.0], none)
    with pytest.raises(ValueError, match="objective block 0: non-finite"):
        sdp.SdpProblem([np.diag([1.0, np.inf])], row, [1.0], none)
    with pytest.raises(ValueError, match="shared rows: non-finite coefficient"):
        sdp.SdpProblem(one, [vec(np.diag([1.0, np.nan]))], [1.0], none)
    with pytest.raises(ValueError, match="own rows: non-finite coefficient"):
        sdp.SdpProblem(one, row, [1.0], [vec(np.diag([1.0, np.inf]))])
    with pytest.raises(ValueError, match="shared row 0: non-finite right-hand side"):
        sdp.SdpProblem(one, row, [np.nan], none)
    with pytest.raises(ValueError, match="expected 1 right-hand sides"):
        sdp.SdpProblem(one, row, [1.0, 2.0], none)


def test_rows_without_coefficients_rejected():
    # a row whose every coefficient is zero, stored or not, poses nothing,
    # and a problem needs a shared row to fix the scale of its blocks
    one = [np.eye(2)]
    row = [vec(np.eye(2))]
    none = np.zeros((0, 4))
    with pytest.raises(ValueError, match="shared row 1 has no coefficient"):
        sdp.SdpProblem(one, [vec(np.eye(2)), np.zeros(4)], [1.0, 0.0], none)
    with pytest.raises(ValueError, match="own row 0 has no coefficient"):
        sdp.SdpProblem(
            one, row, [1.0], sp.csr_matrix(([0.0], ([0], [1])), shape=(1, 4))
        )
    with pytest.raises(ValueError, match="at least one shared row"):
        sdp.SdpProblem(one, none, [], [vec(np.diag([1.0, -1.0]))])


@pytest.mark.parametrize("objective, shape", [
    ([np.eye(2), np.eye(1)], r"\[\(2, 2\), \(1, 1\)\]"),  # ragged
    (np.zeros((2, 2, 3)), r"\(2, 2, 3\)"),  # not square
    (np.eye(2), r"\(2, 2\)"),  # one block without its stack axis
])
def test_objective_must_be_one_stack(objective, shape):
    # blocks of different orders have no (k, n, n) stack
    with pytest.raises(ValueError, match=f"one \\(k, n, n\\) stack, got .*{shape}"):
        sdp.SdpProblem(objective, np.ones((1, 4)), [0.0], np.zeros((0, 4)))


def test_residual_report_on_solution():
    problem = trace_one_problem()
    sol = solve_ok(problem)
    x = sol.primal_blocks[0]
    c = problem.objective[0]
    (y,) = sol.dual_vector
    # tr X = 1, the dual slack y I - C is PSD, no duality gap, X is PSD
    assert abs(np.trace(x) - 1.0) < 1e-7
    assert np.linalg.eigvalsh(c - y * np.eye(2)).max() < 1e-6
    assert abs(sol.dual_objective - sol.primal_objective) < 1e-6
    assert np.linalg.eigvalsh(x).min() > -1e-8


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pinned_diagonal_value(n, seed):
    # fixing every diagonal entry pins <diag(c), X> to c . b exactly
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=n)
    b = rng.uniform(0.1, 1.0, size=n)
    problem = problem_of(
        [np.diag(c)], [vec(sym(n, (i, i, 1.0))) for i in range(n)], b
    )
    sol = solve_ok(problem)
    assert abs(sol.primal_objective - float(c @ b)) < 1e-6 * (1 + abs(float(c @ b)))


def _random_problem(rng, k, n, n_shared, n_own):
    # random symmetric shared and own rows over k blocks of order n; a zero
    # objective
    def rows(count):
        return [vec(a + a.T) for a in rng.normal(size=(count, n, n))]

    return problem_of(
        np.zeros((k, n, n)), rows(n_shared), rng.normal(size=n_shared),
        rows(n_own) if n_own else None,
    )


def _check_schur_against_dense(problem, pre, rng):
    # the rows in solver order, one n x n matrix per block: a shared row on
    # every block, normalized over its k copies, then each block's own rows
    k, n = problem.objective.shape[:2]
    shared = problem.shared.toarray().reshape(-1, n, n)
    own = problem.own.toarray().reshape(-1, n, n)
    norms = [np.linalg.norm(m) * math.sqrt(k) for m in shared]
    norms += [np.linalg.norm(m) for m in own] * k
    assert np.allclose(pre.row_scale, norms, rtol=1e-14, atol=0.0)
    a = [[m] * k for m in shared]
    a += [[m * (i == b) for i in range(k)] for b in range(k) for m in own]
    a = [[m / norm for m in row] for row, norm in zip(a, norms)]
    for _ in range(3):
        gfac = rng.normal(size=(k, n, n)) + n * np.eye(n)
        w = [g @ g.T for g in gfac]
        dense = np.array([
            [sum(np.sum(aj[b] * (w[b] @ ak[b] @ w[b])) for b in range(k)) for ak in a]
            for aj in a
        ])
        rhs = rng.normal(size=len(a))
        want = np.linalg.solve(dense, rhs)
        got = sdp._BlockSchur(pre, gfac).solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _check_block_schur(k, with_own):
    # order 4: the 8 rows a block meets stay independent in its 10 dimensions
    rng = np.random.default_rng(11)
    n_shared, n_own = 5, 3 if with_own else 0
    problem = _random_problem(rng, k, 4, n_shared, n_own)
    pre = sdp._Presolved(problem)
    assert (pre.k, pre.n, pre.n_shared, pre.n_own) == (k, 4, n_shared, n_own)
    assert pre.m == problem.n_constraints == n_shared + k * n_own
    schur = sdp._BlockSchur(pre, np.tile(np.eye(4), (k, 1, 1)))
    own_shapes = [d.shape for _, d, _ in schur.own]
    assert own_shapes == [(n_own, n_own)] * (k if with_own else 0)
    _check_schur_against_dense(problem, pre, rng)


@pytest.mark.parametrize("with_own", [True, False])
def test_block_schur_solve_matches_dense(with_own):
    # one block: shared rows only make one dense factor; with own rows it
    # has the shape of an operator-range bound
    _check_block_schur(1, with_own)


@pytest.mark.parametrize("with_own", [True, False])
def test_block_schur_stack_matches_dense(with_own):
    # four blocks: own rows in every block, as in NPA relaxations, or the
    # border alone
    _check_block_schur(4, with_own)


def test_block_schur_factors_column_major():
    # dtrtrs takes column-major factors; a row-major one is copied per call
    b = qstate.behavior(
        qstate.make_state(0.9, math.pi / 4), qstate.canonical_settings()
    )
    pre = sdp._Presolved(guessprob.build_primal(b, 2, 1, 3))
    rng = np.random.default_rng(5)
    gfac = rng.normal(size=(pre.k, pre.n, pre.n)) + pre.n * np.eye(pre.n)
    schur = sdp._BlockSchur(pre, gfac)
    assert len(schur.l_own) == pre.k and pre.n_shared > 1
    for l in [*schur.l_own, schur.l_border]:
        assert l.shape[0] > 1 and l.flags.f_contiguous


def test_one_schur_factorization_alive_at_a_time():
    # each factorization holds every block's D_b, L_b and E_b; building the
    # next while the last is still bound took the peak of this level-3 solve
    # from about 6.5 MB to 11 MB
    theta = math.pi / 6
    b = qstate.behavior(
        qstate.make_state(0.95, theta), qstate.chsh_optimal_settings(theta)
    )
    problem = guessprob.build_primal(b, 3, 1, 1)
    sdp.solve(problem)  # caches and lazy imports outside the measurement
    tracemalloc.start()
    try:
        sol = sdp.solve(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "optimal"
    assert peak < 8.5e6

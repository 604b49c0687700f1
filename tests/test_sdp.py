import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrand import guessprob, qstate, sdp


def vec(*blocks):
    """One constraint row over vec(X): the blocks raveled, in block order."""
    return np.concatenate([np.ravel(b) for b in blocks])


def sym(n, *entries):
    """Symmetric n x n matrix with value v at (i, j) and (j, i)."""
    m = np.zeros((n, n))
    for i, j, v in entries:
        m[i, j] = m[j, i] = v
    return m


def problem_of(objective, rows, rhs):
    rows = sp.csr_matrix(np.array(rows, ndmin=2))
    return sdp.SdpProblem(objective, rows, rhs)


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


def test_solve_without_border_rows_is_silent(capfd):
    # every row touches one block, so the border factor has order zero
    solve_ok(trace_one_problem())
    assert capfd.readouterr() == ("", "")


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


def _block_columns(problem):
    """The dense rows of ``problem.a`` split into one column range per block."""
    return np.split(problem.a.toarray(), len(problem.block_orders), axis=1)


def _permuted(problem, perm):
    """The same program with its blocks listed in the order ``perm``."""
    cols = _block_columns(problem)
    return problem_of(
        [problem.objective[i] for i in perm],
        np.hstack([cols[i] for i in perm]),
        problem.rhs,
    )


def _unique_optimum_problem(orders, seed):
    # tr X_i fixed for all but the last block, tr of the sum fixed by one
    # border row: each X_i is t_i v v^T for the top eigenvector v of C_i
    rng = np.random.default_rng(seed)
    obj = []
    for n in orders:
        a = rng.normal(size=(n, n))
        obj.append(a + a.T)
    rows = [
        vec(*(np.eye(n) * (j == i) for j, n in enumerate(orders)))
        for i in range(len(orders) - 1)
    ]
    rows.append(vec(*(np.eye(n) for n in orders)))
    rhs = [0.2 + 0.1 * i for i in range(len(orders) - 1)] + [1.0]
    return problem_of(obj, rows, rhs)


def test_block_permutation_invariance():
    obj = [np.diag([1.0, 0.0]), np.diag([0.0, 2.0])]
    cons = [
        ([np.eye(2), np.zeros((2, 2))], 1.0),
        ([np.zeros((2, 2)), np.eye(2)], 0.25),
    ]
    forward = problem_of(obj, [vec(*c) for c, _ in cons], [r for _, r in cons])
    swapped = problem_of(
        [obj[1], obj[0]],
        [vec(c[1], c[0]) for c, _ in cons],
        [r for _, r in cons],
    )
    a = solve_ok(forward)
    b = solve_ok(swapped)
    assert abs(a.primal_objective - b.primal_objective) < 1e-7
    assert np.allclose(a.primal_blocks[0], b.primal_blocks[1], atol=1e-6)
    assert np.allclose(a.primal_blocks[1], b.primal_blocks[0], atol=1e-6)
    # three blocks, two of them trading places, and all three reversed
    problem = _unique_optimum_problem((2, 2, 2), seed=5)
    a = solve_ok(problem)
    for perm in ((0, 2, 1), (2, 1, 0)):
        b = solve_ok(_permuted(problem, perm))
        assert abs(a.primal_objective - b.primal_objective) < 1e-7
        for sol in (a, b):
            assert isinstance(sol.primal_blocks, np.ndarray)
            assert sol.primal_blocks.shape == (3, 2, 2)
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


def test_all_zero_rows_rejected():
    problem = problem_of([np.array([[1.0]])], [[0.0]], [0.0])
    with pytest.raises(ValueError, match="independent"):
        sdp.solve(problem)


def test_all_zero_row_with_nonzero_rhs_is_infeasible():
    # 0 = 0.5 cannot hold: the presolve reports it before any iteration
    problem = problem_of([np.eye(2)], [vec(np.eye(2)), np.zeros(4)], [1.0, 0.5])
    sol = sdp.solve(problem)
    assert sol.status == "infeasible"
    assert sol.removed_rows == (1,)
    assert sol.iterations == 0


def test_entry_accumulation_and_validation():
    # repeated entries of the sparse rows accumulate, explicit zeros are
    # dropped, and the objective is mirrored from its upper triangle
    problem = sdp.SdpProblem(
        [np.array([[1.0, 0.5], [0.5 + 1e-14, 0.0]])],
        sp.coo_matrix(([0.5, 0.5, 0.0], ([0, 0, 0], [0, 0, 1])), shape=(1, 4)),
        [0.3],
    )
    assert problem.a.toarray().tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert problem.a.nnz == 1
    assert problem.objective[0][1, 0] == 0.5
    one = [np.eye(2)]
    row = sp.csr_matrix(vec(np.eye(2)))
    with pytest.raises(ValueError, match=r"got shape \(1, 0, 0\)"):
        sdp.SdpProblem(np.zeros((1, 0, 0)), sp.csr_matrix((0, 0)), [])
    with pytest.raises(ValueError, match="needs 4 columns"):
        sdp.SdpProblem(one, sp.csr_matrix(np.ones((1, 5))), [1.0])
    with pytest.raises(TypeError, match="sparse"):
        sdp.SdpProblem(one, vec(np.eye(2))[None, :], [1.0])
    with pytest.raises(ValueError, match="objective block 0: matrix is not symmetric"):
        sdp.SdpProblem([np.array([[0.0, 1.0], [0.0, 0.0]])], row, [1.0])
    with pytest.raises(ValueError, match="objective block 1: matrix is not symmetric"):
        sdp.SdpProblem(
            [np.eye(2), [[0.0, 1.0], [0.0, 0.0]]],
            sp.csr_matrix(vec(np.eye(2), np.eye(2))), [1.0],
        )
    with pytest.raises(ValueError, match="constraint 1 is not symmetric in block 1"):
        sdp.SdpProblem(
            [np.eye(2), np.eye(2)],
            sp.csr_matrix([
                vec(np.eye(2), np.eye(2)),
                vec(np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]),
            ]),
            [1.0, 0.0],
        )
    with pytest.raises(ValueError, match="constraint 0 is not symmetric in block 0"):
        sdp.SdpProblem(one, sp.csr_matrix(vec([[0.0, 1.0], [2.0, 0.0]])), [0.0])
    with pytest.raises(ValueError, match="objective block 0: non-finite"):
        sdp.SdpProblem([np.diag([1.0, np.inf])], row, [1.0])
    with pytest.raises(ValueError, match="constraint matrix: non-finite"):
        sdp.SdpProblem(one, sp.csr_matrix(vec(np.diag([1.0, np.nan]))), [1.0])
    with pytest.raises(ValueError, match="constraint 0: non-finite right-hand side"):
        sdp.SdpProblem(one, row, [np.nan])
    with pytest.raises(ValueError, match="expected 1 right-hand sides"):
        sdp.SdpProblem(one, row, [1.0, 2.0])


@pytest.mark.parametrize("objective, shape", [
    ([np.eye(2), np.eye(1)], r"\[\(2, 2\), \(1, 1\)\]"),  # ragged
    (np.zeros((2, 2, 3)), r"\(2, 2, 3\)"),  # not square
    (np.eye(2), r"\(2, 2\)"),  # one block without its stack axis
])
def test_objective_must_be_one_stack(objective, shape):
    # blocks of different orders have no (k, n, n) stack
    with pytest.raises(ValueError, match=f"one \\(k, n, n\\) stack, got .*{shape}"):
        sdp.SdpProblem(objective, sp.csr_matrix((1, 4)), [0.0])


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


def _random_problem(rng, orders, touched):
    # one random symmetric row per entry of ``touched``, nonzero in the
    # blocks it lists; a zero objective
    rows, rhs = [], []
    for blocks in touched:
        mats = [np.zeros((n, n)) for n in orders]
        for i in blocks:
            a = rng.normal(size=(orders[i], orders[i]))
            mats[i] = a + a.T
        rows.append(vec(*mats))
        rhs.append(float(rng.normal()))
    return problem_of([np.zeros((n, n)) for n in orders], rows, rhs)


def _check_schur_against_dense(problem, pre, rng):
    orders = problem.block_orders
    cols = _block_columns(problem)
    a = [
        [cols[b][j].reshape(n, n) / pre.row_scale[j] for b, n in enumerate(orders)]
        for j in pre.kept
    ]
    for _ in range(3):
        gfac = rng.normal(size=(pre.k, pre.n, pre.n)) + pre.n * np.eye(pre.n)
        w = [g @ g.T for g in gfac]
        dense = np.array([
            [sum(np.sum(a[j][b] * (w[b] @ a[k][b] @ w[b])) for b in range(len(orders)))
             for k in range(len(a))]
            for j in range(len(a))
        ])
        rhs = rng.normal(size=len(a))
        want = np.linalg.solve(dense, rhs)
        got = sdp._BlockSchur(pre, gfac).solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _own_sizes(pre):
    return [rows.size for rows, _ in pre.own]


@pytest.mark.parametrize("with_border", [True, False])
def test_block_schur_solve_matches_dense(with_border):
    # three blocks, each with its own products: own rows in blocks 0 and 1,
    # block 2 has none unless the border is empty
    rng = np.random.default_rng(7)
    orders = (3, 3, 3)
    touched = [(0,), (0,), (0,), (1,), (1,)]
    if with_border:
        touched += [(0, 1), (1, 2), (0, 1, 2)]
    else:
        touched += [(2,)]
    problem = _random_problem(rng, orders, touched)
    pre = sdp._Presolved(problem)
    assert len(pre.kept) == len(touched)
    assert (pre.k, pre.n, len(pre.bord)) == (3, 3, 3)
    assert _own_sizes(pre) == [3, 2, 0 if with_border else 1]
    assert pre.border.size == (3 if with_border else 0)
    _check_schur_against_dense(problem, pre, rng)


@pytest.mark.parametrize("with_own", [True, False])
def test_block_schur_stack_matches_dense(with_own):
    # four blocks of order 3, with border rows and, as in NPA relaxations,
    # own rows in every block; or border rows alone
    rng = np.random.default_rng(11)
    orders = (3, 3, 3, 3)
    own = [(0,), (0,), (1,), (2,), (2,), (2,), (3,)] if with_own else []
    border = [(0, 1, 2, 3), (0, 1, 2, 3), (1, 3), (0, 2), (0, 1, 2, 3)]
    problem = _random_problem(rng, orders, own + border)
    pre = sdp._Presolved(problem)
    assert (pre.k, pre.n, len(pre.bord)) == (4, 3, 4)
    assert _own_sizes(pre) == ([2, 1, 3, 1] if with_own else [0, 0, 0, 0])
    assert pre.border.size == len(border)
    _check_schur_against_dense(problem, pre, rng)


def test_block_schur_factors_column_major():
    # dtrtrs takes column-major factors; a row-major one is copied per call
    b = qstate.behavior(
        qstate.make_state(0.9, math.pi / 4), qstate.canonical_settings()
    )
    pre = sdp._Presolved(guessprob.build_primal(b, 2, 1, 3))
    rng = np.random.default_rng(5)
    gfac = rng.normal(size=(pre.k, pre.n, pre.n)) + pre.n * np.eye(pre.n)
    schur = sdp._BlockSchur(pre, gfac)
    assert len(schur.l_own) == pre.k and schur.border.size > 1
    for l in [*schur.l_own, schur.l_border]:
        assert l.shape[0] > 1 and l.flags.f_contiguous

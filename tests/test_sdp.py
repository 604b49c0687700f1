import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrand import sdp


def solve_ok(problem, **kw):
    sol = sdp.solve(problem, sdp.SolveOptions(**kw) if kw else None)
    assert sol.status == "optimal"
    return sol


def trace_one_problem():
    # maximize <diag(1,0), X> subject to tr X = 1, X >= 0
    return sdp.SdpProblem(
        block_orders=(2,),
        objective=[np.diag([1.0, 0.0])],
        constraints=[(([np.eye(2)]), 1.0)],
    )


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
    problem = sdp.SdpProblem(
        block_orders=(1,),
        objective=[np.array([[1.0]])],
        constraints=[([np.array([[1.0]])], 0.3)],
    )
    sol = solve_ok(problem)
    assert abs(sol.primal_objective - 0.3) < 1e-7
    assert abs(sol.dual_vector[0] - 1.0) < 1e-6


def test_offdiagonal_objective():
    # maximize X01 + X10 with unit diagonal halves; optimum at rank one
    problem = sdp.SdpProblem(
        block_orders=(2,),
        objective=[[(0, 1, 1.0)]],
        constraints=[
            ([[(0, 0, 1.0)]], 0.5),
            ([[(1, 1, 1.0)]], 0.5),
        ],
    )
    sol = solve_ok(problem)
    assert abs(sol.primal_objective - 1.0) < 1e-7
    assert np.allclose(sol.dual_vector, [1.0, 1.0], atol=1e-6)
    assert np.allclose(sol.primal_blocks[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-6)


def test_row_rescaling_rescales_dual():
    base = sdp.SdpProblem(
        block_orders=(1,),
        objective=[np.array([[1.0]])],
        constraints=[([np.array([[1.0]])], 0.3)],
    )
    scaled = sdp.SdpProblem(
        block_orders=(1,),
        objective=[np.array([[1.0]])],
        constraints=[([np.array([[10.0]])], 3.0)],
    )
    a = solve_ok(base)
    b = solve_ok(scaled)
    assert abs(a.primal_objective - b.primal_objective) < 1e-7
    assert abs(b.dual_vector[0] - a.dual_vector[0] / 10.0) < 1e-7


def _permuted(problem, perm):
    """The same program with its blocks listed in the order ``perm``."""
    objective = problem.objective_dense()
    return sdp.SdpProblem(
        [problem.block_orders[i] for i in perm],
        [objective[i] for i in perm],
        [
            ([sdp._entries_dense(mats[i], problem.block_orders[i]) for i in perm], rhs)
            for mats, rhs in problem.constraints
        ],
    )


def _unique_optimum_problem(orders, seed):
    # tr X_i fixed for all but the last block, tr of the sum fixed by one
    # border row: each X_i is t_i v v^T for the top eigenvector v of C_i
    rng = np.random.default_rng(seed)
    obj = []
    for n in orders:
        a = rng.normal(size=(n, n))
        obj.append(a + a.T)
    cons = [
        ([np.eye(n) if j == i else None for j, n in enumerate(orders)], 0.2 + 0.1 * i)
        for i in range(len(orders) - 1)
    ]
    cons.append(([np.eye(n) for n in orders], 1.0))
    return sdp.SdpProblem(orders, obj, cons)


def test_block_permutation_invariance():
    obj = [np.diag([1.0, 0.0]), np.array([[2.0]])]
    cons = [
        ([np.eye(2), None], 1.0),
        ([None, np.array([[1.0]])], 0.25),
    ]
    forward = sdp.SdpProblem((2, 1), obj, cons)
    swapped = sdp.SdpProblem(
        (1, 2),
        [obj[1], obj[0]],
        [([c[1], c[0]], rhs) for c, rhs in cons],
    )
    a = solve_ok(forward)
    b = solve_ok(swapped)
    assert abs(a.primal_objective - b.primal_objective) < 1e-7
    assert np.allclose(a.primal_blocks[0], b.primal_blocks[1], atol=1e-6)
    assert np.allclose(a.primal_blocks[1], b.primal_blocks[0], atol=1e-6)
    # equal orders that are not adjacent (three groups against two), and a
    # group of two whose blocks trade places
    for orders, perm in (((2, 1, 2), (0, 2, 1)), ((2, 2, 1), (2, 1, 0))):
        problem = _unique_optimum_problem(orders, seed=sum(orders))
        a = solve_ok(problem)
        b = solve_ok(_permuted(problem, perm))
        assert abs(a.primal_objective - b.primal_objective) < 1e-7
        for sol, order in ((a, orders), (b, [orders[i] for i in perm])):
            assert isinstance(sol.primal_blocks, tuple)
            assert [x.shape for x in sol.primal_blocks] == [(n, n) for n in order]
        for k, i in enumerate(perm):
            assert np.allclose(a.primal_blocks[i], b.primal_blocks[k], atol=1e-6)


def test_negative_diagonal_is_infeasible():
    # X >= 0 scalar cannot equal -1
    problem = sdp.SdpProblem(
        block_orders=(1,),
        objective=[np.array([[1.0]])],
        constraints=[([np.array([[1.0]])], -1.0)],
    )
    sol = sdp.solve(problem)
    assert sol.status == "infeasible"


def test_iteration_cap_reported():
    sol = sdp.solve(trace_one_problem(), sdp.SolveOptions(max_iterations=1))
    assert sol.status != "optimal"
    assert sol.iterations == 1
    # the returned primal is projected onto the rows even this far out
    assert abs(np.trace(sol.primal_blocks[0]) - 1.0) <= 1e-12


def test_all_zero_rows_rejected():
    problem = sdp.SdpProblem(
        block_orders=(1,),
        objective=[np.array([[1.0]])],
        constraints=[([None], 0.0)],
    )
    with pytest.raises(ValueError, match="independent"):
        sdp.solve(problem)


def test_entry_accumulation_and_validation():
    # repeated triples accumulate; out-of-range and asymmetric inputs fail
    problem = sdp.SdpProblem(
        block_orders=(1,),
        objective=[[(0, 0, 0.5), (0, 0, 0.5)]],
        constraints=[([[(0, 0, 1.0)]], 0.3)],
    )
    assert problem.objective_dense()[0][0, 0] == 1.0
    with pytest.raises(ValueError, match="outside"):
        sdp.SdpProblem((1,), [[(0, 1, 1.0)]], [([None], 0.0)])
    with pytest.raises(ValueError, match="symmetric"):
        sdp.SdpProblem((2,), [np.array([[0.0, 1.0], [0.0, 0.0]])], [])
    with pytest.raises(ValueError, match="bad block orders"):
        sdp.SdpProblem((0,), [None], [])


def test_residual_report_on_solution():
    problem = trace_one_problem()
    sol = solve_ok(problem)
    x = sol.primal_blocks[0]
    c = problem.objective_dense()[0]
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
    problem = sdp.SdpProblem(
        block_orders=(n,),
        objective=[np.diag(c)],
        constraints=[([[(i, i, 1.0)]], b[i]) for i in range(n)],
    )
    sol = solve_ok(problem)
    assert abs(sol.primal_objective - float(c @ b)) < 1e-6 * (1 + abs(float(c @ b)))


def _random_row(rng, orders, blocks):
    mats = [None] * len(orders)
    for i in blocks:
        a = rng.normal(size=(orders[i], orders[i]))
        mats[i] = a + a.T
    return mats, float(rng.normal())


def _check_schur_against_dense(problem, pre, rng):
    orders = problem.block_orders
    a = [
        [sdp._entries_dense(e, n) / pre.row_scale[j]
         for e, n in zip(problem.constraints[j][0], orders)]
        for j in pre.kept
    ]
    for _ in range(3):
        gfac = [
            rng.normal(size=(g.k, g.n, g.n)) + g.n * np.eye(g.n) for g in pre.groups
        ]
        w = [g @ g.T for stack in gfac for g in stack]
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
    return [rows.size for g in pre.groups for rows, _ in g.own]


@pytest.mark.parametrize("with_border", [True, False])
def test_block_schur_solve_matches_dense(with_border):
    # orders (3, 2, 1) are three singleton groups; own rows in blocks 0 and
    # 1, block 2 has none unless the border is empty
    rng = np.random.default_rng(7)
    orders = (3, 2, 1)
    touched = [(0,), (0,), (0,), (1,), (1,)]
    if with_border:
        touched += [(0, 1), (1, 2), (0, 1, 2)]
    else:
        touched += [(2,)]
    problem = sdp.SdpProblem(
        orders, [None] * 3, [_random_row(rng, orders, t) for t in touched]
    )
    pre = sdp._Presolved(problem)
    assert len(pre.kept) == len(touched)
    assert [(g.k, g.n) for g in pre.groups] == [(1, 3), (1, 2), (1, 1)]
    assert _own_sizes(pre) == [3, 2, 0 if with_border else 1]
    assert pre.border.size == (3 if with_border else 0)
    _check_schur_against_dense(problem, pre, rng)


@pytest.mark.parametrize("with_own", [True, False])
def test_block_schur_stack_matches_dense(with_own):
    # one group of four blocks of order 3, with border rows and, as in NPA
    # relaxations, own rows in every block; or, as in the tomographic
    # program, border rows alone
    rng = np.random.default_rng(11)
    orders = (3, 3, 3, 3)
    own = [(0,), (0,), (1,), (2,), (2,), (2,), (3,)] if with_own else []
    border = [(0, 1, 2, 3), (0, 1, 2, 3), (1, 3), (0, 2), (0, 1, 2, 3)]
    problem = sdp.SdpProblem(
        orders, [None] * 4, [_random_row(rng, orders, t) for t in own + border]
    )
    pre = sdp._Presolved(problem)
    assert [(g.k, g.n) for g in pre.groups] == [(4, 3)]
    assert _own_sizes(pre) == ([2, 1, 3, 1] if with_own else [0, 0, 0, 0])
    assert pre.border.size == len(border)
    _check_schur_against_dense(problem, pre, rng)

"""Relaxed guessing-probability programs and their dual Bell expressions.

Eve's guessing probability for the generation pair (x*, y*) is bounded by

    G = max  sum_ab  p~_ab(a, b | x*, y*)
        s.t. sum_ab p~_ab = p,   each p~_ab in the level-l relaxed cone,

where the unnormalized sub-behaviors p~_ab are represented by moment-matrix
blocks, one per outcome pair. The matching sum_ab p~_ab = p is posed as
the (1+mx)(1+my) linearly independent Collins-Gisin rows M p, and signalling
or unnormalized behaviors are rejected before any solve. The dual
multipliers y of these rows form a Bell expression f = M^T y with
f.p' >= G[p'] for every quantum behavior p'; that certificate is what this
module reports.

The reported G is the certificate value b.y plus an exactly-measured dual
feasibility repair term, so it upper-bounds the relaxation optimum (the safe
direction for randomness bounds) even when the interior-point iteration
terminates early. Extremal inputs (pure states, maximal Bell values) make
the primal lose its interior, so the raw solver statuses are mapped to a
certificate-health status here. Every bound, and each end of an
operator's range, is solved and certified in one place, _dual_bound. Only
a certificate calls a solved instance infeasible: a Farkas ray of the
returned dual, or, for a Bell value, the operator's certified range; the
solver itself reports just how its iteration ended. Attack weights are
read off the solver's primal, which it returns projected onto the matching
rows; an infeasible instance gets NaN weights instead.

Two variants share the machinery: full statistics (match the behavior's
Collins-Gisin coordinates) and Bell-value constrained (match only the
values of given Bell operators plus normalization).

Neither variant solves an instance that a local behavior reaches. Eve then
holds a deterministic strategy and guesses perfectly, so G = 1 exactly,
certified by f = 0 with offset 1. Full statistics decides locality exactly
where one side has at most two inputs, by the CHSH facets (Fine; Collins &
Gisin); a single Bell value is reached when it lies between the
operator's extremes over deterministic strategies. G = 1 bounds every
behavior, so a wrong locality decision could only lose randomness.

A third, tomographic, bounds Eve by the state itself: PSD blocks rho~_ab
summing to rho, scored by <rho~_ab, pi_a x pi_b>. It needs no
interior-point solve. Each pi_a x pi_b projects onto a product unit vector
e_ab, and rho~_ab = sqrt(rho) M_ab sqrt(rho) makes the program minimum-error
discrimination of v_ab = sqrt(rho) e_ab over POVMs M_ab. An orthonormal
basis m_ab gives the primal value sum_ab (m_ab.v_ab)^2, and any Y with
Y + defect*I >= v_ab v_ab^T for every ab certifies G <= tr Y + 4*defect.
A Newton ascent over orthonormal bases makes the two meet. For a pure
state rho = lambda |psi><psi| the blocks are weights on a simplex, and the
optimum lambda * max_ab (psi.e_ab)^2 is returned exactly.

Only the relaxations use scipy, through scipy.sparse for their moment
layouts. As in ``sdp``, the bare ``scipy`` package is imported and
scipy.sparse is reached as its attribute where a layout is built, so scipy
loads it at the first relaxation posed. The tomographic program and every
instance decided without a solve (signalling, local or inconsistent
values) never load it; the bare import keeps scipy in ``sys.modules``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy

from . import npa, qstate
from .qstate import Behavior, DensityMatrix, components
from .sdp import SdpProblem, solve

# block order: that of the outcome axes of qstate.table
OUTCOME_PAIRS = tuple(itertools.product(qstate.OUTCOMES, repeat=2))

_QLAB = {(-1, -1): "q(--)", (-1, 1): "q(-+)", (1, -1): "q(+-)", (1, 1): "q(++)"}

# a certificate is considered clean when the dual slack defect and the
# primal matching residual are below these, and primal/dual values agree
# to the coarse level expected on boundary instances
_CERT_DEFECT_TOL = 1e-8
_CERT_MATCH_TOL = 1e-5
_CERT_GAP_TOL = 1e-3
# stopping rule of the tomographic ascent (see _discriminate)
_ASCENT_GAP_TOL = 1e-8
_ASCENT_MAX_STEPS = 200


@dataclass(frozen=True)
class BellExpression:
    """Linear functional coeffs.p + offset over behavior components."""

    mx: int
    my: int
    xstar: int
    ystar: int
    coeffs: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4 * self.mx * self.my,):
            raise ValueError(
                f"expected {4 * self.mx * self.my} coefficients, got {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def table(self) -> np.ndarray:
        """The coefficients as the read-only view ``qstate.table``."""
        return qstate.table(self.coeffs, self.mx, self.my)

    def value(self, b: Behavior) -> float:
        if (b.mx, b.my) != (self.mx, self.my):
            raise ValueError("scenario mismatch")
        return float(self.coeffs @ b.probs) + self.offset


@dataclass(frozen=True)
class GuessReport:
    guessing_probability: float
    hmin: float
    level: int
    xstar: int
    ystar: int
    status: str
    attack_weights: dict[tuple[int, int], float]
    bell_expression: BellExpression | None
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float
    certificate_defect: float


def _hmin(g: float) -> float:
    if not math.isfinite(g):
        return math.nan
    return -math.log2(min(max(g, 0.25), 1.0)) + 0.0


def _clean_weights(raw: dict[tuple[int, int], float]) -> dict[tuple[int, int], float]:
    return {k: (0.0 if abs(v) < 1e-9 else v) for k, v in raw.items()}


class _Layout(NamedTuple):
    structure: npa.MomentStructure
    cg: scipy.sparse.csr_matrix  # reads each Collins-Gisin moment off a block
    to_cg: np.ndarray  # M, behavior -> Collins-Gisin coordinates
    from_cg: np.ndarray  # R, with R M p = p on no-signaling behaviors p
    structural: scipy.sparse.csr_matrix  # equalities tying duplicate moment entries


def _reader(n: int, i, j) -> scipy.sparse.csr_matrix:
    """Rows over the row-major vectorization of a symmetric n x n block,
    row k reading the entry (i[k], j[k]): 1/2 at (i, j) and 1/2 at (j, i)."""
    rows, cols = np.tile(np.arange(len(i)), 2), np.concatenate([i * n + j, j * n + i])
    return scipy.sparse.csr_matrix(
        (np.full(cols.size, 0.5), (rows, cols)), shape=(len(i), n * n)
    )


def _collins_gisin(mx: int, my: int):
    """Collins-Gisin moment words (identity, A_x, B_y, A_x B_y), the matrix
    M that reads their values off a flat behavior (the normalization and the
    +1 marginals averaged over the other party's inputs, and p(+,+|x,y)),
    and the map R back to components:
      p(+,+) = <AB>           p(+,-) = <A> - <AB>
      p(-,+) = <B> - <AB>     p(-,-) = 1 - <A> - <B> + <AB>."""
    xs, ys = range(1, mx + 1), range(1, my + 1)
    words = [npa.IDENTITY, *(((0, x),) for x in xs), *(((1, y),) for y in ys)]
    words += [((0, x), (1, y)) for x in xs for y in ys]
    # M^T and R as tables over the components, one column per word
    mt, r = (np.zeros((4 * mx * my, len(words))) for _ in range(2))
    m_of, r_of = qstate.table(mt, mx, my), qstate.table(r, mx, my)
    sign = np.array(qstate.OUTCOMES, dtype=float)
    m_of[..., 0], r_of[0, 0, ..., 0] = 1.0 / (mx * my), 1.0
    for x, y in itertools.product(range(mx), range(my)):
        ax, by, axby = 1 + x, 1 + mx + y, 1 + mx + my + x * my + y
        m_of[1, :, x, :, ax], r_of[:, 0, x, :, ax] = 1.0 / my, sign[:, None]
        m_of[:, 1, :, y, by], r_of[0, :, :, y, by] = 1.0 / mx, sign[:, None]
        m_of[1, 1, x, y, axby], r_of[:, :, x, y, axby] = 1.0, np.outer(sign, sign)
    m = np.ascontiguousarray(mt.T)
    m.setflags(write=False)
    r.setflags(write=False)
    return tuple(words), m, r


@lru_cache(maxsize=32)
def _moment_layout(level: int, mx: int, my: int) -> _Layout:
    structure = npa.moment_structure(npa.monomials(level, mx, my))
    words, to_cg, from_cg = _collins_gisin(mx, my)
    mids = [structure.moment_of(w) for w in words]
    # Collins-Gisin moments are read at their representative entries, and
    # every other upper-triangle entry equals its moment's representative:
    # one structural row per such entry, by moment, then row-major
    n = structure.dim
    rep_i, rep_j = np.array(structure.representative).T
    cg = _reader(n, rep_i[mids], rep_j[mids])
    iu, ju = np.triu_indices(n)
    mid = structure.entry_to_moment[iu, ju]
    later = np.argsort(mid, kind="stable")
    later = later[(iu[later] != rep_i[mid[later]]) | (ju[later] != rep_j[mid[later]])]
    structural = (
        _reader(n, rep_i[mid[later]], rep_j[mid[later]])
        - _reader(n, iu[later], ju[later])
    )
    return _Layout(structure, cg, to_cg, from_cg, structural)


def _npa_problem(layout: _Layout, shared, rhs, objective) -> SdpProblem:
    """NPA relaxation with one moment block per row of ``objective``: the
    ``shared`` rows are posed on the sum of the blocks with right-hand sides
    ``rhs``, and the structural equalities on each block. ``shared`` and
    ``objective`` are in Collins-Gisin coordinates."""
    n = layout.structure.dim
    return SdpProblem(
        objective=[(c @ layout.cg).reshape(n, n) for c in objective],
        shared=shared @ layout.cg,
        rhs=rhs,
        own=layout.structural,
    )


def _block_objective(layout: _Layout, mx: int, my: int, xstar: int, ystar: int):
    # block ab guesses p(a,b|x*,y*), in Collins-Gisin coordinates
    guessed = qstate.table(layout.from_cg, mx, my)[:, :, xstar - 1, ystar - 1]
    return guessed.reshape(len(OUTCOME_PAIRS), -1)


def _check_generation(mx: int, my: int, xstar: int, ystar: int):
    if not (1 <= xstar <= mx and 1 <= ystar <= my):
        raise ValueError(
            f"generation setting ({xstar},{ystar}) outside scenario ({mx},{my})"
        )


def build_primal(b: Behavior, level: int, xstar: int, ystar: int) -> SdpProblem:
    """Full-statistics program: one behavior-matching row per Collins-Gisin
    moment, anchored at its representative entry and shared by the blocks,
    with right-hand side M p; the structural moment equalities are every
    block's own rows."""
    _check_generation(b.mx, b.my, xstar, ystar)
    layout = _moment_layout(level, b.mx, b.my)
    return _npa_problem(
        layout, np.eye(len(layout.to_cg)), layout.to_cg @ b.probs,
        _block_objective(layout, b.mx, b.my, xstar, ystar),
    )


def _dual_combination(problem: SdpProblem, y: np.ndarray) -> np.ndarray:
    """The (k, n, n) stack A*(y) = sum_j y_j A_j, each entry summed in row
    order in one pass over the entries of the unnormalized problem: the
    shared rows, then the block's own rows."""
    sh, own = problem.shared.tocoo(), problem.own.tocoo()
    k, n = problem.objective.shape[:2]
    col = np.concatenate([sh.col, own.col])
    shared = y[sh.row] * sh.data
    return np.stack([
        np.bincount(col, weights=np.concatenate([shared, y_b[own.row] * own.data]),
                    minlength=n * n)
        for y_b in y[sh.shape[0]:].reshape(k, -1)
    ]).reshape(k, n, n)


def _dual_bound(problem: SdpProblem):
    """Solve ``problem`` and read its dual certificate off the returned y:
    z = A*(y), the defect max(0, -lambda_min(z - C)) over the blocks, and
    the bound b.y + defect*trace_cap, with trace_cap the sum of the block
    orders. Any y gives G <= that bound, since A*(y) + defect*I - C >= 0
    and the diagonal moments, each at most one, keep the trace of a
    feasible point at most trace_cap. Returns the solution, z, the defect,
    trace_cap and the bound, unclipped."""
    sol = solve(problem)
    z = _dual_combination(problem, sol.dual_vector)
    defect = max(0.0, -float(np.linalg.eigvalsh(z - problem.objective).min()))
    trace_cap = float(sum(problem.block_orders))
    return sol, z, defect, trace_cap, sol.dual_objective + defect * trace_cap


@lru_cache(maxsize=32)
def _operator_range(op: bytes, level: int, mx: int, my: int):
    """Certified enclosure of one Bell operator, given as the bytes of its
    float64 Collins-Gisin coordinates, over the level-l moment set: each
    end is the bound of a single normalized moment block (see _dual_bound).
    Cached, since a sweep bounds the same operator at every point."""
    op = np.frombuffer(op)
    layout = _moment_layout(level, mx, my)
    hi, lo = (
        sign * _dual_bound(
            _npa_problem(layout, np.eye(1, len(op)), [1.0], [sign * op])
        )[-1]
        for sign in (1.0, -1.0)
    )
    return lo, hi


def _certified(problem: SdpProblem):
    """Solve ``problem`` and certify its guessing probability (see
    _dual_bound): the solution, the certified value, the defect and the
    certificate-health status. A solved instance is called infeasible by
    one of two certificates: here, by a Farkas ray of the returned dual,
    and, for a Bell value, by the operator's certified range (see
    bell_constrained_bound).

    A solve that did not end optimal is first tested for a Farkas ray of
    primal infeasibility: with yhat = y/|y|, any feasible X satisfies
    b.yhat = <A*(yhat), X> >= lambda_min tr X, so A*(yhat) >= -eps together
    with b.yhat well below -eps*trace_cap rules every feasible point out.
    """
    sol, z, defect, trace_cap, gcert = _dual_bound(problem)
    y = sol.dual_vector
    norm = float(np.linalg.norm(y))
    if sol.status != "optimal" and 0.0 < norm < math.inf:
        eps = max(0.0, -float(np.linalg.eigvalsh(z).min())) / norm
        gain = float(problem.rhs @ y[:problem.rhs.size]) / norm
        if gain < -(10.0 * eps * trace_cap + 1e-7):
            return sol, math.nan, math.inf, "infeasible"
    # the feasible set pins the optimum inside [1/4, 1] (guessed components
    # are bounded by the identity moments, which sum to one), so clipping
    # keeps the certificate a valid upper bound
    gcert = min(max(gcert, 0.25), 1.0)
    healthy = (
        defect <= _CERT_DEFECT_TOL
        and sol.primal_residual <= _CERT_MATCH_TOL
        and abs(sol.primal_objective - sol.dual_objective)
        <= _CERT_GAP_TOL * (1.0 + abs(sol.dual_objective))
    )
    status = "optimal" if (sol.status == "optimal" or healthy) else sol.status
    return sol, gcert, defect, status


def _report(sol, g, defect, status, level, scenario, coeffs, base):
    """Report of a solved instance in ``scenario`` = (mx, my, x*, y*). Its
    Bell expression is coeffs.p + base, lifted by the repair g - b.y. An
    infeasible one has no expression and reads no attack weights off its
    primal, which then matches no behavior."""
    mx, my, xstar, ystar = scenario
    weights = dict.fromkeys(OUTCOME_PAIRS, math.nan)
    if status != "infeasible":
        weights = dict(zip(OUTCOME_PAIRS, sol.primal_blocks[:, 0, 0].tolist()))
    expr = None
    if math.isfinite(g):
        offset = base + (g - sol.dual_objective)
        expr = BellExpression(mx, my, xstar, ystar, coeffs, offset)
    return GuessReport(
        guessing_probability=g,
        hmin=_hmin(g),
        level=level,
        xstar=xstar,
        ystar=ystar,
        status=status,
        attack_weights=_clean_weights(weights),
        bell_expression=expr,
        iterations=sol.iterations,
        gap=sol.gap,
        primal_residual=sol.primal_residual,
        dual_residual=sol.dual_residual,
        certificate_defect=defect,
    )


def _has_local_model(b: Behavior) -> bool:
    """Whether b passes the complete local-polytope test for a scenario with
    at most two inputs on one side: nonnegative entries, every (x, y)
    normalization within qstate.NORMALIZATION_TOL of one, and every CHSH
    facet |E11 + E12 + E21 + E22 - 2 E_k| <= 2 over each pair of Alice
    inputs and each pair of Bob inputs (Fine, PRL 48, 291, 1982; Collins &
    Gisin, J. Phys. A 37, 1775, 2004). Larger scenarios have other facets
    (I3322 on 3x3) and always answer False."""
    if min(b.mx, b.my) > 2 or b.probs.min() < 0.0:
        return False
    p = b.table
    if np.abs(p.sum(axis=(0, 1)) - 1.0).max() > qstate.NORMALIZATION_TOL:
        return False
    e = p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]
    for xs in itertools.combinations(range(b.mx), 2):
        for ys in itertools.combinations(range(b.my), 2):
            corr = e[np.ix_(xs, ys)]
            if np.abs(corr.sum() - 2.0 * corr).max() > 2.0:
                return False
    return True


def _local_extremes(coeffs: np.ndarray, mx: int, my: int, xstar: int, ystar: int):
    """The minimum and the maximum of coeffs.p over deterministic
    strategies, each with the outcome pair (a, b) that a minimizing or
    maximizing strategy gives at (x*, y*). Every Alice strategy is paired
    with Bob's best response, chosen input by input, so the search covers
    all 2^(mx+my) strategies."""
    c = qstate.table(coeffs, mx, my)
    alice = np.array(list(itertools.product((0, 1), repeat=mx)))
    # g[s, b, y]: Bob's coefficients against Alice's strategy s
    g = c[alice, :, np.arange(mx)].sum(axis=1)
    out = []
    for pick, arg in ((np.min, np.argmin), (np.max, np.argmax)):
        totals = pick(g, axis=1).sum(axis=1)
        s = int(arg(totals))
        bob = int(arg(g[s, :, ystar - 1]))
        out.append((float(totals[s]), (2 * int(alice[s, xstar - 1]) - 1, 2 * bob - 1)))
    return out


def _local_report(mx, my, level, xstar, ystar, weights) -> GuessReport:
    """Exact report for an instance that a local behavior reaches: Eve holds
    the deterministic strategy and guesses perfectly, so G = 1, with
    ``weights`` the probabilities of her guesses. f = 0 with offset 1 is a
    valid certificate on every behavior, so nothing is solved."""
    return GuessReport(
        guessing_probability=1.0, hmin=_hmin(1.0), level=level, xstar=xstar,
        ystar=ystar, status="optimal", attack_weights=_clean_weights(weights),
        bell_expression=BellExpression(
            mx=mx, my=my, xstar=xstar, ystar=ystar,
            coeffs=np.zeros(4 * mx * my), offset=1.0,
        ),
        iterations=0, gap=0.0, primal_residual=0.0, dual_residual=0.0,
        certificate_defect=0.0,
    )


def _rejected(level: int, xstar: int, ystar: int) -> GuessReport:
    """Report for an instance found infeasible before any solve."""
    nan, inf = math.nan, math.inf
    return GuessReport(
        guessing_probability=nan, hmin=nan, level=level, xstar=xstar,
        ystar=ystar, status="infeasible",
        attack_weights=dict.fromkeys(OUTCOME_PAIRS, nan), bell_expression=None,
        iterations=0, gap=inf, primal_residual=inf, dual_residual=inf,
        certificate_defect=inf,
    )


def guessing_probability(
    b: Behavior,
    level: int = 2,
    xstar: int = 1,
    ystar: int = 1,
) -> GuessReport:
    """Bound Eve's guessing probability from the full behavior, matched in
    its Collins-Gisin coordinates M p; the Bell expression is f = M^T y.
    A behavior whose marginals or normalizations depend on the other
    party's input by more than ``qstate.SIGNALING_INPUT_TOL``, or one with
    a normalization farther than that from one, is reported infeasible
    without a solve. Infeasible instances get G = NaN, NaN attack weights
    and no expression. A non-finite entry, or a level other than 1, 2 or
    3, raises ValueError, also where no solve is made.

    A behavior with a local model, decided exactly where one side has at
    most two inputs (see _has_local_model), is reported without a solve:
    G = 1, hmin 0, status optimal, attack weights p(a,b|x*,y*), the Bell
    expression f = 0 with offset 1, 0 iterations and zero gap, residuals
    and defect. Every other behavior, 3x3 included, is solved."""
    npa.check_level(level)
    _check_generation(b.mx, b.my, xstar, ystar)
    # at infinite tolerances validate tests only that every entry is finite
    b.validate(entry_tol=math.inf, norm_tol=math.inf)
    sums = b.table.sum(axis=(0, 1))
    off = max(
        b.no_signaling_defect(), float(np.ptp(sums)), float(np.abs(sums - 1.0).max())
    )
    if off > qstate.SIGNALING_INPUT_TOL:
        return _rejected(level, xstar, ystar)
    if _has_local_model(b):
        # Eve holds the deterministic strategy of each local-model term
        guessed = b.table[:, :, xstar - 1, ystar - 1].ravel().tolist()
        return _local_report(
            b.mx, b.my, level, xstar, ystar, dict(zip(OUTCOME_PAIRS, guessed))
        )
    sol, g, defect, status = _certified(build_primal(b, level, xstar, ystar))
    # f = M^T y: f.p' = y.(M p') for every no-signaling behavior p'
    to_cg = _moment_layout(level, b.mx, b.my).to_cg
    return _report(
        sol, g, defect, status, level, (b.mx, b.my, xstar, ystar),
        to_cg.T @ sol.dual_vector[:to_cg.shape[0]], 0.0,
    )


def chsh_coefficients(mx: int = 2, my: int = 2) -> np.ndarray:
    """CHSH as a component coefficient vector: <A1B1>+<A1B2>+<A2B1>-<A2B2>."""
    if mx < 2 or my < 2:
        raise ValueError("CHSH needs at least two inputs per side")
    c = np.zeros(4 * mx * my)
    ab = np.outer(qstate.OUTCOMES, qstate.OUTCOMES)
    qstate.table(c, mx, my)[:, :, :2, :2] = np.multiply.outer(ab, [[1, 1], [1, -1]])
    return c


def ibeta_coefficients(beta: float, mx: int = 2, my: int = 2) -> np.ndarray:
    """CHSH + beta*<A1>, the marginal read off the y=1 correlations."""
    c = chsh_coefficients(mx, my)
    qstate.table(c, mx, my)[:, :, 0, 0] += beta * np.array(qstate.OUTCOMES)[:, None]
    return c


def bell_constrained_bound(
    exprs,
    values,
    mx: int,
    my: int,
    level: int = 2,
    xstar: int = 1,
    ystar: int = 1,
) -> GuessReport:
    """Guessing-probability bound from Bell operator values alone. ``exprs``
    is one coefficient vector or a sequence of them; the program fixes
    sum_ab expr.p~_ab = value for each, plus normalization sum_ab q_ab = 1.
    The reported Bell expression recombines the operator multipliers, with
    the normalization multiplier (plus any repair) as offset. A non-finite
    coefficient or value, or a level other than 1, 2 or 3, raises
    ValueError.

    An operator dependent on normalization and earlier operators is not
    posed and keeps multiplier zero; if its value disagrees, the instance
    is reported infeasible without a solve.

    When exactly one operator is posed and its value lies in [min, max] of
    that operator over the deterministic strategies, the mixture of the
    minimizing and the maximizing strategy reaches the value. Eve guesses
    that mixture perfectly, so the report is G = 1 exactly, without a
    solve, as in guessing_probability, with her guesses' weights read off
    the two strategies at (x*, y*)."""
    npa.check_level(level)
    _check_generation(mx, my, xstar, ystar)
    exprs = np.atleast_2d(np.asarray(exprs, dtype=float))
    values = np.atleast_1d(np.asarray(values, dtype=float))
    if exprs.shape[0] != values.shape[0]:
        raise ValueError("one value per Bell operator required")
    if exprs.shape[1] != 4 * mx * my:
        raise ValueError(
            f"operator coefficients must have length {4 * mx * my}"
        )
    if not np.all(np.isfinite(exprs)):
        raise ValueError("operator coefficients must be finite")
    if not np.all(np.isfinite(values)):
        raise ValueError("operator values must be finite")
    # normalization, then the operators, in Collins-Gisin coordinates; the
    # moment layout is built only for a solve
    _, to_cg, from_cg = _collins_gisin(mx, my)
    rows = np.vstack([np.eye(1, len(to_cg)), exprs @ from_cg])
    vals = np.concatenate([[1.0], values])
    keep = [0]
    for k in range(1, len(rows)):
        if np.linalg.matrix_rank(rows[keep + [k]]) > len(keep):
            keep.append(k)
    lam = np.linalg.lstsq(rows[keep].T, rows.T, rcond=None)[0]
    if np.any(np.abs(vals[keep] @ lam - vals) > 1e-7 * (1.0 + np.abs(vals))):
        return _rejected(level, xstar, ystar)
    ops = [k - 1 for k in keep[1:]]
    if len(ops) == 1:
        (lo, at_lo), (hi, at_hi) = _local_extremes(exprs[ops[0]], mx, my, xstar, ystar)
        value = float(values[ops[0]])
        if lo <= value <= hi:
            t = (value - lo) / (hi - lo) if hi > lo else 0.0
            weights = dict.fromkeys(OUTCOME_PAIRS, 0.0)
            weights[at_lo] += 1.0 - t
            weights[at_hi] += t
            return _local_report(mx, my, level, xstar, ystar, weights)
    layout = _moment_layout(level, mx, my)
    sol, g, defect, status = _certified(_npa_problem(
        layout, rows[keep[1:] + [0]], np.append(values[ops], 1.0),
        _block_objective(layout, mx, my, xstar, ystar),
    ))
    if sol.status != "optimal" and status != "infeasible":
        # a diverged solve on a value outside the relaxation's reach is an
        # infeasible instance, also when its certificate passes the coarse
        # health test; confirm against the certified operator range, whose
        # ends are certified bounds already: the slack absorbs rounding only
        for k, val in zip(keep[1:], values[ops]):
            lo, hi = _operator_range(rows[k].tobytes(), level, mx, my)
            tol = 1e-12 * (1.0 + abs(float(val)))
            if val > hi + tol or val < lo - tol:
                g, defect, status = math.nan, math.inf, "infeasible"
                break
    y = sol.dual_vector
    return _report(
        sol, g, defect, status, level, (mx, my, xstar, ystar),
        y[:len(ops)] @ exprs[ops], float(y[len(ops)]),
    )


# the skew-symmetric basis E_s, +1 at (p, q) and -1 at (q, p) for p < q
_P, _Q = np.triu_indices(4, 1)
_SKEW = np.zeros((6, 4, 4))
_SKEW[range(6), _P, _Q], _SKEW[range(6), _Q, _P] = 1.0, -1.0
# row (s, t) reads tr(E_s E_t C) off the row-major C
_SKEW_PAIRS = np.einsum("sij,tjk->stki", _SKEW, _SKEW).reshape(36, 16)


def _product_basis(pairs) -> np.ndarray:
    """The (B, 4, 4) stack of columns e_ab, the unit vectors of pi_a x pi_b
    in OUTCOME_PAIRS order, one matrix per (alpha, beta) of ``pairs``:
    pi_+(phi) projects onto (cos phi/2, sin phi/2), pi_-(phi) onto
    (-sin phi/2, cos phi/2)."""

    def local(phi):
        s, c = math.sin(phi / 2.0), math.cos(phi / 2.0)
        return -s, c, c, s

    parts = np.array([x for pair in pairs for phi in pair for x in local(phi)])
    parts = parts.reshape(-1, 2, 2, 2)
    alice, bob = parts[:, 0, :, None, :, None], parts[:, 1, None, :, None, :]
    return (alice * bob).reshape(-1, 4, 4)


def _primal(m: np.ndarray, v: np.ndarray):
    """c_k = m_k.v_k and the primal value f = c.c, for each matrix of the two
    (B, 4, 4) stacks; f is a list of floats."""
    c = np.einsum("bik,bik->bk", m, v)
    return c, (c[:, None, :] @ c[:, :, None]).ravel().tolist()


def _polar(a: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(a)
    return u @ vt


class _Certificate(NamedTuple):
    """Per matrix of a stack: an orthonormal measurement m (columns m_k)
    with its primal value f = sum_k (m_k.v_k)^2, the certificate
    y = sym(V diag(c) M^T) with c_k = m_k.v_k, its defect
    max(0, -min_k lambda_min(y - v_k v_k^T)) and the bound
    g = tr y + 4*defect clipped to [1/4, 1]. tr y = f, and y + defect*I
    dominates every v_k v_k^T. m and y are stacks, f, g and the defect
    lists of floats."""

    m: np.ndarray
    y: np.ndarray
    f: list
    g: list
    defect: list


def _certify(v, m, c, f, outer) -> _Certificate:
    """Certificates of the stack m, whose c and f are given (see _primal);
    ``outer`` is the (B, 4, 4, 4) stack of v_k v_k^T."""
    y = (v * c[:, None, :]) @ m.swapaxes(1, 2)
    y = (y + y.swapaxes(1, 2)) / 2.0
    lowest = np.linalg.eigvalsh(y[:, None] - outer)
    lowest = np.minimum.reduce(lowest, axis=(1, 2)).tolist()
    defect = [max(0.0, -x) for x in lowest]
    g = [min(max(fk + 4.0 * dk, 0.25), 1.0) for fk, dk in zip(f, defect)]
    return _Certificate(m, y, f, g, defect)


def _select(cert: _Certificate, keep) -> _Certificate:
    """The certificates of the matrices at the indices ``keep``."""
    return _Certificate(
        cert.m[keep], cert.y[keep], *([x[i] for i in keep] for x in cert[2:])
    )


def _assign(out: _Certificate, rows, cert: _Certificate):
    """Write the certificates of ``cert`` into ``out`` at the indices ``rows``."""
    out.m[rows], out.y[rows] = cert.m, cert.y
    for field, values in zip(out[2:], cert[2:]):
        for row, value in zip(rows, values):
            field[row] = value


def _newton(v: np.ndarray, m: np.ndarray, f: list):
    """Newton steps M R(L), R = polar(I - L + L^2/2) ~ exp(-L), over the
    six coordinates of a skew-symmetric L, one per matrix of the stacks.
    A step is taken where the Hessian is negative definite and the step
    does not lower f. With B = M^T V and d = diag B the gradient is
    2 (d_p B_qp - d_q B_pq) = 2 J^T d, J_ks = (E_s B)_kk, and the Hessian is
    2 (J^T J + sym K), K_st = tr(E_s E_t B diag d). Returns d, the trial
    bases with their c and f (see _primal), and whether each matrix takes
    its step; elsewhere the trial is of no use, and where no step is taken
    the trials are None."""
    n = len(v)
    b = m.swapaxes(1, 2) @ v
    d = np.diagonal(b, axis1=1, axis2=2)
    # J^T in C order: each matrix's layout, and with it the BLAS path of
    # J^T d, is the same whatever the batch size
    jt = np.einsum("skj,bjk->bsk", _SKEW, b, order="C")
    curv = (_SKEW_PAIRS @ (b * d[:, None, :]).reshape(n, 16, 1)).reshape(n, 6, 6)
    # 2 (J^T J + sym K), with the halving of sym K and the doubling exact
    hess = 2.0 * (jt @ jt.swapaxes(1, 2)) + (curv + curv.swapaxes(1, 2))
    lam, vec = np.linalg.eigh(hess)
    # eigenvalues ascend; a stand-in curvature keeps the unused steps finite
    negative = lam[:, -1] < 0.0
    definite = negative.tolist()
    if not any(definite):
        return d, None, None, None, definite
    if not all(definite):
        lam[~negative] = -1.0
    grad = 2.0 * (jt @ d[:, :, None])
    step = -vec @ ((vec.swapaxes(1, 2) @ grad) / lam[:, :, None])
    # L = sum_s step_s E_s, each entry a single signed step or zero
    skew = (step.reshape(n, 1, 6) @ _SKEW.reshape(6, 16)).reshape(n, 4, 4)
    trial = m @ _polar(np.eye(4) - skew + skew @ skew / 2.0)
    c, f_trial = _primal(trial, v)
    ok = [k and ft >= fk for k, ft, fk in zip(definite, f_trial, f)]
    return d, trial, c, f_trial, ok


def _discriminate(v: np.ndarray, start: np.ndarray):
    """For each matrix V of the (B, 4, 4) stack ``v``, ascend
    f(M) = sum_k (m_k.v_k)^2 over orthogonal M from the matching matrix of
    ``start`` until the certified g is within _ASCENT_GAP_TOL*(1 + f) of f,
    or _ASCENT_MAX_STEPS steps have been taken. Each step is a Newton step
    where one is taken (see _newton), else M <- polar(V diag(c)), which
    never lowers f: f is convex in M and the polar factor maximizes its
    linearization. Newton squares the gap near the optimum, so once within
    tolerance one more Newton step, kept if it lowers g, takes g to within
    rounding of the optimum.

    The matrices ascend in lockstep, each with its own stopping rule and
    choice of step: a round steps the stack of those still ascending, and
    when a matrix stops its certificate is written into place in the
    output, with the round number as its step count; the polish then takes
    one batch. Every operation acts on each matrix alone, so a matrix gets
    the same certificate whatever else is in the stack. Returns the
    certificates, the step counts and the statuses."""
    n = len(v)
    outer = np.einsum("bik,bjk->bkij", v, v)
    out = _certify(v, start.copy(), *_primal(start, v), outer)
    steps = [0] * n
    # the ascending matrices: their rows of the output, stacks and certificates
    rows, vs, outers, cert = list(range(n)), v, outer, out
    for taken in range(_ASCENT_MAX_STEPS + 1):
        up = [g - f > _ASCENT_GAP_TOL * (1.0 + f) for g, f in zip(cert.g, cert.f)]
        if taken == _ASCENT_MAX_STEPS or not any(up):
            break
        if not all(up):
            left = [i for i, u in enumerate(up) if not u]
            _assign(out, [rows[i] for i in left], _select(cert, left))
            for i in left:
                steps[rows[i]] = taken
            on = [i for i, u in enumerate(up) if u]
            rows, vs, outers = [rows[i] for i in on], vs[on], outers[on]
            cert = _select(cert, on)
        d, trial, c, f, ok = _newton(vs, cert.m, cert.f)
        if not any(ok):
            trial = _polar(vs * d[:, None, :])
            c, f = _primal(trial, vs)
        elif not all(ok):
            at = [i for i, k in enumerate(ok) if not k]
            trial[at] = _polar(vs[at] * d[at][:, None, :])
            c[at], f_at = _primal(trial[at], vs[at])
            for i, x in zip(at, f_at):
                f[i] = x
        cert = _certify(vs, trial, c, f, outers)
    # the last set stops here; those still ascending at the cap are capped
    _assign(out, rows, cert)
    capped = [False] * n
    for row, u in zip(rows, up):
        steps[row], capped[row] = taken, u
    # the polish of the converged matrices, kept where it lowers g
    _, trial, c, f, ok = _newton(v, out.m, out.f)
    polish = [k and not cap for k, cap in zip(ok, capped)]
    if any(polish):
        new = _certify(v, trial, c, f, outer)
        better = [k and g < old for k, g, old in zip(polish, new.g, out.g)]
        if all(better):
            out = new
        else:
            at = [i for i, k in enumerate(better) if k]
            _assign(out, at, _select(new, at))
        steps = [s + k for s, k in zip(steps, better)]
    return out, steps, ["max_iterations" if cap else "optimal" for cap in capped]


class TomographicProgram:
    """The tomographic program of one state, evaluated at angle pairs (see
    tomographic_program). ``program(alice_angle, bob_angle)`` is one
    pair's report, and ``program.batch(pairs)`` gives one report per pair
    of a list from one evaluation of the whole stack. A pair's report does
    not depend on the batch it is evaluated in."""

    def __init__(self, state: DensityMatrix):
        rho = state.entries
        evals, evecs = np.linalg.eigh(rho)
        keep = evals > 1e-12
        self._pure = bool(keep.sum() == 1)
        if self._pure:
            psi = evecs[:, keep]
            self._lam = float((psi.T @ rho @ psi)[0, 0])
            self._psi = psi[:, 0]
        else:
            self._root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.T

    def __call__(self, alice_angle: float, bob_angle: float) -> GuessReport:
        return self.batch([(alice_angle, bob_angle)])[0]

    def batch(self, pairs) -> list[GuessReport]:
        if not pairs:
            return []
        basis = _product_basis(pairs)
        if self._pure:
            return self._pure_reports(basis)
        return self._mixed_reports(basis)

    def _pure_reports(self, basis: np.ndarray) -> list[GuessReport]:
        # four 1x1 blocks x_ab >= 0 with sum_ab x_ab = lambda: a linear
        # program over a simplex, maximized at its best vertex; the dual
        # y = max_ab p_ab is feasible as it stands, so the defect is zero
        p = (self._psi @ basis) ** 2
        best = p.argmax(axis=1)
        g = np.clip(self._lam * p[np.arange(len(p)), best], 0.25, 1.0)
        return [
            GuessReport(
                guessing_probability=gb, hmin=_hmin(gb), level=0, xstar=1, ystar=1,
                status="optimal",
                attack_weights={
                    k: self._lam if i == kb else 0.0
                    for i, k in enumerate(OUTCOME_PAIRS)
                },
                bell_expression=None, iterations=0, gap=0.0, primal_residual=0.0,
                dual_residual=0.0, certificate_defect=0.0,
            )
            for gb, kb in zip(g.tolist(), best.tolist())
        ]

    def _mixed_reports(self, basis: np.ndarray) -> list[GuessReport]:
        cert, steps, status = _discriminate(self._root @ basis, basis)
        weights = np.sum((self._root @ cert.m) ** 2, axis=1).tolist()
        rows = zip(cert.g, cert.f, cert.defect, steps, status, weights)
        return [
            GuessReport(
                guessing_probability=g, hmin=_hmin(g), level=0, xstar=1, ystar=1,
                status=st,
                attack_weights=_clean_weights(dict(zip(OUTCOME_PAIRS, w))),
                bell_expression=None, iterations=n, gap=g - f, primal_residual=0.0,
                dual_residual=0.0, certificate_defect=defect,
            )
            for g, f, defect, n, st, w in rows
        ]


def tomographic_program(state: DensityMatrix) -> TomographicProgram:
    """The tomographic program of one state, as a function of the angles:
    ``(alice_angle, bob_angle) -> GuessReport``, the guessing probability
    when Eve is constrained by the state itself, maximize
    sum_ab <rho~_ab, pi_a x pi_b> over PSD blocks summing to rho; its
    ``batch(pairs)`` evaluates a list of angle pairs at once.

    Each pi_a x pi_b projects onto a product unit vector e_ab. Writing the
    blocks as rho~_ab = sqrt(rho) M_ab sqrt(rho) turns the program into
    minimum-error discrimination of the vectors v_ab = sqrt(rho) e_ab:
    G = max over POVMs M of sum_ab <v_ab|M_ab|v_ab> (Koenig, Renner &
    Schaffner, IEEE TIT 55, 4337, 2009). Every orthonormal basis m_ab is a
    measurement, so f = sum_ab (m_ab.v_ab)^2 is a lower value, and every Y
    with Y >= v_ab v_ab^T for all ab bounds G <= tr Y (Eldar, Megretski &
    Verghese, IEEE TIT 49, 1007, 2003). The basis is found by a Newton
    ascent from m_ab = e_ab (see _discriminate); Y = sym(V diag(c) M^T)
    with c_ab = m_ab.v_ab, and the reported G is tr Y + 4*defect, the
    defect being how far Y falls short of dominating the v_ab v_ab^T. That
    bound holds for singular rho too. Status is optimal once G - f is
    within _ASCENT_GAP_TOL*(1 + f) = 1e-8*(1 + f), and max_iterations at
    the cap of _ASCENT_MAX_STEPS = 200 steps, still with the valid G;
    iterations counts the steps, gap is G - f and the attack weights are
    |sqrt(rho) m_ab|^2.

    When rho's support (eigenvalues above 1e-12) has rank one, a pure
    state rho = lambda |psi><psi|, the blocks are weights x_ab >= 0 summing
    to lambda and the optimum is G = lambda * max_ab (psi.e_ab)^2,
    returned exactly: 0 iterations, zero gap, residuals and defect, and all
    attack weight on the maximizing pair. Level is reported as 0 and there
    is no behavior-space Bell expression (the certificate is an operator).

    What depends on the state alone is computed here, once: the
    eigendecomposition of rho, the rank test, and psi and lambda for a
    pure state or sqrt(rho) for a mixed one. An evaluation builds the
    product bases of its pairs and evaluates the closed form, or runs the
    ascent on all of them in lockstep; one pair is the batch of one."""
    return TomographicProgram(state)


def tomographic_guessing(
    state: DensityMatrix,
    alice_angle: float,
    bob_angle: float,
) -> GuessReport:
    """The tomographic program of ``state`` (see tomographic_program) at one
    pair of angles. It decomposes the state on every call; to evaluate one
    state at many angles, build tomographic_program(state) once and pass
    the angle pairs to its batch."""
    return tomographic_program(state)(alice_angle, bob_angle)


def report_to_text(report: GuessReport) -> str:
    """Structured text serialization: scalar fields, attack weights, offset,
    then the coefficient table (omitted when no Bell expression exists)."""
    lines = [
        f"G {report.guessing_probability:.17g}",
        f"hmin {report.hmin:.17g}",
        f"level {report.level}",
        f"xstar {report.xstar}",
        f"ystar {report.ystar}",
        f"status {report.status}",
    ]
    for key in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        lines.append(f"{_QLAB[key]} {report.attack_weights[key]:.17g}")
    expr = report.bell_expression
    lines.append(f"offset {expr.offset if expr else 0.0:.17g}")
    if expr is not None:
        lines.append("a,b,x,y,f")
        for (a, b, x, y), f in zip(components(expr.mx, expr.my), expr.coeffs):
            lines.append(f"{a},{b},{x},{y},{f:.17g}")
    return "\n".join(lines) + "\n"

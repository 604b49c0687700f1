"""Alternating maximization of certified randomness over planar settings.

Outer loop per start: solve the guessing-probability program at the current
measurements, read off the Bell expression f, then move the measurements to
minimize f.p. The inner minimization is exact for planar qubit settings:
for a real state, each measured probability is affine in each party's Bloch
direction through the state's local Bloch vectors and its x-z correlation
matrix, so with one side fixed f.p is a constant plus one linear term per
remaining direction, minimized by the normalized negative of its
coefficient. Sides alternate until the objective stops moving, the outer
loop stops when the certified g improves by at most epsilon, and the whole
procedure restarts from several initial settings.

Only local optimality is guaranteed; results carry the full trajectory and
the number of starts so plateaus are auditable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import qstate
from .guessprob import (
    BellExpression,
    GuessReport,
    TomographicProgram,
    guessing_probability,
)
# the one-call form stays importable from here, where perfbench/tracing.py
# looks it up by name
from .guessprob import tomographic_guessing  # noqa: F401
from .qstate import DensityMatrix, MeasurementSet

logger = logging.getLogger(__name__)

_INNER_TOL = 1e-10
_INNER_CAP = 200
# the tomographic refine: Nelder-Mead from this many of the best grid points,
# stopping at these tolerances in radians and in G, or at this many
# evaluations or iterations (scipy's default for two coordinates); one start
# missed the pure-state optimum at some theta on grids 8 and 12
_REFINE_STARTS = 3
_REFINE_XATOL = 1e-6
_REFINE_FATOL = 1e-12
_REFINE_CAP = 400
# I, sigma_x, sigma_z: the planar part of the Pauli basis
_PAULIS = np.array([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], np.diag([1.0, -1.0])])


@dataclass(frozen=True)
class OptResult:
    best_meas: MeasurementSet
    best_report: GuessReport
    trajectory: tuple[float, ...]
    starts_used: int
    converged: bool
    start_trajectories: tuple[tuple[float, ...], ...]


def _lift(angles) -> np.ndarray:
    """Rows (1, sin phi, cos phi): the identity and planar Bloch parts."""
    return np.array([(1.0, math.sin(phi), math.cos(phi)) for phi in angles])


def _best_angles(coeffs: np.ndarray, previous, tie: float) -> tuple[float, ...]:
    """Angles minimizing each row's (1, n).coeffs over unit n = (sin, cos);
    a row whose Bloch part is within tie of zero keeps its previous angle."""
    out = []
    for (_, gs, gc), phi in zip(coeffs, previous):
        if math.hypot(gs, gc) > tie:
            phi = math.atan2(-gs, -gc) % (2.0 * math.pi)
        out.append(phi)
    return tuple(out)


def update_measurements(
    f: BellExpression, state: DensityMatrix, meas: MeasurementSet
) -> MeasurementSet:
    """Minimize f.p over planar measurements by exact alternating updates.

    Let C_ij = tr[rho (s_i x s_j)] over s = (I, sigma_x, sigma_z): C_00 = 1,
    the rest of row 0 and column 0 are the local Bloch vectors, and the
    lower 2x2 block is the x-z correlation matrix T. For a real state and
    planar settings, p(a,b|x,y) = (1, a n_x) C (1, b m_y) / 4 with
    n = (sin, cos) of the angle. Collapsing f into its per-(x, y) sums
    over outcomes weighted by 1, a, b and ab gives
    f.p = sum_xy (1, n_x) K_xy (1, m_y) plus the offset. With Bob fixed this
    is a constant plus sum_x n_x.g_x, so the best n_x is -g_x/|g_x|; Bob's
    update is symmetric and runs last. An angle whose g_x is negligible
    keeps its previous value. The result never increases f.p."""
    if (len(meas.alice_angles), len(meas.bob_angles)) != (f.mx, f.my):
        raise ValueError("measurement count does not match the Bell expression")
    paulis = qstate.kron2(_PAULIS[:, None], _PAULIS[None, :])
    bloch = np.trace(state.entries @ paulis, axis1=-2, axis2=-1)
    # rows: the table's outcome index; columns: weight 1, then the outcome
    signs = np.array([[1.0, -1.0], [1.0, 1.0]])
    sums = np.einsum("abxy,ai,bj->xyij", f.table, signs, signs)
    k = sums[:, :, [0, 1, 1]][:, :, :, [0, 1, 1]] * bloch / 4.0
    # a g_x below this is rounding noise of the terms that form it
    tie = 1e-14 * max(1.0, float(np.abs(k).sum()))
    alice, bob = meas.alice_angles, meas.bob_angles
    value = float(np.einsum("xyij,xi,yj->", k, _lift(alice), _lift(bob)))
    for _ in range(_INNER_CAP):
        alice = _best_angles(np.einsum("xyij,yj->xi", k, _lift(bob)), alice, tie)
        h = np.einsum("xyij,xi->yj", k, _lift(alice))
        bob = _best_angles(h, bob, tie)
        new_value = float(np.sum(h * _lift(bob)))
        if value - new_value <= _INNER_TOL:
            break
        value = new_value
    return MeasurementSet(alice, bob)


def initial_settings(mx: int, my: int) -> MeasurementSet:
    """Start 0: the canonical settings cut or padded to the scenario, with
    extra inputs at evenly spaced planar angles."""
    base = qstate.canonical_settings()

    def fit(angles, n):
        # below one input, no angle: MeasurementSet rejects the side
        angles = list(angles[:max(n, 0)])
        extra = n - len(angles)
        angles += [math.pi * (k + 1) / (extra + 1) for k in range(extra)]
        return tuple(angles)

    return MeasurementSet(fit(base.alice_angles, mx), fit(base.bob_angles, my))


def optimize(
    state: DensityMatrix,
    mx: int = 2,
    my: int = 2,
    level: int = 2,
    xstar: int = 1,
    ystar: int = 1,
    epsilon: float = 1e-6,
    n_starts: int = 8,
    seed: int = 0,
    max_iterations: int = 50,
) -> OptResult:
    """Best certified bound over several see-saw starts.

    Each start alternates: certify g at the current settings, stop when the
    improvement g0 - g1 drops to epsilon (g0 starts at 1 so locally
    reproducible behaviors stop immediately, and without a solve, since
    guessing_probability certifies them G = 1 in closed form where it can
    decide locality), otherwise move the settings
    against the certificate's Bell expression. A solve that does not come
    back clean stops its start and is logged. Each start keeps its last
    certified report together with the settings it was certified at, so
    best_meas reproduces best_report even when a start ends on its
    iteration cap or on a failed solve. starts_used counts the starts that
    produced at least one certified value. A search in which no start
    certifies a value returns the first start's failed report at that
    start's settings, with starts_used 0, converged False and empty
    trajectories.

    epsilon, n_starts and max_iterations, and through the start settings
    mx and my, are checked before any solve."""
    if not epsilon > 0.0:  # NaN fails every comparison
        raise ValueError("epsilon must be positive")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    rng = np.random.default_rng(seed)
    starts = [initial_settings(mx, my)]
    for _ in range(n_starts - 1):
        starts.append(
            MeasurementSet(
                tuple(rng.uniform(0.0, 2.0 * math.pi, mx)),
                tuple(rng.uniform(0.0, 2.0 * math.pi, my)),
            )
        )

    best = None
    starts_used = 0
    all_traj: list[tuple[float, ...]] = []
    for s_idx, meas in enumerate(starts):
        prev_g = 1.0
        traj: list[float] = []
        certified = None
        converged = False
        for _ in range(max_iterations):
            b = qstate.behavior(state, meas)
            rep = guessing_probability(b, level, xstar, ystar)
            if rep.status != "optimal":
                logger.warning(
                    "start %d stopped after %d certified values: solver status %s",
                    s_idx, len(traj), rep.status,
                )
                break
            certified = (rep, meas)
            traj.append(rep.guessing_probability)
            if prev_g - rep.guessing_probability <= epsilon:
                converged = True
                break
            prev_g = rep.guessing_probability
            meas = update_measurements(rep.bell_expression, state, meas)
        all_traj.append(tuple(traj))
        if certified is None:
            # kept only while no start certifies: the first start's failed
            # solve, at its initial settings
            if best is None:
                best = (rep, meas, (), False)
            continue
        report, at = certified
        if not starts_used or report.guessing_probability < best[0].guessing_probability:
            best = (report, at, tuple(traj), converged)
        starts_used += 1
    report, meas, traj, converged = best
    return OptResult(
        best_meas=meas,
        best_report=report,
        trajectory=traj,
        starts_used=starts_used,
        converged=converged,
        start_trajectories=tuple(all_traj),
    )


class _CapReached(Exception):
    """The refine asked for an evaluation past _REFINE_CAP."""


def _simplex_search(x0: tuple[float, float]):
    """Minimize over the plane from x0 by the simplex search of Nelder and
    Mead (Comput. J. 7, 308, 1965) with reflection 1, expansion 2,
    contraction 1/2 and shrink 1/2, as a generator: it yields each point to
    evaluate, is sent that point's value, and returns the best vertex and
    the lowest value. It is scipy's minimize with method "Nelder-Mead" at
    those defaults, step for step: the same initial simplex, stable vertex
    order, stop rule and cap, and each vertex from the same floating-point
    operations, so both evaluate the same points in the same order. Past
    the cap the step in progress is abandoned as it stands."""
    evals = 0

    def call(x):
        nonlocal evals
        if evals >= _REFINE_CAP:
            raise _CapReached
        evals += 1
        return (yield x)

    def order():
        # stable, as numpy's argsort is on three values
        idx = sorted(range(3), key=fsim.__getitem__)
        sim[:] = [sim[i] for i in idx]
        fsim[:] = [fsim[i] for i in idx]

    a, b = x0
    sim = [x0, (1.05 * a if a else 0.00025, b), (a, 1.05 * b if b else 0.00025)]
    fsim = []
    for x in sim:
        fsim.append((yield from call(x)))
    order()
    try:
        # scipy counts its first iteration as iteration 1
        for _ in range(_REFINE_CAP - 1):
            s0, s1, w = sim
            if (
                max(abs(s[i] - s0[i]) for s in (s1, w) for i in (0, 1)) <= _REFINE_XATOL
                and max(abs(fsim[0] - fsim[1]), abs(fsim[0] - fsim[2])) <= _REFINE_FATOL
            ):
                break
            xbar = ((s0[0] + s1[0]) / 2, (s0[1] + s1[1]) / 2)

            def toward(c, d):
                # c * xbar - d * w: reflection (2, 1), expansion (3, 2),
                # outside (1.5, 0.5) and inside (0.5, -0.5) contraction
                return (c * xbar[0] - d * w[0], c * xbar[1] - d * w[1])

            xr = toward(2.0, 1.0)
            fr = yield from call(xr)
            if fr < fsim[0]:
                xe = toward(3.0, 2.0)
                fe = yield from call(xe)
                sim[2], fsim[2] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < fsim[1]:
                sim[2], fsim[2] = xr, fr
            else:
                if fr < fsim[2]:
                    xc = toward(1.5, 0.5)
                    fc = yield from call(xc)
                    accept = fc <= fr
                else:
                    xc = toward(0.5, -0.5)
                    fc = yield from call(xc)
                    accept = fc < fsim[2]
                if accept:
                    sim[2], fsim[2] = xc, fc
                else:
                    for j in (1, 2):
                        sim[j] = (
                            s0[0] + 0.5 * (sim[j][0] - s0[0]),
                            s0[1] + 0.5 * (sim[j][1] - s0[1]),
                        )
                        fsim[j] = yield from call(sim[j])
            order()
    except _CapReached:
        order()
    return sim[0], min(fsim)


def tomographic_optimize(
    state: DensityMatrix,
    grid_size: int = 12,
) -> tuple[float, float, GuessReport]:
    """Scan (alice, bob) angles over [0, pi)^2 for the tomographic program,
    then refine each of the _REFINE_STARTS best grid points with a simplex
    search (_simplex_search) and keep the lowest endpoint, ties going to
    grid order. The returned report is the one computed when the search
    evaluated its endpoint. The state is decomposed once, into
    TomographicProgram(state), and every evaluation is a call of its
    batch(pairs), each angle pair evaluated once: a simplex vertex at a
    pair already seen reuses its report. tomographic_guessing(state, alpha,
    beta) is the one-pair form, which decomposes the state at each call.

    The grid is one batch. The refines run in lockstep: each round, the
    pairs that the running searches wait for and that have not been
    evaluated yet form one batch, and then each search is sent its value.
    A pair's report does not depend on its batch, so every search takes the
    path it takes alone, and the result is that of running the refines one
    after another."""
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    angles = np.arange(grid_size) * math.pi / grid_size
    program = TomographicProgram(state)
    grid = [(float(alpha), float(beta)) for alpha in angles for beta in angles]
    reports = dict(zip(grid, program.batch(grid)))
    values = [reports[pair].guessing_probability for pair in grid]
    # sorted is stable: equal values keep grid order
    starts = sorted(range(len(grid)), key=values.__getitem__)[:_REFINE_STARTS]
    searches = [_simplex_search(grid[k]) for k in starts]
    waiting = {i: next(search) for i, search in enumerate(searches)}
    ends = [None] * len(searches)
    while waiting:
        new = [x for x in dict.fromkeys(waiting.values()) if x not in reports]
        reports.update(zip(new, program.batch(new)))
        for i, x in list(waiting.items()):
            try:
                waiting[i] = searches[i].send(reports[x].guessing_probability)
            except StopIteration as done:
                ends[i] = done.value
                del waiting[i]
    best_g, best = math.inf, None
    for (alpha, beta), g in ends:
        if g < best_g:
            best_g, best = g, (alpha, beta, reports[alpha, beta])
    return best

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
from .guessprob import BellExpression, GuessReport, guessing_probability, tomographic_program
# the one-call form stays importable from here, where perfbench/tracing.py
# looks it up by name
from .guessprob import tomographic_guessing  # noqa: F401
from .qstate import DensityMatrix, MeasurementSet

logger = logging.getLogger(__name__)

_INNER_TOL = 1e-10
_INNER_CAP = 200
# the tomographic refine: Nelder-Mead from this many of the best grid points,
# stopping at these tolerances in radians and in G; one start missed the
# pure-state optimum at some theta on grids 8 and 12
_REFINE_STARTS = 3
_REFINE_XATOL = 1e-6
_REFINE_FATOL = 1e-12
# I, sigma_x, sigma_z: the planar part of the Pauli basis
_PAULIS = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))


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
    rho = state.entries
    bloch = np.array(
        [[np.trace(rho @ qstate.kron2(p, q)) for q in _PAULIS] for p in _PAULIS]
    )
    # rows: outcome -1 then +1; columns: weight 1, then the outcome itself
    signs = np.array([[1.0, -1.0], [1.0, 1.0]])
    coeffs = f.coeffs.reshape(2, 2, f.mx, f.my)
    sums = np.einsum("abxy,ai,bj->xyij", coeffs, signs, signs)
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
        angles = list(angles[:n])
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
    produced at least one certified value."""
    if not epsilon > 0.0:  # NaN fails every comparison
        raise ValueError("epsilon must be positive")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
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
            continue
        starts_used += 1
        report, at = certified
        if best is None or report.guessing_probability < best[0].guessing_probability:
            best = (report, at, tuple(traj), converged)
    if best is None:
        raise RuntimeError("every start failed to certify a bound")
    report, meas, traj, converged = best
    return OptResult(
        best_meas=meas,
        best_report=report,
        trajectory=traj,
        starts_used=starts_used,
        converged=converged,
        start_trajectories=tuple(all_traj),
    )


def tomographic_optimize(
    state: DensityMatrix,
    grid_size: int = 12,
) -> tuple[float, float, GuessReport]:
    """Scan (alice, bob) angles over [0, pi)^2 for the tomographic program,
    then refine each of the _REFINE_STARTS best grid points with a simplex
    search and keep the lowest endpoint, ties going to grid order. The
    returned report is the one computed when the search evaluated its
    endpoint. The state is decomposed once, by tomographic_program, and
    every grid point and simplex vertex reuses that decomposition."""
    # scipy.optimize costs 19 MB resident, so only this refine loads it
    from scipy.optimize import minimize

    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    angles = np.arange(grid_size) * math.pi / grid_size
    reports: dict[tuple[float, float], GuessReport] = {}
    evaluate = tomographic_program(state)

    def g_of(v) -> float:
        pair = (float(v[0]), float(v[1]))
        rep = reports[pair] = evaluate(*pair)
        return rep.guessing_probability

    grid = [(alpha, beta) for alpha in angles for beta in angles]
    values = [g_of(pair) for pair in grid]
    # sorted is stable: equal values keep grid order
    starts = sorted(range(len(grid)), key=values.__getitem__)[:_REFINE_STARTS]
    best_g, best = math.inf, None
    for k in starts:
        res = minimize(
            g_of,
            x0=np.asarray(grid[k]),
            method="Nelder-Mead",
            options={"xatol": _REFINE_XATOL, "fatol": _REFINE_FATOL},
        )
        if res.fun < best_g:
            alpha, beta = float(res.x[0]), float(res.x[1])
            best_g, best = res.fun, (alpha, beta, reports[alpha, beta])
    return best

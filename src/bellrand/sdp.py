"""Block-diagonal semidefinite programming by a primal-dual interior-point method.

Solves
    maximize    sum_i <C_i, X_i>
    subject to  sum_i <A_{j,i}, X_i> = b_j   for all j,
                X_i >= 0,
whose dual is
    minimize    b.y
    subject to  sum_j y_j A_{j,i} - C_i >= 0 for all i.

The implementation is an infeasible-start path follower with Nesterov-Todd
scaling (the symmetric form of the Newton direction) and a Mehrotra-style
predictor-corrector, damped by a fraction-to-boundary factor. Constraint
rows are normalized and a pivoted-Cholesky rank check removes linearly
dependent rows before iterating; removed rows keep a zero dual multiplier
in the reported solution. Everything is deterministic for fixed inputs and
options.

Constraint matrices are stored sparsely as upper-triangle entries
(i, j, value) where value is the actual matrix element (mirrored at (j, i)).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.linalg.lapack import dpstrf

log = logging.getLogger(__name__)

Entries = tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY = (np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0))


def _normalize_entries(spec, order: int, what: str) -> Entries:
    """Canonical upper-triangle entry arrays from a dense matrix or triples."""
    if spec is None:
        return _EMPTY
    acc: dict[tuple[int, int], float] = {}
    if isinstance(spec, np.ndarray) or (
        hasattr(spec, "shape") and getattr(spec, "ndim", 0) == 2
    ):
        m = np.asarray(spec, dtype=float)
        if m.shape != (order, order):
            raise ValueError(f"{what}: expected shape ({order},{order}), got {m.shape}")
        if m.size and np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError(f"{what}: matrix is not symmetric")
        for i in range(order):
            for j in range(i, order):
                if m[i, j] != 0.0:
                    acc[(i, j)] = m[i, j]
    else:
        for item in spec:
            i, j, v = int(item[0]), int(item[1]), float(item[2])
            if not (0 <= i < order and 0 <= j < order):
                raise ValueError(f"{what}: entry ({i},{j}) outside order {order}")
            key = (i, j) if i <= j else (j, i)
            acc[key] = acc.get(key, 0.0) + v
    acc = {k: v for k, v in acc.items() if v != 0.0}
    if not acc:
        return _EMPTY
    keys = sorted(acc)
    p = np.array([k[0] for k in keys], dtype=int)
    q = np.array([k[1] for k in keys], dtype=int)
    v = np.array([acc[k] for k in keys])
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what}: non-finite coefficient")
    return p, q, v


def _entries_dense(entries: Entries, order: int) -> np.ndarray:
    m = np.zeros((order, order))
    p, q, v = entries
    m[p, q] = v
    m[q, p] = v
    return m


def _entries_fnorm2(entries: Entries) -> float:
    p, q, v = entries
    off = p != q
    return float(np.sum(v * v) + np.sum(v[off] * v[off]))


@dataclass(frozen=True)
class SdpProblem:
    """One SDP instance. ``objective`` and each constraint's coefficient
    matrices are given per block, as dense symmetric arrays, as iterables of
    (i, j, value) triples, or None for zero."""

    block_orders: tuple[int, ...]
    objective: tuple[Entries, ...] = field(repr=False)
    constraints: tuple[tuple[tuple[Entries, ...], float], ...] = field(repr=False)

    def __init__(self, block_orders, objective, constraints):
        orders = tuple(int(n) for n in block_orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"bad block orders {orders}")
        objective = list(objective)
        if len(objective) != len(orders):
            raise ValueError("objective needs one coefficient matrix per block")
        obj = tuple(
            _normalize_entries(spec, n, f"objective block {i}")
            for i, (spec, n) in enumerate(zip(objective, orders))
        )
        cons = []
        for j, (mats, rhs) in enumerate(constraints):
            mats = list(mats)
            if len(mats) != len(orders):
                raise ValueError(f"constraint {j} needs one matrix per block")
            row = tuple(
                _normalize_entries(spec, n, f"constraint {j} block {i}")
                for i, (spec, n) in enumerate(zip(mats, orders))
            )
            rhs = float(rhs)
            if not math.isfinite(rhs):
                raise ValueError(f"constraint {j}: non-finite right-hand side")
            cons.append((row, rhs))
        object.__setattr__(self, "block_orders", orders)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "constraints", tuple(cons))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def rhs(self) -> np.ndarray:
        return np.array([b for _, b in self.constraints])

    def objective_dense(self) -> list[np.ndarray]:
        return [
            _entries_dense(e, n) for e, n in zip(self.objective, self.block_orders)
        ]


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iterations: int = 200
    step_fraction: float = 0.98


@dataclass(frozen=True)
class SdpSolution:
    primal_blocks: tuple[np.ndarray, ...]
    dual_vector: np.ndarray
    primal_objective: float
    dual_objective: float
    status: str
    iterations: int
    gap: float
    primal_residual: float
    dual_residual: float
    removed_rows: tuple[int, ...]


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _chol(m: np.ndarray) -> np.ndarray:
    """Cholesky with one jitter retry; raises LinAlgError if that fails too."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        n = m.shape[0]
        jitter = 1e-14 * max(1.0, np.trace(m) / max(n, 1))
        return np.linalg.cholesky(m + jitter * np.eye(n))


def _max_step(chol_l: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with M + t*D >= 0, given the Cholesky factor of M."""
    w = solve_triangular(chol_l, direction, lower=True)
    w = solve_triangular(chol_l, w.T, lower=True)
    lam = float(np.linalg.eigvalsh(_sym(w)).min())
    if lam >= -1e-16:
        return math.inf
    return -1.0 / lam


class _Presolved:
    """Scaled, rank-reduced form of a problem, plus the undo factors."""

    def __init__(self, problem: SdpProblem):
        orders = problem.block_orders
        nblocks = len(orders)
        offsets = np.concatenate([[0], np.cumsum([n * n for n in orders])])
        dim = int(offsets[-1])

        m = problem.n_constraints
        row_norm = np.empty(m)
        for j, (row, _) in enumerate(problem.constraints):
            row_norm[j] = math.sqrt(sum(_entries_fnorm2(e) for e in row))
        b = problem.rhs

        zero_rows = [j for j in range(m) if row_norm[j] == 0.0]
        self.inconsistent_zero = [j for j in zero_rows if abs(b[j]) > 1e-12]
        nonzero = [j for j in range(m) if row_norm[j] > 0.0]
        if zero_rows:
            log.info("presolve: dropping all-zero constraint rows %s", zero_rows)

        # full-entry COO data per nonzero row, row-normalized
        s_rows, s_cols, s_vals = [], [], []
        per_row_blocks: list[list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]] = []
        for j in nonzero:
            row, _ = problem.constraints[j]
            blocks_here = []
            for i in range(nblocks):
                p, q, v = row[i]
                if not p.size:
                    continue
                off = p != q
                fp = np.concatenate([p, q[off]])
                fq = np.concatenate([q, p[off]])
                fv = np.concatenate([v, v[off]]) / row_norm[j]
                blocks_here.append((i, fp, fq, fv))
                flat = offsets[i] + fp * orders[i] + fq
                s_rows.append(np.full(flat.size, len(per_row_blocks), dtype=int))
                s_cols.append(flat)
                s_vals.append(fv)
            per_row_blocks.append(blocks_here)
        mk = len(nonzero)
        s_full = sp.csr_matrix(
            (np.concatenate(s_vals), (np.concatenate(s_rows), np.concatenate(s_cols))),
            shape=(mk, dim),
        ) if mk else sp.csr_matrix((0, dim))

        # rank-revealing pass on the Gram matrix of the normalized rows
        removed: list[int] = []
        keep_local = list(range(mk))
        if mk:
            gram = np.asarray((s_full @ s_full.T).todense())
            c, piv, rank, info = dpstrf(gram, lower=1)
            if info < 0:
                raise RuntimeError(f"pivoted Cholesky failed with info={info}")
            piv = np.asarray(piv, dtype=int) - 1
            if rank < mk:
                keep_local = sorted(piv[:rank].tolist())
                dropped_local = sorted(piv[rank:].tolist())
                removed = [nonzero[j] for j in dropped_local]
                log.info(
                    "presolve: removed %d dependent constraint rows %s",
                    len(removed), removed,
                )
                # dependent rows must carry consistent right-hand sides
                s_keep = s_full[keep_local]
                gram_kk = np.asarray((s_keep @ s_keep.T).todense())
                factor = cho_factor(gram_kk + 1e-12 * np.eye(len(keep_local)))
                bn = b[nonzero] / row_norm[nonzero]
                self.inconsistent_dependent = []
                for jl in dropped_local:
                    cross = np.asarray(
                        (s_keep @ s_full[jl].T).todense()
                    ).ravel()
                    lam = cho_solve(factor, cross)
                    recon = float(lam @ bn[keep_local])
                    if abs(recon - bn[jl]) > 1e-7 * (1.0 + abs(bn[jl])):
                        self.inconsistent_dependent.append(nonzero[jl])
            else:
                self.inconsistent_dependent = []
        else:
            self.inconsistent_dependent = []

        kept = [nonzero[j] for j in keep_local]
        self.kept = kept
        self.removed = tuple(sorted(removed + zero_rows))
        self.row_scale = row_norm
        self.orders = orders
        self.offsets = offsets
        self.dim = dim
        self.s = s_full[keep_local] if mk else s_full
        self.row_blocks = [per_row_blocks[j] for j in keep_local]

        cmax = 0.0
        self.c_blocks = []
        for i, n in enumerate(orders):
            cd = _entries_dense(problem.objective[i], n)
            cmax = max(cmax, float(np.abs(cd).max()) if cd.size else 0.0)
            self.c_blocks.append(cd)
        self.c_scale = max(1.0, math.sqrt(sum(
            float(np.sum(cd * cd)) for cd in self.c_blocks)))
        self.c_hat = [cd / self.c_scale for cd in self.c_blocks]

        bn = b[kept] / row_norm[kept] if kept else np.empty(0)
        self.b_scale = max(1.0, float(np.linalg.norm(bn)) if bn.size else 0.0)
        self.b_hat = bn / self.b_scale
        self.b_true = b
        self.b_max = float(np.abs(b).max()) if b.size else 0.0
        self.c_max = cmax


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point method on ``problem``."""
    opts = options or SolveOptions()
    pre = _Presolved(problem)
    orders = pre.orders
    nblocks = len(orders)
    ntot = sum(orders)

    def finish(xs_hat, y_hat, status, iters, gap, rp, rd):
        xs = tuple(_sym(x) * pre.b_scale for x in xs_hat)
        y = np.zeros(problem.n_constraints)
        for local, j in enumerate(pre.kept):
            y[j] = y_hat[local] * pre.c_scale / pre.row_scale[j]
        pobj = sum(float(np.sum(c * x)) for c, x in zip(pre.c_blocks, xs))
        dobj = float(y @ pre.b_true)
        return SdpSolution(
            primal_blocks=xs,
            dual_vector=y,
            primal_objective=pobj,
            dual_objective=dobj,
            status=status,
            iterations=iters,
            gap=gap,
            primal_residual=rp,
            dual_residual=rd,
            removed_rows=pre.removed,
        )

    if pre.inconsistent_zero or pre.inconsistent_dependent:
        bad = sorted(pre.inconsistent_zero + pre.inconsistent_dependent)
        log.info("presolve: inconsistent constraint rows %s", bad)
        return finish(
            [np.eye(n) for n in orders], np.zeros(len(pre.kept)),
            "infeasible", 0, math.inf, math.inf, math.inf,
        )
    if not pre.kept:
        raise ValueError("problem has no independent constraints")

    mk = len(pre.kept)
    s_mat = pre.s
    b_hat = pre.b_hat
    c_hat = pre.c_hat

    xs = [max(10.0, math.sqrt(n)) * np.eye(n) for n in orders]
    zs = [max(10.0, math.sqrt(n)) * np.eye(n) for n in orders]
    y = np.zeros(mk)

    vbuf = np.empty((mk, pre.dim))
    unit_scale = pre.b_scale * pre.c_scale

    def vec_all(mats):
        return np.concatenate([m.ravel() for m in mats])

    def unvec(v):
        out = []
        for i, n in enumerate(orders):
            out.append(_sym(v[pre.offsets[i]:pre.offsets[i] + n * n].reshape(n, n)))
        return out

    status = "max_iterations"
    it = 0
    stall = 0
    best = None  # (score, xs, y, gap, rp, rd, optimal_flag)

    for it in range(1, opts.max_iterations + 1):
        xvec = vec_all(xs)
        rp = b_hat - s_mat @ xvec
        aty = unvec(s_mat.T @ y)
        rd = [aty[i] - c_hat[i] - zs[i] for i in range(nblocks)]
        mu = sum(float(np.sum(x * z)) for x, z in zip(xs, zs)) / ntot

        pobj_hat = sum(float(np.sum(c * x)) for c, x in zip(c_hat, xs))
        dobj_hat = float(y @ b_hat)
        pobj_true = pobj_hat * unit_scale
        dobj_true = dobj_hat * unit_scale
        # residuals in original units
        rp_true = float(np.max(
            np.abs(rp) * pre.b_scale * pre.row_scale[pre.kept]
        )) if mk else 0.0
        rd_true = max(
            float(np.abs(r).max()) if r.size else 0.0 for r in rd
        ) * pre.c_scale
        gap_true = (mu * ntot) * unit_scale
        # objective bias carried by residuals against possibly large duals
        bias_true = (
            abs(float(y @ rp))
            + abs(sum(float(np.sum(r * x)) for r, x in zip(rd, xs)))
        ) * unit_scale

        obj_scale = 1.0 + abs(pobj_true) + abs(dobj_true)
        err = max(rp_true, rd_true, abs(gap_true) / obj_scale, bias_true / obj_scale)
        converged = (
            rp_true <= opts.feas_tol
            and rd_true <= opts.feas_tol
            and abs(gap_true) <= opts.gap_tol * obj_scale
            and bias_true <= 10.0 * opts.gap_tol * obj_scale
        )
        if best is None or err < best[0]:
            best = (
                err, [x.copy() for x in xs], y.copy(),
                gap_true, rp_true, rd_true, converged,
            )
            stall = 0
        else:
            stall += 1
        if converged:
            status = "optimal"
            break
        # an unbounded dual with vanishing dual residual means no primal point
        if rd_true <= 1e-7 and dobj_true < -1e8 * (1.0 + pre.b_max):
            status = "infeasible"
            break
        if mu * unit_scale <= 1e-13 and rp_true > 1e-5 * (1.0 + pre.b_max):
            status = "infeasible"
            break
        if not math.isfinite(err) or err > 1e16:
            status = "numerical_failure"
            break
        if stall > 25 or mu <= 0.0:
            status = "numerical_failure"
            break

        # Nesterov-Todd scaling per block
        try:
            lx = [_chol(x) for x in xs]
            lz = [_chol(z) for z in zs]
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        gfac, ginv, sig = [], [], []
        for i, n in enumerate(orders):
            _, s_i, vt = np.linalg.svd(lz[i].T @ lx[i])
            s_i = np.maximum(s_i, 1e-150)
            gfac.append(lx[i] @ vt.T / np.sqrt(s_i))
            ginv.append((np.sqrt(s_i)[:, None] * vt) @ solve_triangular(
                lx[i], np.eye(n), lower=True
            ))
            sig.append(s_i)

        for local in range(mk):
            for i, fp, fq, fv in pre.row_blocks[local]:
                g = gfac[i]
                contrib = (g[fp].T * fv) @ g[fq]
                seg = _sym(contrib).ravel()
                vbuf[local, pre.offsets[i]:pre.offsets[i] + seg.size] = seg
            touched = {i for i, *_ in pre.row_blocks[local]}
            for i in range(nblocks):
                if i not in touched:
                    vbuf[local, pre.offsets[i]:pre.offsets[i + 1]] = 0.0
        mmat = vbuf @ vbuf.T
        diag_mean = max(float(np.trace(mmat)) / mk, 1e-300)
        factor = None
        damp = 0.0
        for attempt in range(6):
            try:
                factor = cho_factor(
                    mmat + damp * np.eye(mk), lower=True, check_finite=False
                )
                break
            except np.linalg.LinAlgError:
                damp = diag_mean * (1e-14 if damp == 0.0 else damp / diag_mean * 100)
        if factor is None:
            status = "numerical_failure"
            break

        def schur_solve(rhs):
            # refined solve: the factorization may be damped or ill-conditioned
            dy = cho_solve(factor, rhs, check_finite=False)
            for _ in range(2):
                resid = rhs - mmat @ dy
                if float(np.abs(resid).max()) <= 1e-14 * max(
                    1.0, float(np.abs(rhs).max())
                ):
                    break
                dy = dy + cho_solve(factor, resid, check_finite=False)
            return dy

        def solve_direction(t0):
            inner = [
                gfac[i].T @ rd[i] @ gfac[i] for i in range(nblocks)
            ]
            wrdw = [gfac[i] @ inner[i] @ gfac[i].T for i in range(nblocks)]
            rhs = s_mat @ vec_all(
                [t0[i] - wrdw[i] for i in range(nblocks)]
            ) - rp
            dy = schur_solve(rhs)
            daty = unvec(s_mat.T @ dy)
            dz = [daty[i] + rd[i] for i in range(nblocks)]
            dx = [
                _sym(t0[i] - gfac[i] @ (gfac[i].T @ dz[i] @ gfac[i]) @ gfac[i].T)
                for i in range(nblocks)
            ]
            return dx, dy, dz

        # predictor: pure Newton step toward complementarity zero
        t0_aff = [-xs[i] for i in range(nblocks)]
        dx_a, dy_a, dz_a = solve_direction(t0_aff)
        ap = min(1.0, min(_max_step(lx[i], dx_a[i]) for i in range(nblocks)))
        ad = min(1.0, min(_max_step(lz[i], dz_a[i]) for i in range(nblocks)))
        mu_aff = sum(
            float(np.sum((xs[i] + ap * dx_a[i]) * (zs[i] + ad * dz_a[i])))
            for i in range(nblocks)
        ) / ntot
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector with the second-order term in the scaled space
        t0 = []
        for i, n in enumerate(orders):
            dxh = ginv[i] @ dx_a[i] @ ginv[i].T
            dzh = gfac[i].T @ dz_a[i] @ gfac[i]
            hcorr = _sym(dxh @ dzh)
            rc = -hcorr
            np.fill_diagonal(rc, rc.diagonal() + sigma * mu - sig[i] ** 2)
            denom = (sig[i][:, None] + sig[i][None, :]) / 2.0
            t0.append(gfac[i] @ (rc / denom) @ gfac[i].T)
        dx, dy, dz = solve_direction(t0)

        ap = min(1.0, opts.step_fraction * min(
            _max_step(lx[i], dx[i]) for i in range(nblocks)
        ))
        ad = min(1.0, opts.step_fraction * min(
            _max_step(lz[i], dz[i]) for i in range(nblocks)
        ))
        if ap < 1e-10 and ad < 1e-10:
            stall += 10
            continue
        for i in range(nblocks):
            xs[i] = _sym(xs[i] + ap * dx[i])
            zs[i] = _sym(zs[i] + ad * dz[i])
        y = y + ad * dy

    if status == "optimal":
        return finish(xs, y, status, it, *best[3:6])
    # fall back to the best iterate seen; it may already satisfy everything
    if best is not None:
        if best[6]:
            status = "optimal"
        return finish(best[1], best[2], status, it, *best[3:6])
    return finish(xs, y, status, it, math.inf, math.inf, math.inf)

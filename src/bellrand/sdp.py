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
rows are normalized and all-zero rows get a zero dual multiplier. There is
no rank check: the nonzero rows must be linearly independent. Unless the
result is infeasible, the returned primal is projected onto {A(X) = b}
through the Schur complement below at W = I. Everything is deterministic
for fixed inputs and options.

The Schur complement M_jk = sum_b <A_{j,b}, W_b A_{k,b} W_b> (W_b the
Nesterov-Todd scaling of block b) is block-arrow. A row whose coefficients
live in one block only is that block's own row; every other row is a
border row. Own rows of different blocks never couple, so with the rows
ordered block by block and the border last,

    M = [ D_1          C_1^T ]
        [      ...     ...   ]
        [          D_k C_k^T ]
        [ C_1 ... C_k  B     ].

Each block contributes its D_b, C_b and its share of B from one product
of its sparse rows with the scaled basis G_b (x) G_b, and the system is
solved with one Cholesky factor per D_b plus one of the border Schur
complement B - sum_b C_b D_b^-1 C_b^T. In NPA relaxations every
moment-structure row is an own row and only the behavior, Bell-value and
normalization rows form the border; a problem without own rows reduces to
one dense factor of B.

Constraint matrices are stored sparsely as upper-triangle entries
(i, j, value) where value is the actual matrix element (mirrored at (j, i)).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri, dtrtrs

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


def _max_step(chol_inv: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with M + t*D >= 0, given the inverse Cholesky factor of M."""
    w = chol_inv @ direction @ chol_inv.T
    lam = float(np.linalg.eigvalsh(_sym(w)).min())
    if lam >= -1e-16:
        return math.inf
    return -1.0 / lam


class _BlockRows(NamedTuple):
    """Kept rows that touch one block, restricted to that block's columns."""

    own: np.ndarray  # kept-row indices of the block's own rows
    s_own: sp.csr_matrix  # their coefficients, len(own) x n*n
    bord: np.ndarray  # indices into the border of the border rows touching it
    s_bord: sp.csr_matrix  # their coefficients, len(bord) x n*n
    tri: tuple[np.ndarray, np.ndarray, np.ndarray]  # upper triangle, weights


def _tri_solve(chol_l: np.ndarray, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 rhs, or L^-T rhs with trans=1, for a lower Cholesky factor L."""
    if not chol_l.size:  # an empty border; LAPACK rejects order 0 with a message
        return rhs
    return dtrtrs(chol_l, rhs, lower=1, trans=trans)[0]


def _scaled_basis(g: np.ndarray, tri) -> np.ndarray:
    """Columns (a, b), a <= b, of kron(g, g), weighted so that the rows of
    S @ K are the scaled matrices g^T A g in an isometric half-vectorization:
    dot products of two rows are trace inner products."""
    a, b, weight = tri
    n = g.shape[0]
    outer = np.einsum("pk,qk->pqk", g[:, a] * weight, g[:, b], order="C")
    return outer.reshape(n * n, -1)


class _BlockSchur:
    """Block-arrow factorization of the Schur complement
    M_jk = sum_b <A_{j,b}, W_b A_{k,b} W_b>, W_b = G_b G_b^T, with ``gfac``
    the factors G_b. Raises LinAlgError when damping cannot make it
    positive definite."""

    def __init__(self, pre: _Presolved, gfac):
        self.border = border = pre.border
        self.b = np.zeros((border.size, border.size))
        self.own = []  # (own rows, D_b, C_b) of each block that has own rows
        for blk, g in zip(pre.blocks, gfac):
            basis = _scaled_basis(g, blk.tri)
            v_bord = blk.s_bord @ basis
            self.b[np.ix_(blk.bord, blk.bord)] += v_bord @ v_bord.T
            if blk.own.size:
                v_own = blk.s_own @ basis
                c = np.zeros((border.size, blk.own.size))
                c[blk.bord] = v_bord @ v_own.T
                self.own.append((blk.own, v_own @ v_own.T, c))
        trace = np.trace(self.b) + sum(np.trace(d) for _, d, _ in self.own)
        diag_mean = max(float(trace) / len(pre.kept), 1e-300)
        damp = 0.0
        for _ in range(6):
            try:
                self._factor(damp)
                return
            except np.linalg.LinAlgError:
                damp = diag_mean * (1e-14 if damp == 0.0 else damp / diag_mean * 100)
        raise np.linalg.LinAlgError("Schur complement not positive definite")

    def _factor(self, damp: float):
        # L_b L_b^T = D_b + damp I, E_b = L_b^-1 C_b^T,
        # L L^T = B + damp I - sum_b E_b^T E_b
        self.l_own, self.e = [], []
        border_schur = self.b + damp * np.eye(self.border.size)
        for _, d, c in self.own:
            l = np.linalg.cholesky(d + damp * np.eye(d.shape[0]))
            e = _tri_solve(l, c.T)
            border_schur -= e.T @ e
            self.l_own.append(l)
            self.e.append(e)
        self.l_border = np.linalg.cholesky(border_schur)

    def _solve_factored(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs)
        t = rhs[self.border]
        z = []
        for (rows, _, _), l, e in zip(self.own, self.l_own, self.e):
            z.append(_tri_solve(l, rhs[rows]))
            t = t - e.T @ z[-1]
        yb = _tri_solve(self.l_border, _tri_solve(self.l_border, t), trans=1)
        out[self.border] = yb
        for (rows, _, _), l, e, zb in zip(self.own, self.l_own, self.e, z):
            out[rows] = _tri_solve(l, zb - e @ yb, trans=1)
        return out

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        xb = x[self.border]
        ob = self.b @ xb
        for rows, d, c in self.own:
            xo = x[rows]
            out[rows] = d @ xo + c.T @ xb
            ob += c @ xo
        out[self.border] = ob
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        # refined solve: the factorization may be damped or ill-conditioned
        dy = self._solve_factored(rhs)
        for _ in range(2):
            resid = rhs - self._matvec(dy)
            if float(np.abs(resid).max()) <= 1e-14 * max(
                1.0, float(np.abs(rhs).max())
            ):
                break
            dy = dy + self._solve_factored(resid)
        return dy


class _Presolved:
    """Scaled form of a problem, plus the undo factors. Rows are normalized
    to unit Frobenius norm; all-zero rows are ``removed`` (inconsistent if
    their right-hand side is not zero). Precondition, not checked: the
    nonzero rows are linearly independent."""

    def __init__(self, problem: SdpProblem):
        orders = problem.block_orders
        nblocks = len(orders)
        offsets = np.concatenate([[0], np.cumsum([n * n for n in orders])])
        dim = int(offsets[-1])

        # one COO of every row's entries in both triangles, unnormalized
        m = problem.n_constraints
        entries = [e for row, _ in problem.constraints for e in row]
        sizes = [e[0].size for e in entries]
        r = np.repeat(np.arange(m).repeat(nblocks), sizes)
        blk = np.repeat(np.tile(np.arange(nblocks), m), sizes)
        p, q, v = (
            np.concatenate([e[k] for e in entries] + [_EMPTY[k]]) for k in range(3)
        )
        off = p != q
        r, blk, p, q, v = (
            np.concatenate([a, b[off]])
            for a, b in ((r, r), (blk, blk), (p, q), (q, p), (v, v))
        )
        row_norm = np.sqrt(np.bincount(r, weights=v * v, minlength=m))
        b = problem.rhs

        zero_rows = [j for j in range(m) if row_norm[j] == 0.0]
        self.inconsistent_zero = [j for j in zero_rows if abs(b[j]) > 1e-12]
        if zero_rows:
            log.info("presolve: dropping all-zero constraint rows %s", zero_rows)
        kept = [j for j in range(m) if row_norm[j] > 0.0]
        order_of = np.asarray(orders)[blk]
        self.s = sp.csr_matrix(
            (v / row_norm[r], (r, offsets[blk] + p * order_of + q)), shape=(m, dim)
        )[kept]
        self.kept = kept
        self.removed = tuple(zero_rows)
        self.row_scale = row_norm
        self.orders = orders
        self.offsets = offsets

        # block-arrow layout of the Schur complement: a kept row touching one
        # block is that block's own row, every other row is a border row
        col_block = np.repeat(np.arange(nblocks), [n * n for n in orders])
        coo = self.s.tocoo()
        touch = np.zeros((self.s.shape[0], nblocks), dtype=bool)
        touch[coo.row, col_block[coo.col]] = True
        single = touch.sum(axis=1) == 1
        self.border = np.flatnonzero(~single)
        self.blocks = []
        for i, n in enumerate(orders):
            rows_i = self.s[:, offsets[i]:offsets[i + 1]]
            own = np.flatnonzero(single & touch[:, i])
            bord = np.flatnonzero(touch[self.border, i])
            tp, tq = np.triu_indices(n)
            weight = np.where(tp == tq, 1.0, math.sqrt(2.0))
            self.blocks.append(_BlockRows(
                own, rows_i[own], bord, rows_i[self.border[bord]], (tp, tq, weight),
            ))

        self.c_blocks = [
            _entries_dense(e, n) for e, n in zip(problem.objective, orders)
        ]
        self.c_scale = max(1.0, math.sqrt(sum(
            float(np.sum(cd * cd)) for cd in self.c_blocks)))
        self.c_hat = [cd / self.c_scale for cd in self.c_blocks]

        bn = b[kept] / row_norm[kept] if kept else np.empty(0)
        self.b_scale = max(1.0, float(np.linalg.norm(bn)) if bn.size else 0.0)
        self.b_hat = bn / self.b_scale
        self.b_true = b
        self.b_max = float(np.abs(b).max()) if b.size else 0.0


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point method on ``problem``."""
    opts = options or SolveOptions()
    pre = _Presolved(problem)
    orders = pre.orders
    nblocks = len(orders)
    ntot = sum(orders)

    def vec_all(mats):
        return np.concatenate([m.ravel() for m in mats])

    def unvec(v):
        out = []
        for i, n in enumerate(orders):
            out.append(_sym(v[pre.offsets[i]:pre.offsets[i] + n * n].reshape(n, n)))
        return out

    def finish(xs_hat, y_hat, status, iters, gap, rp, rd):
        if status != "infeasible":
            # least-norm projection onto A(X) = b; the Gram matrix of the
            # rows is the Schur complement at W = I
            gram = _BlockSchur(pre, [np.eye(n) for n in orders])
            for _ in range(2):
                resid = pre.s @ vec_all(xs_hat) - pre.b_hat
                xs_hat = [
                    x - d for x, d in zip(xs_hat, unvec(pre.s.T @ gram.solve(resid)))
                ]
        xs = tuple(_sym(x) * pre.b_scale for x in xs_hat)
        y = np.zeros(problem.n_constraints)
        y[pre.kept] = y_hat * pre.c_scale / pre.row_scale[pre.kept]
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

    if pre.inconsistent_zero:
        log.info("presolve: inconsistent constraint rows %s", pre.inconsistent_zero)
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

    unit_scale = pre.b_scale * pre.c_scale

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
        lxinv = [dtrtri(l, lower=1)[0] for l in lx]
        lzinv = [dtrtri(l, lower=1)[0] for l in lz]
        gfac, ginv, sig = [], [], []
        for i in range(nblocks):
            _, s_i, vt = np.linalg.svd(lz[i].T @ lx[i])
            s_i = np.maximum(s_i, 1e-150)
            gfac.append(lx[i] @ vt.T / np.sqrt(s_i))
            ginv.append((np.sqrt(s_i)[:, None] * vt) @ lxinv[i])
            sig.append(s_i)

        try:
            schur = _BlockSchur(pre, gfac)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        def solve_direction(t0):
            inner = [
                gfac[i].T @ rd[i] @ gfac[i] for i in range(nblocks)
            ]
            wrdw = [gfac[i] @ inner[i] @ gfac[i].T for i in range(nblocks)]
            rhs = s_mat @ vec_all(
                [t0[i] - wrdw[i] for i in range(nblocks)]
            ) - rp
            dy = schur.solve(rhs)
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
        ap = min(1.0, min(_max_step(lxinv[i], dx_a[i]) for i in range(nblocks)))
        ad = min(1.0, min(_max_step(lzinv[i], dz_a[i]) for i in range(nblocks)))
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
            _max_step(lxinv[i], dx[i]) for i in range(nblocks)
        ))
        ad = min(1.0, opts.step_fraction * min(
            _max_step(lzinv[i], dz[i]) for i in range(nblocks)
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

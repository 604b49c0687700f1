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
of its rows with the scaled basis G_b (x) G_b, and the system is solved
with one Cholesky factor per D_b plus one of the border Schur complement
B - sum_b C_b D_b^-1 C_b^T. In NPA relaxations every moment-structure row
is an own row and only the behavior, Bell-value and normalization rows
form the border; a problem without own rows, such as the tomographic
program, reduces to one dense factor of B.

Iterates are held per group, a maximal run of consecutive blocks of one
order n, as one (k, n, n) stack: each step makes one stacked numpy call per
group, not per block (NPA and tomographic programs are one group of four).
A group's columns of the vectorized primal are contiguous, in block order.

A problem is given in the solver's own form, as in SeDuMi (Sturm, Optim.
Methods Softw. 11, 625, 1999): dense objective blocks C_i and one sparse
matrix A whose row j is A_j over vec(X), each block raveled row-major and
the blocks concatenated in order (the layout of a group's stack raveled).
Every row is symmetric within each block, so off-diagonal coefficients
appear twice; the row norm is the Frobenius norm of the A_{j,i} together.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri, dtrtrs

log = logging.getLogger(__name__)

# fraction-to-boundary damping of both step lengths
_STEP_FRACTION = 0.98


@dataclass(frozen=True)
class SdpProblem:
    """One SDP instance in vectorized form: ``objective`` holds one dense
    symmetric array per block (mirrored from its upper triangle), ``a`` one
    sparse row per constraint over vec(X), symmetric within every block, and
    row j reads sum_i <A_{j,i}, X_i> = rhs[j]."""

    block_orders: tuple[int, ...]
    objective: tuple[np.ndarray, ...] = field(repr=False)
    a: sp.csr_matrix = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def __init__(self, block_orders, objective, a, rhs):
        orders = tuple(int(n) for n in block_orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError(f"bad block orders {orders}")
        objective = [np.asarray(c, dtype=float) for c in objective]
        if len(objective) != len(orders):
            raise ValueError("objective needs one coefficient matrix per block")
        for i, (c, n) in enumerate(zip(objective, orders)):
            what = f"objective block {i}"
            if c.shape != (n, n):
                raise ValueError(f"{what}: expected shape ({n},{n}), got {c.shape}")
            if not np.all(np.isfinite(c)):
                raise ValueError(f"{what}: non-finite coefficient")
            if np.max(np.abs(c - c.T)) > 1e-12:
                raise ValueError(f"{what}: matrix is not symmetric")
        if not sp.issparse(a):
            raise TypeError("constraint matrix must be a scipy sparse matrix")
        offsets = np.cumsum([0] + [n * n for n in orders])
        if a.shape[1] != offsets[-1]:
            raise ValueError(
                f"constraint matrix needs {offsets[-1]} columns, got shape {a.shape}"
            )
        a = sp.csr_matrix(a, dtype=float, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if not np.all(np.isfinite(a.data)):
            raise ValueError("constraint matrix: non-finite coefficient")
        # each entry (p, q) of a block needs the same value at (q, p)
        coo = a.tocoo()
        blk = np.searchsorted(offsets, coo.col, side="right") - 1
        n = np.asarray(orders)[blk]
        p, q = divmod(coo.col - offsets[blk], n)
        key = coo.row.astype(np.int64) * a.shape[1] + coo.col  # sorted
        want = key + (q - p) * (n - 1)
        at = np.minimum(np.searchsorted(key, want), key.size - 1)
        bad = np.flatnonzero((key[at] != want) | (coo.data[at] != coo.data))
        if bad.size:
            raise ValueError(
                f"constraint {coo.row[bad[0]]} is not symmetric in block {blk[bad[0]]}"
            )
        b = np.array(rhs, dtype=float)
        if b.shape != (a.shape[0],):
            raise ValueError(
                f"expected {a.shape[0]} right-hand sides, got shape {b.shape}"
            )
        if not np.all(np.isfinite(b)):
            j = int(np.argmin(np.isfinite(b)))
            raise ValueError(f"constraint {j}: non-finite right-hand side")
        object.__setattr__(self, "block_orders", orders)
        object.__setattr__(self, "objective", tuple(
            np.where(np.tri(len(c), k=-1, dtype=bool), c.T, c) for c in objective
        ))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rhs", b)

    @property
    def n_constraints(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SolveOptions:
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iterations: int = 200


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


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack."""
    return m.swapaxes(-1, -2)


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + _t(m)) / 2.0


def _chol(m: np.ndarray) -> np.ndarray:
    """Stacked Cholesky; a failing matrix gets one jitter retry, then raises."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if m.ndim > 2:
            return np.stack([_chol(a) for a in m])
        n = m.shape[0]
        jitter = 1e-14 * max(1.0, np.trace(m) / max(n, 1))
        return np.linalg.cholesky(m + jitter * np.eye(n))


def _inner(xs, zs) -> float:
    """Sum of <X_b, Z_b> over the blocks of stacks, added in block order."""
    return sum(float(v) for x, z in zip(xs, zs) for v in np.sum(x * z, axis=(1, 2)))


def _max_step(chol_inv: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with M + t*D >= 0 for every matrix of a stack, given the
    inverse Cholesky factors of the M."""
    w = chol_inv @ direction @ _t(chol_inv)
    lam = float(np.linalg.eigvalsh(_sym(w)).min())
    if lam >= -1e-16:
        return math.inf
    return -1.0 / lam


class _Group(NamedTuple):
    """A maximal run of k consecutive blocks of order n; a (k, n, n) stack
    raveled is its slice ``cols`` of the vectorized primal."""

    k: int
    n: int
    cols: slice
    tri: tuple[np.ndarray, np.ndarray, np.ndarray]  # upper triangle, weights
    bord: tuple  # block-diagonal border coefficients per run of blocks
    own: tuple  # per block: own-row indices and their coefficients, or None


def _tri_solve(chol_l: np.ndarray, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
    """L^-1 rhs, or L^-T rhs with trans=1, for a lower Cholesky factor L."""
    if not chol_l.size:  # an empty border; LAPACK rejects order 0 with a message
        return rhs
    return dtrtrs(chol_l, rhs, lower=1, trans=trans)[0]


def _scaled_basis(g: np.ndarray, tri) -> np.ndarray:
    """Columns (a, b), a <= b, of kron(g, g) for each g of a stack, weighted
    so that the rows of S @ K are the scaled matrices g^T A g in an isometric
    half-vectorization: dot products of two rows are trace inner products.
    The stack's bases are stacked row-wise, matching block-diagonal S."""
    a, b, weight = tri
    k, n = g.shape[:2]
    outer = np.einsum("kpt,kqt->kpqt", g[:, :, a] * weight, g[:, :, b], order="C")
    return outer.reshape(k * n * n, -1)


class _BlockSchur:
    """Block-arrow factorization of the Schur complement
    M_jk = sum_b <A_{j,b}, W_b A_{k,b} W_b>, W_b = G_b G_b^T, with ``gfac``
    the factors G_b as one (k, n, n) stack per group. Border rows meet a
    group's stacked bases in one product; own rows stay sparse per block.
    Raises LinAlgError when damping cannot make M positive definite."""

    def __init__(self, pre: _Presolved, gfac):
        self.border = border = pre.border
        self.b = np.zeros((border.size, border.size))
        self.own = []  # (own rows, D_b, C_b) of each block that has own rows
        for grp, g in zip(pre.groups, gfac):
            step = grp.k // len(grp.bord)
            for lo, s_bord in zip(range(0, grp.k, step), grp.bord):
                basis = _scaled_basis(g[lo:lo + step], grp.tri)
                v_bord = (s_bord @ basis).reshape(step, border.size, basis.shape[1])
                self.b += (v_bord @ _t(v_bord)).sum(axis=0)
                rows, s_own = grp.own[lo]
                if rows.size:  # then the product covered block lo alone
                    v_own = s_own @ basis
                    self.own.append((rows, v_own @ v_own.T, v_bord[0] @ v_own.T))
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
    nonzero rows are linearly independent. ``c_hat``, the scaled objective,
    has one stack per group."""

    def __init__(self, problem: SdpProblem):
        orders = problem.block_orders
        nblocks = len(orders)
        m = problem.n_constraints
        offsets = np.cumsum([0] + [n * n for n in orders])
        a = problem.a
        coo = a.tocoo()
        r, v = coo.row, coo.data
        row_norm = np.sqrt(np.bincount(r, weights=v * v, minlength=m))
        b = problem.rhs

        zero_rows = [j for j in range(m) if row_norm[j] == 0.0]
        self.inconsistent_zero = [j for j in zero_rows if abs(b[j]) > 1e-12]
        if zero_rows:
            log.info("presolve: dropping all-zero constraint rows %s", zero_rows)
        kept = [j for j in range(m) if row_norm[j] > 0.0]
        self.s = sp.csr_matrix(
            (v / row_norm[r], a.indices, a.indptr), shape=a.shape
        )[kept]
        self.st = self.s.T.tocsr()
        self.kept = kept
        self.removed = tuple(zero_rows)
        self.row_scale = row_norm

        self.c_blocks = problem.objective
        self.c_scale = max(1.0, math.sqrt(sum(
            float(np.sum(cd * cd)) for cd in self.c_blocks)))

        # block-arrow layout of the Schur complement: a kept row touching one
        # block is that block's own row, every other row is a border row
        col_block = np.repeat(np.arange(nblocks), np.diff(offsets))
        coo = self.s.tocoo()
        touch = np.zeros((self.s.shape[0], nblocks), dtype=bool)
        touch[coo.row, col_block[coo.col]] = True
        single = touch.sum(axis=1) == 1
        self.border = np.flatnonzero(~single)
        # the border rows block-diagonally: row b*nb + i is border row i
        # restricted to block b, so that one product serves a run of blocks
        nb, sel = self.border.size, ~single[coo.row]
        bd = sp.csr_matrix((coo.data[sel], (
            col_block[coo.col[sel]] * nb + np.cumsum(~single)[coo.row[sel]] - 1,
            coo.col[sel],
        )), shape=(nblocks * nb, self.s.shape[1]))
        self.groups, self.c_hat = [], []
        start = 0
        for n, run in itertools.groupby(orders):
            k = len(list(run))
            cols = slice(int(offsets[start]), int(offsets[start + k]))
            own = []
            for i in range(start, start + k):
                rows = np.flatnonzero(single & touch[:, i])
                own.append((rows, self.s[rows][:, offsets[i]:offsets[i + 1]]
                            if rows.size else None))
            # own rows come with large scaled bases: one block per product
            step = 1 if any(rows.size for rows, _ in own) else k
            bord = tuple(
                bd[i * nb:(i + step) * nb, offsets[i]:offsets[i + step]]
                for i in range(start, start + k, step)
            )
            tp, tq = np.triu_indices(n)
            weight = np.where(tp == tq, 1.0, math.sqrt(2.0))
            self.groups.append(_Group(k, n, cols, (tp, tq, weight), bord, tuple(own)))
            self.c_hat.append(np.stack(self.c_blocks[start:start + k]) / self.c_scale)
            start += k

        bn = b[kept] / row_norm[kept] if kept else np.empty(0)
        self.b_scale = max(1.0, float(np.linalg.norm(bn)) if bn.size else 0.0)
        self.b_hat = bn / self.b_scale
        self.b_true = b
        self.b_max = float(np.abs(b).max()) if b.size else 0.0


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point method on ``problem``."""
    opts = options or SolveOptions()
    pre = _Presolved(problem)
    groups = pre.groups
    ntot = sum(problem.block_orders)
    eyes = [np.tile(np.eye(g.n), (g.k, 1, 1)) for g in groups]

    def vec_all(stacks):
        return np.concatenate([m.ravel() for m in stacks])

    def unvec(v):
        return [_sym(v[g.cols].reshape(g.k, g.n, g.n)) for g in groups]

    def finish(xs_hat, y_hat, status, iters, gap, rp, rd):
        if status != "infeasible":
            # least-norm projection onto A(X) = b; the Gram matrix of the
            # rows is the Schur complement at W = I
            gram = _BlockSchur(pre, eyes)
            for _ in range(2):
                resid = pre.s @ vec_all(xs_hat) - pre.b_hat
                xs_hat = [
                    x - d for x, d in zip(xs_hat, unvec(pre.st @ gram.solve(resid)))
                ]
        xs = tuple(x for stack in xs_hat for x in _sym(stack) * pre.b_scale)
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
            eyes, np.zeros(len(pre.kept)),
            "infeasible", 0, math.inf, math.inf, math.inf,
        )
    if not pre.kept:
        raise ValueError("problem has no independent constraints")

    mk = len(pre.kept)
    s_mat = pre.s
    b_hat = pre.b_hat
    c_hat = pre.c_hat

    xs = zs = [max(10.0, math.sqrt(g.n)) * e for g, e in zip(groups, eyes)]
    y = np.zeros(mk)

    unit_scale = pre.b_scale * pre.c_scale

    status = "max_iterations"
    it = 0
    stall = 0
    best = None  # (score, xs, y, gap, rp, rd, optimal_flag)

    for it in range(1, opts.max_iterations + 1):
        xvec = vec_all(xs)
        rp = b_hat - s_mat @ xvec
        aty = unvec(pre.st @ y)
        rd = [a - c - z for a, c, z in zip(aty, c_hat, zs)]
        mu = _inner(xs, zs) / ntot

        pobj_hat = _inner(c_hat, xs)
        dobj_hat = float(y @ b_hat)
        pobj_true = pobj_hat * unit_scale
        dobj_true = dobj_hat * unit_scale
        # residuals in original units
        rp_true = float(np.max(
            np.abs(rp) * pre.b_scale * pre.row_scale[pre.kept]
        )) if mk else 0.0
        rd_true = max(float(np.abs(r).max()) for r in rd) * pre.c_scale
        gap_true = (mu * ntot) * unit_scale
        # objective bias carried by residuals against possibly large duals
        bias_true = (
            abs(float(y @ rp))
            + abs(_inner(rd, xs))
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
            best = (err, xs, y, gap_true, rp_true, rd_true, converged)
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

        # Nesterov-Todd scaling, one stacked call per group
        try:
            lx = [_chol(x) for x in xs]
            lz = [_chol(z) for z in zs]
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        # dtrtri per block (a stacked inverse is slower here), each inverse kept
        # column-major as returned: the layout picks the BLAS kernel's rounding
        lxinv = [_t(np.array([dtrtri(l, lower=1)[0].T for l in ls])) for ls in lx]
        lzinv = [_t(np.array([dtrtri(l, lower=1)[0].T for l in ls])) for ls in lz]
        gfac, ginv, sig = [], [], []
        for l_x, l_z, l_xinv in zip(lx, lz, lxinv):
            _, s_g, vt = np.linalg.svd(_t(l_z) @ l_x)
            s_g = np.maximum(s_g, 1e-150)
            gfac.append(l_x @ _t(vt) / np.sqrt(s_g)[:, None, :])
            ginv.append((np.sqrt(s_g)[:, :, None] * vt) @ l_xinv)
            sig.append(s_g)

        try:
            schur = _BlockSchur(pre, gfac)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        def solve_direction(t0):
            wrdw = [g @ (_t(g) @ r @ g) @ _t(g) for g, r in zip(gfac, rd)]
            rhs = s_mat @ vec_all([t - w for t, w in zip(t0, wrdw)]) - rp
            dy = schur.solve(rhs)
            dz = [a + r for a, r in zip(unvec(pre.st @ dy), rd)]
            dx = [
                _sym(t - g @ (_t(g) @ d @ g) @ _t(g))
                for t, g, d in zip(t0, gfac, dz)
            ]
            return dx, dy, dz

        def step(chol_inv, dirs):
            return min(_max_step(l, d) for l, d in zip(chol_inv, dirs))

        # predictor: pure Newton step toward complementarity zero
        dx_a, dy_a, dz_a = solve_direction([-x for x in xs])
        ap = min(1.0, step(lxinv, dx_a))
        ad = min(1.0, step(lzinv, dz_a))
        mu_aff = _inner([x + ap * dx for x, dx in zip(xs, dx_a)],
                        [z + ad * dz for z, dz in zip(zs, dz_a)]) / ntot
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector with the second-order term in the scaled space
        t0 = []
        for g, gi, s_g, dxa, dza in zip(gfac, ginv, sig, dx_a, dz_a):
            dxh = gi @ dxa @ _t(gi)
            dzh = _t(g) @ dza @ g
            rc = -_sym(dxh @ dzh)
            diag = np.arange(s_g.shape[1])
            rc[:, diag, diag] = rc[:, diag, diag] + sigma * mu - s_g ** 2
            denom = (s_g[:, :, None] + s_g[:, None, :]) / 2.0
            t0.append(g @ (rc / denom) @ _t(g))
        dx, dy, dz = solve_direction(t0)

        ap = min(1.0, _STEP_FRACTION * step(lxinv, dx))
        ad = min(1.0, _STEP_FRACTION * step(lzinv, dz))
        if ap < 1e-10 and ad < 1e-10:
            stall += 10
            continue
        xs = [_sym(x + ap * d) for x, d in zip(xs, dx)]
        zs = [_sym(z + ad * d) for z, d in zip(zs, dz)]
        y = y + ad * dy

    if status == "optimal":
        return finish(xs, y, status, it, *best[3:6])
    # fall back to the best iterate seen; it may already satisfy everything
    if best is not None:
        if best[6]:
            status = "optimal"
        return finish(best[1], best[2], status, it, *best[3:6])
    return finish(xs, y, status, it, math.inf, math.inf, math.inf)

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
for fixed inputs.

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
form the border; a problem without own rows reduces to one dense factor
of B.

Precondition: every block has the same order n. The solver holds the k
blocks as one (k, n, n) array from problem to certificate (objective,
iterates, scalings and the returned primal), so each of their updates is
one stacked numpy call, not one per block; only the Schur complement is
assembled block by block. NPA relaxations are four blocks of one order, an
operator-range bound is one block.

A problem is given in the solver's own form, as in SeDuMi (Sturm, Optim.
Methods Softw. 11, 625, 1999): the (k, n, n) stack of objective blocks C_i
and one sparse matrix A whose row j is A_j over vec(X), each block raveled
row-major and the blocks concatenated in order (the stack raveled). Every
row is symmetric within each block, so off-diagonal coefficients appear
twice; the row norm is the Frobenius norm of the A_{j,i} together.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dtrtri, dtrtrs

log = logging.getLogger(__name__)

# fraction-to-boundary damping of both step lengths
_STEP_FRACTION = 0.98
# optimal once both residuals, in original units, are at most _FEAS_TOL
# and the gap relative to the objectives at most _GAP_TOL; max_iterations
# after _MAX_ITERATIONS steps without that
_GAP_TOL = 1e-8
_FEAS_TOL = 1e-8
_MAX_ITERATIONS = 200


def _t(m: np.ndarray) -> np.ndarray:
    """Transpose of every matrix of a stack."""
    return m.swapaxes(-1, -2)


@dataclass(frozen=True)
class SdpProblem:
    """One SDP instance in vectorized form over k blocks of one order n:
    ``objective`` is the (k, n, n) stack of symmetric blocks C_i (mirrored
    from their upper triangles), ``a`` one sparse row per constraint over
    vec(X), symmetric within every block, and row j reads
    sum_i <A_{j,i}, X_i> = rhs[j]."""

    objective: np.ndarray = field(repr=False)
    a: sp.csr_matrix = field(repr=False)
    rhs: np.ndarray = field(repr=False)

    def __init__(self, objective, a, rhs):
        try:
            c = np.array(objective, dtype=float)
        except ValueError:
            shapes = [np.shape(block) for block in objective]
            raise ValueError(
                f"objective must be one (k, n, n) stack, got blocks of shapes {shapes}"
            ) from None
        if c.ndim != 3 or c.shape[1] != c.shape[2] or not c.size:
            raise ValueError(
                f"objective must be one (k, n, n) stack, got shape {c.shape}"
            )
        n = c.shape[1]
        bad = np.flatnonzero(~np.isfinite(c).all(axis=(1, 2)))
        if bad.size:
            raise ValueError(f"objective block {bad[0]}: non-finite coefficient")
        bad = np.flatnonzero(np.abs(c - _t(c)).max(axis=(1, 2)) > 1e-12)
        if bad.size:
            raise ValueError(f"objective block {bad[0]}: matrix is not symmetric")
        if not sp.issparse(a):
            raise TypeError("constraint matrix must be a scipy sparse matrix")
        if a.shape[1] != c.size:
            raise ValueError(
                f"constraint matrix needs {c.size} columns, got shape {a.shape}"
            )
        a = sp.csr_matrix(a, dtype=float, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
        if not np.all(np.isfinite(a.data)):
            raise ValueError("constraint matrix: non-finite coefficient")
        # each entry (p, q) of a block needs the same value at (q, p)
        coo = a.tocoo()
        blk = coo.col // (n * n)
        p, q = divmod(coo.col % (n * n), n)
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
        object.__setattr__(
            self, "objective", np.where(np.tri(n, k=-1, dtype=bool), _t(c), c)
        )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rhs", b)

    @property
    def block_orders(self) -> tuple[int, ...]:
        k, n = self.objective.shape[:2]
        return (n,) * k

    @property
    def n_constraints(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class SdpSolution:
    primal_blocks: np.ndarray  # (k, n, n)
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


def _inner(x: np.ndarray, z: np.ndarray) -> float:
    """Sum of <X_b, Z_b> over the blocks of two stacks, added in block order."""
    return sum(float(v) for v in np.sum(x * z, axis=(1, 2)))


def _max_step(chol_inv: np.ndarray, direction: np.ndarray) -> float:
    """Largest t with M + t*D >= 0 for every matrix of a stack, given the
    inverse Cholesky factors of the M."""
    w = chol_inv @ direction @ _t(chol_inv)
    lam = float(np.linalg.eigvalsh(_sym(w)).min())
    if lam >= -1e-16:
        return math.inf
    return -1.0 / lam


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
    outer = np.einsum("pt,qt->pqt", g[:, a] * weight, g[:, b], order="C")
    return outer.reshape(n * n, -1)


class _BlockSchur:
    """Block-arrow factorization of the Schur complement
    M_jk = sum_b <A_{j,b}, W_b A_{k,b} W_b>, W_b = G_b G_b^T, with ``gfac``
    the (k, n, n) stack of factors G_b. The border rows and each block's
    own rows meet that block's scaled basis one block at a time. Raises
    LinAlgError when damping cannot make M positive definite."""

    def __init__(self, pre: _Presolved, gfac: np.ndarray):
        self.border = border = pre.border
        self.b = np.zeros((border.size, border.size))
        self.own = []  # (own rows, D_b, C_b) of each block that has own rows
        for g, s_bord, (rows, s_own) in zip(gfac, pre.bord, pre.own):
            basis = _scaled_basis(g, pre.tri)
            v_bord = s_bord @ basis
            self.b += v_bord @ v_bord.T
            if rows.size:
                v_own = s_own @ basis
                self.own.append((rows, v_own @ v_own.T, v_bord @ v_own.T))
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
        # L L^T = B + damp I - sum_b E_b^T E_b; every factor is kept
        # column-major, as dtrtrs takes it, so no solve copies it
        self.l_own, self.e = [], []
        border_schur = self.b + damp * np.eye(self.border.size)
        for _, d, c in self.own:
            l = np.asfortranarray(np.linalg.cholesky(d + damp * np.eye(d.shape[0])))
            e = _tri_solve(l, c.T)
            border_schur -= e.T @ e
            self.l_own.append(l)
            self.e.append(e)
        self.l_border = np.asfortranarray(np.linalg.cholesky(border_schur))

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
    nonzero rows are linearly independent. ``c_hat`` is the scaled
    objective stack."""

    def __init__(self, problem: SdpProblem):
        k, n = problem.objective.shape[:2]
        self.k, self.n = k, n
        nn = n * n
        m = problem.n_constraints
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

        self.c = problem.objective
        self.c_scale = max(1.0, math.sqrt(sum(float(np.sum(c * c)) for c in self.c)))
        self.c_hat = self.c / self.c_scale

        # block-arrow layout of the Schur complement: a kept row touching one
        # block is that block's own row, every other row is a border row
        coo = self.s.tocoo()
        touch = np.zeros((self.s.shape[0], k), dtype=bool)
        touch[coo.row, coo.col // nn] = True
        single = touch.sum(axis=1) == 1
        self.border = np.flatnonzero(~single)
        s_border = self.s[self.border]
        self.own = []  # per block: own-row indices and their coefficients, or None
        self.bord = []  # per block: the border rows restricted to it
        for i in range(k):
            rows = np.flatnonzero(single & touch[:, i])
            self.own.append((rows, self.s[rows][:, i * nn:(i + 1) * nn]
                             if rows.size else None))
            self.bord.append(s_border[:, i * nn:(i + 1) * nn])
        tp, tq = np.triu_indices(n)
        self.tri = (tp, tq, np.where(tp == tq, 1.0, math.sqrt(2.0)))

        bn = b[kept] / row_norm[kept] if kept else np.empty(0)
        self.b_scale = max(1.0, float(np.linalg.norm(bn)) if bn.size else 0.0)
        self.b_hat = bn / self.b_scale
        self.b_true = b
        self.b_max = float(np.abs(b).max()) if b.size else 0.0


def solve(problem: SdpProblem) -> SdpSolution:
    """Run the interior-point method on ``problem``."""
    pre = _Presolved(problem)
    k, n = pre.k, pre.n
    ntot = k * n
    eye = np.tile(np.eye(n), (k, 1, 1))

    def unvec(v):
        return _sym(v.reshape(k, n, n))

    def finish(x_hat, y_hat, status, iters, gap, rp, rd):
        if status != "infeasible":
            # least-norm projection onto A(X) = b; the Gram matrix of the
            # rows is the Schur complement at W = I
            gram = _BlockSchur(pre, eye)
            for _ in range(2):
                resid = pre.s @ x_hat.ravel() - pre.b_hat
                x_hat = x_hat - unvec(pre.st @ gram.solve(resid))
        x = _sym(x_hat) * pre.b_scale
        y = np.zeros(problem.n_constraints)
        y[pre.kept] = y_hat * pre.c_scale / pre.row_scale[pre.kept]
        pobj = sum(float(np.sum(c * xb)) for c, xb in zip(pre.c, x))
        dobj = float(y @ pre.b_true)
        return SdpSolution(
            primal_blocks=x,
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
            eye, np.zeros(len(pre.kept)),
            "infeasible", 0, math.inf, math.inf, math.inf,
        )
    if not pre.kept:
        raise ValueError("problem has no independent constraints")

    mk = len(pre.kept)
    s_mat = pre.s
    b_hat = pre.b_hat
    c_hat = pre.c_hat

    x = z = max(10.0, math.sqrt(n)) * eye
    y = np.zeros(mk)

    unit_scale = pre.b_scale * pre.c_scale

    status = "max_iterations"
    it = 0
    stall = 0
    best = None  # (score, x, y, gap, rp, rd, optimal_flag)

    for it in range(1, _MAX_ITERATIONS + 1):
        rp = b_hat - s_mat @ x.ravel()
        rd = unvec(pre.st @ y) - c_hat - z
        mu = _inner(x, z) / ntot

        pobj_hat = _inner(c_hat, x)
        dobj_hat = float(y @ b_hat)
        pobj_true = pobj_hat * unit_scale
        dobj_true = dobj_hat * unit_scale
        # residuals in original units
        rp_true = float(np.max(
            np.abs(rp) * pre.b_scale * pre.row_scale[pre.kept]
        )) if mk else 0.0
        rd_true = float(np.abs(rd).max()) * pre.c_scale
        gap_true = (mu * ntot) * unit_scale
        # objective bias carried by residuals against possibly large duals
        bias_true = (
            abs(float(y @ rp))
            + abs(_inner(rd, x))
        ) * unit_scale

        obj_scale = 1.0 + abs(pobj_true) + abs(dobj_true)
        err = max(rp_true, rd_true, abs(gap_true) / obj_scale, bias_true / obj_scale)
        converged = (
            rp_true <= _FEAS_TOL
            and rd_true <= _FEAS_TOL
            and abs(gap_true) <= _GAP_TOL * obj_scale
            and bias_true <= 10.0 * _GAP_TOL * obj_scale
        )
        if best is None or err < best[0]:
            best = (err, x, y, gap_true, rp_true, rd_true, converged)
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

        # Nesterov-Todd scaling, one stacked call for all blocks
        try:
            lx = _chol(x)
            lz = _chol(z)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        # dtrtri per block (a stacked inverse is slower here), each inverse kept
        # column-major as returned: the layout picks the BLAS kernel's rounding
        lxinv = _t(np.array([dtrtri(l, lower=1)[0].T for l in lx]))
        lzinv = _t(np.array([dtrtri(l, lower=1)[0].T for l in lz]))
        _, s_g, vt = np.linalg.svd(_t(lz) @ lx)
        s_g = np.maximum(s_g, 1e-150)
        g = lx @ _t(vt) / np.sqrt(s_g)[:, None, :]
        ginv = (np.sqrt(s_g)[:, :, None] * vt) @ lxinv

        try:
            schur = _BlockSchur(pre, g)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break

        def solve_direction(t0):
            wrdw = g @ (_t(g) @ rd @ g) @ _t(g)
            rhs = s_mat @ (t0 - wrdw).ravel() - rp
            dy = schur.solve(rhs)
            dz = unvec(pre.st @ dy) + rd
            dx = _sym(t0 - g @ (_t(g) @ dz @ g) @ _t(g))
            return dx, dy, dz

        # predictor: pure Newton step toward complementarity zero
        dx_a, dy_a, dz_a = solve_direction(-x)
        ap = min(1.0, _max_step(lxinv, dx_a))
        ad = min(1.0, _max_step(lzinv, dz_a))
        mu_aff = _inner(x + ap * dx_a, z + ad * dz_a) / ntot
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # corrector with the second-order term in the scaled space
        dxh = ginv @ dx_a @ _t(ginv)
        dzh = _t(g) @ dz_a @ g
        rc = -_sym(dxh @ dzh)
        diag = np.arange(n)
        rc[:, diag, diag] = rc[:, diag, diag] + sigma * mu - s_g ** 2
        denom = (s_g[:, :, None] + s_g[:, None, :]) / 2.0
        dx, dy, dz = solve_direction(g @ (rc / denom) @ _t(g))

        ap = min(1.0, _STEP_FRACTION * _max_step(lxinv, dx))
        ad = min(1.0, _STEP_FRACTION * _max_step(lzinv, dz))
        if ap < 1e-10 and ad < 1e-10:
            stall += 10
            continue
        x = _sym(x + ap * dx)
        z = _sym(z + ad * dz)
        y = y + ad * dy

    if status == "optimal":
        return finish(x, y, status, it, *best[3:6])
    # fall back to the best iterate seen; it may already satisfy everything
    if best is not None:
        if best[6]:
            status = "optimal"
        return finish(best[1], best[2], status, it, *best[3:6])
    return finish(x, y, status, it, math.inf, math.inf, math.inf)

"""Block-diagonal semidefinite programming by a primal-dual interior-point method.

Solves
    maximize    sum_i <C_i, X_i>
    subject to  sum_i <A_j, X_i> = b_j   for every shared row j,
                <O_r, X_i> = 0           for every own row r and block i,
                X_i >= 0,
whose dual is
    minimize    b.y
    subject to  sum_j y_j A_j + sum_r y_{r,i} O_r - C_i >= 0 for all i.

This is the shape of an NPA relaxation with one moment block per guess of
Eve's: the behavior, Bell-value and normalization rows are shared, and the
moment equalities are one own-row pattern posed on every block. Rows are
numbered shared first, then block 0's own rows, block 1's and so on; the
dual vector follows that order. Each row is sparse over one block's vec,
raveled row-major, and symmetric, so off-diagonal coefficients appear
twice.

The implementation is an infeasible-start path follower with Nesterov-Todd
scaling (the symmetric form of the Newton direction) and a Mehrotra-style
predictor-corrector, damped by a fraction-to-boundary factor. Each row is
normalized to unit Frobenius norm over the blocks it is posed on. There is
no rank check: the rows must be linearly independent. Unless the result is
infeasible, the returned primal is projected onto {A(X) = b} through the
Schur complement below at W = I. Everything is deterministic for fixed
inputs.

The Schur complement M_jk = sum_b <A_{j,b}, W_b A_{k,b} W_b> (W_b the
Nesterov-Todd scaling of block b) is block-arrow. Own rows of different
blocks never couple, so with each block's own rows D_b and the shared rows
as the border,

    M = [ D_1          C_1^T ]
        [      ...     ...   ]
        [          D_k C_k^T ]
        [ C_1 ... C_k  B     ].

Each block contributes its D_b, C_b and its share of B from one product
of the rows with the scaled basis G_b (x) G_b, and the system is solved
with one Cholesky factor per D_b plus one of the border Schur complement
B - sum_b C_b D_b^-1 C_b^T. Without own rows it is one dense factor of B.

Every block has the same order n. The solver holds the k blocks as one
(k, n, n) array from problem to certificate (objective, iterates, scalings
and the returned primal), so each of their updates is one stacked numpy
call; only the Schur complement is assembled block by block. NPA
relaxations are four blocks of one order, an operator-range bound is one
block.

A factorization or decomposition that fails (numpy's LinAlgError) ends the
solve ``numerical_failure`` with its best iterate, never an exception; if
the Gram factor of the final projection fails, that iterate is returned
unprojected. The dual vector is never touched, so a bound read from it
stays valid.

scipy.sparse and scipy.linalg are reached as attributes of the bare
``scipy`` package where they are used, and scipy loads each subpackage at
its first such access. Importing this module therefore loads neither; the
first problem built does, so a process that poses no SDP never pays for
them, nor for what scipy.sparse pulls in. The bare ``import scipy`` stays:
it binds the name those accesses go through, loads no subpackage, and puts
scipy in ``sys.modules``, where the benchmark harness reads its version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy

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


def _block_rows(rows, n: int, kind: str) -> scipy.sparse.csr_matrix:
    """``rows`` as a canonical CSR matrix over one n x n block's vec, each
    row finite, symmetric and with at least one coefficient."""
    a = scipy.sparse.csr_matrix(rows, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[1] != n * n:
        raise ValueError(f"{kind} rows need {n * n} columns, got shape {a.shape}")
    a.sum_duplicates()
    a.eliminate_zeros()
    if not np.all(np.isfinite(a.data)):
        raise ValueError(f"{kind} rows: non-finite coefficient")
    empty = np.flatnonzero(np.diff(a.indptr) == 0)
    if empty.size:
        raise ValueError(f"{kind} row {empty[0]} has no coefficient")
    # entry (p, q) of a row needs the same value at (q, p)
    mirror = np.arange(n * n).reshape(n, n).T.ravel()
    bad = np.flatnonzero(np.diff((a != a[:, mirror]).indptr))
    if bad.size:
        raise ValueError(f"{kind} row {bad[0]} is not symmetric")
    return a


@dataclass(frozen=True)
class SdpProblem:
    """One SDP instance over k blocks of one order n: ``objective`` is the
    (k, n, n) stack of symmetric blocks C_i (mirrored from their upper
    triangles); ``shared`` and ``own`` are sparse rows over one block's vec,
    symmetric. Shared row j reads sum_i <A_j, X_i> = rhs[j]; own row r
    reads <O_r, X_i> = 0 on every block i. At least one row must be shared,
    and every row needs a coefficient."""

    objective: np.ndarray = field(repr=False)
    shared: scipy.sparse.csr_matrix = field(repr=False)
    rhs: np.ndarray = field(repr=False)
    own: scipy.sparse.csr_matrix = field(repr=False)

    def __init__(self, objective, shared, rhs, own):
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
        shared = _block_rows(shared, n, "shared")
        if not shared.shape[0]:
            raise ValueError("problem needs at least one shared row")
        own = _block_rows(own, n, "own")
        b = np.array(rhs, dtype=float)
        if b.shape != (shared.shape[0],):
            raise ValueError(
                f"expected {shared.shape[0]} right-hand sides, got shape {b.shape}"
            )
        if not np.all(np.isfinite(b)):
            j = int(np.argmin(np.isfinite(b)))
            raise ValueError(f"shared row {j}: non-finite right-hand side")
        object.__setattr__(
            self, "objective", np.where(np.tri(n, k=-1, dtype=bool), _t(c), c)
        )
        object.__setattr__(self, "shared", shared)
        object.__setattr__(self, "rhs", b)
        object.__setattr__(self, "own", own)

    @property
    def block_orders(self) -> tuple[int, ...]:
        k, n = self.objective.shape[:2]
        return (n,) * k

    @property
    def n_constraints(self) -> int:
        return self.shared.shape[0] + self.objective.shape[0] * self.own.shape[0]


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
    removed_rows: tuple[int, ...]  # always (); read by the benchmark's tracing


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
    return scipy.linalg.lapack.dtrtrs(chol_l, rhs, lower=1, trans=trans)[0]


def _tri_inv(chol_l: np.ndarray) -> np.ndarray:
    """L^-1 for a lower Cholesky factor L."""
    return scipy.linalg.lapack.dtrtri(chol_l, lower=1)[0]


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
    the (k, n, n) stack of factors G_b. The rows of one block meet that
    block's scaled basis in one product, split into the border (shared)
    and own parts. Raises LinAlgError when damping cannot make M positive
    definite."""

    def __init__(self, pre: _Presolved, gfac: np.ndarray):
        ns, no = pre.n_shared, pre.n_own
        self.border = slice(0, ns)
        self.b = np.zeros((ns, ns))
        self.own = []  # (own rows, D_b, C_b) of each block, if it has own rows
        for i, g in enumerate(gfac):
            v = pre.s_block @ _scaled_basis(g, pre.tri)
            v_bord, v_own = v[:ns], v[ns:]
            self.b += v_bord @ v_bord.T
            if no:
                rows = slice(ns + i * no, ns + (i + 1) * no)
                self.own.append((rows, v_own @ v_own.T, v_bord @ v_own.T))
        trace = np.trace(self.b) + sum(np.trace(d) for _, d, _ in self.own)
        diag_mean = max(float(trace) / pre.m, 1e-300)
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
        # L L^T = B + damp I - sum_b E_b^T E_b; every factor is held
        # column-major, as dtrtrs takes it, so no solve copies it
        self.l_own, self.e = [], []
        border_schur = self.b + damp * np.eye(len(self.b))
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
    """Scaled form of a problem, plus the undo factors. Every row is
    normalized to unit Frobenius norm over the blocks it is posed on, so a
    shared row's norm sums its k copies. ``s_block`` holds the scaled rows
    over one block's vec, shared then own, the same on every block; ``s``
    stacks them over the whole vec(X) in the solver's row order and ``st``
    is its transpose, built once for A(X) and A*(y). ``c_hat`` is the
    scaled objective stack."""

    def __init__(self, problem: SdpProblem):
        k, n = problem.objective.shape[:2]
        self.k, self.n = k, n
        ns, no = problem.shared.shape[0], problem.own.shape[0]
        self.n_shared, self.n_own = ns, no
        self.m = problem.n_constraints
        rows = scipy.sparse.vstack([problem.shared, problem.own], format="csr")
        r = np.repeat(np.arange(ns + no), np.diff(rows.indptr))
        sq = rows.data * rows.data
        # a shared row's squares in block order, then each own row's
        cut = rows.indptr[ns]
        norm = np.sqrt(np.bincount(
            np.concatenate([np.tile(r[:cut], k), r[cut:]]),
            weights=np.concatenate([np.tile(sq[:cut], k), sq[cut:]]),
            minlength=ns + no,
        ))
        scaled = rows.data / norm[r]
        self.s_block = scipy.sparse.csr_matrix(
            (scaled, rows.indices, rows.indptr), shape=rows.shape
        )
        # each block's copy of the rows, own row r of block b at r + b * no;
        # every row lists its entries block by block, so they stay sorted
        blk = np.arange(k)[:, None]
        self.s = scipy.sparse.csr_matrix((
            np.tile(scaled, k),
            (np.where(r < ns, r, r + blk * no).ravel(),
             (rows.indices + blk * n * n).ravel()),
        ), shape=(self.m, k * n * n))
        self.st = self.s.T.tocsr()
        self.row_scale = np.concatenate([norm[:ns], np.tile(norm[ns:], k)])

        self.c = problem.objective
        self.c_scale = max(1.0, math.sqrt(sum(float(np.sum(c * c)) for c in self.c)))
        self.c_hat = self.c / self.c_scale
        tp, tq = np.triu_indices(n)
        self.tri = (tp, tq, np.where(tp == tq, 1.0, math.sqrt(2.0)))

        b = np.concatenate([problem.rhs, np.zeros(k * no)])
        bn = b / self.row_scale
        self.b_scale = max(1.0, float(np.linalg.norm(bn)))
        self.b_hat = bn / self.b_scale
        self.b_true = b
        self.b_max = float(np.abs(b).max())


def _step(pre: _Presolved, x, z, rp, rd, mu: float):
    """One predictor-corrector step from the iterate's x and z, its
    residuals rp, rd and complementarity mu: the damped step lengths
    (ap, ad) and the direction (dx, dy, dz). Raises LinAlgError when a
    factorization or a decomposition fails. The Schur factorization lives
    only in this call, so one step's is freed before the next one's is
    built."""
    k, n = x.shape[:2]
    ntot = k * n
    # Nesterov-Todd scaling, one stacked call for all blocks
    lx = _chol(x)
    lz = _chol(z)
    # dtrtri per block (a stacked inverse is slower here), each inverse held
    # column-major as returned: the layout picks the BLAS kernel's rounding
    lxinv = _t(np.array([_tri_inv(l).T for l in lx]))
    lzinv = _t(np.array([_tri_inv(l).T for l in lz]))
    _, s_g, vt = np.linalg.svd(_t(lz) @ lx)
    s_g = np.maximum(s_g, 1e-150)
    g = lx @ _t(vt) / np.sqrt(s_g)[:, None, :]
    ginv = (np.sqrt(s_g)[:, :, None] * vt) @ lxinv
    schur = _BlockSchur(pre, g)

    def solve_direction(t0):
        wrdw = g @ (_t(g) @ rd @ g) @ _t(g)
        rhs = pre.s @ (t0 - wrdw).ravel() - rp
        dy = schur.solve(rhs)
        dz = _sym((pre.st @ dy).reshape(k, n, n)) + rd
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
    return ap, ad, dx, dy, dz


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
            # rows is the Schur complement at W = I. Without its factor the
            # iterate stays unprojected; y, and so the bound, is untouched
            try:
                gram = _BlockSchur(pre, eye)
            except np.linalg.LinAlgError:
                status = "numerical_failure"
            else:
                for _ in range(2):
                    resid = pre.s @ x_hat.ravel() - pre.b_hat
                    x_hat = x_hat - unvec(pre.st @ gram.solve(resid))
        x = _sym(x_hat) * pre.b_scale
        y = y_hat * pre.c_scale / pre.row_scale
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
            removed_rows=(),
        )

    s_mat = pre.s
    b_hat = pre.b_hat
    c_hat = pre.c_hat

    x = z = max(10.0, math.sqrt(n)) * eye
    y = np.zeros(pre.m)

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
        rp_true = float(np.max(np.abs(rp) * pre.b_scale * pre.row_scale))
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

        try:
            ap, ad, dx, dy, dz = _step(pre, x, z, rp, rd, mu)
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
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


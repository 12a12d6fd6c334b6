"""Self-contained conic optimizer for small semidefinite programs.

Solves   minimize c.z   subject to  A z = b,  z in K,

where K is a product of free, nonnegative, and positive semidefinite blocks.
Symmetric matrix variables are scalarized to their lower triangle with
off-diagonal entries multiplied by sqrt(2), so the cone inner product equals
the Euclidean dot product of the scalarized vectors.  The solver lays the
cone out as one orthant, the positions of every nonnegative entry, and a
list of PSD blocks, so each cone operation is one vectorized step over the
orthant and one loop over the PSD blocks.

Free variables are eliminated through one SVD of the free columns A_f and
one rank cut, and their values are read back from that SVD's kept factors,
so none lies along a direction the cut declared null.  The remaining problem
is solved with a homogeneous self-dual embedding and a Nesterov-Todd scaled
Mehrotra predictor-corrector iteration.  The embedding yields trustworthy
infeasibility and unboundedness certificates instead of a stalled iterate.

The iteration over the embedding variables (x, y, s, tau, kappa) stops, in
this order of checks, when
  * the relative primal and dual residuals and the gap are all <= tol:
    Optimal, reason "optimal";
  * b.y > tol and |A^T y + s| <= tol b.y: Infeasible, reason
    "infeasible certificate";
  * -c.x > tol, |A x| <= tol (-c.x) and x is in the cone to tol (-c.x):
    Unbounded, reason "unbounded certificate";
  * tau <= eps kappa, eps the float64 machine epsilon: MaxIter, reason
    "tau collapse".  tau has vanished next to kappa, so the iterate only
    approaches a ray that missed both certificates, and no later step can
    change that; no primal or dual point is returned;
  * max_iter iterations have run: MaxIter, reason "iteration cap".
Numerical breakdowns also end it as MaxIter: "step collapse" (the step
length falls to 1e-14), "non-finite iterate", "scaling failed" (no
Nesterov-Todd scaling at the iterate), and "non-finite recovery" (the
recovered point overflows).  An Optimal whose independent ``verify_kkt``
residuals exceed 10 tol becomes MaxIter, reason "kkt rejected".  The
free-variable elimination ends some solves before any iteration:
inconsistent equality rows give Infeasible, reason "inconsistent
equalities".  A cost that decreases along a free direction leaves a
feasibility solve to decide: Unbounded, reason "free unbounded", when it is
Optimal, else Infeasible with that solve's reason.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

FREE = "free"
NONNEG = "nonneg"
PSD = "psd"

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
MAXITER = "MaxIter"

# the solver options every caller defaults to
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200


def _is_int(value) -> bool:
    """True for an integer of any integer type other than bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_options(tol, max_iter) -> None:
    """Raise ValueError unless tol is a real number in (0, 1) and max_iter an
    integer >= 1 (not a bool).  The relative gap never exceeds 1, so a
    tol >= 1 no longer tests it, and a tol <= 0 (or NaN) can never be met."""
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must be a number in (0, 1), got {tol!r}")
    if not (_is_int(max_iter) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


_SQRT2 = math.sqrt(2.0)


def block_dim(kind: str, size: int) -> int:
    return size * (size + 1) // 2 if kind == PSD else size


def block_layout(blocks) -> list:
    """(kind, size, slice) of each (kind, size) block in the scalarized
    variable vector, blocks laid out in order."""
    out = []
    offset = 0
    for kind, size in blocks:
        d = block_dim(kind, size)
        out.append((kind, size, slice(offset, offset + d)))
        offset += d
    return out


@functools.lru_cache(maxsize=None)
def _svec_index(s: int):
    """(i, j, scale) of each svec entry of an s-by-s matrix: the lower
    triangle column by column, off-diagonal entries scaled by sqrt(2)."""
    j, i = np.triu_indices(s)
    scale = np.where(i == j, 1.0, _SQRT2)
    for arr in (i, j, scale):
        arr.flags.writeable = False
    return i, j, scale


def svec(M: np.ndarray) -> np.ndarray:
    """Scalarize a symmetric matrix, or a stack (..., s, s) of them: lower
    triangle, off-diagonals * sqrt(2)."""
    i, j, scale = _svec_index(M.shape[-1])
    out = M[..., i, j]      # a fresh copy, scaled in place: no second one
    out *= scale
    return out


def smat(v: np.ndarray) -> np.ndarray:
    """Inverse of svec; a stack (..., n) gives a stack (..., s, s)."""
    n = v.shape[-1]
    s = int(round((math.sqrt(8 * n + 1) - 1) / 2))
    i, j, scale = _svec_index(s)
    M = np.empty(v.shape[:-1] + (s, s))
    M[..., i, j] = M[..., j, i] = v / scale
    return M


@dataclass(frozen=True)
class SdpProblem:
    """Conic program data over an ordered list of (kind, size) blocks."""

    blocks: tuple
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        blocks = tuple((str(k), s) for k, s in self.blocks)
        for kind, size in blocks:
            if kind not in (FREE, NONNEG, PSD) or not _is_int(size) \
                    or size < 1:
                raise ValueError(f"bad block ({kind}, {size})")
        blocks = tuple((kind, int(size)) for kind, size in blocks)
        dim = sum(block_dim(k, s) for k, s in blocks)
        c = np.asarray(self.c, dtype=float)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if A.size == 0:
            A = A.reshape(0, dim)
        if c.shape != (dim,):
            raise ValueError(f"objective length {c.shape} != total dim {dim}")
        if A.shape[1] != dim or b.shape != (A.shape[0],):
            raise ValueError("equality system dimensions are inconsistent")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))
                and np.all(np.isfinite(c))):
            raise ValueError("non-finite problem data")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class SdpSolution:
    status: str
    z: np.ndarray | None
    y: np.ndarray | None
    objective: float | None
    kkt_residuals: tuple
    iterations: int = 0
    reason: str = ""


# -- cone helpers over the conic (non-free) part -------------------------------

class _Cone:
    """Layout and algebra of the nonnegative/PSD product cone: the orthant
    as the positions of every nonnegative entry, and the (size, slice) of
    each PSD block, both in layout order."""

    def __init__(self, blocks):
        layout = block_layout(blocks)
        self.nonneg = np.array([i for kind, _, sl in layout if kind == NONNEG
                                for i in range(sl.start, sl.stop)], np.intp)
        self.psd = [(size, sl) for kind, size, sl in layout if kind == PSD]
        self.degree = sum(size for _, size in blocks)
        self.dim = sum(block_dim(kind, size) for kind, size in blocks)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[self.nonneg] = 1.0
        for size, sl in self.psd:
            e[sl] = svec(np.eye(size))
        return e

    def matrices(self, u: np.ndarray) -> list:
        """smat of each PSD block's slice of u along its last axis."""
        return [smat(u[..., sl]) for _, sl in self.psd]

    def min_eig(self, v: np.ndarray) -> float:
        worst = float(np.min(v[self.nonneg], initial=np.inf))
        for _, sl in self.psd:
            worst = min(worst, float(np.linalg.eigvalsh(smat(v[sl]))[0]))
        return worst if self.dim else 0.0


class _Scaling:
    """Nesterov-Todd scaling state at a strictly interior (x, s): w2 and lam
    over the orthant, and (slice, R, R^-1, sig, R R^T) per PSD block.
    Directions and targets come as one (orthant, [per PSD block]) pair.  The
    hot methods skip the orthant step when it is empty, as every
    ergodic_bound program's is: numpy calls on empty arrays cost
    microseconds each."""

    def __init__(self, cone: _Cone, x: np.ndarray, s: np.ndarray):
        self.cone = cone
        xn, sn = x[cone.nonneg], s[cone.nonneg]
        self.w2 = np.sqrt(xn / sn)
        self.lam = np.sqrt(xn * sn)
        self.psd = []
        for _, sl in cone.psd:
            Lx = np.linalg.cholesky(smat(x[sl]))
            Ls = np.linalg.cholesky(smat(s[sl]))
            _, sig, Vt = np.linalg.svd(Ls.T @ Lx)
            R = Lx @ Vt.T / np.sqrt(sig)
            self.psd.append((sl, R, np.linalg.inv(R), sig, R @ R.T))

    def apply_w2(self, u: np.ndarray, u_mats=None) -> np.ndarray:
        """The operator W(u) = T u T with T the NT scaling point, applied
        along the last axis of u (a vector or a stack of row vectors).
        u_mats, when given, is cone.matrices(u): each PSD block's matrices,
        converted once for a u that every iteration scales."""
        if u_mats is None:
            u_mats = self.cone.matrices(u)
        out = np.empty_like(u)
        nn = self.cone.nonneg
        if nn.size:
            out[..., nn] = self.w2 * self.w2 * u[..., nn]
        for (sl, _, _, _, T), U in zip(self.psd, u_mats):
            out[..., sl] = svec(T @ U @ T)
        return out

    def w_comp_target(self, targets) -> np.ndarray:
        """W(R^-T [(lam o)^-1 D] R^-1) for scaled targets (d, [D per PSD
        block])."""
        d, Ds = targets
        out = np.empty(self.cone.dim)
        if self.lam.size:
            # for scalars this collapses to d / s
            out[self.cone.nonneg] = self.w2 * d / self.lam
        for (sl, R, _, sig, _), D in zip(self.psd, Ds):
            M = 2.0 * D / (sig[:, None] + sig[None, :])
            out[sl] = svec(R @ M @ R.T)
        return out

    def scaled_dirs(self, dx: np.ndarray, ds: np.ndarray):
        """dx_tilde = R^-1 dx R^-T and ds_tilde = R^T ds R per block."""
        nn = self.cone.nonneg
        return ((dx[nn] / self.w2, self.w2 * ds[nn]),
                [(Rinv @ smat(dx[sl]) @ Rinv.T, R.T @ smat(ds[sl]) @ R)
                 for sl, R, Rinv, _, _ in self.psd])

    def max_step(self, dirs) -> float:
        """Largest alpha keeping x + alpha dx and s + alpha ds in the cone,
        from the scaled directions dirs = scaled_dirs(dx, ds)."""
        (dxn, dsn), blocks = dirs
        alpha = np.inf
        # overflowing directions signal a numerically dead iterate; a zero
        # step makes the caller stop instead of crashing in eigvalsh
        if self.lam.size:
            if not (np.isfinite(dxn).all() and np.isfinite(dsn).all()):
                return 0.0
            for dv in (dxn, dsn):
                neg = dv < 0
                alpha = min(alpha, float(np.min(-self.lam[neg] / dv[neg],
                                                initial=np.inf)))
        for (_, _, _, sig, _), (dxt, dst) in zip(self.psd, blocks):
            if not (np.isfinite(dxt).all() and np.isfinite(dst).all()):
                return 0.0
            scale = 1.0 / np.sqrt(sig)
            for dv in (dxt, dst):
                m = float(np.linalg.eigvalsh(
                    scale[:, None] * dv * scale[None, :])[0])
                if m < 0:
                    alpha = min(alpha, -1.0 / m)
        return alpha


# -- free-variable elimination -------------------------------------------------

def _split_cols(blocks):
    """The free and the cone columns of a block list, and its cone blocks."""
    cols = {True: [], False: []}
    for kind, _, sl in block_layout(blocks):
        cols[kind == FREE] += range(sl.start, sl.stop)
    return cols[True], cols[False], [kb for kb in blocks if kb[0] != FREE]


def _rank(sig, shape) -> int:
    """The count of sig above 1e-12 sigma_max max(shape): the one cut."""
    return int(np.sum(sig > 1e-12 * (sig[0] if sig.size else 1.0)
                      * max(shape)))


@dataclass(frozen=True)
class _Elimination:
    """The conic problem (blocks, A, b, c) left by eliminating the free
    columns A_f, and what recovers full points: A_f's kept SVD factors
    (U_r, sig_r, Vt_r), None without free columns, the null basis Q2 of
    A_f^T, the dual shift y0 and the kept equality row basis."""

    blocks: list
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    free_cols: list
    cone_cols: list
    factors: tuple | None
    Q2: np.ndarray
    y0: np.ndarray
    row_basis: np.ndarray
    inconsistent: bool
    free_unbounded: bool


def _eliminate_free(prob: SdpProblem) -> _Elimination:
    """Split off the free columns and drop dependent equality rows."""
    free_cols, cone_cols, cone_blocks = _split_cols(prob.blocks)
    A_k = prob.A[:, cone_cols]
    c_k = prob.c[cone_cols]

    if free_cols:
        A_f = prob.A[:, free_cols]
        c_f = prob.c[free_cols]
        U, sig, Vt = np.linalg.svd(A_f, full_matrices=True)
        r = _rank(sig, A_f.shape)
        factors = U_r, sig_r, Vt_r = U[:, :r], sig[:r], Vt[:r]
        Q2 = U[:, r:]
        # objective unbounded along null(A_f) unless c_f lies in range(A_f^T)
        cf_resid = c_f - Vt_r.T @ (Vt_r @ c_f)
        free_unbounded = np.linalg.norm(cf_resid) > 1e-9 * (1 + np.linalg.norm(c_f))
        y0 = ((U_r / sig_r) @ Vt_r) @ c_f
        A_red = Q2.T @ A_k
        b_red = Q2.T @ prob.b
        c_red = c_k - A_k.T @ y0
    else:
        factors, free_unbounded = None, False
        Q2, y0 = np.eye(prob.A.shape[0]), np.zeros(prob.A.shape[0])
        A_red, b_red, c_red = A_k, prob.b, c_k

    # drop linearly dependent equality rows; detect outright inconsistency
    if A_red.shape[0]:
        Ur, sr, _ = np.linalg.svd(A_red, full_matrices=False)
        row_basis = Ur[:, :_rank(sr, A_red.shape)]
        resid = b_red - row_basis @ (row_basis.T @ b_red)
        inconsistent = np.linalg.norm(resid) > 1e-9 * (1 + np.linalg.norm(b_red))
        A_red = row_basis.T @ A_red
        b_red = row_basis.T @ b_red
    else:
        inconsistent, row_basis = False, np.eye(0)

    return _Elimination(cone_blocks, A_red, b_red, c_red, free_cols,
                        cone_cols, factors, Q2, y0, row_basis,
                        inconsistent, free_unbounded)


def _recover_full(prob: SdpProblem, elim: _Elimination, z_cone, y_red):
    z = np.zeros(prob.dim)
    z[elim.cone_cols] = z_cone
    if elim.free_cols:
        # z_f = A_f^+ rhs through the factors the elimination kept, so
        # nothing lands along a direction whose singular value it cut
        U_r, sig_r, Vt_r = elim.factors
        rhs = prob.b - prob.A[:, elim.cone_cols] @ z_cone
        z[elim.free_cols] = Vt_r.T @ ((U_r.T @ rhs) / sig_r)
    return z, elim.y0 + elim.Q2 @ (elim.row_basis @ y_red)


# -- the interior-point iteration ---------------------------------------------

def _hsde_solve(cone: _Cone, A, b, c, tol, max_iter):
    """HSDE predictor-corrector loop over the conic variables only; returns
    (status, reason, x, y, tau, iterations)."""
    p = A.shape[0]
    x = cone.identity()
    s = cone.identity()
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0
    nrm_b = 1.0 + np.linalg.norm(b)
    nrm_c = 1.0 + np.linalg.norm(c)
    status, reason, iters = MAXITER, "iteration cap", 0
    # A is the same at every iteration: its PSD blocks as matrix stacks
    A_mats = cone.matrices(A)

    # near-breakdown iterates can overflow transiently; the finiteness
    # guards below turn that into a clean MaxIter instead of a crash
    for iters in range(1, max_iter + 1):
        if not (np.isfinite(x).all() and np.isfinite(s).all()
                and np.isfinite(y).all() and np.isfinite(tau)
                and np.isfinite(kappa)):
            reason = "non-finite iterate"
            break
        r_p = A @ x - b * tau
        r_d = -A.T @ y + c * tau - s
        r_g = float(b @ y - c @ x - kappa)
        cx = float(c @ x)
        by = float(b @ y)

        pres = np.linalg.norm(r_p) / (tau * nrm_b)
        dres = np.linalg.norm(r_d) / (tau * nrm_c)
        gap = abs(cx - by) / (tau + abs(cx) + abs(by))
        if pres <= tol and dres <= tol and gap <= tol:
            status, reason = OPTIMAL, "optimal"
            break

        # infeasibility certificates from the homogeneous variables
        if by > tol and np.linalg.norm(A.T @ y + s) <= tol * by:
            return INFEASIBLE, "infeasible certificate", x, y, tau, iters
        if -cx > tol and np.linalg.norm(A @ x) <= tol * (-cx) \
                and cone.min_eig(x) >= -tol * (-cx):
            return UNBOUNDED, "unbounded certificate", x, y, tau, iters
        # tau below the rounding of kappa: the iterate heads for a ray
        # that missed both certificates, and further steps only rescale it
        if tau <= np.finfo(float).eps * kappa:
            return MAXITER, "tau collapse", x, y, tau, iters

        try:
            scaling = _Scaling(cone, x, s)
        except np.linalg.LinAlgError:
            reason = "scaling failed"
            break
        mu = (float(x @ s) + tau * kappa) / (cone.degree + 1)

        # Schur complement M = A W A^T; W A^T must be a contiguous (dim, p)
        # array, as a transposed view changes the BLAS call and the bits
        M = A @ np.ascontiguousarray(scaling.apply_w2(A, A_mats).T)
        M_reg = M + 1e-14 * np.trace(M) / max(p, 1) * np.eye(p)
        Wc = scaling.apply_w2(c)

        def factor_solve(rhs):
            try:
                return np.linalg.solve(M_reg, rhs)
            except np.linalg.LinAlgError:
                return np.linalg.lstsq(M, rhs, rcond=None)[0]

        dy2 = factor_solve(A @ Wc + b)
        bAWc = b - A @ Wc
        denom = float(bAWc @ dy2) + float(c @ Wc) + kappa / tau

        def newton(r1, r2, r3, r5, targets):
            wfd = scaling.w_comp_target(targets)
            w_r2 = wfd + scaling.apply_w2(r2)
            dy1 = factor_solve(r1 - A @ w_r2)
            rhs_tau = r3 + float(c @ w_r2) + r5 / tau
            dtau = (rhs_tau - float(bAWc @ dy1)) / denom
            dy = dy1 + dtau * dy2
            ATdy = A.T @ dy
            dx = wfd + scaling.apply_w2(r2 + ATdy) - Wc * dtau
            ds = -ATdy + c * dtau - r2
            dkappa = (r5 - kappa * dtau) / tau
            return dx, dy, ds, dtau, dkappa

        # predictor: full Newton step toward the central-path target 0
        lam = scaling.lam
        aff_targets = (-lam * lam, [-np.diag(sig * sig)
                                    for _, _, _, sig, _ in scaling.psd])
        aff = newton(-r_p, -r_d, -r_g, -tau * kappa, aff_targets)
        dx_a, dy_a, ds_a, dtau_a, dkap_a = aff
        dirs_a = scaling.scaled_dirs(dx_a, ds_a)
        alpha_aff = min(scaling.max_step(dirs_a),
                        tau / -dtau_a if dtau_a < 0 else np.inf,
                        kappa / -dkap_a if dkap_a < 0 else np.inf, 1.0)
        sigma = max(min((1.0 - alpha_aff) ** 3, 1.0), 1e-10)

        # corrector with Mehrotra second-order terms
        (dxn, dsn), blocks_a = dirs_a
        targets = (sigma * mu - lam * lam - dxn * dsn,
                   [sigma * mu * np.eye(sig.shape[0]) - np.diag(sig * sig)
                    - 0.5 * (dxt @ dst + dst @ dxt)
                    for (_, _, _, sig, _), (dxt, dst) in zip(scaling.psd,
                                                             blocks_a)])
        r5 = -tau * kappa - dtau_a * dkap_a + sigma * mu
        eta = 1.0 - sigma
        dx, dy, ds, dtau, dkappa = newton(-eta * r_p, -eta * r_d, -eta * r_g,
                                          r5, targets)

        alpha = min(scaling.max_step(scaling.scaled_dirs(dx, ds)),
                    tau / -dtau if dtau < 0 else np.inf,
                    kappa / -dkappa if dkappa < 0 else np.inf)
        alpha = min(0.99 * alpha, 1.0)
        if not np.isfinite(alpha) or alpha <= 1e-14:
            reason = "step collapse"
            break
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    return status, reason, x, y, tau, iters


def solve(prob: SdpProblem, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SdpSolution:
    """Solve the conic program; never reports Optimal without meeting tol.
    ``SdpSolution.reason`` names the exit (see the module docstring).
    Raises ValueError on options that ``check_options`` rejects."""
    check_options(tol, max_iter)
    no_point = (None, None, None, (np.inf, np.inf, np.inf))
    elim = _eliminate_free(prob)
    if elim.inconsistent:
        return SdpSolution(INFEASIBLE, *no_point,
                           reason="inconsistent equalities")

    cone = _Cone(elim.blocks)
    if cone.dim == 0:
        # purely free problem, consistent: the elimination left no equality
        if elim.free_unbounded:
            return SdpSolution(UNBOUNDED, None, None, None, (0.0, 0.0, np.inf),
                               reason="free unbounded")
        z, y = _recover_full(prob, elim, np.zeros(0), np.zeros(0))
        return SdpSolution(OPTIMAL, z, y, float(prob.c @ z),
                           verify_kkt(prob, z, y), 0, reason="optimal")

    if elim.free_unbounded:
        # objective decreases along a free null direction from any feasible
        # point, so the verdict reduces to a feasibility question
        feas = solve(SdpProblem(elim.blocks, np.zeros(cone.dim), elim.A,
                                elim.b), tol, max_iter)
        if feas.status == OPTIMAL:
            return SdpSolution(UNBOUNDED, *no_point, reason="free unbounded")
        return SdpSolution(INFEASIBLE, *no_point, reason=feas.reason)

    with np.errstate(over="ignore", invalid="ignore"):
        status, reason, x, y, tau, iters = _hsde_solve(
            cone, elim.A, elim.b, elim.c, tol, max_iter)

    if status in (INFEASIBLE, UNBOUNDED) or reason == "tau collapse":
        return SdpSolution(status, *no_point, iters, reason=reason)
    z, y_full = _recover_full(prob, elim, x / tau, y / tau)
    if not (np.isfinite(z).all() and np.isfinite(y_full).all()):
        if reason != "non-finite iterate":
            reason = "non-finite recovery"
        return SdpSolution(MAXITER, *no_point, iters, reason=reason)
    residuals = verify_kkt(prob, z, y_full)
    if status == OPTIMAL and max(residuals) > 10 * tol:
        status, reason = MAXITER, "kkt rejected"
    obj = float(prob.c @ z)
    return SdpSolution(status, z, y_full, obj, residuals, iters, reason=reason)


def verify_kkt(prob: SdpProblem, z, y=None) -> tuple:
    """Independent residuals (primal feasibility, dual feasibility, gap).

    Accepts either a primal/dual pair or an SdpSolution; a solution
    without a point is unverifiable, (inf, inf, inf).  Raises ValueError
    when z is an array and y is missing.
    """
    if isinstance(z, SdpSolution):
        z, y = z.z, z.y
        if z is None:
            return (np.inf, np.inf, np.inf)
    elif y is None:
        raise ValueError("verify_kkt needs the dual point y with an array z")
    if not (np.isfinite(z).all() and np.isfinite(y).all()):
        return (np.inf, np.inf, np.inf)
    # finite but huge iterates overflow in the products below; that reads as
    # an unverifiable point, not as an error
    with np.errstate(over="ignore", invalid="ignore"):
        primal_eq = (np.linalg.norm(prob.A @ z - prob.b)
                     / (1 + np.linalg.norm(prob.b)))
        s = prob.c - prob.A.T @ y
        cx, by = float(prob.c @ z), float(prob.b @ y)
        gap = abs(cx - by) / (1 + abs(cx) + abs(by))
    if not (np.isfinite(primal_eq) and np.isfinite(s).all()
            and np.isfinite(gap)):
        return (np.inf, np.inf, np.inf)
    # the free part of s must vanish; z and s must lie in the cone
    free_cols, cone_cols, cone_blocks = _split_cols(prob.blocks)
    cone = _Cone(cone_blocks)
    cone_viol = max(float(np.max(np.abs(s[free_cols]), initial=0.0)),
                    -cone.min_eig(z[cone_cols]), -cone.min_eig(s[cone_cols]))
    return (float(primal_eq), float(cone_viol), float(gap))

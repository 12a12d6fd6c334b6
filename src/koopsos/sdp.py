"""Self-contained conic optimizer for small semidefinite programs.

Solves   minimize c.z   subject to  A z = b,  z in K,

where K is a product of free, nonnegative, and positive semidefinite blocks.
Symmetric matrix variables are scalarized to their lower triangle with
off-diagonal entries multiplied by sqrt(2), so the cone inner product equals
the Euclidean dot product of the scalarized vectors.

Free variables are eliminated analytically, then the remaining problem is
solved with a homogeneous self-dual embedding and a Nesterov-Todd scaled
Mehrotra predictor-corrector iteration.  The embedding yields trustworthy
infeasibility and unboundedness certificates instead of a stalled iterate.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

FREE = "free"
NONNEG = "nonneg"
PSD = "psd"

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
MAXITER = "MaxIter"

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
    return M[..., i, j] * scale


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
        blocks = tuple((str(k), int(s)) for k, s in self.blocks)
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
        for kind, size in blocks:
            if kind not in (FREE, NONNEG, PSD) or size < 1:
                raise ValueError(f"bad block ({kind}, {size})")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def to_json(self) -> str:
        rows, cols = np.nonzero(self.A)
        payload = {
            "blocks": [list(bl) for bl in self.blocks],
            "c": self.c.tolist(),
            "b": self.b.tolist(),
            "A_triplets": [[int(i), int(j), float(self.A[i, j])]
                           for i, j in zip(rows, cols)],
            "n_rows": int(self.A.shape[0]),
        }
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "SdpProblem":
        data = json.loads(text)
        blocks = tuple((k, int(s)) for k, s in data["blocks"])
        dim = sum(block_dim(k, s) for k, s in blocks)
        A = np.zeros((int(data["n_rows"]), dim))
        for i, j, v in data["A_triplets"]:
            A[int(i), int(j)] = float(v)
        return SdpProblem(blocks, np.array(data["c"]), A, np.array(data["b"]))


@dataclass(frozen=True)
class SdpSolution:
    status: str
    z: np.ndarray | None
    y: np.ndarray | None
    objective: float | None
    kkt_residuals: tuple
    iterations: int = 0
    certificate: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "status": self.status,
            "z": None if self.z is None else self.z.tolist(),
            "y": None if self.y is None else self.y.tolist(),
            "objective": self.objective,
            "kkt_residuals": list(self.kkt_residuals),
            "iterations": self.iterations,
        })


# -- cone helpers over the conic (non-free) part -------------------------------

class _Cone:
    """Layout and algebra of the nonnegative/PSD product cone."""

    def __init__(self, blocks):
        self.blocks = block_layout(blocks)
        self.degree = sum(size for _, size in blocks)
        self.dim = sum(block_dim(kind, size) for kind, size in blocks)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dim)
        for kind, size, sl in self.blocks:
            if kind == NONNEG:
                e[sl] = 1.0
            else:
                e[sl] = svec(np.eye(size))
        return e

    def min_eig(self, v: np.ndarray) -> float:
        worst = np.inf
        for kind, size, sl in self.blocks:
            if kind == NONNEG:
                worst = min(worst, float(np.min(v[sl])))
            else:
                worst = min(worst, float(np.linalg.eigvalsh(smat(v[sl]))[0]))
        return worst if self.blocks else 0.0


class _Scaling:
    """Nesterov-Todd scaling state at a strictly interior (x, s)."""

    def __init__(self, cone: _Cone, x: np.ndarray, s: np.ndarray):
        self.cone = cone
        self.data = []
        lam_parts = []
        for kind, size, sl in cone.blocks:
            if kind == NONNEG:
                w2 = np.sqrt(x[sl] / s[sl])
                lam = np.sqrt(x[sl] * s[sl])
                self.data.append((kind, sl, (w2, lam)))
                lam_parts.append(lam)
            else:
                X = smat(x[sl])
                S = smat(s[sl])
                Lx = np.linalg.cholesky(X)
                Ls = np.linalg.cholesky(S)
                U, sig, Vt = np.linalg.svd(Ls.T @ Lx)
                R = Lx @ Vt.T / np.sqrt(sig)
                Rinv = np.linalg.inv(R)
                self.data.append((kind, sl, (R, Rinv, sig, R @ R.T)))
                lam_parts.append(sig)
        self.lam_parts = lam_parts

    def apply_w2(self, u: np.ndarray) -> np.ndarray:
        """The operator W(u) = T u T with T the NT scaling point, applied
        along the last axis of u (a vector or a stack of row vectors)."""
        out = np.empty_like(u)
        for kind, sl, dat in self.data:
            if kind == NONNEG:
                w2, _ = dat
                out[..., sl] = w2 * w2 * u[..., sl]
            else:
                _, _, _, T = dat
                out[..., sl] = svec(T @ smat(u[..., sl]) @ T)
        return out

    def w_comp_target(self, targets) -> np.ndarray:
        """W(R^-T [(lam o)^-1 D] R^-1) for per-block scaled targets D."""
        out = np.empty(self.cone.dim)
        for (kind, sl, dat), D in zip(self.data, targets):
            if kind == NONNEG:
                w2, lam = dat
                # for scalars this collapses to d / s
                out[sl] = w2 * D / lam
            else:
                R, _, sig, _ = dat
                M = 2.0 * D / (sig[:, None] + sig[None, :])
                out[sl] = svec(R @ M @ R.T)
        return out

    def scaled_dirs(self, dx: np.ndarray, ds: np.ndarray):
        """dx_tilde = R^-1 dx R^-T and ds_tilde = R^T ds R per block."""
        out = []
        for kind, sl, dat in self.data:
            if kind == NONNEG:
                w2, _ = dat
                out.append((dx[sl] / w2, w2 * ds[sl]))
            else:
                R, Rinv, _, _ = dat
                out.append((Rinv @ smat(dx[sl]) @ Rinv.T,
                            R.T @ smat(ds[sl]) @ R))
        return out

    def max_step(self, dirs) -> float:
        """Largest alpha keeping x + alpha dx and s + alpha ds in the cone,
        from the scaled directions dirs = scaled_dirs(dx, ds)."""
        alpha = np.inf
        for (kind, _, dat), (dxt, dst) in zip(self.data, dirs):
            # overflowing directions signal a numerically dead iterate; a
            # zero step makes the caller stop instead of crashing in eigvalsh
            if not (np.isfinite(dxt).all() and np.isfinite(dst).all()):
                return 0.0
            if kind == NONNEG:
                _, lam = dat
                for dv in (dxt, dst):
                    neg = dv < 0
                    if np.any(neg):
                        alpha = min(alpha, float(np.min(-lam[neg] / dv[neg])))
            else:
                _, _, sig, _ = dat
                scale = 1.0 / np.sqrt(sig)
                for dv in (dxt, dst):
                    m = float(np.linalg.eigvalsh(
                        scale[:, None] * dv * scale[None, :])[0])
                    if m < 0:
                        alpha = min(alpha, -1.0 / m)
        return alpha


# -- free-variable elimination -------------------------------------------------

def _eliminate_free(prob: SdpProblem):
    """Split off free columns; returns the reduced conic problem plus the
    data needed to recover full primal/dual points."""
    free_cols, cone_cols, cone_blocks = [], [], []
    for kind, size, sl in block_layout(prob.blocks):
        idx = list(range(sl.start, sl.stop))
        if kind == FREE:
            free_cols += idx
        else:
            cone_cols += idx
            cone_blocks.append((kind, size))
    A_f = prob.A[:, free_cols]
    A_k = prob.A[:, cone_cols]
    c_f = prob.c[free_cols]
    c_k = prob.c[cone_cols]
    b = prob.b

    if free_cols:
        U, sig, Vt = np.linalg.svd(A_f, full_matrices=True)
        r = int(np.sum(sig > 1e-12 * (sig[0] if sig.size else 1.0)
                       * max(A_f.shape)))
        Q2 = U[:, r:]
        pinv_AfT = (U[:, :r] / sig[:r]) @ Vt[:r]
        # objective unbounded along null(A_f) unless c_f lies in range(A_f^T)
        cf_resid = c_f - Vt[:r].T @ (Vt[:r] @ c_f)
        free_unbounded = np.linalg.norm(cf_resid) > 1e-9 * (1 + np.linalg.norm(c_f))
        y0 = pinv_AfT @ c_f
        A_red = Q2.T @ A_k
        b_red = Q2.T @ b
        c_red = c_k - A_k.T @ y0
        shift = float(y0 @ b)
    else:
        Q2 = np.eye(prob.A.shape[0])
        y0 = np.zeros(prob.A.shape[0])
        A_red, b_red, c_red, shift = A_k, b.copy(), c_k.copy(), 0.0
        free_unbounded = False

    # drop linearly dependent equality rows; detect outright inconsistency
    if A_red.shape[0]:
        Ur, sr, _ = np.linalg.svd(A_red, full_matrices=False)
        rr = int(np.sum(sr > 1e-12 * (sr[0] if sr.size else 1.0)
                        * max(A_red.shape)))
        resid = b_red - Ur[:, :rr] @ (Ur[:, :rr].T @ b_red)
        inconsistent = np.linalg.norm(resid) > 1e-9 * (1 + np.linalg.norm(b_red))
        row_basis = Ur[:, :rr]
        A_red = row_basis.T @ A_red
        b_red = row_basis.T @ b_red
    else:
        inconsistent = False
        row_basis = np.eye(0)

    recover = {
        "free_cols": free_cols, "cone_cols": cone_cols,
        "A_f": A_f, "A_k": A_k, "Q2": Q2, "y0": y0,
        "row_basis": row_basis, "shift": shift,
    }
    reduced = {"blocks": cone_blocks, "A": A_red, "b": b_red, "c": c_red}
    return reduced, recover, inconsistent, free_unbounded


def _recover_full(prob: SdpProblem, recover, z_cone, y_red):
    z = np.zeros(prob.dim)
    if z_cone is not None:
        z[recover["cone_cols"]] = z_cone
    if recover["free_cols"]:
        rhs = prob.b - recover["A_k"] @ (z_cone if z_cone is not None else 0.0)
        z[recover["free_cols"]] = np.linalg.lstsq(
            recover["A_f"], rhs, rcond=None)[0]
    if y_red is None:
        y = None
    else:
        y = recover["y0"] + recover["Q2"] @ (recover["row_basis"] @ y_red)
    return z, y


# -- the interior-point iteration ---------------------------------------------

def _hsde_solve(cone: _Cone, A, b, c, tol, max_iter):
    """HSDE predictor-corrector loop over the conic variables only."""
    p = A.shape[0]
    x = cone.identity()
    s = cone.identity()
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0
    nrm_b = 1.0 + np.linalg.norm(b)
    nrm_c = 1.0 + np.linalg.norm(c)
    status, iters = MAXITER, 0

    # near-breakdown iterates can overflow transiently; the finiteness
    # guards below turn that into a clean MaxIter instead of a crash
    for iters in range(1, max_iter + 1):
        if not (np.isfinite(x).all() and np.isfinite(s).all()
                and np.isfinite(y).all() and np.isfinite(tau)
                and np.isfinite(kappa)):
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
            status = OPTIMAL
            break

        # infeasibility certificates from the homogeneous variables
        if by > tol and np.linalg.norm(A.T @ y + s) <= tol * by:
            return INFEASIBLE, x, y, s, tau, kappa, iters
        if -cx > tol and np.linalg.norm(A @ x) <= tol * (-cx) \
                and cone.min_eig(x) >= -tol * (-cx):
            return UNBOUNDED, x, y, s, tau, kappa, iters

        try:
            scaling = _Scaling(cone, x, s)
        except np.linalg.LinAlgError:
            break
        mu = (float(x @ s) + tau * kappa) / (cone.degree + 1)

        # Schur complement M = A W A^T; W A^T must be a contiguous (dim, p)
        # array, as a transposed view changes the BLAS call and the bits
        M = A @ np.ascontiguousarray(scaling.apply_w2(A).T)
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
        aff_targets = [(-lam * lam) if kind == NONNEG else (-np.diag(lam * lam))
                       for (kind, _, _), lam in zip(scaling.data,
                                                    scaling.lam_parts)]
        aff = newton(-r_p, -r_d, -r_g, -tau * kappa, aff_targets)
        dx_a, dy_a, ds_a, dtau_a, dkap_a = aff
        dirs_a = scaling.scaled_dirs(dx_a, ds_a)
        alpha_aff = min(scaling.max_step(dirs_a),
                        tau / -dtau_a if dtau_a < 0 else np.inf,
                        kappa / -dkap_a if dkap_a < 0 else np.inf, 1.0)
        sigma = max(min((1.0 - alpha_aff) ** 3, 1.0), 1e-10)

        # corrector with Mehrotra second-order terms
        targets = []
        for (kind, _, _), lam, (dxt, dst) in zip(scaling.data,
                                                 scaling.lam_parts, dirs_a):
            if kind == NONNEG:
                targets.append(sigma * mu - lam * lam - dxt * dst)
            else:
                corr = 0.5 * (dxt @ dst + dst @ dxt)
                targets.append(sigma * mu * np.eye(lam.shape[0])
                               - np.diag(lam * lam) - corr)
        r5 = -tau * kappa - dtau_a * dkap_a + sigma * mu
        eta = 1.0 - sigma
        dx, dy, ds, dtau, dkappa = newton(-eta * r_p, -eta * r_d, -eta * r_g,
                                          r5, targets)

        alpha = min(scaling.max_step(scaling.scaled_dirs(dx, ds)),
                    tau / -dtau if dtau < 0 else np.inf,
                    kappa / -dkappa if dkappa < 0 else np.inf)
        alpha = min(0.99 * alpha, 1.0)
        if not np.isfinite(alpha) or alpha <= 1e-14:
            break
        x = x + alpha * dx
        y = y + alpha * dy
        s = s + alpha * ds
        tau += alpha * dtau
        kappa += alpha * dkappa

    return status, x, y, s, tau, kappa, iters


def solve(prob: SdpProblem, tol: float = 1e-8, max_iter: int = 200
          ) -> SdpSolution:
    """Solve the conic program; never reports Optimal without meeting tol."""
    reduced, recover, inconsistent, free_unbounded = _eliminate_free(prob)
    if inconsistent:
        return SdpSolution(INFEASIBLE, None, None, None, (np.inf, np.inf, np.inf))

    cone = _Cone(reduced["blocks"])
    A, b, c = reduced["A"], reduced["b"], reduced["c"]

    if cone.dim == 0:
        # purely free problem: feasible iff the reduced equalities vanished
        if np.linalg.norm(b) > 1e-9 * (1 + np.linalg.norm(prob.b)):
            return SdpSolution(INFEASIBLE, None, None, None,
                               (np.inf, np.inf, np.inf))
        if free_unbounded:
            return SdpSolution(UNBOUNDED, None, None, None, (0.0, 0.0, np.inf))
        z, y = _recover_full(prob, recover, None, np.zeros(A.shape[0]))
        return SdpSolution(OPTIMAL, z, y, float(prob.c @ z),
                           verify_kkt(prob, z, y), 0)

    if free_unbounded:
        # objective decreases along a free null direction from any feasible
        # point, so the verdict reduces to a feasibility question
        feas = solve(SdpProblem(reduced["blocks"], np.zeros(cone.dim), A, b),
                     tol, max_iter)
        status = UNBOUNDED if feas.status == OPTIMAL else INFEASIBLE
        return SdpSolution(status, None, None, None, (np.inf, np.inf, np.inf))

    with np.errstate(over="ignore", invalid="ignore"):
        status, x, y, s, tau, kappa, iters = _hsde_solve(
            cone, A, b, c, tol, max_iter)

    if status in (INFEASIBLE, UNBOUNDED):
        return SdpSolution(status, None, None, None, (np.inf, np.inf, np.inf),
                           iters, certificate={"tau": tau, "kappa": kappa})
    z_cone = x / tau
    y_red = y / tau
    z, y_full = _recover_full(prob, recover, z_cone, y_red)
    if not (np.isfinite(z).all() and np.isfinite(y_full).all()):
        return SdpSolution(MAXITER, None, None, None,
                           (np.inf, np.inf, np.inf), iters)
    residuals = verify_kkt(prob, z, y_full)
    if status == OPTIMAL and max(residuals) > 10 * tol:
        status = MAXITER
    obj = float(prob.c @ z)
    return SdpSolution(status, z, y_full, obj, residuals, iters)


def verify_kkt(prob: SdpProblem, z, y=None) -> tuple:
    """Independent residuals (primal feasibility, dual feasibility, gap).

    Accepts either a primal/dual pair or an SdpSolution.
    """
    if isinstance(z, SdpSolution):
        z, y = z.z, z.y
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
    cone_viol = 0.0
    for kind, size, sl in block_layout(prob.blocks):
        if kind == FREE:
            cone_viol = max(cone_viol, float(np.max(np.abs(s[sl]))))
        elif kind == NONNEG:
            cone_viol = max(cone_viol, float(np.max(-np.minimum(z[sl], 0))),
                            float(np.max(-np.minimum(s[sl], 0))))
        else:
            cone_viol = max(cone_viol,
                            max(0.0, -float(np.linalg.eigvalsh(smat(z[sl]))[0])),
                            max(0.0, -float(np.linalg.eigvalsh(smat(s[sl]))[0])))
    return (float(primal_eq), float(cone_viol), float(gap))

"""EDMD and gEDMD operator fitting, moment matrices, and diagnostics.

Operators are built in normal-equations form, K = (Phi Psi^T)(Psi Psi^T)^+,
so only m-by-m Gram matrices are held in memory regardless of the number of
snapshots.  Gram accumulation streams over fixed-size row chunks with Kahan
compensated summation, which keeps results reproducible and accurate for runs
with up to 1e7 rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .polybasis import (MONOMIAL, Dictionary, Poly, evaluate, inclusion_matrix)
from .snapshots import GENERATOR, KOOPMAN, SnapshotSet

CHUNK_ROWS = 1 << 16
# singular values below REL_TOL * sigma_max * max(rows, cols) count as zero
REL_TOL = 1e-12


class NonFiniteInput(ValueError):
    pass


def pinv(M: np.ndarray, rel_tol: float = REL_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse, truncating singular values below
    rel_tol * sigma_max * max(rows, cols)."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput("matrix has non-finite entries")
    if not (0 < rel_tol < 1):
        raise ValueError("rel_tol must lie in (0, 1)")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(M.T)
    cutoff = rel_tol * s[0] * max(M.shape)
    inv = np.where(s >= cutoff,
                   np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (Vt.T * inv) @ U.T


def _numerical_rank(s: np.ndarray, shape) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s >= REL_TOL * s[0] * max(shape)))


class _KahanAccumulator:
    """Chunkwise compensated summation of a matrix-valued stream."""

    def __init__(self, shape):
        self.total = np.zeros(shape)
        self.comp = np.zeros(shape)

    def add(self, value: np.ndarray):
        y = value - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class EdmdOperators:
    """Fitted operator matrices over a (phi, psi) dictionary pair."""

    phi: Dictionary
    psi: Dictionary
    theta: np.ndarray
    tau: float
    K: np.ndarray | None
    L: np.ndarray | None
    G: np.ndarray | None
    svd_report: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "phi": json.loads(self.phi.to_json()),
            "psi": json.loads(self.psi.to_json()),
            "tau": self.tau,
            "svd_report": self.svd_report,
        }
        for name in ("K", "L", "G"):
            mat = getattr(self, name)
            payload[name] = None if mat is None else mat.tolist()
        return json.dumps(payload)


def _refined_ls(num: np.ndarray, B: np.ndarray):
    """Solve X B = num in the least-squares sense, X = num B^+, with
    iterative refinement; returns X and the SVD/rank report of B.

    The Gram system squares the conditioning of the feature matrix, so for
    long ill-conditioned trajectories a plain num @ pinv(B) loses enough
    accuracy to perturb the finite-difference Lie matrix (the error is
    amplified by 1/tau downstream).  Residuals are re-evaluated in extended
    precision and corrected through the same truncated pseudoinverse, which
    preserves the rank-deficient semantics: at the exact least-squares
    solution the residual lies in the kernel of B^+, so the corrections
    vanish instead of drifting.
    """
    Bp = pinv(B)
    X = num @ Bp
    num_ld = num.astype(np.longdouble)
    B_ld = B.astype(np.longdouble)
    for _ in range(3):
        resid = np.asarray(num_ld - X.astype(np.longdouble) @ B_ld,
                           dtype=float)
        corr = resid @ Bp
        X = np.asarray(X.astype(np.longdouble) + corr.astype(np.longdouble),
                       dtype=float)
        if np.linalg.norm(corr) <= 1e-15 * (1.0 + np.linalg.norm(X)):
            break
    svals = np.linalg.svd(B, compute_uv=False)
    return X, {"singular_values": svals.tolist(),
               "rank": _numerical_rank(svals, B.shape),
               "rel_tol": REL_TOL}


def fit_edmd(s: SnapshotSet, phi: Dictionary, psi: Dictionary
             ) -> EdmdOperators:
    """Least-squares Koopman matrix K = (Phi Psi^T)(Psi Psi^T)^+ and the
    finite-difference Lie matrix L = (K - Theta) / tau."""
    if s.kind != KOOPMAN:
        raise ValueError("fit_edmd needs koopman-kind snapshots")
    mm = moment_matrices(s, phi, psi)
    K, report = _refined_ls(mm.A_tau, mm.B)
    theta = inclusion_matrix(phi, psi)
    return EdmdOperators(phi, psi, theta, s.tau, K, (K - theta) / s.tau, None,
                         report)


def fit_gedmd(s: SnapshotSet, phi: Dictionary, psi: Dictionary
              ) -> EdmdOperators:
    """Generator matrix G = (Lambda Psi^T)(Psi Psi^T)^+ from sampled Lie
    derivative values."""
    if s.kind != GENERATOR:
        raise ValueError("fit_gedmd needs generator-kind snapshots")
    mm = moment_matrices(s, phi, psi)
    G, report = _refined_ls(mm.C, mm.B)
    return EdmdOperators(phi, psi, inclusion_matrix(phi, psi), s.tau, None,
                         None, G, report)


def apply_lie(ops: EdmdOperators, which: str, p: Poly) -> Poly:
    """Approximate Lie derivative of p = c . phi as a polynomial over psi."""
    if p.basis != ops.phi:
        raise ValueError("polynomial must be expressed over the phi dictionary")
    if which == "edmd":
        mat = ops.L
    elif which == "gedmd":
        mat = ops.G
    else:
        raise ValueError(f"unknown operator choice {which!r}")
    if mat is None:
        raise ValueError(f"{which} matrix not present on these operators")
    return Poly(ops.psi, p.coeffs @ mat)


@dataclass(frozen=True)
class MomentMatrices:
    """The matrices A^tau, B, C, D^tau underlying the fitted operators."""

    B: np.ndarray
    A_tau: np.ndarray | None
    C: np.ndarray | None
    D_tau: np.ndarray | None
    source: str


def moment_matrices(s: SnapshotSet, phi: Dictionary, psi: Dictionary
                    ) -> MomentMatrices:
    """Empirical moment matrices of the snapshot set, streamed in one pass.

    B = avg psi(x) psi(x)^T always; koopman data adds A^tau = avg
    phi(y) psi(x)^T and D^tau = (A^tau - Theta B) / tau; generator data adds
    C = avg y psi(x)^T.
    """
    theta = inclusion_matrix(phi, psi)
    if phi.dimension != s.d:
        raise ValueError("dictionary dimension does not match snapshot states")
    koopman = s.kind == KOOPMAN
    if not koopman and s.q != phi.size:
        raise ValueError("generator snapshot y-dimension must equal phi size")
    acc_b = _KahanAccumulator((psi.size, psi.size))
    acc_a = _KahanAccumulator((phi.size, psi.size))
    for start in range(0, s.n, CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        Psi = evaluate(psi, s.X[rows])
        acc_b.add(Psi @ Psi.T)
        # phi(y) stays a temporary so no chunk of it outlives its product
        acc_a.add((evaluate(phi, s.Y[rows]) if koopman else s.Y[rows].T)
                  @ Psi.T)
    B, A = acc_b.total / s.n, acc_a.total / s.n
    if koopman:
        D = (A - theta @ B) / s.tau
        return MomentMatrices(B=B, A_tau=A, C=None, D_tau=D, source="empirical")
    return MomentMatrices(B=B, A_tau=None, C=A, D_tau=None, source="empirical")


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def circle_moment(a: int, b: int) -> float:
    """Average of cos^a sin^b over the unit circle (Wallis formula)."""
    if a % 2 or b % 2:
        return 0.0
    return (_double_factorial(a - 1) * _double_factorial(b - 1)
            / _double_factorial(a + b))


def analytic_circle_moments(psi: Dictionary) -> MomentMatrices:
    """B for the uniform measure on the unit circle, in closed form."""
    if psi.family != MONOMIAL or psi.dimension != 2:
        raise ValueError("analytic circle moments need a 2D monomial dictionary")
    m = psi.size
    B = np.empty((m, m))
    for i, (a1, b1) in enumerate(psi.indices):
        for j, (a2, b2) in enumerate(psi.indices):
            B[i, j] = circle_moment(a1 + a2, b1 + b2)
    return MomentMatrices(B=B, A_tau=None, C=None, D_tau=None, source="analytic")


def divergence_indicator(B: np.ndarray, theta: np.ndarray, p: Poly,
                         psi: Dictionary) -> Poly:
    """The polynomial c . Theta (B B^+ - I) psi; the finite-difference Lie
    approximation of p stays bounded as tau -> 0 exactly where it vanishes."""
    proj = B @ pinv(B) - np.eye(B.shape[0])
    return Poly(psi, p.coeffs @ theta @ proj)


def convergence_study(sample, phi: Dictionary, psi: Dictionary,
                      n_grid, seeds, n_reference: int):
    """Frobenius distance of K_mn to a large-n reference fit.

    ``sample(n, seed)`` must return a koopman SnapshotSet.  The reference is
    fitted once from n_reference rows with a seed outside the study range.
    Returns (n_grid, mean distances over seeds, per-seed table).
    """
    ref_seed = max(seeds) + 1
    K_ref = fit_edmd(sample(n_reference, ref_seed), phi, psi).K
    table = np.empty((len(seeds), len(n_grid)))
    for i, seed in enumerate(seeds):
        for j, n in enumerate(n_grid):
            K = fit_edmd(sample(int(n), seed), phi, psi).K
            table[i, j] = np.linalg.norm(K - K_ref)
    return np.asarray(n_grid, float), table.mean(axis=0), table


def loglog_slope(n_values: np.ndarray, distances: np.ndarray) -> float:
    """Least-squares slope of log(distance) against log(n)."""
    return float(np.polyfit(np.log(n_values), np.log(distances), 1)[0])

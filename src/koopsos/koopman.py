"""EDMD and gEDMD operator fitting, moment matrices, and diagnostics.

Both estimators solve X = A B^+ on one moment pair, B = avg psi psi^T and
A = avg phi(y) psi^T (the paper's A^tau) or, on generator snapshots,
avg y psi^T (its C), and return one Lie matrix L: (K - Theta) / tau with
K = X for EDMD, X for gEDMD.  Only m-by-m Gram matrices are ever held.
Gram accumulation streams over fixed-size row chunks with Kahan compensated
summation, which keeps results reproducible and accurate for runs with up
to 1e7 rows.  The dictionary values live in one buffer per pass, which each
chunk overwrites and which is unmapped when the pass ends.  Chunks are
``CHUNK_ROWS`` rows, except on the 1-D route below.

A 1-D dictionary with exponents 0..D (every 1-D total-degree dictionary)
spans products of degree at most 2D, so its Gram B = avg psi psi^T is fixed
by the 2D + 1 moments mu_k = avg of the k-th basis function of the
degree-2D dictionary: B = sum_k mu_k T[k] with T from
``polybasis.product_tensor``, Hankel for monomials and Toeplitz-plus-Hankel
for Chebyshev.  For such psi the pass streams only the two columns
avg psi psi_0 and avg psi psi_D, O(m) work per row instead of the O(m^2) of
the full product, and recovers the moments from them.  Its chunks are one
evaluation block, ``_kernels.EVAL_BLOCK`` rows, so the values are still in
cache when the two columns and the A product read them.  Every other
dictionary streams the full product.

Snapshots sampled along one trajectory have y_i bitwise equal to x_{i+1}.
``moment_matrices`` takes that from the memory layout when X and Y are views
of one states array, as ``sample_snapshots`` makes them, and compares the
data otherwise.  It then evaluates each state once: phi(y) is read from the
psi values of the next state, since phi is contained in psi, and a chunk's
first state is the last one of the chunk before.  The results are
bit-identical to evaluating phi at y.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .polybasis import (CHUNK_ROWS, MONOMIAL, Dictionary, Poly, evaluate,
                        inclusion_matrix, product_tensor,
                        total_degree_dictionary)
from .snapshots import GENERATOR, KOOPMAN, SnapshotSet

# singular values below REL_TOL * sigma_max * max(rows, cols) count as zero
REL_TOL = 1e-12


class NonFiniteInput(ValueError):
    pass


def _pinv_svd(M: np.ndarray):
    """The pseudoinverse of M, its singular values and the number of them
    kept, all from one SVD: singular values below
    REL_TOL * sigma_max * max(rows, cols) are truncated."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NonFiniteInput("matrix has non-finite entries")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros_like(M.T), s, 0
    keep = s >= REL_TOL * s[0] * max(M.shape)
    inv = np.where(keep,
                   np.divide(1.0, s, out=np.zeros_like(s), where=s > 0), 0.0)
    return (Vt.T * inv) @ U.T, s, int(np.sum(keep))


def pinv(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse, truncating singular values below
    REL_TOL * sigma_max * max(rows, cols)."""
    return _pinv_svd(M)[0]


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
    """Fitted operators over a (phi, psi) pair: the Lie matrix L of either
    estimator and EDMD's Koopman matrix K (None for gEDMD)."""

    phi: Dictionary
    psi: Dictionary
    theta: np.ndarray
    tau: float
    K: np.ndarray | None
    L: np.ndarray
    svd_report: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "phi": self.phi.to_dict(),
            "psi": self.psi.to_dict(),
            "tau": self.tau,
            "svd_report": self.svd_report,
            "K": None if self.K is None else self.K.tolist(),
            "L": self.L.tolist(),
        }


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
    Bp, svals, rank = _pinv_svd(B)
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
    return X, {"singular_values": svals.tolist(), "rank": rank,
               "rel_tol": REL_TOL}


def _fit(s: SnapshotSet, phi: Dictionary, psi: Dictionary, kind: str,
         name: str) -> EdmdOperators:
    """X = A B^+: EDMD's K, with L = (K - Theta) / tau, or gEDMD's L."""
    if s.kind != kind:
        raise ValueError(f"{name} needs {kind}-kind snapshots")
    mm = moment_matrices(s, phi, psi)
    X, report = _refined_ls(mm.A, mm.B)
    theta = inclusion_matrix(phi, psi)
    K, L = (X, (X - theta) / s.tau) if kind == KOOPMAN else (None, X)
    return EdmdOperators(phi, psi, theta, s.tau, K, L, report)


def fit_edmd(s: SnapshotSet, phi: Dictionary, psi: Dictionary
             ) -> EdmdOperators:
    """Koopman matrix K = A B^+ and Lie matrix L = (K - Theta) / tau."""
    return _fit(s, phi, psi, KOOPMAN, "fit_edmd")


def fit_gedmd(s: SnapshotSet, phi: Dictionary, psi: Dictionary
              ) -> EdmdOperators:
    """Lie matrix L = A B^+ from sampled Lie derivative values."""
    return _fit(s, phi, psi, GENERATOR, "fit_gedmd")


@dataclass(frozen=True)
class MomentMatrices:
    """B and A of ``moment_matrices``; A is None where there are no data."""

    B: np.ndarray
    A: np.ndarray | None


# a private mapping, faulted in by one system call, where the platform has
# the flags (Linux); a plain anonymous mapping elsewhere
_MAP_FLAGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
               | mmap.MAP_POPULATE} if hasattr(mmap, "MAP_POPULATE") else {})


def _pass_buffer(rows: int, cols: int) -> np.ndarray:
    """An uninitialised float64 (rows, cols) array in its own anonymous
    mapping, unmapped when the last view of it is released.

    On the heap, each pass's buffer left a hole that the next, larger pass's
    buffer did not fit, and numpy advises huge pages for arrays this large,
    so the kernel could later fill such a hole in.  With ``np.empty`` the
    vdp_edmd benchmark (alpha = 10 buffer 91 x 65537 doubles, 47.7 MB)
    peaked at 159.2 MB, not 138.3; a 1-D buffer (1.9 MB) pays ~1.4 MB.
    """
    size = rows * cols
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * 8, **_MAP_FLAGS),
                         count=size).reshape(rows, cols)


def _moment_structure(psi: Dictionary) -> np.ndarray | None:
    """T = product_tensor(psi, psi, E) over the degree-2D dictionary E when
    psi is 1-D with exponents 0..D in order, D >= 1; None for any other psi.
    """
    D = psi.max_degree
    if D < 1 or not np.array_equal(psi.exponents, np.arange(D + 1)[:, None]):
        return None
    E = total_degree_dictionary(psi.family, 1, 2 * D, psi.box)
    return product_tensor(psi, psi, E)


def _gram_from_moments(P: np.ndarray, T: np.ndarray) -> np.ndarray:
    """B = sum_e mu_e T[e] from P = avg psi (psi_0, psi_D), (m, 2), of a 1-D
    psi with exponents 0..D and its structure constants T.

    psi_0 = 1, so P[:, 0] is mu_0..mu_D.  P[k, 1] = avg psi_k psi_D =
    sum_e T[e, k, D] mu_e, and for k = 1..D the highest moment in it is
    mu_{k+D}: those rows are a triangular system for mu_{D+1..2D}, solved
    by forward substitution.  An entry of B is the same sum of the same
    moments wherever its moment indices are the same, so such entries are
    bitwise equal.
    """
    D = P.shape[0] - 1
    rel = T[:, :, D].T  # P[k, 1] = rel[k] @ mu
    mu = np.concatenate((P[:, 0], np.zeros(D)))
    for k in range(1, D + 1):
        mu[D + k] = ((P[k, 1] - rel[k, :D + k] @ mu[:D + k])
                     / rel[k, D + k])
    return np.tensordot(mu, T, axes=1)


def _is_trajectory(X: np.ndarray, Y: np.ndarray) -> bool:
    """Whether y_i is bitwise x_{i+1} for every row but the last.

    ``sample_snapshots`` makes X and Y views of one states array, Y starting
    one row after X: such a pair is the same memory and needs no compare.
    Any other pair is compared as int64 bit patterns, because a float
    compare would take -0.0 for +0.0.
    """
    if (X.shape == Y.shape and X.strides == Y.strides
            and Y.ctypes.data == X.ctypes.data + X.strides[0]):
        return True
    return np.array_equal(Y[:-1].view(np.int64), X[1:].view(np.int64))


def moment_matrices(s: SnapshotSet, phi: Dictionary, psi: Dictionary
                    ) -> MomentMatrices:
    """Empirical moment matrices of the snapshot set, streamed in one pass.

    B = avg psi(x) psi(x)^T; A = avg phi(y) psi(x)^T on koopman data and
    avg y psi(x)^T on generator data.

    B is the Kahan-summed product Psi Psi^T over chunks of CHUNK_ROWS rows,
    except for a 1-D psi with exponents 0..D, D >= 1 (see the module
    docstring): there each chunk of EVAL_BLOCK rows adds Psi (psi_0, psi_D),
    and B is assembled from the moments after the pass.

    When the koopman snapshots are one trajectory (y_i is bitwise x_{i+1}),
    each row is evaluated once: the psi table of a chunk holds its rows plus
    the next state, whose column the next chunk starts from, and phi(y) is
    read from the phi rows of that table shifted by one column (phi is
    contained in psi, so its values there are the same bits).  Other data
    evaluate psi at x and phi at y.  Each chunk's values are written into
    views of one buffer per pass (one more for phi at y), so no chunk
    allocates its own.
    """
    theta = inclusion_matrix(phi, psi)
    if phi.dimension != s.d:
        raise ValueError("dictionary dimension does not match snapshot states")
    koopman = s.kind == KOOPMAN
    if not koopman and s.q != phi.size:
        raise ValueError("generator snapshot y-dimension must equal phi size")
    trajectory = koopman and _is_trajectory(s.X, s.Y)
    if trajectory:
        # positions of phi's elements in psi: a slice when phi is a prefix
        at = theta.argmax(axis=1)
        if np.array_equal(at, np.arange(phi.size)):
            at = slice(0, phi.size)
    # 1-D psi with exponents 0..D: B from the moments, two columns streamed
    T = _moment_structure(psi)
    acc_b = _KahanAccumulator((psi.size, psi.size if T is None else 2))
    acc_a = _KahanAccumulator((phi.size, psi.size))
    # the chunk length groups the Kahan sums, so it is part of the results:
    # the d >= 2 sums keep CHUNK_ROWS and their recorded bits.  The 1-D
    # moment sums are checked at printed precision only, so each of their
    # chunks is one evaluation block, still in cache when the B columns and
    # Phi Psi^T read it
    chunk = CHUNK_ROWS if T is None else min(CHUNK_ROWS, _kernels.EVAL_BLOCK)
    # one buffer per pass, each chunk's values written into a view of it
    rows = min(chunk, s.n) + 1
    psi_buf = _pass_buffer(psi.size, rows)
    phi_buf = (_pass_buffer(phi.size, rows) if koopman and not trajectory
               else None)
    for start in range(0, s.n, chunk):
        stop = min(start + chunk, s.n)
        if trajectory:
            # x_start .. x_stop, where x_n is y_{n-1}; x_start was the last
            # state of the chunk before, so its column is carried over
            first = 0 if start == 0 else 1
            if first:
                psi_buf[:, 0] = psi_buf[:, chunk]
            evaluate(psi, s.X[start + first:stop + 1] if stop < s.n
                     else np.concatenate((s.X[start + first:], s.Y[-1:])),
                     psi_buf[:, first:stop - start + 1])
            Phi = psi_buf[at, 1:stop - start + 1]
            Psi = psi_buf[:, :stop - start]
        else:
            Psi = evaluate(psi, s.X[start:stop], psi_buf[:, :stop - start])
            Phi = (evaluate(phi, s.Y[start:stop], phi_buf[:, :stop - start])
                   if koopman else s.Y[start:stop].T)
        # a 1-D psi's two columns as one (m, 2) matrix product: at m = 29 on
        # one Xeon core, 72 us per 8192-row chunk against 130 us for two
        # matrix-vector products (and 820 us for the full Psi Psi^T)
        acc_b.add(Psi @ (Psi if T is None else Psi[[0, -1]]).T)
        acc_a.add(Phi @ Psi.T)
    B = acc_b.total / s.n
    return MomentMatrices(B=B if T is None else _gram_from_moments(B, T),
                          A=acc_a.total / s.n)


def circle_moment(a: int, b: int) -> float:
    """Average of cos^a sin^b over the unit circle (Wallis formula), from
    the double factorials k!! = k (k - 2) ... (1 or 2), 1 for k <= 0."""
    if a % 2 or b % 2:
        return 0.0
    df = [math.prod(range(k, 0, -2)) for k in (a - 1, b - 1, a + b)]
    return df[0] * df[1] / df[2]


def analytic_circle_moments(psi: Dictionary) -> MomentMatrices:
    """B for the uniform measure on the unit circle, in closed form."""
    if psi.family != MONOMIAL or psi.dimension != 2:
        raise ValueError("analytic circle moments need a 2D monomial dictionary")
    B = [[circle_moment(a1 + a2, b1 + b2) for a2, b2 in psi.indices]
         for a1, b1 in psi.indices]
    return MomentMatrices(B=np.array(B).reshape(psi.size, psi.size), A=None)


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

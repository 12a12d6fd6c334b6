"""Hot numeric kernels, one source each.

The sequential trajectory kernels are scalar loops written in the subset of
Python that numba compiles.  When numba is installed, that same source is
jit-compiled (``njit(cache=True)``); setting the environment variable
``KOOPSOS_NO_NUMBA=1`` before import turns the jit off, and the loops then run
as plain Python.  Either way the floating-point operations are the same, so the
trajectories are bit-identical.

Each loop fills an output array that its public wrapper allocates, and reaches
its arrays through one buffer adapter, ``_buffer``, chosen next to ``_jit``.
Under numba the adapter is the identity and the loop sees the arrays.  On the
plain-Python path it is ``memoryview``: a float64 memoryview reads and writes
plain Python floats, where the array would box every read into an
``np.float64`` and send every write through numpy's setitem.  That boxing, not
the arithmetic, was most of the loop's time.

The dictionary evaluation kernels are vectorized numpy and run the same way
whether or not numba is present.  Each fills one table of shape
``(max_deg + 1, d, n)`` in place (``np.multiply``/``np.subtract`` with
``out=``): row ``[k, j]`` holds ``x_j ** k`` or ``T_k(z_j)`` for all n points,
contiguous.  For d >= 2 the output is one fresh C-contiguous ``(n_basis, n)``
array, filled row by row: each basis row is the product of its first two
coordinates' table rows (``np.multiply`` with ``out=``), and the rows of any
further coordinates are multiplied into it in place, so no ``(n_basis, n)``
gather or temporary is made.  For d = 1 the output is the gather of the
table's rows; when the exponents are 0..max_deg in order (every 1-D
total-degree dictionary), that gather would copy the table row for row, so the
table itself, which is fresh and C-contiguous at d = 1, is returned instead.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("KOOPSOS_NO_NUMBA", "0") not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

_jit = njit(cache=True) if USE_NUMBA else (lambda f: f)
# how the wrappers hand arrays to the loops: see the module docstring
_buffer = (lambda a: a) if USE_NUMBA else memoryview

__all__ = [
    "USE_NUMBA",
    "logistic_trajectory",
    "rk4_trajectory",
    "monomial_eval",
    "chebyshev_eval",
]

# Vector-field ids for rk4_trajectory
VDP = 0
CIRCLE = 1


# -- sequential kernels, jit-compiled when numba is available -----------------

@_jit
def _logistic_trajectory(x0, lams, out):
    out[0] = x = x0
    for i, lam in enumerate(lams, 1):
        x = lam * x * (1.0 - x)
        out[i] = x


@_jit
def _rhs(kind, x, y, mu):
    if kind == VDP:
        return y, mu * (1.0 - x * x) * y - x
    r = 1.0 - x * x - y * y
    return -y + x * r, x + y * r


@_jit
def _rk4_trajectory(kind, x0, tau, n_steps, mu, out):
    # x + 0.5 * tau * k parses as x + (0.5 * tau) * k, so the factors can be
    # computed once without changing a bit
    half_tau, sixth_tau = 0.5 * tau, tau / 6.0
    x, y = float(x0[0]), float(x0[1])
    out[0, 0], out[0, 1] = x, y
    for i in range(n_steps):
        k1x, k1y = _rhs(kind, x, y, mu)
        k2x, k2y = _rhs(kind, x + half_tau * k1x, y + half_tau * k1y, mu)
        k3x, k3y = _rhs(kind, x + half_tau * k2x, y + half_tau * k2y, mu)
        k4x, k4y = _rhs(kind, x + tau * k3x, y + tau * k3y, mu)
        x = x + sixth_tau * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + sixth_tau * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        out[i + 1, 0], out[i + 1, 1] = x, y


# -- public kernels -----------------------------------------------------------

def logistic_trajectory(x0: float, lams: np.ndarray) -> np.ndarray:
    """Iterate x_{t+1} = lam_t x_t (1 - x_t); returns all states incl. x0."""
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    out = np.empty(lams.shape[0] + 1)
    _logistic_trajectory(float(x0), _buffer(lams), _buffer(out))
    return out


def rk4_trajectory(kind: int, x0, tau: float, n_steps: int,
                   mu: float = 0.1) -> np.ndarray:
    """Classical fixed-step RK4 for the built-in planar vector fields."""
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    n_steps = int(n_steps)
    out = np.empty((n_steps + 1, 2))
    _rk4_trajectory(int(kind), x0, float(tau), n_steps, float(mu),
                    _buffer(out))
    return out


def _table_product(table: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """prod_j table[expo[:, j], j] as a fresh C-contiguous (n_basis, n) array."""
    n_basis, d = expo.shape
    if d == 1:
        if np.array_equal(expo[:, 0], np.arange(table.shape[0])):
            # exponents 0..max_deg in order: the table is the output
            return table[:, 0]
        return table[expo[:, 0], 0]
    out = np.empty((n_basis, table.shape[2]))
    for row, e in zip(out, expo.tolist()):
        np.multiply(table[e[0], 0], table[e[1], 1], out=row)
        for j in range(2, d):
            row *= table[e[j], j]
    return out


def monomial_eval(X: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """Evaluate monomials x^expo at rows of X; returns (n_basis, n_points)."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    expo = np.ascontiguousarray(expo, dtype=np.int64)
    n, d = X.shape
    max_deg = int(expo.max()) if expo.size else 0
    # table[k, j] = X[:, j] ** k, one contiguous row per power and coordinate
    table = np.empty((max_deg + 1, d, n))
    table[0] = 1.0
    if max_deg >= 1:
        table[1] = X.T
    for k in range(2, max_deg + 1):
        np.multiply(table[k - 1], table[1], out=table[k])
    return _table_product(table, expo)


def chebyshev_eval(Z: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """Evaluate tensor-product Chebyshev polynomials at rows of Z in [-1,1]^d."""
    Z = np.ascontiguousarray(np.atleast_2d(Z), dtype=np.float64)
    expo = np.ascontiguousarray(expo, dtype=np.int64)
    n, d = Z.shape
    max_deg = int(expo.max()) if expo.size else 0
    # table[k, j] = T_k(Z[:, j]) by T_k = (2 z) T_{k-1} - T_{k-2}
    table = np.empty((max_deg + 1, d, n))
    table[0] = 1.0
    if max_deg >= 1:
        table[1] = Z.T
        two_z = 2.0 * table[1]
    for k in range(2, max_deg + 1):
        np.multiply(two_z, table[k - 1], out=table[k])
        np.subtract(table[k], table[k - 2], out=table[k])
    return _table_product(table, expo)

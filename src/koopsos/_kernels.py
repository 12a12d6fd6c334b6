"""Hot numeric kernels, one source each.

The sequential trajectory kernels are scalar loops written in the subset of
Python that numba compiles.  When numba is installed, that same source is
jit-compiled (``njit(cache=True)``); setting the environment variable
``KOOPSOS_NO_NUMBA=1`` before import turns the jit off, and the loops then run
as plain Python.  Either way the floating-point operations are the same, so the
trajectories are bit-identical.

Each loop fills an output array that its public wrapper allocates, or that the
caller passes as ``out`` (the logistic loop: the sampler hands it one slice of
its states array per block of rates).  The loops reach their arrays through
one buffer adapter, ``_buffer``, chosen next to ``_jit``.  Under numba the
adapter is the identity and the loop sees the arrays.  On the plain-Python
path it is ``memoryview``: a float64 memoryview reads and writes
plain Python floats, where the array would box every read into an
``np.float64`` and send every write through numpy's setitem.  That boxing, not
the arithmetic, was most of the loop's time.  The RK4 loop writes its states
into the flat ``(2 n_steps + 2,)`` view of its ``(n_steps + 1, 2)`` output, as
a 1-D index is cheaper than the 2-D memoryview's tuple index, and computes the
Van der Pol or circle field inline, behind one ``kind == VDP`` test per step,
rather than calling a field function four times a step.

The dictionary evaluation kernels are vectorized numpy and run the same way
whether or not numba is present.  They read the basis as a ``ProductBasis``,
whose exponent table, highest degree, in-order fact and Chebyshev rescaling
``product_basis`` derives once (``polybasis.Dictionary.basis`` keeps one per
dictionary), so that no call re-derives them.  Each writes into ``out``, an
``(n_basis, n)`` array, which may be a view into a wider buffer; without
``out`` a fresh C-contiguous one is allocated.  The points are taken in
blocks of ``EVAL_BLOCK``.  For each block a table of shape ``(max_deg + 1, d,
block)`` is filled in place (``np.multiply``/``np.subtract`` with ``out=``):
row ``[k, j]`` holds ``x_j ** k`` or ``T_k(z_j)`` for the block's points,
contiguous, and the table is small enough to stay in cache while it is read.
A Chebyshev basis with a box maps x onto ``z = (2 x - (lo + hi)) / (hi -
lo)`` in the table's row 1 itself, so no array of mapped points is made.
Each basis row of the block is the product of its first two coordinates'
table rows (``np.multiply`` with ``out=``), and the rows of any further
coordinates are multiplied into it in place, so no ``(n_basis, n)`` gather or
temporary is made; at d = 1 the row is the gathered table row.  When d = 1
and the exponents are 0..max_deg in order (every 1-D total-degree
dictionary), the table would be the output row for row, so the recurrence
runs in ``out`` itself.  Every value is computed by the same elementwise
operations in the same order whatever the block, so the blocking changes no
bit of the result.
"""

from __future__ import annotations

import os
from typing import NamedTuple

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
    "ProductBasis",
    "product_basis",
    "logistic_trajectory",
    "rk4_trajectory",
    "monomial_eval",
    "chebyshev_eval",
]

# points per block of the dictionary evaluation kernels: the block's power
# or recurrence table, (max_deg + 1) * d * EVAL_BLOCK floats, stays in cache
# while its basis products are written out (8192 and 16384 measured alike).
# It also sets the chunk of a 1-D moment pass (koopman.moment_matrices), so
# that pass's sums are grouped by it.  That pass forms a chunk's products
# over slices of koopman.MOMENT_SLICE = 2048 columns: a whole 8192-column
# chunk of a degree-28 psi (1.9 MB) and its phi rows do not fit a 2 MB L2
# cache together, and on one Xeon core its products ran at 16 GF/s against
# 24 over the slices
EVAL_BLOCK = 1 << 13

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
def _rk4_trajectory(kind, x0, tau, n_steps, mu, out):
    # out is the flat (2 * n_steps + 2,) view of the (n_steps + 1, 2) states.
    # The field is written out inline, k1x = y and so on for VdP, with the
    # operands and order of its formula; x + 0.5 * tau * k parses as
    # x + (0.5 * tau) * k, so the factors can be computed once without
    # changing a bit
    half_tau, sixth_tau = 0.5 * tau, tau / 6.0
    x, y = float(x0[0]), float(x0[1])
    out[0], out[1] = x, y
    for i in range(2, 2 * n_steps + 2, 2):
        if kind == VDP:
            k1y = mu * (1.0 - x * x) * y - x
            x2, y2 = x + half_tau * y, y + half_tau * k1y
            k2y = mu * (1.0 - x2 * x2) * y2 - x2
            x3, y3 = x + half_tau * y2, y + half_tau * k2y
            k3y = mu * (1.0 - x3 * x3) * y3 - x3
            x4, y4 = x + tau * y3, y + tau * k3y
            k4y = mu * (1.0 - x4 * x4) * y4 - x4
            x = x + sixth_tau * (y + 2.0 * y2 + 2.0 * y3 + y4)
            y = y + sixth_tau * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        else:
            r = 1.0 - x * x - y * y
            k1x, k1y = -y + x * r, x + y * r
            x2, y2 = x + half_tau * k1x, y + half_tau * k1y
            r = 1.0 - x2 * x2 - y2 * y2
            k2x, k2y = -y2 + x2 * r, x2 + y2 * r
            x3, y3 = x + half_tau * k2x, y + half_tau * k2y
            r = 1.0 - x3 * x3 - y3 * y3
            k3x, k3y = -y3 + x3 * r, x3 + y3 * r
            x4, y4 = x + tau * k3x, y + tau * k3y
            r = 1.0 - x4 * x4 - y4 * y4
            k4x, k4y = -y4 + x4 * r, x4 + y4 * r
            x = x + sixth_tau * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + sixth_tau * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        out[i], out[i + 1] = x, y


# -- public kernels -----------------------------------------------------------

def logistic_trajectory(x0: float, lams: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Iterate x_{t+1} = lam_t x_t (1 - x_t) from x0 into out, a
    ``(len(lams) + 1,)`` float64 array (a slice of a longer one will do) that
    is allocated when not given; returns out, all states incl. x0."""
    lams = np.ascontiguousarray(lams, dtype=np.float64)
    if out is None:
        out = np.empty(lams.shape[0] + 1)
    elif out.shape != (lams.shape[0] + 1,) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape "
                         f"({lams.shape[0] + 1},), got {out.dtype} {out.shape}")
    _logistic_trajectory(float(x0), _buffer(lams), _buffer(out))
    return out


def rk4_trajectory(kind: int, x0, tau: float, n_steps: int,
                   mu: float = 0.1) -> np.ndarray:
    """Classical fixed-step RK4 for the built-in planar vector fields."""
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    n_steps = int(n_steps)
    out = np.empty((n_steps + 1, 2))
    _rk4_trajectory(int(kind), x0, float(tau), n_steps, float(mu),
                    _buffer(out.reshape(-1)))
    return out


class ProductBasis(NamedTuple):
    """A product basis as the evaluation kernels read it; see
    ``product_basis``."""

    expo: np.ndarray          # (n_basis, d) C-contiguous int64 exponents
    max_deg: int              # the table holds powers 0..max_deg
    in_order: bool            # d = 1 with exponents 0..max_deg in order
    rescale: tuple | None     # (lo + hi, hi - lo) as (d, 1) columns, or None


def product_basis(expo, bounds=None) -> ProductBasis:
    """The facts the kernels read from an exponent table, derived once so
    that no call re-derives them: the table as C-contiguous int64, its
    highest degree and whether it is 1-D with exponents 0..max_deg in order
    (every 1-D total-degree dictionary), whose recurrence then runs in the
    output.  With ``bounds``, a (2, d) array of lo and hi rows, the kernels
    evaluate at z = (2 x - (lo + hi)) / (hi - lo), as a Chebyshev dictionary
    with a box is evaluated."""
    expo = np.ascontiguousarray(expo, dtype=np.int64)
    max_deg = int(expo.max()) if expo.size else 0
    in_order = expo.shape[1] == 1 and np.array_equal(expo[:, 0],
                                                     np.arange(max_deg + 1))
    rescale = (None if bounds is None else
               ((bounds[0] + bounds[1])[:, None],
                (bounds[1] - bounds[0])[:, None]))
    return ProductBasis(expo, max_deg, in_order, rescale)


def _coordinate_rows(X: np.ndarray, table: np.ndarray, rescale) -> None:
    """table[0] = 1 and table[1, j] = the j-th coordinate of X's rows, or
    (2 x - (lo + hi)) / (hi - lo), the same operations in the same order as
    that expression, when rescale is given."""
    table[0] = 1.0
    if table.shape[0] > 1:
        z = table[1]
        if rescale is None:
            z[...] = X.T
        else:
            np.multiply(X.T, 2.0, out=z)
            z -= rescale[0]
            z /= rescale[1]


def _power_table(table: np.ndarray) -> None:
    """table[k] = table[1] ** k for k >= 2, one row per power and
    coordinate."""
    for k in range(2, table.shape[0]):
        np.multiply(table[k - 1], table[1], out=table[k])


def _chebyshev_table(table: np.ndarray) -> None:
    """table[k] = T_k(table[1]) for k >= 2, by T_k = (2 z) T_{k-1} -
    T_{k-2}."""
    if table.shape[0] > 2:
        two_z = 2.0 * table[1]
    for k in range(2, table.shape[0]):
        np.multiply(two_z, table[k - 1], out=table[k])
        np.subtract(table[k], table[k - 2], out=table[k])


def _table_product(table: np.ndarray, expo: np.ndarray,
                   out: np.ndarray) -> None:
    """out = prod_j table[expo[:, j], j], row by row in place."""
    d = expo.shape[1]
    if d == 1:
        out[...] = table[expo[:, 0], 0]
        return
    for row, e in zip(out, expo.tolist()):
        np.multiply(table[e[0], 0], table[e[1], 1], out=row)
        for j in range(2, d):
            row *= table[e[j], j]


def _blocked_eval(fill, X, basis: ProductBasis, out):
    """Evaluate the product basis at the rows of X into out, one block of
    EVAL_BLOCK points at a time; see the module docstring."""
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    n, d = X.shape
    if out is None:
        out = np.empty((basis.expo.shape[0], n))
    block = EVAL_BLOCK
    if not basis.in_order:
        table = np.empty((basis.max_deg + 1, d, min(block, n)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        # in order, the table would be the output row for row, so the
        # recurrence runs in out
        rows = (out[:, None, start:stop] if basis.in_order
                else table[:, :, :stop - start])
        _coordinate_rows(X[start:stop], rows, basis.rescale)
        fill(rows)
        if not basis.in_order:
            _table_product(rows, basis.expo, out[:, start:stop])
    return out


def monomial_eval(X: np.ndarray, basis: ProductBasis,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate monomials x^expo at rows of X into out, an (n_basis,
    n_points) array that is allocated when not given; returns out."""
    return _blocked_eval(_power_table, X, basis, out)


def chebyshev_eval(X: np.ndarray, basis: ProductBasis,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate tensor-product Chebyshev polynomials at rows of X, rescaled
    by the basis's bounds when it has them (else in [-1,1]^d), into out, as
    monomial_eval; returns out."""
    return _blocked_eval(_chebyshev_table, X, basis, out)

"""Multivariate polynomial dictionaries (monomial and Chebyshev families).

A :class:`Dictionary` is an ordered list of multi-indices over ``R^d`` in
graded lexicographic order.  For the Chebyshev family the basis functions are
tensor products ``prod_j T_{k_j}(z_j)`` of Chebyshev polynomials of the first
kind, evaluated in rescaled coordinates ``z = rescale(x)`` mapping a reference
box onto ``[-1, 1]^d``.  The rescaling box is stored on the dictionary itself
so that downstream code cannot silently mix incompatible domains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Iterable, Sequence

import numpy as np

from . import _kernels

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"

MultiIndex = tuple[int, ...]


class DimensionMismatch(ValueError):
    pass


class SmallNotContained(ValueError):
    """An index of the small dictionary is missing from the big one."""


class TargetTooSmall(ValueError):
    """The target dictionary cannot hold all indices of the result."""

    def __init__(self, missing: Iterable[MultiIndex]):
        self.missing = sorted(missing, key=grlex_key)
        super().__init__(f"target dictionary is missing indices {self.missing}")


def grlex_key(idx: MultiIndex):
    """Sort key for graded lexicographic order (degree, then lex on exponents
    with earlier coordinates dominating)."""
    return (sum(idx), tuple(-e for e in idx))


@dataclass(frozen=True)
class Dictionary:
    """Ordered polynomial dictionary over R^d."""

    family: str
    dimension: int
    indices: tuple[MultiIndex, ...]
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in (MONOMIAL, CHEBYSHEV):
            raise ValueError(f"unknown family {self.family!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("dictionary indices must be distinct")
        if list(self.indices) != sorted(self.indices, key=grlex_key):
            raise ValueError("dictionary indices must be in graded-lex order")
        for idx in self.indices:
            if len(idx) != self.dimension or any(e < 0 for e in idx):
                raise ValueError(f"bad multi-index {idx}")
        if self.box is not None and (
                len(self.box) != self.dimension
                or not all(len(b) == 2 and b[0] < b[1] for b in self.box)):
            raise ValueError("box must have one (lo, hi) pair with lo < hi "
                             "per coordinate")

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def max_degree(self) -> int:
        return max((sum(i) for i in self.indices), default=0)

    def position(self, idx: MultiIndex) -> int:
        return self.indices.index(tuple(idx))

    def rescale(self, X: np.ndarray) -> np.ndarray:
        """Map states into [-1, 1]^d using the stored box (Chebyshev only)."""
        if self.box is None:
            return X
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return (2.0 * X - (lo + hi)) / (hi - lo)

    def to_json(self) -> str:
        payload = {
            "family": self.family,
            "dimension": self.dimension,
            "indices": [list(i) for i in self.indices],
        }
        if self.box is not None:
            payload["box"] = [list(b) for b in self.box]
        return json.dumps(payload)

    @staticmethod
    def from_json(text: str) -> "Dictionary":
        data = json.loads(text)
        box = data.get("box")
        return Dictionary(
            family=data["family"],
            dimension=int(data["dimension"]),
            indices=tuple(tuple(int(e) for e in i) for i in data["indices"]),
            box=tuple(tuple(float(v) for v in b) for b in box) if box else None,
        )


def total_degree_dictionary(family: str, d: int, deg: int,
                            box: Sequence[Sequence[float]] | None = None
                            ) -> Dictionary:
    """All multi-indices of total degree <= deg, in graded-lex order."""
    if d < 1 or deg < 0:
        raise ValueError("require d >= 1 and deg >= 0")
    indices = sorted(
        (idx for idx in iter_product(range(deg + 1), repeat=d) if sum(idx) <= deg),
        key=grlex_key,
    )
    boxed = tuple(tuple(float(v) for v in b) for b in box) if box is not None else None
    return Dictionary(family, d, tuple(indices), boxed)


# Rows per evaluate() call in every streaming pass.  The chunk size sets the
# grouping of the Kahan-compensated Gram sums, so it is part of the results.
CHUNK_ROWS = 1 << 16


def evaluate(dictionary: Dictionary, x: np.ndarray) -> np.ndarray:
    """Evaluate every basis function at the state(s) x.

    Accepts a single state of shape (d,) or a batch of shape (n, d); returns
    shape (size,) or (size, n) respectively.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != dictionary.dimension:
        raise DimensionMismatch(
            f"state dimension {X.shape[1]} != dictionary dimension "
            f"{dictionary.dimension}")
    expo = np.array(dictionary.indices, dtype=np.int64).reshape(
        dictionary.size, dictionary.dimension)
    if dictionary.family == MONOMIAL:
        out = _kernels.monomial_eval(X, expo)
    else:
        out = _kernels.chebyshev_eval(dictionary.rescale(X), expo)
    return out[:, 0] if single else out


def _check_same_space(first: Dictionary, *others: Dictionary) -> None:
    """Dictionaries combined coefficient-wise must describe the same space."""
    for other in others:
        if (other.family, other.dimension) != (first.family, first.dimension):
            raise DimensionMismatch(
                "dictionaries must share family and dimension")
        if other.box != first.box:
            raise DimensionMismatch("dictionaries must share the rescaling box")


def inclusion_matrix(small: Dictionary, big: Dictionary) -> np.ndarray:
    """0/1 selection matrix Theta with small(x) = Theta @ big(x) for all x."""
    _check_same_space(small, big)
    theta = np.zeros((small.size, big.size))
    lookup = {idx: j for j, idx in enumerate(big.indices)}
    for i, idx in enumerate(small.indices):
        if idx not in lookup:
            raise SmallNotContained(f"index {idx} not present in big dictionary")
        theta[i, lookup[idx]] = 1.0
    return theta


@dataclass(frozen=True)
class Poly:
    """A polynomial expressed by coefficients over a Dictionary."""

    basis: Dictionary
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.size,):
            raise DimensionMismatch(
                f"coefficient length {c.shape} != dictionary size {self.basis.size}")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.coeffs @ evaluate(self.basis, x)

    def __add__(self, other: "Poly") -> "Poly":
        if other.basis != self.basis:
            raise DimensionMismatch("polynomials must share a dictionary")
        return Poly(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        if other.basis != self.basis:
            raise DimensionMismatch("polynomials must share a dictionary")
        return Poly(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "Poly":
        return Poly(self.basis, self.coeffs * float(scalar))

    __rmul__ = __mul__


def poly_from_index(dictionary: Dictionary, idx: MultiIndex) -> Poly:
    c = np.zeros(dictionary.size)
    c[dictionary.position(tuple(idx))] = 1.0
    return Poly(dictionary, c)


def norm_squared(family: str, d: int,
                 box: Sequence[Sequence[float]] | None = None) -> Poly:
    """|x|^2 = x_1^2 + ... + x_d^2 over the degree-2 dictionary of the family."""
    mono = total_degree_dictionary(MONOMIAL, d, 2)
    c = np.zeros(mono.size)
    for j in range(d):
        c[mono.position(tuple(2 if k == j else 0 for k in range(d)))] = 1.0
    p = Poly(mono, c)
    if family == MONOMIAL:
        return p
    return monomial_to_cheb(p, total_degree_dictionary(family, d, 2, box))


# -- product structure constants -----------------------------------------------

def product_tensor(u: Dictionary, w: Dictionary, target: Dictionary
                   ) -> np.ndarray:
    """T[e, i, j]: coefficient of target[e] in u_i * w_j.

    Monomials multiply as x^a x^b = x^(a+b).  Chebyshev polynomials multiply
    per coordinate as T_a T_b = (T_{a+b} + T_{|a-b|}) / 2, so a product
    expands into the 2^d sign patterns |a +- b|, each of weight 2^-d; where a
    coordinate is 0 both signs give the same index and add up to weight 1.
    """
    _check_same_space(u, w, target)
    d = u.dimension
    U = np.array(u.indices, dtype=np.int64).reshape(u.size, 1, 1, d)
    W = np.array(w.indices, dtype=np.int64).reshape(1, w.size, 1, d)
    if u.family == MONOMIAL:
        signs, weight = np.ones((1, d), dtype=np.int64), 1.0
    else:
        signs = np.array(list(iter_product((1, -1), repeat=d)), dtype=np.int64)
        weight = 0.5 ** d
    # (|u|, |w|, patterns, d) product indices, looked up once per distinct one
    prod = np.abs(U + signs * W)
    distinct, inverse = np.unique(prod.reshape(-1, d), axis=0,
                                  return_inverse=True)
    lookup = {idx: e for e, idx in enumerate(target.indices)}
    keys = [tuple(row) for row in distinct.tolist()]
    missing = [k for k in keys if k not in lookup]
    if missing:
        raise TargetTooSmall(missing)
    pos = np.array([lookup[k] for k in keys], dtype=np.int64)[inverse.ravel()]
    pair = np.repeat(np.arange(u.size * w.size), len(signs))
    T = np.bincount(pos * (u.size * w.size) + pair,
                    weights=np.full(pos.size, weight),
                    minlength=target.size * u.size * w.size)
    return T.reshape(target.size, u.size, w.size)


def product_expand(p: Poly, q: Poly, target: Dictionary) -> Poly:
    """Coefficients of p*q in target; only its nonzero ones must fit."""
    _check_same_space(p.basis, q.basis, target)
    full = total_degree_dictionary(
        p.basis.family, p.basis.dimension,
        p.basis.max_degree + q.basis.max_degree, p.basis.box)
    coeffs = product_tensor(p.basis, q.basis, full) @ q.coeffs @ p.coeffs
    return sparse_to_poly(dict(zip(full.indices, coeffs)), target)


# -- sparse monomial arithmetic ------------------------------------------------
#
# Intermediate results of compositions and Lie derivative formulas are held as
# {multi-index: coefficient} maps and only projected onto a target Dictionary
# at the end (raising TargetTooSmall when it cannot hold them).

def to_sparse(p: Poly) -> dict[MultiIndex, float]:
    return {idx: c for idx, c in zip(p.basis.indices, p.coeffs) if c != 0.0}


def sparse_to_poly(sp: dict[MultiIndex, float], target: Dictionary) -> Poly:
    lookup = {idx: j for j, idx in enumerate(target.indices)}
    coeffs = np.zeros(target.size)
    missing = [idx for idx, c in sp.items() if c != 0.0 and idx not in lookup]
    if missing:
        raise TargetTooSmall(missing)
    for idx, c in sp.items():
        if idx in lookup:
            coeffs[lookup[idx]] = c
    return Poly(target, coeffs)


def sparse_add(a: dict, b: dict, scale: float = 1.0) -> dict:
    out = dict(a)
    for idx, c in b.items():
        out[idx] = out.get(idx, 0.0) + scale * c
    return {k: v for k, v in out.items() if v != 0.0}


def sparse_product(a: dict, b: dict) -> dict:
    """Product of two sparse monomial polynomials."""
    out: dict[MultiIndex, float] = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            idx = tuple(x + y for x, y in zip(ia, ib))
            out[idx] = out.get(idx, 0.0) + ca * cb
    return {k: v for k, v in out.items() if v != 0.0}


# -- monomial calculus helpers -------------------------------------------------

def sparse_gradient(sp: dict[MultiIndex, float], coord: int) -> dict:
    """d/dx_coord of a sparse monomial polynomial."""
    out: dict[MultiIndex, float] = {}
    for idx, c in sp.items():
        e = idx[coord]
        if e > 0:
            new = idx[:coord] + (e - 1,) + idx[coord + 1:]
            out[new] = out.get(new, 0.0) + c * e
    return out


def sparse_compose(sp: dict[MultiIndex, float],
                   components: Sequence[dict[MultiIndex, float]]) -> dict:
    """p(f_1, ..., f_d) for a sparse monomial p and sparse monomial f_j."""
    d = len(components)
    # cache powers of each component
    pow_cache: list[dict[int, dict]] = [dict() for _ in range(d)]
    one = {(0,) * _component_dim(components): 1.0}

    def comp_power(j: int, k: int) -> dict:
        if k == 0:
            return one
        if k not in pow_cache[j]:
            pow_cache[j][k] = sparse_product(comp_power(j, k - 1),
                                             components[j])
        return pow_cache[j][k]

    out: dict[MultiIndex, float] = {}
    for idx, c in sp.items():
        term = one
        for j, e in enumerate(idx):
            if e:
                term = sparse_product(term, comp_power(j, e))
        out = sparse_add(out, term, c)
    return out


def _component_dim(components) -> int:
    for comp in components:
        for idx in comp:
            return len(idx)
    return 1


# -- monomial to Chebyshev conversion ------------------------------------------

def _cheb_to_mono_matrix(deg: int) -> np.ndarray:
    """M[k, j]: coefficient of z^j in T_k(z)."""
    M = np.zeros((deg + 1, deg + 1))
    M[0, 0] = 1.0
    if deg >= 1:
        M[1, 1] = 1.0
    for k in range(2, deg + 1):
        M[k, 1:] += 2.0 * M[k - 1, :-1]
        M[k, :] -= M[k - 2, :]
    return M


def _affine_power_matrix(deg: int, a: float, b: float) -> np.ndarray:
    """S[k, j]: coefficient of u^j in (a*u + b)^k."""
    S = np.zeros((deg + 1, deg + 1))
    for k in range(deg + 1):
        for j in range(k + 1):
            S[k, j] = math.comb(k, j) * (a ** j) * (b ** (k - j))
    return S


def monomial_to_cheb(p: Poly, target: Dictionary) -> Poly:
    """Express a monomial-basis polynomial in a Chebyshev target dictionary.

    Per axis of the coefficient tensor of p, x = ((hi - lo) z + lo + hi) / 2
    goes to powers of z, and the powers of z go to T_k.
    """
    if p.basis.family != MONOMIAL or target.family != CHEBYSHEV:
        raise DimensionMismatch("expects monomial source and chebyshev target")
    d = p.basis.dimension
    box = target.box or tuple((-1.0, 1.0) for _ in range(d))
    degs = [max(i[j] for i in p.basis.indices) for j in range(d)]
    tensor = np.zeros([dg + 1 for dg in degs])
    for idx, c in zip(p.basis.indices, p.coeffs):
        tensor[idx] += c
    for axis, (deg, (lo, hi)) in enumerate(zip(degs, box)):
        S = _affine_power_matrix(deg, (hi - lo) / 2.0, (lo + hi) / 2.0)
        Minv = np.linalg.solve(_cheb_to_mono_matrix(deg).T, np.eye(deg + 1))
        tensor = np.moveaxis(np.tensordot(
            tensor, S @ Minv.T, axes=([axis], [0])), -1, axis)
    sp = {idx: float(tensor[idx]) for idx in np.ndindex(*tensor.shape)
          if tensor[idx] != 0.0}
    return sparse_to_poly(sp, target)

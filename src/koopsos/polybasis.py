"""Multivariate polynomial dictionaries (monomial and Chebyshev families).

A :class:`Dictionary` is an ordered list of multi-indices over ``R^d`` in
graded lexicographic order.  For the Chebyshev family the basis functions are
tensor products ``prod_j T_{k_j}(z_j)`` of Chebyshev polynomials of the first
kind, evaluated in rescaled coordinates ``z = (2 x - (lo + hi)) / (hi - lo)``
mapping the dictionary's box onto ``[-1, 1]^d`` (a Chebyshev dictionary
without a box is evaluated at x itself).  The box is stored on the dictionary
so that downstream code cannot silently mix incompatible domains; a monomial
dictionary may carry one too, which does not change its values.

Polynomials are coefficient vectors over a dictionary.  Every product goes
through one set of structure constants, ``product_tensor``.  Every placement
goes through ``project``, which rewrites coefficients over a target
dictionary and raises ``TargetTooSmall``, naming each missing index, when
they do not fit; the inclusion matrix Theta is the identity placed by it.
Every substitution goes through ``compose``: a map's image p o F and a
change of basis, which is p with the coordinates written in the new basis
(``monomial_to_cheb``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import product as iter_product
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"

MultiIndex = tuple[int, ...]


class DimensionMismatch(ValueError):
    pass


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
    """Ordered polynomial dictionary over R^d.

    What is derived from it (``exponents``, ``positions``, ``bounds``) is
    built here once, on first use, for every consumer.  Those facts are not
    part of the state: equality, hashing, pickling and copying see the four
    fields only.
    """

    family: str
    dimension: int
    indices: tuple[MultiIndex, ...]
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.family not in (MONOMIAL, CHEBYSHEV):
            raise ValueError(f"unknown family {self.family!r}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        # grlex_key is one-to-one, so the indices are distinct and in order
        # exactly when each key is above the one before it
        keys = [grlex_key(idx) for idx in self.indices]
        for prev, key in zip(keys, keys[1:]):
            if key == prev:
                raise ValueError("dictionary indices must be distinct")
            if key < prev:
                raise ValueError(
                    "dictionary indices must be in graded-lex order")
        for idx in self.indices:
            if len(idx) != self.dimension or any(e < 0 for e in idx):
                raise ValueError(f"bad multi-index {idx}")
        if self.box is not None and (
                len(self.box) != self.dimension
                or not all(len(b) == 2 and -math.inf < b[0] < b[1] < math.inf
                           for b in self.box)):
            raise ValueError("box must have one finite (lo, hi) pair with "
                             "lo < hi per coordinate")

    def __getstate__(self):
        # the cached facts stay out of pickles and copies: a mapping proxy
        # does not pickle, and an unpickled table would be writeable
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def max_degree(self) -> int:
        return max((sum(i) for i in self.indices), default=0)

    @cached_property
    def exponents(self) -> np.ndarray:
        """The indices as a read-only (size, dimension) int64 array."""
        table = np.array(self.indices, dtype=np.int64).reshape(
            self.size, self.dimension)
        table.flags.writeable = False
        return table

    @cached_property
    def positions(self) -> Mapping[MultiIndex, int]:
        """Read-only map from each index to its position."""
        return MappingProxyType({idx: k for k, idx in enumerate(self.indices)})

    @cached_property
    def bounds(self) -> np.ndarray:
        """The box as a read-only (2, dimension) array of its lo and hi
        rows; [-1, 1] per coordinate when there is no box."""
        box = ((-1.0, 1.0),) * self.dimension if self.box is None else self.box
        table = np.array(box, dtype=float).T
        table.flags.writeable = False
        return table

    def to_dict(self) -> dict:
        payload = {
            "family": self.family,
            "dimension": self.dimension,
            "indices": [list(i) for i in self.indices],
        }
        if self.box is not None:
            payload["box"] = [list(b) for b in self.box]
        return payload

    @staticmethod
    def from_dict(data: dict) -> "Dictionary":
        box = data.get("box")
        return Dictionary(
            family=data["family"],
            dimension=int(data["dimension"]),
            indices=tuple(tuple(int(e) for e in i) for i in data["indices"]),
            box=tuple(tuple(float(v) for v in b) for b in box) if box else None,
        )


DICTIONARY_CACHE_SIZE = 256  # dictionaries total_degree_dictionary keeps


def total_degree_dictionary(family: str, d: int, deg: int,
                            box: Sequence[Sequence[float]] | None = None
                            ) -> Dictionary:
    """All multi-indices of total degree <= deg, in graded-lex order; equal
    arguments (the box compared as floats) give one object, built once."""
    if d < 1 or deg < 0:
        raise ValueError("require d >= 1 and deg >= 0")
    boxed = tuple(tuple(float(v) for v in b) for b in box) if box is not None else None
    return _total_degree_dictionary(family, d, deg, boxed)


@lru_cache(maxsize=DICTIONARY_CACHE_SIZE)
def _total_degree_dictionary(family: str, d: int, deg: int, box) -> Dictionary:
    indices = tuple(idx for total in range(deg + 1)
                    for idx in _grlex_degree(d, total))
    return Dictionary(family, d, indices, box)


def _grlex_degree(d: int, total: int):
    """The d-variable multi-indices of degree exactly total, in graded-lex
    order: lexicographically descending, the first exponent largest first."""
    if d == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _grlex_degree(d - 1, total - first):
            yield (first,) + rest


# Rows per evaluate() call in the streaming passes.  The chunk size sets the
# grouping of the Kahan-compensated Gram sums, so it is part of the results.
# Within a chunk the kernels work in blocks of _kernels.EVAL_BLOCK points,
# which only sets how much of the table is in cache: no value depends on it.
# A 1-D moment pass (koopman.moment_matrices) streams chunks of one block.
CHUNK_ROWS = 1 << 16


def evaluate(dictionary: Dictionary, x: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate every basis function at the state(s) x.

    Accepts a single state of shape (d,) or a batch of shape (n, d); returns
    shape (size,) or (size, n) respectively.  A batch's values are written
    into out, a (size, n) array that may be a view, when it is given.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != dictionary.dimension:
        raise DimensionMismatch(
            f"state dimension {X.shape[1]} != dictionary dimension "
            f"{dictionary.dimension}")
    # out goes by position: perfbench's tracer passes a wrapped kernel's
    # result to its counters as their own ``out`` argument
    if dictionary.family == MONOMIAL:
        out = _kernels.monomial_eval(X, dictionary.exponents, out)
    else:
        if dictionary.box is not None:
            # z = (2 x - (lo + hi)) / (hi - lo): the same operations in the
            # same order as that expression, in one new array
            lo, hi = dictionary.bounds
            X = np.multiply(X, 2.0)
            X -= lo + hi
            X /= hi - lo
        out = _kernels.chebyshev_eval(X, dictionary.exponents, out)
    return out[:, 0] if single else out


def evaluate_chunks(dictionary: Dictionary, X: np.ndarray):
    """(start, values) of each CHUNK_ROWS chunk of X, written C-contiguous
    into one buffer: a strided view would change the bits of products."""
    flat = np.empty(dictionary.size * min(CHUNK_ROWS, len(X)))
    for start in range(0, len(X), CHUNK_ROWS):
        rows = X[start:start + CHUNK_ROWS]
        out = flat[:dictionary.size * len(rows)].reshape(-1, len(rows))
        yield start, evaluate(dictionary, rows, out)


def _check_same_space(first: Dictionary, *others: Dictionary) -> None:
    """Dictionaries combined coefficient-wise must describe the same space."""
    for other in others:
        if (other.family, other.dimension) != (first.family, first.dimension):
            raise DimensionMismatch(
                "dictionaries must share family and dimension")
        if other.box != first.box:
            raise DimensionMismatch("dictionaries must share the rescaling box")


def project(indices: Sequence[MultiIndex], coeffs: np.ndarray,
            target: Dictionary) -> np.ndarray:
    """Rows of coefficients over ``indices`` rewritten over target.

    Every nonzero must fit: one whose index target lacks raises
    TargetTooSmall naming the indices.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lookup = target.positions
    pos = np.array([lookup.get(tuple(idx), -1) for idx in indices],
                   dtype=np.int64)
    spill = ((coeffs != 0) & (pos < 0)).any(axis=tuple(range(coeffs.ndim - 1)))
    if spill.any():
        raise TargetTooSmall(tuple(indices[i]) for i in np.flatnonzero(spill))
    out = np.zeros(coeffs.shape[:-1] + (target.size,))
    out[..., pos[pos >= 0]] = coeffs[..., pos >= 0]
    return out


def inclusion_matrix(small: Dictionary, big: Dictionary) -> np.ndarray:
    """Theta with small(x) = Theta @ big(x): the identity placed onto big."""
    _check_same_space(small, big)
    return project(small.indices, np.eye(small.size), big)


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


def poly_from_terms(terms: dict[MultiIndex, float], family: str = MONOMIAL,
                    box: Sequence[Sequence[float]] | None = None,
                    deg: int | None = None) -> Poly:
    """sum c x^idx over the {idx: c} terms, in the total-degree dictionary of
    degree deg (by default the highest term degree) of the family and box."""
    d = len(next(iter(terms)))
    deg = max(map(sum, terms)) if deg is None else deg
    mono = total_degree_dictionary(MONOMIAL, d, deg, box)
    p = Poly(mono, project(list(terms), list(terms.values()), mono))
    if family == MONOMIAL:
        return p
    return monomial_to_cheb(p, total_degree_dictionary(family, d, deg, box))


def norm_squared(family: str, d: int,
                 box: Sequence[Sequence[float]] | None = None) -> Poly:
    """|x|^2 = x_1^2 + ... + x_d^2 over the degree-2 dictionary of the family."""
    return poly_from_terms({tuple(2 if k == j else 0 for k in range(d)): 1.0
                            for j in range(d)}, family, box)


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
    U = u.exponents.reshape(u.size, 1, 1, d)
    W = w.exponents.reshape(1, w.size, 1, d)
    if u.family == MONOMIAL:
        signs, weight = np.ones((1, d), dtype=np.int64), 1.0
    else:
        signs = np.array(list(iter_product((1, -1), repeat=d)), dtype=np.int64)
        weight = 0.5 ** d
    # (|u|, |w|, patterns, d) product indices, looked up once per distinct one
    prod = np.abs(U + signs * W)
    distinct, inverse = np.unique(prod.reshape(-1, d), axis=0,
                                  return_inverse=True)
    lookup = target.positions
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


def multiplication_matrix(p: Poly, u: Dictionary, target: Dictionary
                          ) -> np.ndarray:
    """(|target|, |u|) coefficients of p * u_i over target."""
    return np.tensordot(p.coeffs, product_tensor(p.basis, u, target),
                        axes=([0], [1]))


# -- substitution --------------------------------------------------------------

def compose(src: Dictionary, args: Sequence[Poly], target: Dictionary
            ) -> np.ndarray:
    """(|src|, |target|) rows over target of every element of src with each
    state coordinate x_j replaced by args[j], a Poly over target's family and
    box.  A Chebyshev src first takes each argument to its own box
    coordinate, (2 args[j] - lo - hi) / (hi - lo).

    A recurrence over the index with its last nonzero exponent a lowered,
    with one multiplication matrix M_j from degree deg E - max deg args into
    E: Q_a = M_j Q_(a-1) for monomials, Q_1 = M_j Q_0 and
    Q_a = 2 M_j Q_(a-1) - Q_(a-2) for Chebyshev.  E is the total-degree
    dictionary of target's family and box that holds every image; only its
    nonzeros must fit target.
    """
    if len(args) != src.dimension:
        raise DimensionMismatch(
            f"{len(args)} arguments for {src.dimension} coordinates")
    if src.family == CHEBYSHEV:
        lo, hi = src.bounds
        zs = []
        for j, arg in enumerate(args):
            shift = (lo[j] + hi[j]) / (hi[j] - lo[j])
            z = arg.coeffs * (2.0 / (hi[j] - lo[j]))
            z -= project([(0,) * arg.basis.dimension], [shift], arg.basis)
            zs.append(Poly(arg.basis, z))
        args = zs
    degs = [arg.basis.max_degree for arg in args]
    image = int((src.exponents @ degs).max(initial=0))
    E = total_degree_dictionary(target.family, target.dimension,
                                max(target.max_degree, image, *degs),
                                target.box)
    u = total_degree_dictionary(target.family, target.dimension,
                                E.max_degree - max(degs), target.box)
    M = [multiplication_matrix(arg, u, E).T for arg in args]
    full = total_degree_dictionary(src.family, src.dimension, src.max_degree,
                                   src.box)
    pos = full.positions
    Q = np.zeros((full.size, E.size))
    Q[0, 0] = 1.0
    # graded-lex order puts every lowered index before the index itself
    for r, idx in enumerate(full.indices[1:], 1):
        j = max(i for i, e in enumerate(idx) if e)
        a = idx[j]
        Q[r] = Q[pos[idx[:j] + (a - 1,) + idx[j + 1:]], :u.size] @ M[j]
        if src.family == CHEBYSHEV and a >= 2:
            Q[r] = 2.0 * Q[r] - Q[pos[idx[:j] + (a - 2,) + idx[j + 1:]]]
    return project(E.indices, Q[[pos[idx] for idx in src.indices]], target)


def monomial_to_cheb(p: Poly, target: Dictionary) -> Poly:
    """Express a monomial-basis polynomial in a Chebyshev target dictionary:
    p composed with x_j = ((hi - lo) T_1(z_j) + lo + hi) / 2."""
    if p.basis.family != MONOMIAL or target.family != CHEBYSHEV:
        raise DimensionMismatch("expects monomial source and chebyshev target")
    d = target.dimension
    line = total_degree_dictionary(CHEBYSHEV, d, 1, target.box)
    lo, hi = target.bounds
    coords = []
    for j in range(d):
        c = np.zeros(line.size)
        c[0], c[1 + j] = (lo[j] + hi[j]) / 2.0, (hi[j] - lo[j]) / 2.0
        coords.append(Poly(line, c))
    E = total_degree_dictionary(CHEBYSHEV, d, p.basis.max_degree, target.box)
    coeffs = p.coeffs @ compose(p.basis, coords, E)
    return Poly(target, project(E.indices, coeffs, target))

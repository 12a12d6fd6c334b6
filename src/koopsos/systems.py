"""Built-in example systems, their exact Lie derivatives, and snapshot sampling.

Four systems are provided:

* ``MapLyap2D``: discrete map (x, y) -> (0.3 x, -x + 0.5 y + (7/18) x^2).
* ``VanDerPol``: dx/dt = y, dy/dt = mu (1 - x^2) y - x with mu = 0.1.
* ``StochasticLogistic``: x -> lam x (1 - x) with lam ~ Uniform[0, 4].
* ``CircularOrbit``: dx1/dt = -x2 + x1 (1 - r^2), dx2/dt = x1 + x2 (1 - r^2).

Exact Lie derivatives are f . grad p for ODEs, p o F - p for the map and
E[p(lam x (1 - x))] - p(x) for the stochastic map.  ``exact_lie_matrix``
builds those of every element of a dictionary at once, by exact polynomial
algebra in the dictionary's own family and box: derivatives and products
through ``polybasis.product_tensor`` for the ODEs, and substitution through
``polybasis.compose`` for the maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .polybasis import (CHEBYSHEV, CHUNK_ROWS, MONOMIAL, Dictionary,
                        _check_same_space, compose, evaluate_chunks,
                        inclusion_matrix, multiplication_matrix,
                        poly_from_terms, project, total_degree_dictionary)
from .snapshots import GENERATOR, KOOPMAN, SnapshotSet

MAP_LYAP_2D = "MapLyap2D"
VAN_DER_POL = "VanDerPol"
STOCHASTIC_LOGISTIC = "StochasticLogistic"
CIRCULAR_ORBIT = "CircularOrbit"

DISCRETE = "discrete"
CONTINUOUS = "continuous"

_TIME_KIND = {
    MAP_LYAP_2D: DISCRETE,
    VAN_DER_POL: CONTINUOUS,
    STOCHASTIC_LOGISTIC: DISCRETE,
    CIRCULAR_ORBIT: CONTINUOUS,
}
_DIMENSION = {
    MAP_LYAP_2D: 2,
    VAN_DER_POL: 2,
    STOCHASTIC_LOGISTIC: 1,
    CIRCULAR_ORBIT: 2,
}


class WrongSystemKind(ValueError):
    pass


class StateOutOfDomain(ValueError):
    pass


@dataclass(frozen=True)
class SystemSpec:
    """One of the built-in systems plus its parameters."""

    id: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        # a list or a dict names no system, and is not hashable
        if not isinstance(self.id, str) or self.id not in _TIME_KIND:
            raise WrongSystemKind(f"unknown system {self.id!r}")
        if self.id == VAN_DER_POL:
            object.__setattr__(
                self, "parameters", {"mu": float(self.parameters.get("mu", 0.1))})
        elif self.parameters:
            raise WrongSystemKind(f"{self.id} takes no parameters")

    @property
    def time_kind(self) -> str:
        return _TIME_KIND[self.id]

    @property
    def dimension(self) -> int:
        return _DIMENSION[self.id]

    @property
    def mu(self) -> float:
        return self.parameters.get("mu", 0.1)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; identical seed gives an identical stream."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def _finite_array(value, shape: tuple) -> np.ndarray | None:
    """value as a float array of that shape, all finite, or else None."""
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged, huge
        return None
    return arr if arr.shape == shape and np.isfinite(arr).all() else None


def step_map(spec: SystemSpec, x: np.ndarray) -> np.ndarray:
    """One step of a deterministic discrete map."""
    if spec.id != MAP_LYAP_2D:
        raise WrongSystemKind(f"{spec.id} is not a deterministic discrete map")
    x = np.asarray(x, dtype=float)
    a, b = x[..., 0], x[..., 1]
    return np.stack([0.3 * a, -a + 0.5 * b + (7.0 / 18.0) * a * a], axis=-1)


def step_stochastic(spec: SystemSpec, x, rng: np.random.Generator):
    """One step x -> lam x (1 - x) with lam drawn uniformly from [0, 4]."""
    if spec.id != STOCHASTIC_LOGISTIC:
        raise WrongSystemKind(f"{spec.id} is not the stochastic logistic map")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise StateOutOfDomain("logistic state must lie in [0, 1]")
    lam = rng.uniform(0.0, 4.0, size=x.shape)
    return lam * x * (1.0 - x)


def integrate_ode(spec: SystemSpec, x0, tau: float, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 trajectory; returns (n_steps + 1, d) including x0."""
    if spec.time_kind != CONTINUOUS:
        raise WrongSystemKind(f"{spec.id} is not an ODE system")
    kind = _kernels.VDP if spec.id == VAN_DER_POL else _kernels.CIRCLE
    out = _kernels.rk4_trajectory(kind, x0, tau, n_steps, mu=spec.mu)
    if not np.all(np.isfinite(out)):
        raise StateOutOfDomain("trajectory left the finite domain")
    return out


# -- exact Lie derivatives -----------------------------------------------------

def _vector_field_terms(spec: SystemSpec) -> list[dict]:
    """{monomial index: coefficient} of each component of the vector field."""
    if spec.id == VAN_DER_POL:
        mu = spec.mu
        return [{(0, 1): 1.0},
                {(0, 1): mu, (2, 1): -mu, (1, 0): -1.0}]
    if spec.id == CIRCULAR_ORBIT:
        return [{(0, 1): -1.0, (1, 0): 1.0, (3, 0): -1.0, (1, 2): -1.0},
                {(1, 0): 1.0, (0, 1): 1.0, (2, 1): -1.0, (0, 3): -1.0}]
    raise WrongSystemKind(f"{spec.id} has no polynomial vector field")


_LOGISTIC = {(1,): 1.0, (2,): -1.0}  # x (1 - x), before the factor lam


def _derivative_terms(family: str, a: int) -> list:
    """(b, c) with d/dz of element a equal to sum c * element b: a z^(a-1),
    or T_a' = sum of 2a T_b over b < a with a - b odd (a T_0 for b = 0)."""
    if family == MONOMIAL:
        return [(a - 1, float(a))] if a else []
    return [(b, float(a if b == 0 else 2 * a)) for b in range(a - 1, -1, -2)]


def _lie_rows(spec: SystemSpec, phi: Dictionary) -> tuple:
    """Lie images of the elements of phi as (E, rows over E), in phi's own
    family and box.  ODEs: sum_j D_j M(f_j), with D_j the d/dx_j matrix
    from phi to degree deg phi - 1 and M(f_j) multiplication by f_j.  Maps:
    each element composed with F, minus itself; the logistic's expectation
    over lam is E[lam^k] = 4^k / (k + 1) for monomials, and a Gauss-Legendre
    rule with deg(phi)//2 + 1 nodes, exact at degree deg(phi), for Chebyshev.
    """
    d, degp, family = spec.dimension, phi.max_degree, phi.family
    if spec.time_kind == CONTINUOUS:
        f = [poly_from_terms(t, family, phi.box)
             for t in _vector_field_terms(spec)]
        u = total_degree_dictionary(family, d, max(degp - 1, 0), phi.box)
        E = total_degree_dictionary(
            family, d, u.max_degree + max(fj.basis.max_degree for fj in f),
            phi.box)
        lo, hi = phi.bounds
        rows = 0.0
        for j, fj in enumerate(f):
            D = np.zeros((phi.size, u.size))
            for k, idx in enumerate(phi.indices):
                for b, c in _derivative_terms(family, idx[j]):
                    D[k, u.positions[idx[:j] + (b,) + idx[j + 1:]]] = c
            if family == CHEBYSHEV:  # times dz_j/dx_j
                D *= 2.0 / (hi[j] - lo[j])
            rows = rows + D @ multiplication_matrix(fj, u, E).T
        return E, rows
    E = total_degree_dictionary(family, d, lie_image_degree(spec, degp),
                                phi.box)
    if spec.id == MAP_LYAP_2D:
        F = [{(1, 0): 0.3}, {(1, 0): -1.0, (0, 1): 0.5, (2, 0): 7.0 / 18.0}]
        rows = compose(
            phi, [poly_from_terms(Fj, family, phi.box) for Fj in F], E)
    elif family == MONOMIAL:  # x^k -> E[lam^k] (x - x^2)^k
        k = phi.exponents[:, 0]
        rows = compose(phi, [poly_from_terms(_LOGISTIC, family, phi.box)], E)
        rows *= (4.0 ** k / (k + 1))[:, None]
    else:  # lam = 4u with u uniform on [0, 1]
        nodes, wts = np.polynomial.legendre.leggauss(degp // 2 + 1)
        rows = sum(
            wi * compose(phi, [poly_from_terms(
                {idx: 4.0 * ui * c for idx, c in _LOGISTIC.items()},
                family, phi.box)], E)
            for ui, wi in zip((nodes + 1.0) / 2.0, wts / 2.0))
    rows -= inclusion_matrix(phi, E)
    return E, rows


def lie_image_degree(spec: SystemSpec, deg: int) -> int:
    """Degree of the Lie image of a degree-deg polynomial: deg + 2 under the
    cubic vector fields, 2 deg under the quadratic maps."""
    return deg + 2 if spec.time_kind == CONTINUOUS else 2 * deg


def exact_lie_matrix(spec: SystemSpec, phi: Dictionary, psi: Dictionary
                     ) -> np.ndarray:
    """Matrix of the exact generator restricted to span(phi), over psi: row k
    holds the Lie image of phi[k], so the image of p = c . phi is
    ``c @ exact_lie_matrix(spec, phi, psi)``.  psi must share phi's family,
    dimension and box, and hold every nonzero of the images.

    One construction serves both families: exact polynomial algebra in
    phi's own basis (``_lie_rows``).  Only the derivative of an element, the
    recurrence step, the box coordinates and the logistic's expectation over
    lam depend on the family.  Chebyshev coefficients stay O(1) on the box,
    where monomial ones grow like 4^deg and cancel, and on a centred box the
    entries that x -> -x symmetry makes 0 are exactly 0.
    """
    if phi.dimension != spec.dimension:
        raise WrongSystemKind("dictionary dimension does not match system")
    _check_same_space(phi, psi)
    E, rows = _lie_rows(spec, phi)
    return project(E.indices, rows, psi)


def exact_lie_values(spec: SystemSpec, phi: Dictionary, X: np.ndarray
                     ) -> np.ndarray:
    """Exact Lie derivative of every element of phi evaluated at rows of X;
    returns shape (n, phi.size), filled per chunk of ``evaluate_chunks``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    psi = total_degree_dictionary(phi.family, phi.dimension,
                                  lie_image_degree(spec, phi.max_degree),
                                  phi.box)
    lie = exact_lie_matrix(spec, phi, psi)
    out = np.empty((X.shape[0], phi.size))
    for start, vals in evaluate_chunks(psi, X):
        out[start:start + vals.shape[1]] = (lie @ vals).T
    return out


# -- snapshot sampling ---------------------------------------------------------

def sample_snapshots(spec: SystemSpec, mode: str, tau: float, n: int,
                     rng: np.random.Generator | None = None,
                     snapshot_kind: str = KOOPMAN,
                     x0=None, bounds=None, phi: Dictionary | None = None
                     ) -> SnapshotSet:
    """Generate n snapshots.

    Modes: ``trajectory`` (iterate from x0), ``iid_uniform_box`` (x_i uniform
    in bounds), ``limit_cycle`` (x_i on the unit circle at angles i*tau,
    CircularOrbit only).  For ``generator`` kind the y rows hold exact Lie
    derivative values of each element of phi at x_i.  A given x0 must hold
    ``spec.dimension`` finite numbers, and bounds one finite (lo, hi) pair
    with lo < hi per coordinate; a wrong one raises ``ValueError``.  rng
    defaults to ``make_rng(0)``; the entropy of its seed sequence, the seed
    for ``make_rng(seed)``, is recorded as ``metadata["seed"]``.

    The set's times are the grid t_i = i dt, kept as the step dt and built
    when ``t`` is read: dt is 0 for ``iid_uniform_box``, 1 for map and
    logistic trajectories and tau for ODE trajectories and ``limit_cycle``.
    The logistic trajectory draws its rates lam_i in blocks of
    ``CHUNK_ROWS`` and iterates each block into its slice of one
    ``(n + 1,)`` states array, whose views are X and Y; the draws, and the
    state the generator is left in, are those of one ``rng.uniform(0, 4,
    n)`` call.
    """
    if rng is None:
        rng = make_rng(0)
    if snapshot_kind not in (KOOPMAN, GENERATOR):
        raise ValueError(f"unknown snapshot kind {snapshot_kind!r}")
    if snapshot_kind == GENERATOR and phi is None:
        raise ValueError("generator snapshots require a phi dictionary")
    start = None if x0 is None else _finite_array(x0, (spec.dimension,))
    if x0 is not None and start is None:
        raise ValueError(f"x0 must hold {spec.dimension} numbers for "
                         f"{spec.id}, got {x0!r}")

    if mode == "limit_cycle":
        if spec.id != CIRCULAR_ORBIT:
            raise WrongSystemKind("limit_cycle sampling needs CircularOrbit")
        angles = tau * np.arange(n)
        dt = tau
        X = np.column_stack([np.cos(angles), np.sin(angles)])
        Y = np.column_stack([np.cos(angles + tau), np.sin(angles + tau)])
    elif mode == "trajectory":
        if spec.id == STOCHASTIC_LOGISTIC:
            states = np.empty(n + 1)
            states[0] = 0.51 if start is None else start[0]
            # the generator gives the same doubles in the same order whatever
            # the block sizes, so the rates are drawn one chunk at a time
            # instead of as one n-long array
            for i in range(0, n, CHUNK_ROWS):
                m = min(CHUNK_ROWS, n - i)
                _kernels.logistic_trajectory(
                    states[i], rng.uniform(0.0, 4.0, m), states[i:i + m + 1])
            dt = 1.0
            X = states[:n, None]
            Y = states[1:, None]
        elif spec.time_kind == CONTINUOUS:
            start = np.array([0.1, 0.2]) if start is None else start
            states = integrate_ode(spec, start, tau, n)
            dt = tau
            X = states[:n]
            Y = states[1:]
        else:
            states = np.empty((n + 1, 2))
            states[0] = [1.0, 0.0] if start is None else start
            for i in range(n):
                states[i + 1] = step_map(spec, states[i])
            dt = 1.0
            X, Y = states[:n], states[1:]
    elif mode == "iid_uniform_box":
        if bounds is None:
            raise ValueError("iid_uniform_box sampling requires bounds")
        box = _finite_array(bounds, (spec.dimension, 2))
        if box is None or not (box[:, 0] < box[:, 1]).all():
            raise ValueError(
                f"bounds must hold one finite (lo, hi) pair with lo < hi per "
                f"coordinate of {spec.id}, got {bounds!r}")
        X = rng.uniform(box[:, 0], box[:, 1], size=(n, spec.dimension))
        dt = 0.0
        if spec.id == MAP_LYAP_2D:
            Y = step_map(spec, X)
        elif spec.id == STOCHASTIC_LOGISTIC:
            Y = step_stochastic(spec, X[:, 0], rng)[:, None]
        else:
            n_sub = max(1, math.ceil(tau / 1e-3))
            Y = np.array([integrate_ode(spec, x, tau / n_sub, n_sub)[-1]
                          for x in X])
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")

    if snapshot_kind == GENERATOR:
        Y = exact_lie_values(spec, phi, X)

    meta = {"system": spec.id, "mode": mode, "tau": float(tau), "n": int(n),
            "seed": rng.bit_generator.seed_seq.entropy,
            "snapshot_kind": snapshot_kind}
    return SnapshotSet(t=dt, X=X, Y=Y, tau=float(tau), kind=snapshot_kind,
                       metadata=meta)

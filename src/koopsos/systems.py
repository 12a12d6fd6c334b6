"""Built-in example systems, their exact Lie derivatives, and snapshot sampling.

Each built-in system is one ``_System`` row of ``_SYSTEMS``:

* ``MapLyap2D``: discrete map (x, y) -> (0.3 x, -x + 0.5 y + (7/18) x^2).
* ``VanDerPol``: dx/dt = y, dy/dt = mu (1 - x^2) y - x, mu = 0.1 by default.
* ``StochasticLogistic``: x -> lam x (1 - x) on [0, 1], lam ~ Uniform[0, 4].
* ``CircularOrbit``: dx1/dt = -x2 + x1 (1 - r^2), dx2/dt = x1 + x2 (1 - r^2).

All else derives from the row: the parameter check, the dimension (its
number of components), ``lie_image_degree``, the samplers' defaults and the
command line's default family and domain.  Code branches on the row's kind
(ODE, map, random map), not on a name; only ``limit_cycle`` sampling, of
the circle's orbit, tests one.

Exact Lie derivatives are f . grad p for ODEs, p o F - p for the map and
E[p(lam F(x))] - p(x) for the random map.  ``exact_lie_matrix`` builds those
of every element of a dictionary at once, by exact polynomial algebra in the
dictionary's own family and box: derivatives and products through
``polybasis.product_tensor`` for the ODEs, and substitution through
``polybasis.compose`` for the maps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

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


@dataclass(frozen=True)
class _System:
    """One built-in system; ``terms`` maps the parameters to f of an ODE or
    F of x -> F(x) or x -> lam F(x), {monomial index: coefficient} each."""

    time_kind: str
    terms: Callable[..., list]
    defaults: dict              # parameter name -> default value
    x0: tuple                   # default start of a trajectory
    kernel: int | None = None   # _kernels RK4 id of an ODE
    box: tuple | None = None    # state box of a system confined to one
    rate: float | None = None   # x -> lam F(x) with lam ~ Uniform[0, rate]
    # a map's F written out: its order of operations sets the data's bits
    step: Callable | None = None


def _map_lyap_2d(x: np.ndarray) -> np.ndarray:
    a, b = x[..., 0], x[..., 1]
    return np.stack([0.3 * a, -a + 0.5 * b + (7.0 / 18.0) * a * a], axis=-1)


_SYSTEMS = {
    MAP_LYAP_2D: _System(
        DISCRETE,
        lambda: [{(1, 0): 0.3},
                 {(1, 0): -1.0, (0, 1): 0.5, (2, 0): 7.0 / 18.0}],
        {}, (1.0, 0.0), step=_map_lyap_2d),
    VAN_DER_POL: _System(
        CONTINUOUS,
        lambda mu: [{(0, 1): 1.0},
                    {(0, 1): mu, (2, 1): -mu, (1, 0): -1.0}],
        {"mu": 0.1}, (0.1, 0.2), kernel=_kernels.VDP),
    STOCHASTIC_LOGISTIC: _System(
        DISCRETE, lambda: [{(1,): 1.0, (2,): -1.0}],  # x (1 - x)
        {}, (0.51,), box=((0.0, 1.0),), rate=4.0),
    CIRCULAR_ORBIT: _System(
        CONTINUOUS,
        lambda: [{(0, 1): -1.0, (1, 0): 1.0, (3, 0): -1.0, (1, 2): -1.0},
                 {(1, 0): 1.0, (0, 1): 1.0, (2, 1): -1.0, (0, 3): -1.0}],
        {}, (0.1, 0.2), kernel=_kernels.CIRCLE),
}


class WrongSystemKind(ValueError):
    pass


class StateOutOfDomain(ValueError):
    pass


@dataclass(frozen=True)
class SystemSpec:
    """One of the built-in systems plus its parameters: the row's defaults,
    each overridden by a finite real number of the same name."""

    id: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        # a list or a dict names no system, and is not hashable
        if not isinstance(self.id, str) or self.id not in _SYSTEMS:
            raise WrongSystemKind(f"unknown system {self.id!r}")
        params = dict(self.system.defaults)
        if not isinstance(self.parameters, Mapping):
            raise WrongSystemKind(
                f"{self.id} takes parameters {sorted(params)} as a mapping "
                f"of names to numbers; got {self.parameters!r}")
        for name, value in self.parameters.items():
            real = isinstance(value, numbers.Real) and not isinstance(
                value, bool)
            number = _finite_array(value, (1,)) if real else None
            if name not in params or number is None:
                raise WrongSystemKind(
                    f"{self.id} takes parameters {sorted(params)}, each a "
                    f"finite real number; got {name!r}: {value!r}")
            params[name] = float(number[0])
        object.__setattr__(self, "parameters", params)

    @property
    def system(self) -> _System:
        return _SYSTEMS[self.id]

    @property
    def time_kind(self) -> str:
        return self.system.time_kind

    @cached_property
    def terms(self) -> list[dict]:
        """{monomial index: coefficient} of each component of the row's
        right-hand side at these parameters."""
        return self.system.terms(**self.parameters)

    @property
    def dimension(self) -> int:
        return len(self.terms)


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


def _initial_state(spec: SystemSpec, x0) -> np.ndarray:
    """x0 as ``spec.dimension`` finite floats, or else a ValueError."""
    start = _finite_array(x0, (spec.dimension,))
    if start is None:
        raise ValueError(f"x0 must hold {spec.dimension} numbers for "
                         f"{spec.id}, got {x0!r}")
    return start


def step_map(spec: SystemSpec, x: np.ndarray) -> np.ndarray:
    """One step of a deterministic discrete map, by its row's formula."""
    step = spec.system.step
    if step is None:
        raise WrongSystemKind(f"{spec.id} is not a deterministic discrete map")
    return step(np.asarray(x, dtype=float))


def step_stochastic(spec: SystemSpec, x, rng: np.random.Generator):
    """One step x -> lam F(x) of the random map, lam drawn uniformly from
    [0, rate]; x must lie in the row's box.  F is the logistic's x (1 - x),
    written out as its trajectory kernel writes it."""
    system = spec.system
    if system.rate is None:
        raise WrongSystemKind(f"{spec.id} is not a random map")
    x = np.asarray(x, dtype=float)
    lo, hi = np.array(system.box).T
    if np.any(x < lo) or np.any(x > hi):
        raise StateOutOfDomain(
            f"{spec.id} state must lie in its box {system.box}")
    lam = rng.uniform(0.0, system.rate, size=x.shape)
    return lam * x * (1.0 - x)


def integrate_ode(spec: SystemSpec, x0, tau: float, n_steps: int) -> np.ndarray:
    """Fixed-step RK4 trajectory by the row's kernel; returns (n_steps + 1,
    d) including x0, which must hold d finite numbers (else ValueError)."""
    if spec.time_kind != CONTINUOUS:
        raise WrongSystemKind(f"{spec.id} is not an ODE system")
    out = _kernels.rk4_trajectory(spec.system.kernel,
                                  _initial_state(spec, x0), tau, n_steps,
                                  **spec.parameters)
    if not np.all(np.isfinite(out)):
        raise StateOutOfDomain("trajectory left the finite domain")
    return out


# -- exact Lie derivatives -----------------------------------------------------

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
    each element composed with F, minus itself.  The random map's
    expectation over lam is E[lam^k] = rate^k / (k + 1) on an element of
    total degree k for monomials, and a Gauss-Legendre rule with
    deg(phi)//2 + 1 nodes, exact at degree deg(phi), for Chebyshev.
    """
    d, degp, family = spec.dimension, phi.max_degree, phi.family
    if spec.time_kind == CONTINUOUS:
        f = [poly_from_terms(t, family, phi.box) for t in spec.terms]
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
    rate = spec.system.rate
    if rate is not None and family == CHEBYSHEV:  # lam = rate u, u ~ U[0, 1]
        nodes, wts = np.polynomial.legendre.leggauss(degp // 2 + 1)
        rows = sum(
            wi * compose(phi, [poly_from_terms(
                {idx: rate * ui * c for idx, c in Fj.items()},
                family, phi.box) for Fj in spec.terms], E)
            for ui, wi in zip((nodes + 1.0) / 2.0, wts / 2.0))
    else:
        rows = compose(phi, [poly_from_terms(Fj, family, phi.box)
                             for Fj in spec.terms], E)
        if rate is not None:  # x^a -> E[lam^|a|] F(x)^a
            k = phi.exponents.sum(axis=1)
            rows *= (rate ** k / (k + 1))[:, None]
    rows -= inclusion_matrix(phi, E)
    return E, rows


def lie_image_degree(spec: SystemSpec, deg: int) -> int:
    """Degree of the Lie image of a degree-deg polynomial: deg + (field
    degree - 1) under an ODE, deg * (map degree) under a map; so deg + 2
    under the cubic vector fields and 2 deg under the quadratic maps."""
    top = max(sum(idx) for component in spec.terms for idx in component)
    return deg + top - 1 if spec.time_kind == CONTINUOUS else deg * top


def exact_lie_matrix(spec: SystemSpec, phi: Dictionary, psi: Dictionary
                     ) -> np.ndarray:
    """Matrix of the exact generator restricted to span(phi), over psi: row k
    holds the Lie image of phi[k], so the image of p = c . phi is
    ``c @ exact_lie_matrix(spec, phi, psi)``.  psi must share phi's family,
    dimension and box, and hold every nonzero of the images.

    One construction serves both families: exact polynomial algebra in
    phi's own basis (``_lie_rows``).  Only the derivative of an element, the
    recurrence step, the box coordinates and the random map's expectation
    over lam depend on the family.  Chebyshev coefficients stay O(1) on the
    box, where monomial ones grow like 4^deg and cancel, and on a centred box
    the entries that x -> -x symmetry makes 0 are exactly 0.
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

    Modes: ``trajectory`` (iterate from x0, by default the row's),
    ``iid_uniform_box`` (x_i uniform in bounds), ``limit_cycle`` (x_i on
    the unit circle at angles i*tau, CircularOrbit only).  For
    ``generator`` kind the y rows hold exact Lie derivative values of each
    element of phi at x_i.  A given x0 must hold
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
    state the generator is left in, are those of one ``rng.uniform(0,
    rate, n)`` call.
    """
    if rng is None:
        rng = make_rng(0)
    if snapshot_kind not in (KOOPMAN, GENERATOR):
        raise ValueError(f"unknown snapshot kind {snapshot_kind!r}")
    if snapshot_kind == GENERATOR and phi is None:
        raise ValueError("generator snapshots require a phi dictionary")
    system = spec.system
    start = _initial_state(spec, system.x0 if x0 is None else x0)

    if mode == "limit_cycle":
        if spec.id != CIRCULAR_ORBIT:
            raise WrongSystemKind("limit_cycle sampling needs CircularOrbit")
        angles = tau * np.arange(n)
        dt = tau
        X = np.column_stack([np.cos(angles), np.sin(angles)])
        Y = np.column_stack([np.cos(angles + tau), np.sin(angles + tau)])
    elif mode == "trajectory":
        if system.rate is not None:
            states = np.empty(n + 1)
            states[0] = start[0]
            # the generator gives the same doubles in the same order whatever
            # the block sizes, so the rates are drawn one chunk at a time
            # instead of as one n-long array
            for i in range(0, n, CHUNK_ROWS):
                m = min(CHUNK_ROWS, n - i)
                _kernels.logistic_trajectory(
                    states[i], rng.uniform(0.0, system.rate, m),
                    states[i:i + m + 1])
            dt = 1.0
            X = states[:n, None]
            Y = states[1:, None]
        elif spec.time_kind == CONTINUOUS:
            states = integrate_ode(spec, start, tau, n)
            dt = tau
            X = states[:n]
            Y = states[1:]
        else:
            states = np.empty((n + 1, spec.dimension))
            states[0] = start
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
        if system.rate is not None:
            Y = step_stochastic(spec, X[:, 0], rng)[:, None]
        elif spec.time_kind == DISCRETE:
            Y = step_map(spec, X)
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

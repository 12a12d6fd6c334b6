"""Tests for the built-in systems, sampling, and exact Lie derivatives."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.chebyshev import chebder, chebfit, chebval

from koopsos import _kernels, polybasis, systems
from koopsos.polybasis import (CHEBYSHEV, CHUNK_ROWS, MONOMIAL,
                               DimensionMismatch, Poly, TargetTooSmall,
                               evaluate, poly_from_terms,
                               total_degree_dictionary)
from koopsos.snapshots import (GENERATOR, KOOPMAN, SnapshotSet,
                               empirical_average)
from koopsos.systems import (CIRCULAR_ORBIT, MAP_LYAP_2D, STOCHASTIC_LOGISTIC,
                             VAN_DER_POL, StateOutOfDomain, SystemSpec,
                             WrongSystemKind, exact_lie_matrix,
                             exact_lie_values,
                             integrate_ode, lie_image_degree, make_rng,
                             sample_snapshots, step_map, step_stochastic)

BOX = ((0.0, 1.0),)
BOX03 = ((0.0, 3.0), (0.0, 3.0))
BOX22 = ((-2.0, 2.0), (-2.0, 2.0))
BOX33 = ((-3.0, 3.0), (-3.0, 3.0))


def _unit_poly(dictionary, idx):
    """The basis element idx of dictionary, as a polynomial."""
    c = np.zeros(dictionary.size)
    c[dictionary.positions[idx]] = 1.0
    return Poly(dictionary, c)


def test_map_single_step():
    spec = SystemSpec(MAP_LYAP_2D)
    out = step_map(spec, np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [0.3, -1.0 + 7.0 / 18.0], atol=1e-15)


def test_map_origin_fixed_point():
    spec = SystemSpec(MAP_LYAP_2D)
    np.testing.assert_allclose(step_map(spec, np.zeros(2)), np.zeros(2))


def test_logistic_full_parameter_hits_one():
    states = _kernels.logistic_trajectory(0.5, np.array([4.0]))
    np.testing.assert_allclose(states, [0.5, 1.0], atol=1e-15)


def test_logistic_domain_check():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    with pytest.raises(StateOutOfDomain):
        step_stochastic(spec, np.array([1.5]), make_rng(0))


def test_unknown_system_rejected():
    with pytest.raises(WrongSystemKind):
        SystemSpec("Lorenz")
    # a name that is not a string, also an unhashable one
    for name in (["VanDerPol"], {"a": 1}, 5):
        with pytest.raises(WrongSystemKind, match="unknown system"):
            SystemSpec(name)


@pytest.mark.parametrize("parameters", [
    {"nu": 3.0}, {"mu": True}, {"mu": float("nan")}, {"mu": float("inf")},
    {"mu": "x"}, {"mu": None}, [("mu", 1.0)], None, "mu"],
    ids=["unknown", "bool", "nan", "inf", "string", "none", "not-a-mapping",
         "not-a-mapping-none", "not-a-mapping-string"])
def test_system_parameters_are_checked(parameters):
    # each used to run with mu = 0.1, 1 or NaN, or to raise a bare error,
    # parameters that are not a mapping an AttributeError
    with pytest.raises(WrongSystemKind, match="VanDerPol"):
        SystemSpec(VAN_DER_POL, parameters)


def test_circle_stays_on_circle():
    spec = SystemSpec(CIRCULAR_ORBIT)
    states = integrate_ode(spec, np.array([1.0, 0.0]), 1e-3, 1000)
    radii = np.linalg.norm(states, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-8)


def test_circle_rk4_matches_rotation():
    # from (1,0) the exact orbit is (cos t, sin t)
    spec = SystemSpec(CIRCULAR_ORBIT)
    states = integrate_ode(spec, np.array([1.0, 0.0]), 1e-2, 100)
    np.testing.assert_allclose(states[-1], [np.cos(1.0), np.sin(1.0)],
                               atol=1e-8)


def test_rk4_fourth_order():
    spec = SystemSpec(CIRCULAR_ORBIT)
    exact = np.array([np.cos(1.0), np.sin(1.0)])
    e1 = np.linalg.norm(
        integrate_ode(spec, np.array([1.0, 0.0]), 1e-1, 10)[-1] - exact)
    e2 = np.linalg.norm(
        integrate_ode(spec, np.array([1.0, 0.0]), 5e-2, 20)[-1] - exact)
    assert 10 < e1 / e2 < 22  # halving the step cuts the error ~16x


def test_vdp_origin_equilibrium():
    spec = SystemSpec(VAN_DER_POL)
    states = integrate_ode(spec, np.zeros(2), 1e-2, 50)
    np.testing.assert_allclose(states, 0.0, atol=1e-14)


@pytest.mark.parametrize("x0", [(1.0, 2.0, 3.0), (1.0,), (0.1, np.nan)],
                         ids=["long", "short", "nan"])
def test_integrate_ode_rejects_a_wrong_x0(x0):
    # a long x0 used to be cut to 2 numbers, a short one to die with
    # IndexError inside the kernel
    with pytest.raises(ValueError, match="x0 must hold 2 numbers"):
        integrate_ode(SystemSpec(VAN_DER_POL), x0, 1e-2, 5)


@pytest.mark.parametrize("system, parameters", [
    (VAN_DER_POL, {}), (VAN_DER_POL, {"mu": 0.7}), (CIRCULAR_ORBIT, {})],
    ids=["vdp", "vdp-mu0.7", "circle"])
def test_rk4_kernel_steps_the_field_of_the_row(system, parameters):
    # the kernel writes each field out inline; its step must be a classical
    # RK4 step of the field that the row's terms give
    spec = SystemSpec(system, parameters)
    f = [poly_from_terms(t) for t in spec.terms]

    def field(x):
        return np.array([fj(x[None])[0] for fj in f])

    tau = 0.1
    for x in np.random.default_rng(6).uniform(-1.5, 1.5, size=(20, 2)):
        k1 = field(x)
        k2 = field(x + tau / 2 * k1)
        k3 = field(x + tau / 2 * k2)
        k4 = field(x + tau * k3)
        want = x + tau / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        got = integrate_ode(spec, x, tau, 1)[1]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_logistic_samplers_step_the_map_of_the_row():
    # the trajectory kernel and step_stochastic write F = x (1 - x) out;
    # one step of each must be lam F(x) with F the row's terms, at random x
    # in the box and the lam that each draws from the same stream
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    [F] = [poly_from_terms(t) for t in spec.terms]
    lo, hi = spec.system.box[0]
    rng = np.random.default_rng(7)
    for seed, x in enumerate(rng.uniform(lo, hi, size=20)):
        lam = make_rng(seed).uniform(0.0, spec.system.rate, size=1)
        want = lam[0] * F(np.array([[x]]))[0]
        stepped = (_kernels.logistic_trajectory(x, lam)[1],
                   step_stochastic(spec, np.array([x]), make_rng(seed))[0])
        for got in stepped:
            assert abs(got - want) <= 1e-15


def test_integrate_ode_rejects_a_blow_up():
    # far outside the unit circle the cubic field overflows within two steps
    spec = SystemSpec(CIRCULAR_ORBIT)
    with pytest.raises(StateOutOfDomain):
        integrate_ode(spec, np.array([10.0, 10.0]), 1.0, 5)


def test_rng_replay():
    a = make_rng(5).uniform(size=10)
    b = make_rng(5).uniform(size=10)
    np.testing.assert_array_equal(a, b)


def test_sample_snapshots_deterministic():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    s1 = sample_snapshots(spec, "trajectory", 1.0, 100, rng=make_rng(9))
    s2 = sample_snapshots(spec, "trajectory", 1.0, 100, rng=make_rng(9))
    assert s1 == s2


def test_sample_snapshots_records_the_seed_of_its_rng():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    s = sample_snapshots(spec, "trajectory", 1.0, 10, rng=make_rng(7))
    assert s.metadata["seed"] == 7
    assert sample_snapshots(spec, "trajectory", 1.0, 10).metadata["seed"] == 0


@pytest.mark.parametrize("system, x0", [
    (VAN_DER_POL, (1.0, 2.0, 3.0)),     # used to be cut to (1, 2) silently
    (VAN_DER_POL, (1.0,)),              # used to die inside the RK4 kernel
    (MAP_LYAP_2D, (1.0,)),
    (STOCHASTIC_LOGISTIC, (0.5, 0.5)),
])
def test_sample_snapshots_rejects_wrong_length_x0(system, x0):
    with pytest.raises(ValueError, match="x0 must hold"):
        sample_snapshots(SystemSpec(system), "trajectory", 1e-3, 10, x0=x0)


@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1,
                               2 * CHUNK_ROWS + 3])
def test_logistic_rates_drawn_per_chunk_are_bit_identical(n):
    # the sampler draws its rates one chunk at a time; the states and the
    # generator left behind must be those of a single n-long draw
    rng, ref_rng = make_rng(4), make_rng(4)
    s = sample_snapshots(SystemSpec(STOCHASTIC_LOGISTIC), "trajectory", 1.0,
                         n, rng=rng)
    ref = _kernels.logistic_trajectory(0.51, ref_rng.uniform(0.0, 4.0, n))
    states = np.append(s.X[:, 0], s.Y[-1, 0])
    np.testing.assert_array_equal(states.view(np.int64), ref.view(np.int64))
    assert rng.random() == ref_rng.random()


def test_sample_snapshots_logistic_x0_scalar_or_one_entry():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    runs = [sample_snapshots(spec, "trajectory", 1.0, 50, rng=make_rng(2),
                             x0=x0) for x0 in (0.3, [0.3])]
    assert runs[0] == runs[1]
    assert runs[0].X[0, 0] == 0.3


def test_sample_iid_box_bounds():
    spec = SystemSpec(MAP_LYAP_2D)
    s = sample_snapshots(spec, "iid_uniform_box", 1.0, 200, rng=make_rng(1),
                         bounds=[(-2, 2), (-1, 3)])
    assert s.X[:, 0].min() >= -2 and s.X[:, 0].max() <= 2
    assert s.X[:, 1].min() >= -1 and s.X[:, 1].max() <= 3
    np.testing.assert_allclose(s.Y, step_map(spec, s.X), atol=1e-14)


def test_limit_cycle_sampling():
    spec = SystemSpec(CIRCULAR_ORBIT)
    s = sample_snapshots(spec, "limit_cycle", 0.01, 50)
    np.testing.assert_allclose(np.linalg.norm(s.X, axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(s.Y, axis=1), 1.0, atol=1e-14)


def _lie(spec, p, psi):
    """The exact Lie image of p over psi, from the matrix of p's basis."""
    return Poly(psi, p.coeffs @ exact_lie_matrix(spec, p.basis, psi))


def test_exact_lie_linearity():
    # the images of the elements of phi, combined by the coefficients of p,
    # are f . grad p of p as a whole, evaluated pointwise
    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(MONOMIAL, 2, 3)
    psi = total_degree_dictionary(MONOMIAL, 2, 6)
    rng = np.random.default_rng(0)
    p = Poly(phi, rng.standard_normal(phi.size))
    C = np.zeros((4, 4))
    C[tuple(np.array(phi.indices).T)] = p.coeffs
    x, y = rng.uniform(-2, 2, size=(2, 50))
    ref = (y * npoly.polyval2d(x, y, npoly.polyder(C, axis=0))
           + (0.1 * (1.0 - x * x) * y - x)
           * npoly.polyval2d(x, y, npoly.polyder(C, axis=1)))
    np.testing.assert_allclose(_lie(spec, p, psi)(np.column_stack([x, y])),
                               ref, rtol=1e-12, atol=1e-12)


def _vdp_terms(a, b, mu=0.1):
    """f . grad (x^a y^b) for dx/dt = y, dy/dt = mu (1 - x^2) y - x."""
    return [((a - 1, b + 1), float(a)), ((a, b), mu * b),
            ((a + 2, b), -mu * b), ((a + 1, b - 1), -float(b))]


def _circle_terms(a, b):
    """f . grad (x^a y^b) for f = (-y + x (1 - r^2), x + y (1 - r^2))."""
    n = float(a + b)
    return [((a, b), n), ((a + 2, b), -n), ((a, b + 2), -n),
            ((a - 1, b + 1), -float(a)), ((a + 1, b - 1), float(b))]


def _logistic_terms(k):
    """E[lam^k] (x - x^2)^k - x^k with E[lam^k] = 4^k / (k + 1)."""
    moment = 4.0 ** k / (k + 1)
    terms = [((k + m,), moment * ((-1) ** m * math.comb(k, m)))
             for m in range(k + 1)]
    return terms + [((k,), -1.0)]


def _closed_form_rows(terms_of, phi, psi):
    rows = np.zeros((phi.size, psi.size))
    for k, idx in enumerate(phi.indices):
        for image, c in terms_of(*idx):
            if c:
                rows[k, psi.positions[image]] += c
    return rows


@pytest.mark.parametrize("system,terms_of", [
    (VAN_DER_POL, _vdp_terms), (CIRCULAR_ORBIT, _circle_terms),
    (STOCHASTIC_LOGISTIC, _logistic_terms)], ids=["vdp", "circle", "logistic"])
def test_monomial_lie_rows_match_closed_form(system, terms_of):
    spec = SystemSpec(system)
    d = spec.dimension
    for alpha in range(15 if d == 1 else 19):
        phi = total_degree_dictionary(MONOMIAL, d, alpha)
        psi = total_degree_dictionary(MONOMIAL, d,
                                      lie_image_degree(spec, alpha))
        np.testing.assert_array_equal(exact_lie_matrix(spec, phi, psi),
                                      _closed_form_rows(terms_of, phi, psi))


def test_a_new_ode_is_one_row(monkeypatch):
    # a 3-D Lorenz row, not a supported system: its dimension, its Lie
    # image degree and its exact Lie matrix all derive from the row
    lorenz = systems._System(
        systems.CONTINUOUS,
        lambda sigma, rho, beta: [
            {(0, 1, 0): sigma, (1, 0, 0): -sigma},
            {(1, 0, 0): rho, (0, 1, 0): -1.0, (1, 0, 1): -1.0},
            {(1, 1, 0): 1.0, (0, 0, 1): -beta}],
        {"sigma": 10.0, "rho": 28.0, "beta": 8.0 / 3.0}, (1.0, 1.0, 1.0))
    monkeypatch.setitem(systems._SYSTEMS, "Lorenz", lorenz)
    spec = SystemSpec("Lorenz")
    assert spec.dimension == 3
    assert lie_image_degree(spec, 4) == 5
    phi = total_degree_dictionary(MONOMIAL, 3, 4)
    psi = total_degree_dictionary(MONOMIAL, 3, 5)
    rng = np.random.default_rng(3)
    p = Poly(phi, rng.standard_normal(phi.size))
    X = rng.uniform(-2.0, 2.0, size=(50, 3))
    x, y, z = X.T
    f = (10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z)
    ref = 0.0
    for j, fj in enumerate(f):  # d/dx_j x^a = a_j x^(a - e_j)
        expo = phi.exponents.copy()
        expo[:, j] = np.maximum(expo[:, j] - 1, 0)
        monomials = np.prod(X[None] ** expo[:, None], axis=2)
        ref = ref + fj * ((p.coeffs * phi.exponents[:, j]) @ monomials)
    got = _lie(spec, p, psi)(X)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_circle_exact_lie_of_energy():
    # Lie of 1 + x1^2 + x2^2 along the circular-orbit field is 2r^2(1 - r^2)
    spec = SystemSpec(CIRCULAR_ORBIT)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 4)
    c = np.zeros(phi.size)
    c[phi.positions[(0, 0)]] = 1.0
    c[phi.positions[(2, 0)]] = 1.0
    c[phi.positions[(0, 2)]] = 1.0
    lie = _lie(spec, Poly(phi, c), psi)
    expected = np.zeros(psi.size)
    expected[psi.positions[(2, 0)]] = 2.0
    expected[psi.positions[(0, 2)]] = 2.0
    expected[psi.positions[(4, 0)]] = -2.0
    expected[psi.positions[(2, 2)]] = -4.0
    expected[psi.positions[(0, 4)]] = -2.0
    np.testing.assert_allclose(lie.coeffs, expected, atol=1e-12)


def test_map_lie_is_composition_difference():
    # discrete-time Lie of p is p(F(x)) - p(x)
    spec = SystemSpec(MAP_LYAP_2D)
    rng = np.random.default_rng(2)
    for alpha in (2, 6, 8):
        phi = total_degree_dictionary(MONOMIAL, 2, alpha)
        psi = total_degree_dictionary(MONOMIAL, 2, 2 * alpha)
        p = Poly(phi, rng.standard_normal(phi.size))
        lie = _lie(spec, p, psi)
        X = rng.uniform(-1, 1, size=(40, 2))
        np.testing.assert_allclose(lie(X), p(step_map(spec, X)) - p(X),
                                   atol=1e-10)


def test_logistic_lie_monte_carlo():
    # (Lp)(x) = E_lam[p(lam x (1-x))] - p(x) with lam uniform on [0, 4]
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 4, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 8, BOX)
    p = _unit_poly(phi, (3,))
    lie = _lie(spec, p, psi)
    rng = np.random.default_rng(11)
    lam = rng.uniform(0.0, 4.0, 400_000)
    for x in (0.13, 0.5, 0.82):
        nxt = (lam * x * (1 - x))[:, None]
        mc = float(np.mean(p(nxt))) - float(p(np.array([x])))
        assert lie(np.array([x])) == pytest.approx(mc, abs=5e-3)


def test_logistic_lie_quadrature_high_degree():
    # the high-degree path must not lose precision: check against a dense
    # Gauss-Legendre quadrature evaluated pointwise
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 14, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 28, BOX)
    p = _unit_poly(phi, (14,))
    lie = _lie(spec, p, psi)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    xs = np.linspace(0.0, 1.0, 17)
    for x in xs:
        vals = p((4.0 * u * x * (1 - x))[:, None])
        ref = float(w @ vals) - float(p(np.array([x])))
        assert lie(np.array([x])) == pytest.approx(ref, abs=1e-11)


def test_generator_snapshots_hold_lie_values():
    spec = SystemSpec(CIRCULAR_ORBIT)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    s = sample_snapshots(spec, "limit_cycle", 0.01, 30,
                         snapshot_kind=GENERATOR, phi=phi)
    np.testing.assert_allclose(s.Y, exact_lie_values(spec, phi, s.X),
                               atol=1e-12)


def test_logistic_chebyshev_lie_values_quadrature_alpha14():
    # generator snapshots of the Chebyshev logistic dictionary against a
    # pointwise Gauss-Legendre quadrature of E[p(lam x (1-x))] - p(x)
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 14, BOX)
    xs = np.linspace(0.0, 1.0, 257)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    u = 0.5 * (nodes + 1.0)
    images = (4.0 * np.outer(xs * (1.0 - xs), u)).reshape(-1, 1)
    vals = evaluate(phi, images).reshape(phi.size, xs.size, u.size)
    ref = (vals @ (0.5 * weights) - evaluate(phi, xs[:, None])).T
    got = exact_lie_values(spec, phi, xs[:, None])
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)


def test_exact_lie_values_chunks_rows(monkeypatch):
    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(MONOMIAL, 2, 3)
    X = np.random.default_rng(5).uniform(-2, 2, size=(23, 2))
    whole = exact_lie_values(spec, phi, X)
    monkeypatch.setattr(systems, "CHUNK_ROWS", 5)
    np.testing.assert_allclose(exact_lie_values(spec, phi, X), whole,
                               rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("system,family,box", [
    (VAN_DER_POL, MONOMIAL, None), (CIRCULAR_ORBIT, MONOMIAL, None),
    (MAP_LYAP_2D, MONOMIAL, None), (STOCHASTIC_LOGISTIC, CHEBYSHEV, BOX),
    (VAN_DER_POL, CHEBYSHEV, BOX03), (CIRCULAR_ORBIT, CHEBYSHEV, BOX22),
    (MAP_LYAP_2D, CHEBYSHEV, BOX22)])
def test_lie_image_degree_is_tight(system, family, box):
    spec = SystemSpec(system)
    phi = total_degree_dictionary(family, spec.dimension, 4, box)
    deg = lie_image_degree(spec, 4)
    assert deg == (6 if spec.time_kind == "continuous" else 8)
    exact_lie_matrix(spec, phi, total_degree_dictionary(
        family, spec.dimension, deg, box))
    with pytest.raises(TargetTooSmall):
        exact_lie_matrix(spec, phi, total_degree_dictionary(
            family, spec.dimension, deg - 1, box))


def _cheb_basis_values(phi, X, wrt=None):
    """Every element of a boxed Chebyshev phi at the rows of X, or its
    derivative in coordinate wrt, as products of 1-D chebval factors."""
    lo, hi = np.array(phi.box).T
    Z = (2.0 * X - lo - hi) / (hi - lo)
    out = np.ones((X.shape[0], phi.size))
    for k, idx in enumerate(phi.indices):
        for j, e in enumerate(idx):
            c = np.eye(e + 1)[e]
            if j == wrt:
                c = chebder(c) * 2.0 / (hi[j] - lo[j])
            out[:, k] *= chebval(Z[:, j], c)
    return out


def _pointwise_lie(system, phi, X):
    """f . grad phi for the ODEs and phi o F - phi for the map, written out
    from the system equations."""
    x, y = X[:, 0], X[:, 1]
    if system == MAP_LYAP_2D:
        image = np.column_stack([0.3 * x, -x + 0.5 * y + 7.0 / 18.0 * x * x])
        return _cheb_basis_values(phi, image) - _cheb_basis_values(phi, X)
    if system == VAN_DER_POL:
        f = (y, 0.1 * (1.0 - x * x) * y - x)
    else:
        r = 1.0 - x * x - y * y
        f = (-y + x * r, x + y * r)
    return sum(fj[:, None] * _cheb_basis_values(phi, X, wrt=j)
               for j, fj in enumerate(f))


@pytest.mark.parametrize("system,box,alpha", [
    (VAN_DER_POL, BOX03, 16), (CIRCULAR_ORBIT, BOX03, 14),
    (MAP_LYAP_2D, BOX22, 12), (MAP_LYAP_2D, ((-1.0, 3.0), (-1.0, 3.0)), 12)],
    ids=["vdp", "circle", "map", "map-off-centre"])
def test_chebyshev_lie_values_match_pointwise(system, box, alpha):
    # off-centre boxes at high degree are where conversion through monomials
    # loses digits to cancellation
    spec = SystemSpec(system)
    phi = total_degree_dictionary(CHEBYSHEV, 2, alpha, box)
    lo, hi = np.array(box).T
    X = np.random.default_rng(0).uniform(lo, hi, size=(400, 2))
    ref = _pointwise_lie(system, phi, X)
    err = np.max(np.abs(exact_lie_values(spec, phi, X) - ref))
    assert err <= 1e-9 * np.max(np.abs(ref))


def _logistic_interpolated_lie(p, target):
    """The logistic image of p from its values on a Chebyshev-Lobatto grid
    of 2 deg p + 1 points: an independent construction, by interpolation."""
    degp = p.basis.max_degree
    N = max(2 * degp, 1)
    zs = np.cos(np.pi * np.arange(N + 1) / N)
    lo, hi = (p.basis.box or ((-1.0, 1.0),))[0]
    xs = lo + (zs + 1.0) * (hi - lo) / 2.0
    nodes, wts = np.polynomial.legendre.leggauss(degp // 2 + 1)
    u = (nodes + 1.0) / 2.0
    w = wts / 2.0
    vals = -p(xs[:, None])
    for ui, wi in zip(u, w):
        vals = vals + wi * p((4.0 * ui * xs * (1.0 - xs))[:, None])
    coeffs = chebfit(zs, vals, N)
    out = np.zeros(target.size)
    spill = 0.0
    for k, ck in enumerate(coeffs):
        idx = (k,)
        if idx in target.indices:
            out[target.positions[idx]] = ck
        else:
            spill = max(spill, abs(ck))
    if spill > 1e-9 * (1.0 + np.max(np.abs(coeffs))):
        raise TargetTooSmall([(k,) for k in range(target.max_degree + 1,
                                                  N + 1)])
    return Poly(target, out)


def _agrees(L, ref):
    """L within 1e-13 of ref, relative to the largest entry of ref."""
    assert np.max(np.abs(L - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("box", [BOX, None], ids=["box", "no-box"])
@pytest.mark.parametrize("alpha", range(2, 15))
def test_logistic_chebyshev_lie_matrix_agrees_with_interpolation(alpha, box):
    # the algebra and the interpolation are two constructions of one matrix
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, alpha, box)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 2 * alpha, box)
    ref = np.array([_logistic_interpolated_lie(_unit_poly(phi, idx),
                                               psi).coeffs
                    for idx in phi.indices])
    _agrees(exact_lie_matrix(spec, phi, psi), ref)


def _tensor_interpolated_lie(spec, p, target):
    """The Lie image of p from its values on a tensor Chebyshev-Lobatto grid
    of N + 1 points per axis, N the image degree: an independent
    construction, by interpolation."""
    cheb = np.polynomial.chebyshev
    d, degp = spec.dimension, p.basis.max_degree
    N = max(lie_image_degree(spec, degp), 1)
    zs = np.cos(np.pi * np.arange(N + 1) / N)
    lo, hi = np.array(p.basis.box or ((-1.0, 1.0),) * d).T
    grid = np.meshgrid(*[lo[j] + (zs + 1.0) * (hi[j] - lo[j]) / 2.0
                         for j in range(d)], indexing="ij")
    X = np.stack(grid, axis=-1).reshape(-1, d)
    if spec.time_kind == systems.CONTINUOUS:
        tensor = np.zeros((degp + 1,) * d)
        tensor[tuple(np.array(p.basis.indices).T)] = p.coeffs
        vals = 0.0
        for j, fj in enumerate(spec.terms):
            grad = cheb.chebder(tensor, axis=j) * (2.0 / (hi[j] - lo[j]))
            for _ in range(d):  # each call turns one coefficient axis to grid
                grad = cheb.chebval(zs, grad)
            vals = vals + grad.ravel() * sum(c * np.prod(X ** np.array(i), 1)
                                             for i, c in fj.items())
    elif spec.id == MAP_LYAP_2D:
        vals = p(step_map(spec, X)) - p(X)
    else:  # stochastic logistic: E[p(lam x (1-x))] - p(x), lam = 4u
        nodes, wts = np.polynomial.legendre.leggauss(degp // 2 + 1)
        xs = X[:, 0]
        vals = -p(X)
        for ui, wi in zip((nodes + 1.0) / 2.0, wts / 2.0):
            vals = vals + wi * p((4.0 * ui * xs * (1.0 - xs))[:, None])
    coeffs = vals.reshape((N + 1,) * d)
    for axis in range(d):
        moved = np.moveaxis(coeffs, axis, 0)
        coeffs = np.moveaxis(cheb.chebfit(zs, moved.reshape(N + 1, -1), N)
                             .reshape(moved.shape), 0, axis)
    # interpolation noise past the image degree is dropped; a real spill raises
    keep = set(target.indices)
    tol = 1e-9 * (1.0 + np.max(np.abs(coeffs)))
    out = np.zeros(target.size)
    for idx, c in np.ndenumerate(coeffs):
        if idx in keep or abs(c) > tol:
            out[target.positions[idx]] = c
    return Poly(target, out)


@pytest.mark.parametrize("system,box,alphas", [
    (VAN_DER_POL, BOX33, range(4, 19)), (VAN_DER_POL, BOX03, range(4, 19)),
    (CIRCULAR_ORBIT, BOX22, range(4, 15)), (MAP_LYAP_2D, BOX22, range(2, 7)),
    (MAP_LYAP_2D, ((-1.0, 3.0), (-1.0, 3.0)), [12])],
    ids=["vdp", "vdp-off-centre", "circle", "map", "map-off-centre"])
def test_chebyshev_lie_matrix_agrees_with_interpolation(system, box, alphas):
    spec = SystemSpec(system)
    for alpha in alphas:
        phi = total_degree_dictionary(CHEBYSHEV, 2, alpha, box)
        psi = total_degree_dictionary(
            CHEBYSHEV, 2, lie_image_degree(spec, alpha), box)
        ref = np.array([_tensor_interpolated_lie(spec, _unit_poly(phi, idx),
                                                 psi).coeffs
                        for idx in phi.indices])
        _agrees(exact_lie_matrix(spec, phi, psi), ref)


@pytest.mark.parametrize("system,box,alphas", [
    (VAN_DER_POL, BOX33, range(4, 19)), (CIRCULAR_ORBIT, BOX22, range(4, 15))],
    ids=["vdp", "circle"])
def test_chebyshev_lie_matrix_parity_is_exact(system, box, alphas):
    # on a centred box x -> -x is z -> -z, and T_a(-z) = (-1)^a T_a(z); an
    # odd vector field keeps the parity of each element, so every entry
    # between elements of opposite parity is exactly 0, as the parity split
    # of sos.compile needs
    spec = SystemSpec(system)
    for alpha in alphas:
        phi = total_degree_dictionary(CHEBYSHEV, 2, alpha, box)
        psi = total_degree_dictionary(CHEBYSHEV, 2, alpha + 2, box)
        odd_phi, odd_psi = (dic.exponents.sum(axis=1) % 2 for dic in (phi, psi))
        L = exact_lie_matrix(spec, phi, psi)
        assert not L[odd_phi[:, None] != odd_psi].any()


def test_chebyshev_lie_spill_names_the_missing_indices():
    # the images of degree-4 VdP elements reach degree 6; a degree-5 target
    # misses exactly the degree-6 indices
    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(CHEBYSHEV, 2, 4, BOX03)
    psi = total_degree_dictionary(CHEBYSHEV, 2, 5, BOX03)
    with pytest.raises(TargetTooSmall) as err:
        exact_lie_matrix(spec, phi, psi)
    assert err.value.missing and all(sum(i) == 6 for i in err.value.missing)


@pytest.mark.parametrize("alpha", [10, 12])
def test_chebyshev_lie_small_spill_raises(alpha):
    # the images of MapLyap2D on (-2, 2)^2 reach degree 2 alpha with a
    # top coefficient below 1e-9 of the largest one; a psi one degree short
    # must still raise, not drop it as noise
    spec = SystemSpec(MAP_LYAP_2D)
    phi = total_degree_dictionary(CHEBYSHEV, 2, alpha, BOX22)
    psi = total_degree_dictionary(CHEBYSHEV, 2, 2 * alpha - 1, BOX22)
    with pytest.raises(TargetTooSmall) as err:
        exact_lie_matrix(spec, phi, psi)
    assert (2 * alpha, 0) in err.value.missing


def test_logistic_chebyshev_lie_without_box_uses_unit_box():
    # a Chebyshev dictionary without a box is in T_k(x) on [-1, 1]
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 4)
    p = _unit_poly(phi, (3,))
    lie = _lie(spec, p, total_degree_dictionary(CHEBYSHEV, 1, 8))
    nodes, weights = np.polynomial.legendre.leggauss(20)
    u = 0.5 * (nodes + 1.0)
    for x in np.linspace(0.0, 1.0, 9):
        ref = (0.5 * weights) @ p((4.0 * u * x * (1 - x))[:, None])
        assert lie(np.array([x])) == pytest.approx(
            ref - float(p(np.array([x]))), abs=1e-11)


@pytest.mark.parametrize("phi_family,phi_box,psi_family,psi_box", [
    (CHEBYSHEV, BOX03, CHEBYSHEV, BOX22),
    (CHEBYSHEV, BOX03, MONOMIAL, None),
    (MONOMIAL, None, CHEBYSHEV, BOX22)], ids=["box", "cheb-mono", "mono-cheb"])
def test_exact_lie_rejects_target_of_another_space(phi_family, phi_box,
                                                   psi_family, psi_box):
    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(phi_family, 2, 2, phi_box)
    psi = total_degree_dictionary(psi_family, 2, 4, psi_box)
    with pytest.raises(DimensionMismatch):
        exact_lie_matrix(spec, phi, psi)


def test_empirical_logistic_mean_between_certified_bounds():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    s = sample_snapshots(spec, "trajectory", 1.0, 100_000, rng=make_rng(4))
    mean = float(np.mean(s.X))
    assert 0.0 <= mean <= 0.3750


def test_streaming_helpers_fill_one_buffer_with_the_per_chunk_values(
        monkeypatch):
    # chunks of 7 rows over 30 states, the last chunk short: each helper
    # evaluates every chunk into one buffer, and its values and chunk sums
    # are those of evaluating each chunk into its own array, bit for bit
    chunk, n = 7, 30
    monkeypatch.setattr(polybasis, "CHUNK_ROWS", chunk)
    bases = []

    def spy(dictionary, x, out=None):
        bases.append(out.base)
        return evaluate(dictionary, x, out)
    monkeypatch.setattr(polybasis, "evaluate", spy)
    spec = SystemSpec(VAN_DER_POL)
    X = np.random.default_rng(8).uniform(-2.0, 2.0, size=(n, 2))
    chunks = [X[start:start + chunk] for start in range(0, n, chunk)]

    def one_buffer():
        assert len(bases) == len(chunks) and bases[0] is not None
        assert all(b is bases[0] for b in bases)
        bases.clear()

    for family, box in ((MONOMIAL, None), (CHEBYSHEV, BOX22)):
        phi = total_degree_dictionary(family, 2, 3, box)
        psi = total_degree_dictionary(family, 2, lie_image_degree(spec, 3),
                                      box)
        lie = exact_lie_matrix(spec, phi, psi)
        got = exact_lie_values(spec, phi, X)
        one_buffer()
        want = np.concatenate([(lie @ evaluate(psi, c)).T for c in chunks])
        assert got.tobytes() == want.tobytes()

        g = Poly(phi, np.random.default_rng(9).standard_normal(phi.size))
        data = SnapshotSet(t=1.0, X=X, Y=X, tau=1.0, kind=KOOPMAN)
        mean = empirical_average(data, g)
        one_buffer()
        total = 0.0
        for c in chunks:
            total += float(np.sum(g.coeffs @ evaluate(phi, c)))
        assert mean == total / n

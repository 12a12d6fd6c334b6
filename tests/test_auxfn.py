"""Tests for Lyapunov synthesis and ergodic-average bounds."""

import numpy as np
import pytest

from koopsos.auxfn import (circle_dictionaries, circular_orbit_casestudy,
                           ergodic_bound, find_lyapunov)
from koopsos.koopman import fit_edmd, fit_gedmd
from koopsos.polybasis import (CHEBYSHEV, MONOMIAL, DimensionMismatch, Poly,
                               monomial_to_cheb, total_degree_dictionary)
from koopsos.snapshots import GENERATOR, SnapshotSet, empirical_average
from koopsos.sos import SemialgebraicSet
from koopsos.systems import (MAP_LYAP_2D, STOCHASTIC_LOGISTIC, VAN_DER_POL,
                             SystemSpec, exact_lie_matrix, make_rng,
                             sample_snapshots)

BOX = ((0.0, 1.0),)


def _logistic_setup(alpha, beta=None):
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, alpha, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, beta or 2 * alpha, BOX)
    cheb2 = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX)
    mono2 = total_degree_dictionary(MONOMIAL, 1, 2)
    g = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, 0.0])), cheb2)
    s = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, -1.0])), cheb2)
    return spec, phi, psi, g, SemialgebraicSet((s,))


def test_lyapunov_stable_linear_map():
    # x -> x/2 admits V = x^2 over a quadratic dictionary
    phi = total_degree_dictionary(MONOMIAL, 1, 2)
    psi = total_degree_dictionary(MONOMIAL, 1, 2)
    # Lie of (1, x, x^2) is (0, -x/2, -3x^2/4)
    lie = np.zeros((3, 3))
    lie[1, 1] = -0.5
    lie[2, 2] = -0.75
    res = find_lyapunov(lie, psi, phi)
    assert res.feasible
    V = res.V
    xs = np.linspace(-2, 2, 41)[:, None]
    assert np.all(V(xs) >= xs[:, 0] ** 2 - 1e-7)


def test_lyapunov_expanding_map_infeasible():
    # x -> 2x: Lie of x^2 is 3x^2 > 0, no Lyapunov function exists
    phi = total_degree_dictionary(MONOMIAL, 1, 2)
    psi = total_degree_dictionary(MONOMIAL, 1, 2)
    lie = np.zeros((3, 3))
    lie[1, 1] = 1.0
    lie[2, 2] = 3.0
    res = find_lyapunov(lie, psi, phi)
    assert not res.feasible


def test_lyapunov_map2d_pipeline_with_posterior():
    spec = SystemSpec(MAP_LYAP_2D)
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    psi = total_degree_dictionary(MONOMIAL, 2, 8)
    data = sample_snapshots(spec, "iid_uniform_box", 1.0, 10_000,
                            rng=make_rng(7), bounds=[(-2, 2), (-2, 2)])
    ops = fit_edmd(data, phi, psi)
    res = find_lyapunov(ops.L, psi, phi,
                        posterior_lie=exact_lie_matrix(spec, phi, psi))
    assert res.feasible
    assert res.epsilon_posterior >= 0.99


def test_constant_observable_bounds():
    # both directions of a constant observable must return the constant
    spec, phi, psi, _, domain = _logistic_setup(4)
    lie = exact_lie_matrix(spec, phi, psi)
    five = Poly(total_degree_dictionary(CHEBYSHEV, 1, 0, BOX),
                np.array([5.0]))
    up = ergodic_bound("upper", five, lie, psi, phi, domain=domain)
    lo = ergodic_bound("lower", five, lie, psi, phi, domain=domain)
    assert up.bound == pytest.approx(5.0, abs=1e-6)
    assert lo.bound == pytest.approx(5.0, abs=1e-6)


def test_observable_box_must_match_phi_box():
    # g = x written over the box (0, 2) is a different polynomial over (0, 1);
    # matching its coefficients index by index would bound 2x instead of x
    spec, phi, psi, _, domain = _logistic_setup(4)
    box2 = ((0.0, 2.0),)
    g = monomial_to_cheb(
        Poly(total_degree_dictionary(MONOMIAL, 1, 2), np.array([0.0, 1.0, 0.0])),
        total_degree_dictionary(CHEBYSHEV, 1, 2, box2))
    with pytest.raises(DimensionMismatch):
        ergodic_bound("upper", g, exact_lie_matrix(spec, phi, psi), psi, phi,
                      domain=domain)


def test_upper_bounds_decrease_with_dictionary_degree():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    bounds = []
    for alpha in (2, 4, 6):
        _, phi, psi, g, domain = _logistic_setup(alpha)
        lie = exact_lie_matrix(spec, phi, psi)
        res = ergodic_bound("upper", g, lie, psi, phi, domain=domain)
        assert res.status == "Optimal"
        bounds.append(res.bound)
    assert bounds[0] >= bounds[1] - 1e-9 >= bounds[2] - 2e-9


def test_bound_above_empirical_average():
    spec, phi, psi, g, domain = _logistic_setup(4)
    data = sample_snapshots(spec, "trajectory", 1.0, 200_000, rng=make_rng(2))
    lie = fit_edmd(data, phi, psi).L
    res = ergodic_bound("upper", g, lie, psi, phi, domain=domain,
                        lie_source="edmd")
    assert res.status == "Optimal"
    assert res.bound >= empirical_average(data, g) - 1e-3


def test_beta_invariance():
    # enlarging psi beyond twice alpha leaves the exact-Lie bound unchanged
    spec, phi, psi, g, domain = _logistic_setup(4)
    lie = exact_lie_matrix(spec, phi, psi)
    b1 = ergodic_bound("upper", g, lie, psi, phi, domain=domain).bound
    _, phi2, psi2, g2, domain2 = _logistic_setup(4, beta=12)
    lie2 = exact_lie_matrix(spec, phi2, psi2)
    b2 = ergodic_bound("upper", g2, lie2, psi2, phi2, domain=domain2).bound
    assert b1 == pytest.approx(b2, abs=1e-3)


def test_gedmd_bound_matches_exact():
    # generator snapshots carry exact Lie values, so the fitted L reproduces
    # the exact generator on a rich enough sample
    spec, phi, psi, g, domain = _logistic_setup(4)
    rng = make_rng(3)
    X = rng.uniform(0.0, 1.0, size=(500, 1))
    from koopsos.systems import exact_lie_values
    Y = exact_lie_values(spec, phi, X)
    data = SnapshotSet(t=np.zeros(500), X=X, Y=Y, tau=1.0, kind=GENERATOR)
    lie_fit = fit_gedmd(data, phi, psi).L
    lie = exact_lie_matrix(spec, phi, psi)
    b_fit = ergodic_bound("upper", g, lie_fit, psi, phi, domain=domain,
                          lie_source="gedmd").bound
    b_exact = ergodic_bound("upper", g, lie, psi, phi, domain=domain).bound
    assert b_fit == pytest.approx(b_exact, abs=1e-6)


def test_data_bound_carries_validity_caveat():
    spec, phi, psi, g, domain = _logistic_setup(2)
    data = sample_snapshots(spec, "trajectory", 1.0, 5000, rng=make_rng(1))
    res = ergodic_bound("upper", g, fit_edmd(data, phi, psi).L, psi, phi,
                        domain=domain, lie_source="edmd")
    assert "approximate Lie derivative" in res.validity
    exact = ergodic_bound("upper", g, exact_lie_matrix(spec, phi, psi), psi,
                          phi, domain=domain, lie_source="exact")
    assert "exact" in exact.validity


def test_circular_orbit_casestudy_values():
    rep = circular_orbit_casestudy()
    assert rep["L_edmd"] == pytest.approx(1.0, abs=1e-6)
    assert rep["L_gedmd"] == pytest.approx(0.0, abs=1e-6)
    # the EDMD Lie image of V = gamma (1 + r^2) at gamma = 3 tau is
    # (1/tau)(gamma/3)(1 - r^2) = 1 - x1^2 - x2^2 over psi
    phi, psi = circle_dictionaries()
    lie = rep["edmd_lie_poly"]
    expected = np.zeros(psi.size)
    expected[psi.positions[(0, 0)]] = 1.0
    expected[psi.positions[(2, 0)]] = -1.0
    expected[psi.positions[(0, 2)]] = -1.0
    np.testing.assert_allclose(lie.coeffs, expected, atol=1e-8)
    # the generator fit is exact on the circle: its Lie image vanishes there
    gl = rep["gedmd_lie_poly"]
    thetas = np.linspace(0, 2 * np.pi, 37)
    pts = np.column_stack([np.cos(thetas), np.sin(thetas)])
    np.testing.assert_allclose(gl(pts), 0.0, atol=1e-8)


def test_circle_divergence_indicator_scale():
    # indicator of gamma (1 + r^2) is (gamma/3)(1 - r^2) under the analytic
    # circle moment matrix
    rep = circular_orbit_casestudy()
    gamma = rep["gamma"]
    ind = rep["divergence_indicator"]
    _, psi = circle_dictionaries()
    expected = np.zeros(psi.size)
    expected[psi.positions[(0, 0)]] = gamma / 3.0
    expected[psi.positions[(2, 0)]] = -gamma / 3.0
    expected[psi.positions[(0, 2)]] = -gamma / 3.0
    np.testing.assert_allclose(ind.coeffs, expected, atol=1e-8)


def test_vdp_exact_bound_alpha6():
    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(MONOMIAL, 2, 6)
    psi = total_degree_dictionary(MONOMIAL, 2, 8)
    mono2 = total_degree_dictionary(MONOMIAL, 2, 2)
    g = Poly(mono2, np.array([0.0, 0, 0, 1.0, 0, 1.0]))
    lie = exact_lie_matrix(spec, phi, psi)
    res = ergodic_bound("upper", g, lie, psi, phi)
    assert res.status == "Optimal"
    assert res.bound == pytest.approx(4.0100, abs=5e-3)

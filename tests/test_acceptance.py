"""Acceptance gate: one test per criterion, runnable end to end.

Run with ``pytest tests/test_acceptance.py -v`` to get a single pass/fail
line per criterion.  Two sub-values of the published tables are recorded as
strict expected failures because independent recomputation (dense-grid linear
programming and quadrature cross-checks) shows the published numbers are not
attainable by the stated programs; companion tests assert the recomputed
values so the discrepancy stays visible.
"""

import numpy as np
import pytest

from koopsos.auxfn import (circle_dictionaries, circular_orbit_casestudy,
                           ergodic_bound, find_lyapunov)
from koopsos.koopman import convergence_study, fit_edmd, loglog_slope
from koopsos.polybasis import (CHEBYSHEV, MONOMIAL, Poly, monomial_to_cheb,
                               poly_from_terms, total_degree_dictionary)
from koopsos.sdp import PSD, SdpProblem, solve as sdp_solve, svec, verify_kkt
from koopsos.snapshots import empirical_average
from koopsos.sos import SemialgebraicSet, certificate_values, gram_values
from koopsos.systems import (MAP_LYAP_2D, STOCHASTIC_LOGISTIC, VAN_DER_POL,
                             SystemSpec, exact_lie_matrix, make_rng,
                             sample_snapshots)

BOX = ((0.0, 1.0),)


def _vdp_bound(alpha, lie_source="exact", data=None, tol=1e-8):
    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(MONOMIAL, 2, alpha)
    psi = total_degree_dictionary(MONOMIAL, 2, alpha + 2)
    mono2 = total_degree_dictionary(MONOMIAL, 2, 2)
    g = Poly(mono2, np.array([0.0, 0, 0, 1.0, 0, 1.0]))
    if lie_source == "exact":
        lie = exact_lie_matrix(spec, phi, psi)
    else:
        lie = fit_edmd(data, phi, psi).L
    return ergodic_bound("upper", g, lie, psi, phi, lie_source=lie_source,
                         tol=tol)


def _logistic_bound(alpha, direction="upper", lie_source="exact", data=None,
                    tol=1e-8):
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, alpha, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 2 * alpha, BOX)
    cheb2 = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX)
    mono2 = total_degree_dictionary(MONOMIAL, 1, 2)
    g = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, 0.0])), cheb2)
    s = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, -1.0])), cheb2)
    if lie_source == "exact":
        lie = exact_lie_matrix(spec, phi, psi)
    else:
        lie = fit_edmd(data, phi, psi).L
    return ergodic_bound(direction, g, lie, psi, phi,
                         domain=SemialgebraicSet((s,)),
                         lie_source=lie_source, tol=tol)


@pytest.fixture(scope="module")
def logistic_1e7():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    return sample_snapshots(spec, "trajectory", 1.0, 10_000_000,
                            rng=make_rng(12345))


def test_criterion_01_vdp_exact_bounds():
    for alpha, expected in ((6, 4.0100), (8, 4.0013)):
        res = _vdp_bound(alpha)
        assert res.status == "Optimal", f"alpha={alpha}: {res.status}"
        assert res.bound == pytest.approx(expected, abs=5e-3), f"alpha={alpha}"


def test_criterion_02_vdp_data_driven_t100():
    spec = SystemSpec(VAN_DER_POL)
    data = sample_snapshots(spec, "trajectory", 1e-3, 100_000, x0=(0.1, 0.2))
    mono2 = total_degree_dictionary(MONOMIAL, 2, 2)
    g = Poly(mono2, np.array([0.0, 0, 0, 1.0, 0, 1.0]))
    assert empirical_average(data, g) == pytest.approx(2.23, abs=0.1)
    # the fitted L carries O(1e-5) finite-difference error, so 1e-8 SDP
    # accuracy is spurious precision; the criterion tolerance is 2e-2
    for alpha, expected in ((6, 4.0100), (8, 4.0013)):
        res = _vdp_bound(alpha, lie_source="edmd", data=data, tol=1e-6)
        assert res.status == "Optimal", f"alpha={alpha}: {res.status}"
        assert res.bound == pytest.approx(expected, abs=2e-2), f"alpha={alpha}"


def test_criterion_03_logistic_exact_bounds():
    for alpha, expected in ((2, 0.3750), (4, 0.3125), (8, 0.2829)):
        res = _logistic_bound(alpha)
        assert res.status == "Optimal", f"alpha={alpha}: {res.status}"
        assert res.bound == pytest.approx(expected, abs=2e-4), f"alpha={alpha}"
    for alpha in (2, 4, 6, 8):
        res = _logistic_bound(alpha, direction="lower")
        assert res.status == "Optimal", f"alpha={alpha}: {res.status}"
        assert res.bound == pytest.approx(0.0, abs=1e-4), f"alpha={alpha}"


@pytest.mark.xfail(
    strict=True,
    reason="the degree-6 exact upper bound optimum is 0.30726: a dense-grid "
           "LP relaxation (valid lower estimate of the optimum) and the SOS "
           "certificate (valid upper bound) both give 0.307259, so 0.3069 "
           "is below the true optimum of this program and cannot be "
           "produced by any correct solver")
def test_criterion_03_logistic_exact_alpha6_published_value():
    res = _logistic_bound(6)
    assert res.status == "Optimal"
    assert res.bound == pytest.approx(0.3069, abs=2e-4)


def test_criterion_03_logistic_exact_alpha6_recomputed_value():
    # independent bracket: LP relaxation on a dense grid can only be below
    # the optimum, and the SOS solution is itself a certified upper bound
    res = _logistic_bound(6)
    assert res.status == "Optimal"
    assert res.bound == pytest.approx(0.30726, abs=2e-4)
    lp = _dense_grid_lp_upper_bound(alpha=6)
    assert lp <= res.bound + 1e-6
    assert res.bound - lp < 1e-4  # the bracket pins the optimum


def _dense_grid_lp_upper_bound(alpha):
    """LP relaxation of the upper-bound program on a dense grid.

    minimize U s.t. U - x - (LV)(x_i) >= 0 at grid points; relaxing the
    pointwise inequality to a grid can only lower the optimum.
    """
    from scipy.optimize import linprog
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, alpha, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 2 * alpha, BOX)
    lie = exact_lie_matrix(spec, phi, psi)
    xs = np.linspace(0.0, 1.0, 4001)[:, None]
    from koopsos.polybasis import evaluate
    lie_vals = lie @ evaluate(psi, xs)       # (phi.size, npts)
    # variables: U, c_1..c_phi ; constraint U - x_i - sum_j c_j Lphi_j >= 0
    n = phi.size
    A_ub = np.hstack([-np.ones((xs.shape[0], 1)), lie_vals.T])
    b_ub = -xs[:, 0]
    c_obj = np.zeros(n + 1)
    c_obj[0] = 1.0
    res = linprog(c_obj, A_ub=A_ub, b_ub=b_ub,
                  bounds=[(None, None)] * (n + 1), method="highs")
    assert res.success
    return float(res.fun)


def test_criterion_04_logistic_data_driven_1e7(logistic_1e7):
    res = _logistic_bound(4, lie_source="edmd", data=logistic_1e7)
    assert res.status == "Optimal"
    assert res.bound == pytest.approx(0.3126, abs=2e-3)


def test_criterion_05_circular_orbit_casestudy():
    rep = circular_orbit_casestudy()
    assert rep["L_edmd"] == pytest.approx(1.0, abs=1e-6)
    assert rep["L_gedmd"] == pytest.approx(0.0, abs=1e-6)
    # EDMD Lie image of V = gamma (1 + r^2) equals (gamma / 3 tau)(1 - r^2)
    gamma, tau = rep["gamma"], rep["tau"]
    _, psi = circle_dictionaries()
    expected = np.zeros(psi.size)
    scale = gamma / (3.0 * tau)
    expected[psi.positions[(0, 0)]] = scale
    expected[psi.positions[(2, 0)]] = -scale
    expected[psi.positions[(0, 2)]] = -scale
    np.testing.assert_allclose(rep["edmd_lie_poly"].coeffs, expected,
                               atol=1e-8)


@pytest.mark.xfail(
    strict=True,
    reason="the divergence indicator of gamma (1 + r^2) under the symmetric "
           "rank-3 circle moment matrix is (gamma/3)(1 - r^2), verified by "
           "quadrature; the published gamma (1 - r^2) is inconsistent with "
           "that moment matrix by a factor of 3")
def test_criterion_05_divergence_indicator_published_scale():
    rep = circular_orbit_casestudy()
    gamma = rep["gamma"]
    _, psi = circle_dictionaries()
    expected = np.zeros(psi.size)
    expected[psi.positions[(0, 0)]] = gamma
    expected[psi.positions[(2, 0)]] = -gamma
    expected[psi.positions[(0, 2)]] = -gamma
    np.testing.assert_allclose(rep["divergence_indicator"].coeffs, expected,
                               atol=1e-8)


def test_criterion_05_divergence_indicator_recomputed_scale():
    # independent oracle: build B by trapezoid quadrature over the circle
    # and apply the indicator formula directly
    from koopsos.koopman import divergence_indicator, pinv
    from koopsos.polybasis import evaluate, inclusion_matrix
    rep = circular_orbit_casestudy()
    gamma = rep["gamma"]
    phi, psi = circle_dictionaries()
    thetas = np.linspace(0.0, 2 * np.pi, 20000, endpoint=False)
    pts = np.column_stack([np.cos(thetas), np.sin(thetas)])
    vals = evaluate(psi, pts)
    B_quad = vals @ vals.T / len(thetas)
    theta_mat = inclusion_matrix(phi, psi)
    V = Poly(phi, gamma * np.ones(3))
    ind = divergence_indicator(B_quad, theta_mat, V, psi)
    expected = np.zeros(psi.size)
    expected[psi.positions[(0, 0)]] = gamma / 3.0
    expected[psi.positions[(2, 0)]] = -gamma / 3.0
    expected[psi.positions[(0, 2)]] = -gamma / 3.0
    np.testing.assert_allclose(ind.coeffs, expected, atol=1e-6)
    np.testing.assert_allclose(rep["divergence_indicator"].coeffs, expected,
                               atol=1e-8)


def test_criterion_06_moment_identity_suite():
    # delegated formulas checked on 15 randomized snapshot sets
    from koopsos.koopman import moment_matrices, pinv
    from koopsos.polybasis import inclusion_matrix
    from koopsos.snapshots import GENERATOR, KOOPMAN, SnapshotSet
    rng = np.random.default_rng(100)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 3)
    theta = inclusion_matrix(phi, psi)
    for trial in range(15):
        n = int(rng.integers(5, 60))
        X = rng.uniform(-1, 1, size=(n, 2))
        Yk = rng.uniform(-1, 1, size=(n, 2))
        Yg = rng.standard_normal((n, phi.size))
        sk = SnapshotSet(t=np.zeros(n), X=X, Y=Yk, tau=0.2, kind=KOOPMAN)
        sg = SnapshotSet(t=np.zeros(n), X=X, Y=Yg, tau=0.2, kind=GENERATOR)
        K = fit_edmd(sk, phi, psi).K
        L = fit_edmd(sk, phi, psi).L
        from koopsos.koopman import fit_gedmd
        L_g = fit_gedmd(sg, phi, psi).L
        mk = moment_matrices(sk, phi, psi)
        mg = moment_matrices(sg, phi, psi)
        Bp = pinv(mk.B)
        rel = lambda got, want: (np.linalg.norm(got - want)
                                 / (1.0 + np.linalg.norm(want)))
        assert rel(K, mk.A @ Bp) < 1e-9, f"trial {trial}: K identity"
        assert rel(L_g, mg.A @ pinv(mg.B)) < 1e-9, f"trial {trial}: gEDMD L"
        D = (mk.A - theta @ mk.B) / sk.tau
        L_id = D @ Bp + theta @ (mk.B @ Bp - np.eye(psi.size)) / sk.tau
        assert rel(L, L_id) < 1e-9, f"trial {trial}: L identity"


def test_criterion_07_convergence_rate():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 4, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 8, BOX)

    def sample(n, seed):
        return sample_snapshots(spec, "trajectory", 1.0, n,
                                rng=make_rng(seed))

    ns, dists, _ = convergence_study(sample, phi, psi,
                                     [10 ** 4, 10 ** 5, 10 ** 6],
                                     [0, 1, 2, 3, 4], 10 ** 7)
    slope = loglog_slope(ns, dists)
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_criterion_08_lyapunov_pipeline():
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


def test_criterion_09_sdp_property_suite():
    rng = np.random.default_rng(2030)
    for trial in range(50):
        size = int(rng.integers(2, 21))
        m = int(rng.integers(2, 7))
        dim = size * (size + 1) // 2
        Q = rng.standard_normal((size, size))
        x0 = svec(Q @ Q.T + 0.5 * np.eye(size))
        Q = rng.standard_normal((size, size))
        s0 = svec(Q @ Q.T + 0.5 * np.eye(size))
        A = rng.standard_normal((m, dim))
        y0 = rng.standard_normal(m)
        prob = SdpProblem([(PSD, size)], A.T @ y0 + s0, A, A @ x0)
        sol = sdp_solve(prob, tol=1e-8)
        assert sol.status == "Optimal", f"trial {trial}: {sol.status}"
        primal, cone, gap = verify_kkt(prob, sol)
        assert gap <= 1e-8, f"trial {trial}: gap {gap}"
        assert primal <= 1e-8 and cone <= 1e-7, f"trial {trial}"
    for trial in range(10):
        size = int(rng.integers(2, 8))
        j = trial % size
        E = np.zeros((size, size))
        E[j, j] = 1.0
        dim = size * (size + 1) // 2
        prob = SdpProblem([(PSD, size)], rng.standard_normal(dim),
                          svec(E)[None, :], np.array([-1.0]))
        assert sdp_solve(prob).status == "Infeasible", f"trial {trial}"


def test_criterion_10_sos_soundness_suite():
    # every Optimal bound certificate stays >= -1e-6 at 1000 random points
    # of its constraint set
    from koopsos import sos
    rng = np.random.default_rng(0)

    checks = []
    for alpha in (2, 4, 6):
        spec = SystemSpec(STOCHASTIC_LOGISTIC)
        phi = total_degree_dictionary(CHEBYSHEV, 1, alpha, BOX)
        psi = total_degree_dictionary(CHEBYSHEV, 1, 2 * alpha, BOX)
        cheb2 = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX)
        mono2 = total_degree_dictionary(MONOMIAL, 1, 2)
        g = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, 0.0])), cheb2)
        s = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, -1.0])), cheb2)
        lie = exact_lie_matrix(spec, phi, psi)
        one = poly_from_terms({(0,): 1.0}, CHEBYSHEV, BOX)
        for direction in ("upper", "lower"):
            sign = -1.0 if direction == "upper" else 1.0
            con = sos.InequalityConstraint(
                phi=phi, b=sign, lie_matrix=lie,
                lie_basis=psi, c_const=sign * g,
                c_scalars={"bound": -sign * one},
                domain=SemialgebraicSet((s,)))
            sense = "min" if direction == "upper" else "max"
            compiled = sos.compile(sos.SosProgram(
                phi=phi, scalars=("bound",), constraints=[con],
                objective=(sense, {"bound": 1.0})))
            checks.append((compiled, sos.solve(compiled),
                           rng.uniform(0.0, 1.0, size=(1000, 1))))

    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(MONOMIAL, 2, 6)
    psi = total_degree_dictionary(MONOMIAL, 2, 8)
    mono2 = total_degree_dictionary(MONOMIAL, 2, 2)
    g2 = Poly(mono2, np.array([0.0, 0, 0, 1.0, 0, 1.0]))
    lie = exact_lie_matrix(spec, phi, psi)
    con = sos.InequalityConstraint(
        phi=phi, b=-1.0, lie_matrix=lie, lie_basis=psi,
        c_const=-1.0 * g2, c_scalars={"bound": poly_from_terms({(0, 0): 1.0})})
    compiled = sos.compile(sos.SosProgram(
        phi=phi, scalars=("bound",), constraints=[con],
        objective=("min", {"bound": 1.0})))
    checks.append((compiled, sos.solve(compiled),
                   rng.uniform(-3.0, 3.0, size=(1000, 2))))

    for compiled, sol, X in checks:
        assert sol.status == "Optimal"
        vals = certificate_values(compiled, sol, 0, X)
        assert vals.min() >= -1e-6
        # and the Gram reconstruction agrees with the certificate up to the
        # solver's equality residual amplified by the basis magnitudes
        np.testing.assert_allclose(gram_values(compiled, sol, 0, X), vals,
                                   atol=1e-6 * (1.0 + np.abs(vals).max()))

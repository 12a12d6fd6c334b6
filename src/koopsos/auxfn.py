"""Auxiliary-function applications: Lyapunov synthesis and ergodic bounds.

Both applications share one mechanism: pick a polynomial V in span(phi) whose
(approximate) Lie derivative enters a pointwise polynomial inequality, then
certify the inequality by sum-of-squares programming.  The Lie derivative can
come from a fitted operator matrix (EDMD / gEDMD) or from the exact generator
of a known system; bounds obtained from data are only guaranteed on the set
where the approximate Lie derivative agrees with the exact one, and results
carry that caveat explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import sos
from .koopman import (analytic_circle_moments, divergence_indicator, fit_edmd,
                      fit_gedmd)
from .polybasis import (MONOMIAL, Dictionary, Poly, norm_squared,
                        total_degree_dictionary)
from .snapshots import GENERATOR, KOOPMAN
# exact_lie_matrix lives in systems and is re-exported here
from .systems import (CIRCULAR_ORBIT, SystemSpec, exact_lie_matrix,
                      sample_snapshots)

DATA_VALIDITY_NOTE = ("bound certified against the approximate Lie derivative; "
                      "it applies to trajectories on which the approximation "
                      "matches the exact Lie derivative")


@dataclass
class LyapunovResult:
    feasible: bool
    V: Poly | None
    epsilon_posterior: float | None
    status: str
    sos_solution: sos.SosSolution | None
    posterior_report: dict | None

    def to_json(self) -> str:
        return json.dumps({
            "feasible": self.feasible,
            "status": self.status,
            "V_coeffs": None if self.V is None else self.V.coeffs.tolist(),
            "epsilon_posterior": self.epsilon_posterior,
        })


def find_lyapunov(lie_matrix: np.ndarray, lie_basis: Dictionary,
                  phi: Dictionary, posterior_lie: np.ndarray | None = None,
                  tol: float = 1e-8, max_iter: int = 200) -> LyapunovResult:
    """Search for the l1-minimal V in span(phi) with V - |x|^2 >= 0 and
    -LV - |x|^2 >= 0.

    The strictness parameter is fixed at 1 by rescaling V.  When
    ``posterior_lie`` (an exact-generator matrix) is supplied, the returned
    epsilon is the largest value certified for the found V against it.
    """
    neg_n2 = -1.0 * norm_squared(phi.family, phi.dimension, phi.box)
    one = sos._one(phi)
    cons = [
        sos.InequalityConstraint(phi=phi, a=one, c_const=neg_n2),
        sos.InequalityConstraint(phi=phi, b=-1.0 * one, lie_matrix=lie_matrix,
                                 lie_basis=lie_basis, c_const=neg_n2),
    ]
    prog = sos.SosProgram(phi=phi, constraints=cons, objective=("l1_phi",))
    solution = sos.solve(sos.compile(prog), tol=tol, max_iter=max_iter)
    if solution.status != "Optimal":
        return LyapunovResult(False, None, None, solution.status, solution,
                              None)
    V = Poly(phi, solution.phi_coeffs)
    posterior = None
    eps = None
    if posterior_lie is not None:
        posterior = sos.posterior_verify(V, posterior_lie, lie_basis, tol=tol,
                                         max_iter=max_iter)
        eps = posterior.get("epsilon")
    return LyapunovResult(True, V, eps, solution.status, solution, posterior)


@dataclass
class BoundResult:
    direction: str
    bound: float | None
    V: Poly | None
    lie_source: str
    status: str
    residuals: tuple
    validity: str
    sos_solution: sos.SosSolution | None = None
    posterior: dict | None = None

    def to_json(self) -> str:
        return json.dumps({
            "direction": self.direction,
            "bound": self.bound,
            "status": self.status,
            "lie_source": self.lie_source,
            "V_coeffs": None if self.V is None else self.V.coeffs.tolist(),
            "residuals": list(self.residuals),
            "validity": self.validity,
        })


def ergodic_bound(direction: str, g: Poly, lie_matrix: np.ndarray,
                  lie_basis: Dictionary, phi: Dictionary,
                  domain: sos.SemialgebraicSet | None = None,
                  c_fixed: np.ndarray | None = None,
                  lie_source: str = "exact",
                  tol: float = 1e-8, max_iter: int = 200) -> BoundResult:
    """Optimal bound on the long-time average of g.

    upper: minimize U subject to U - g - LV >= 0 on the domain;
    lower: maximize L subject to g + LV - L >= 0 on the domain.
    """
    if direction not in ("upper", "lower"):
        raise ValueError("direction must be 'upper' or 'lower'")
    domain = domain or sos.SemialgebraicSet()
    one = sos._one(phi)
    sign = -1.0 if direction == "upper" else 1.0
    # upper: c = U - g, Lie term -LV; lower: c = g - L, Lie term +LV
    con = sos.InequalityConstraint(
        phi=phi, b=sign * one, lie_matrix=lie_matrix, lie_basis=lie_basis,
        c_const=sign * g, c_scalars={"bound": -sign * one}, domain=domain)
    sense = "min" if direction == "upper" else "max"
    prog = sos.SosProgram(phi=phi, scalars=("bound",), constraints=[con],
                          objective=(sense, {"bound": 1.0}), c_fixed=c_fixed)
    compiled = sos.compile(prog)
    solution = sos.solve(compiled, tol=tol, max_iter=max_iter)
    validity = ("exact-generator certificate" if lie_source == "exact"
                else DATA_VALIDITY_NOTE)
    if solution.status != "Optimal":
        return BoundResult(direction, None, None, lie_source, solution.status,
                           solution.sdp.kkt_residuals, validity, solution)
    V = Poly(phi, solution.phi_coeffs)
    return BoundResult(direction, float(solution.scalar_values["bound"]), V,
                       lie_source, solution.status,
                       solution.sdp.kkt_residuals, validity, solution)


# -- circular-orbit case study -------------------------------------------------

def circle_dictionaries():
    """phi = (1, x1^2, x2^2) and psi = (1, x1^2, x1 x2, x2^2)."""
    phi = Dictionary(MONOMIAL, 2, ((0, 0), (2, 0), (0, 2)))
    psi = Dictionary(MONOMIAL, 2, ((0, 0), (2, 0), (1, 1), (0, 2)))
    return phi, psi


def circular_orbit_casestudy(tau: float = 0.01, n: int = 1000,
                             gamma: float | None = None) -> dict:
    """EDMD vs gEDMD on limit-cycle samples of the circular-orbit system.

    Bounds the long-time average of g = x1^2 + x2^2 from below using the
    restricted form V = gamma (1 + x1^2 + x2^2).  The finite-difference EDMD
    Lie derivative produces the spurious lower bound 1 at gamma = 3 tau; the
    generator-based fit is exact on the data and yields the sharp bound 0.
    """
    if gamma is None:
        gamma = 3.0 * tau
    spec = SystemSpec(CIRCULAR_ORBIT)
    phi, psi = circle_dictionaries()
    data_k = sample_snapshots(spec, "limit_cycle", tau, n,
                              snapshot_kind=KOOPMAN)
    data_g = sample_snapshots(spec, "limit_cycle", tau, n,
                              snapshot_kind=GENERATOR, phi=phi)
    ops_edmd = fit_edmd(data_k, phi, psi)
    ops_gedmd = fit_gedmd(data_g, phi, psi)

    v_pattern = np.array([1.0, 1.0, 1.0])  # 1 + x1^2 + x2^2 over phi
    g = norm_squared(MONOMIAL, 2)

    results = {}
    for label, ops, which in (("edmd", ops_edmd, "edmd"),
                              ("gedmd", ops_gedmd, "gedmd")):
        mat = ops.L if which == "edmd" else ops.G
        results[label] = ergodic_bound(
            "lower", g, mat, psi, phi, c_fixed=gamma * v_pattern,
            lie_source=which)

    V = Poly(phi, gamma * v_pattern)
    lie_edmd = Poly(psi, V.coeffs @ ops_edmd.L)
    lie_gedmd = Poly(psi, V.coeffs @ ops_gedmd.G)
    psi6 = total_degree_dictionary(MONOMIAL, 2, 6)
    lie_exact = Poly(psi6, V.coeffs @ exact_lie_matrix(spec, phi, psi6))
    moments = analytic_circle_moments(psi)
    indicator = divergence_indicator(moments.B, ops_edmd.theta, V, psi)

    return {
        "tau": tau, "n": n, "gamma": gamma,
        "L_edmd": results["edmd"].bound,
        "L_gedmd": results["gedmd"].bound,
        "bound_results": results,
        "ops_edmd": ops_edmd, "ops_gedmd": ops_gedmd,
        "V": V,
        "edmd_lie_poly": lie_edmd,
        "gedmd_lie_poly": lie_gedmd,
        "exact_lie_poly": lie_exact,
        "divergence_indicator": indicator,
        # both approximations agree with the exact Lie derivative exactly on
        # the unit circle, which is where the data lives
        "agreement_set": "unit circle x1^2 + x2^2 = 1",
    }

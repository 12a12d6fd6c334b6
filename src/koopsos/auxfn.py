"""Auxiliary-function applications: Lyapunov synthesis and ergodic bounds.

Both applications share one mechanism: pick a polynomial V in span(phi) whose
(approximate) Lie derivative enters a pointwise polynomial inequality, then
certify the inequality by sum-of-squares programming.  The Lie derivative can
come from a fitted operator matrix (EDMD / gEDMD) or from the exact generator
of a known system; bounds obtained from data are only guaranteed on the set
where the approximate Lie derivative agrees with the exact one, and results
carry that caveat explicitly.  A Lyapunov candidate found from data is
re-checked against a trusted Lie matrix by ``posterior_verify``, which solves
the same two inequalities as the search with V fixed.  A result keeps its
solve's ``sos.SosSolution``, the one copy of V, status, reason and residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sos
from .koopman import (analytic_circle_moments, divergence_indicator, fit_edmd,
                      fit_gedmd)
from .polybasis import (MONOMIAL, Dictionary, Poly, inclusion_matrix,
                        norm_squared, total_degree_dictionary)
from .sdp import DEFAULT_MAX_ITER, DEFAULT_TOL, OPTIMAL
from .snapshots import GENERATOR, KOOPMAN
from .systems import CIRCULAR_ORBIT, SystemSpec, sample_snapshots

DATA_VALIDITY_NOTE = ("bound certified against the approximate Lie derivative; "
                      "it applies to trajectories on which the approximation "
                      "matches the exact Lie derivative")


@dataclass
class LyapunovResult:
    epsilon_posterior: float | None
    sos_solution: sos.SosSolution

    @property
    def V(self) -> Poly | None:
        return self.sos_solution.phi

    @property
    def feasible(self) -> bool:
        return self.sos_solution.status == OPTIMAL

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "status": self.sos_solution.status,
            "V_coeffs": None if self.V is None else self.V.coeffs.tolist(),
            "epsilon_posterior": self.epsilon_posterior,
            **self.sos_solution.solver_state(),
        }


def _lyapunov_program(phi: Dictionary, lie_matrix: np.ndarray,
                      lie_basis: Dictionary, V: Poly | None = None
                      ) -> sos.SosProgram:
    """V - m |x|^2 >= 0 and -LV - m |x|^2 >= 0.  With V free, m = 1 and the
    l1 norm of V's coefficients is minimised; with V fixed, the margin
    m = eps is maximised."""
    neg_n2 = -1.0 * norm_squared(phi.family, phi.dimension, phi.box)
    margin = ({"c_const": neg_n2} if V is None
              else {"c_scalars": {"eps": neg_n2}})
    cons = [
        sos.InequalityConstraint(phi=phi, a=1.0, **margin),
        sos.InequalityConstraint(phi=phi, b=-1.0, lie_matrix=lie_matrix,
                                 lie_basis=lie_basis, **margin),
    ]
    if V is None:
        return sos.SosProgram(phi=phi, constraints=cons,
                              objective=("l1_phi",))
    return sos.SosProgram(phi=phi, scalars=("eps",), constraints=cons,
                          objective=("max", {"eps": 1.0}), c_fixed=V.coeffs)


def find_lyapunov(lie_matrix: np.ndarray, lie_basis: Dictionary,
                  phi: Dictionary, posterior_lie: np.ndarray | None = None,
                  tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> LyapunovResult:
    """Search for the l1-minimal V in span(phi) with V - |x|^2 >= 0 and
    -LV - |x|^2 >= 0.

    The strictness parameter is fixed at 1 by rescaling V.  When
    ``posterior_lie`` (an exact-generator matrix) is supplied, the returned
    epsilon is the largest value certified for the found V against it.
    """
    solution = sos.solve(sos.compile(_lyapunov_program(phi, lie_matrix,
                                                       lie_basis)),
                         tol=tol, max_iter=max_iter)
    eps = None
    if solution.phi is not None and posterior_lie is not None:
        eps = posterior_verify(solution.phi, posterior_lie, lie_basis, tol=tol,
                               max_iter=max_iter).scalar_values.get("eps")
    return LyapunovResult(eps, solution)


def posterior_verify(V: Poly, lie_matrix: np.ndarray, lie_basis: Dictionary,
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> sos.SosSolution:
    """Re-check a Lyapunov candidate with a trusted Lie matrix: maximize eps
    subject to V - eps |x|^2 >= 0 and -LV - eps |x|^2 >= 0 with V fixed.
    The certified eps is ``scalar_values["eps"]``, absent unless Optimal."""
    return sos.solve(sos.compile(_lyapunov_program(V.basis, lie_matrix,
                                                   lie_basis, V)),
                     tol=tol, max_iter=max_iter)


@dataclass
class BoundResult:
    direction: str
    lie_source: str
    sos_solution: sos.SosSolution

    @property
    def V(self) -> Poly | None:
        return self.sos_solution.phi

    @property
    def bound(self) -> float | None:
        return self.sos_solution.scalar_values.get("bound")

    @property
    def status(self) -> str:
        return self.sos_solution.status

    @property
    def validity(self) -> str:
        return ("exact-generator certificate" if self.lie_source == "exact"
                else DATA_VALIDITY_NOTE)

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "bound": self.bound,
            "status": self.status,
            "lie_source": self.lie_source,
            "V_coeffs": None if self.V is None else self.V.coeffs.tolist(),
            "residuals": list(self.sos_solution.sdp.kkt_residuals),
            "validity": self.validity,
            **self.sos_solution.solver_state(),
        }


def ergodic_bound(direction: str, g: Poly, lie_matrix: np.ndarray,
                  lie_basis: Dictionary, phi: Dictionary,
                  domain: sos.SemialgebraicSet | None = None,
                  c_fixed: np.ndarray | None = None,
                  lie_source: str = "exact",
                  tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER) -> BoundResult:
    """Optimal bound on the long-time average of g.

    upper: minimize U subject to U - g - LV >= 0 on the domain;
    lower: maximize L subject to g + LV - L >= 0 on the domain.
    """
    if direction not in ("upper", "lower"):
        raise ValueError("direction must be 'upper' or 'lower'")
    # 1 is the degree-0 element of both families
    one = Poly(total_degree_dictionary(phi.family, phi.dimension, 0, phi.box),
               [1.0])
    sign = -1.0 if direction == "upper" else 1.0
    # upper: c = U - g, Lie term -LV; lower: c = g - L, Lie term +LV
    con = sos.InequalityConstraint(
        phi=phi, b=sign, lie_matrix=lie_matrix, lie_basis=lie_basis,
        c_const=sign * g, c_scalars={"bound": -sign * one},
        domain=domain or sos.SemialgebraicSet())
    sense = "min" if direction == "upper" else "max"
    prog = sos.SosProgram(phi=phi, scalars=("bound",), constraints=[con],
                          objective=(sense, {"bound": 1.0}), c_fixed=c_fixed)
    solution = sos.solve(sos.compile(prog), tol=tol, max_iter=max_iter)
    return BoundResult(direction, lie_source, solution)


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
    lie = {"edmd": fit_edmd(data_k, phi, psi).L,
           "gedmd": fit_gedmd(data_g, phi, psi).L}
    # 1 + x1^2 + x2^2 over phi
    V = Poly(phi, gamma * np.array([1.0, 1.0, 1.0]))
    g = norm_squared(MONOMIAL, 2)
    bounds = {source: ergodic_bound("lower", g, mat, psi, phi,
                                    c_fixed=V.coeffs,
                                    lie_source=source).bound
              for source, mat in lie.items()}
    moments = analytic_circle_moments(psi)

    return {
        "tau": tau, "gamma": gamma,
        "L_edmd": bounds["edmd"],
        "L_gedmd": bounds["gedmd"],
        # both Lie images of V agree with the exact one on the unit circle,
        # which is where the data lives
        "edmd_lie_poly": Poly(psi, V.coeffs @ lie["edmd"]),
        "gedmd_lie_poly": Poly(psi, V.coeffs @ lie["gedmd"]),
        "divergence_indicator": divergence_indicator(
            moments.B, inclusion_matrix(phi, psi), V, psi),
    }

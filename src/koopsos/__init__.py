"""Data-driven Lie derivative approximation with sum-of-squares certificates.

The package approximates Koopman generators (Lie derivatives) from snapshot
data via EDMD and gEDMD, and uses the resulting matrices inside sum-of-squares
semidefinite programs to compute Lyapunov certificates and rigorous bounds on
long-time averages, without ever identifying a dynamical model.
"""

__version__ = "0.1.0"

from .polybasis import (CHEBYSHEV, MONOMIAL, Dictionary, Poly, evaluate,
                        inclusion_matrix, product_tensor,
                        total_degree_dictionary)
from .snapshots import SnapshotSet, empirical_average, load_csv, save_csv
from .systems import (SystemSpec, exact_lie_matrix, integrate_ode,
                      lie_image_degree, make_rng, sample_snapshots, step_map,
                      step_stochastic)
from .koopman import (EdmdOperators, MomentMatrices, analytic_circle_moments,
                      divergence_indicator, fit_edmd, fit_gedmd,
                      moment_matrices, pinv)
from .sdp import SdpProblem, SdpSolution, solve as sdp_solve, verify_kkt
from .sos import (InequalityConstraint, SemialgebraicSet, SosProgram,
                  auto_bases, compile as sos_compile, solve as sos_solve)
from .auxfn import (BoundResult, LyapunovResult, circular_orbit_casestudy,
                    ergodic_bound, find_lyapunov, posterior_verify)

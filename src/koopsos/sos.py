"""Compile auxiliary-function inequality constraints into semidefinite programs.

A constraint has the form

    a phi(x) + b Lphi(x) + c(x) >= 0   for all x in S,

where phi = cvec . phivec is the unknown polynomial, Lphi is its image under a
(data-driven or exact) Lie derivative matrix, a and b are constant weights, c
may depend affinely on named scalar decision variables, and
S = {x : s_j(x) >= 0}.  Nonnegativity is
certified by a weighted sum-of-squares representation

    q(x) = sum_k s_k(x) <Q_k, w_k(x) w_k(x)^T>,   s_0 = 1,

with every Q_k positive semidefinite, matched coefficient-by-coefficient in
the dictionary spanning all of its products.  A certificate is one list of
Gram terms (s_k, w_k): the unweighted term (None, w_0) comes first, then one
term (s_j, w_j) per inequality of S.  Matching is done directly in the
working polynomial family (monomial or Chebyshev): the weighted phi and Lie
columns are placed by inclusion, and the Gram columns use exact product
structure constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polybasis import (Dictionary, Poly, evaluate, inclusion_matrix,
                        multiplication_matrix, product_tensor,
                        total_degree_dictionary)
from .sdp import (DEFAULT_MAX_ITER, DEFAULT_TOL, FREE, NONNEG, OPTIMAL, PSD,
                  SdpProblem, SdpSolution, block_dim, block_layout, smat,
                  solve as sdp_solve, svec)


@dataclass(frozen=True)
class SemialgebraicSet:
    """The set {x : s_j(x) >= 0 for all j}; empty list means the whole space."""

    s_list: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "s_list", tuple(self.s_list))
        dims = {s.basis.dimension for s in self.s_list}
        if len(dims) > 1:
            raise ValueError("set inequalities must share a dimension")


@dataclass
class InequalityConstraint:
    """One inequality a*phi + b*Lie(phi) + c >= 0 on a semialgebraic set.

    ``a`` and ``b`` are constant weights, 0 meaning the term is absent.
    ``c_const`` is the fixed part of c; ``c_scalars`` maps scalar decision
    variable names to their polynomial coefficients in c.  ``lie_matrix`` maps
    phi coefficients to coefficients over ``lie_basis`` and is required
    whenever b is nonzero.
    """

    phi: Dictionary
    a: float = 0.0
    b: float = 0.0
    c_const: Poly | None = None
    c_scalars: dict = field(default_factory=dict)
    lie_matrix: np.ndarray | None = None
    lie_basis: Dictionary | None = None
    domain: SemialgebraicSet = field(default_factory=SemialgebraicSet)

    def __post_init__(self):
        if self.b and (self.lie_matrix is None
                                   or self.lie_basis is None):
            raise ValueError("a nonzero b requires lie_matrix and lie_basis")


def auto_bases(con: InequalityConstraint):
    """The constraint degree D and the Gram terms [(s_k, w_k)] of its
    certificate: (None, w_0) with w_0 of degree ceil(D/2), then (s_j, w_j)
    per domain inequality with w_j of degree ceil((D - deg s_j) / 2)."""
    phi = con.phi
    degs = [0]
    if con.a:
        degs.append(phi.max_degree)
    if con.b:
        degs.append(con.lie_basis.max_degree)
    if con.c_const is not None:
        degs.append(con.c_const.basis.max_degree)
    for p in con.c_scalars.values():
        degs.append(p.basis.max_degree)
    D = max(degs)
    fam, d, box = phi.family, phi.dimension, phi.box
    terms = [(None, total_degree_dictionary(fam, d, math.ceil(D / 2), box))]
    terms += [(s, total_degree_dictionary(
        fam, d, max(0, math.ceil((D - s.basis.max_degree) / 2)), box))
        for s in con.domain.s_list]
    return D, terms


@dataclass
class SosProgram:
    """Decision variables (phi coefficients + named scalars), constraints, and
    a linear or l1 objective."""

    phi: Dictionary
    scalars: tuple = ()
    constraints: list = field(default_factory=list)
    # ("min"|"max", {scalar_name: weight}) | ("l1_phi",) | ("feasibility",)
    objective: tuple = ("feasibility",)
    c_fixed: np.ndarray | None = None


@dataclass
class _CompiledConstraint:
    E: Dictionary
    terms: list                  # [(s_k or None, w_k)], as from auto_bases
    blocks: list                 # per term, its index into the block list
    dec_matrix: np.ndarray       # (|E|, n_dec)
    const: np.ndarray            # (|E|,)


@dataclass
class CompiledSos:
    problem: SdpProblem
    program: SosProgram
    per_constraint: list
    sense: float                 # +1 minimize, -1 (maximize encoded negated)
    dec_slice: slice


def _match_coefficients(con: InequalityConstraint, prog: SosProgram):
    """Coefficient-matching columns of one constraint over the E basis that
    spans all of its products: the decision-variable columns, the constant
    column and, per Gram term, the columns of s_k <Q_k, w_k w_k^T>."""
    phi = con.phi
    D, terms = auto_bases(con)
    deg_E = max(D, *[(0 if s is None else s.basis.max_degree)
                     + 2 * w.max_degree for s, w in terms])
    E = total_degree_dictionary(phi.family, phi.dimension, deg_E, phi.box)
    nE = E.size

    phi_cols = np.zeros((nE, phi.size))
    if con.a:
        phi_cols += con.a * inclusion_matrix(phi, E).T
    if con.b:
        phi_cols += con.b * (con.lie_matrix
                             @ inclusion_matrix(con.lie_basis, E)).T
    const = np.zeros(nE)
    if con.c_const is not None:
        const += con.c_const.coeffs @ inclusion_matrix(con.c_const.basis, E)
    if prog.c_fixed is not None:
        const += phi_cols @ prog.c_fixed
    scalar_cols = np.zeros((nE, len(prog.scalars)))
    for k, name in enumerate(prog.scalars):
        if name in con.c_scalars:
            c = con.c_scalars[name]
            scalar_cols[:, k] += c.coeffs @ inclusion_matrix(c.basis, E)
    dec_matrix = (scalar_cols if prog.c_fixed is not None
                  else np.hstack([phi_cols, scalar_cols]))

    gram_cols = []
    for s, w in terms:
        if s is None:
            G = product_tensor(w, w, E)
        else:
            ww = total_degree_dictionary(w.family, w.dimension,
                                         2 * w.max_degree, w.box)
            G = np.tensordot(multiplication_matrix(s, ww, E),
                             product_tensor(w, w, ww), axes=([1], [0]))
        gram_cols.append(svec(G))
    return E, terms, dec_matrix, const, gram_cols


def compile(prog: SosProgram) -> CompiledSos:
    """Lower the program to an SdpProblem plus an index map back to Grams."""
    phi = prog.phi
    fixed = prog.c_fixed
    dec_names = ([] if fixed is not None
                 else [f"c_{j}" for j in range(phi.size)]) + list(prog.scalars)
    n_dec = len(dec_names)

    per_con, gram_cols_per_con = [], []
    blocks = [(FREE, n_dec)] if n_dec else []

    for con in prog.constraints:
        if con.phi != phi:
            raise ValueError("all constraints must use the program's phi")
        E, terms, dec_matrix, const, gram_cols = _match_coefficients(
            con, prog)
        term_blocks = list(range(len(blocks), len(blocks) + len(terms)))
        blocks += [(PSD, w.size) for _, w in terms]
        per_con.append(_CompiledConstraint(
            E=E, terms=terms, blocks=term_blocks, dec_matrix=dec_matrix,
            const=const))
        gram_cols_per_con.append(gram_cols)

    # optional l1 objective on the phi coefficients: free t_j with nonneg
    # slacks t_j - c_j >= 0 and t_j + c_j >= 0, minimize sum t_j
    l1 = prog.objective[0] == "l1_phi"
    if l1:
        if fixed is not None:
            raise ValueError("l1 objective needs free phi coefficients")
        t_block = len(blocks)
        blocks.append((FREE, phi.size))
        slack_block = len(blocks)
        blocks.append((NONNEG, 2 * phi.size))

    layout = block_layout(blocks)
    total = sum(block_dim(kind, size) for kind, size in blocks)

    # the Gram columns are written into A and not kept: A is their one copy
    A = np.zeros((sum(cc.E.size for cc in per_con)
                  + (2 * phi.size if l1 else 0), total))
    b = np.zeros(A.shape[0])
    start = 0
    for cc, gram_cols in zip(per_con, gram_cols_per_con):
        rows = slice(start, start + cc.E.size)
        A[rows, 0:n_dec] = cc.dec_matrix
        for gm, bi in zip(gram_cols, cc.blocks):
            np.negative(gm, out=A[rows, layout[bi][2]])
        b[rows] = -cc.const
        start = rows.stop
    if l1:
        t_off = layout[t_block][2].start
        s_off = layout[slack_block][2].start
        ell = phi.size
        rows = A[start:]
        for j in range(ell):
            # t_j - c_j - slack_minus_j = 0
            rows[j, t_off + j] = 1.0
            rows[j, j] = -1.0
            rows[j, s_off + j] = -1.0
            # t_j + c_j - slack_plus_j = 0
            rows[ell + j, t_off + j] = 1.0
            rows[ell + j, j] = 1.0
            rows[ell + j, s_off + ell + j] = -1.0

    cost = np.zeros(total)
    sense = 1.0
    if l1:
        cost[layout[t_block][2]] = 1.0
    elif prog.objective[0] in ("min", "max"):
        sense = 1.0 if prog.objective[0] == "min" else -1.0
        for name, weight in prog.objective[1].items():
            cost[dec_names.index(name)] = sense * weight

    return CompiledSos(problem=SdpProblem(blocks, cost, A, b), program=prog,
                       per_constraint=per_con, sense=sense,
                       dec_slice=slice(0, n_dec))


@dataclass
class SosSolution:
    status: str
    phi_coeffs: np.ndarray | None
    scalar_values: dict
    objective: float | None
    grams: list          # per constraint, the Gram Q_k of each term
    sdp: SdpSolution


def solve(compiled: CompiledSos, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SosSolution:
    """Solve the lowered SDP and lift the solution back to SOS objects."""
    sol = sdp_solve(compiled.problem, tol=tol, max_iter=max_iter)
    prog = compiled.program
    if sol.status != OPTIMAL:
        return SosSolution(sol.status, None, {}, None, [], sol)
    z = sol.z
    dec = z[compiled.dec_slice]
    if prog.c_fixed is not None:
        phi_coeffs = prog.c_fixed.copy()
        scalar_values = {n: float(dec[k]) for k, n in enumerate(prog.scalars)}
    else:
        ell = prog.phi.size
        phi_coeffs = dec[:ell].copy()
        scalar_values = {n: float(dec[ell + k])
                         for k, n in enumerate(prog.scalars)}
    slices = block_layout(compiled.problem.blocks)
    grams = [[smat(z[slices[bi][2]]) for bi in cc.blocks]
             for cc in compiled.per_constraint]
    objective = None
    if prog.objective[0] in ("min", "max", "l1_phi"):
        objective = compiled.sense * sol.objective
    return SosSolution(sol.status, phi_coeffs, scalar_values, objective,
                       grams, sol)


def certificate_values(compiled: CompiledSos, solution: SosSolution,
                       index: int, X: np.ndarray) -> np.ndarray:
    """Evaluate the certified constraint polynomial a*phi + b*Lphi + c at the
    rows of X, reconstructed from the solved decision variables."""
    cc = compiled.per_constraint[index]
    prog = compiled.program
    dec = []
    if prog.c_fixed is None:
        dec.append(solution.phi_coeffs)
    dec.append(np.array([solution.scalar_values[n] for n in prog.scalars]))
    dec = np.concatenate(dec) if dec else np.zeros(0)
    coeffs = cc.dec_matrix @ dec + cc.const
    return coeffs @ evaluate(cc.E, np.atleast_2d(X))


def gram_values(compiled: CompiledSos, solution: SosSolution, index: int,
                X: np.ndarray) -> np.ndarray:
    """Evaluate sum_k s_k <Q_k, w_k w_k^T> (s_0 = 1) at the rows of X."""
    cc = compiled.per_constraint[index]
    X = np.atleast_2d(X)
    out = np.zeros(X.shape[0])
    for (s, w), Q in zip(cc.terms, solution.grams[index]):
        W = evaluate(w, X)
        q = np.einsum("in,ij,jn->n", W, Q, W)
        out += q if s is None else s(X) * q
    return out

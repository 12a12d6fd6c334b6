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
working polynomial family (monomial or Chebyshev): the a phi column is the
inclusion matrix Theta of phi in E, the Lie, constant and scalar columns are
placed onto E by ``polybasis.project``, and the Gram columns use exact
product structure constants.

A program invariant under the reflection x -> -x (about the box centre for
Chebyshev) is split by parity, the parity of a basis element being its total
degree mod 2.  It is invariant when, in every constraint, each phi column
lands only in E rows of its own parity, the constant and scalar columns are
even, every domain weight s_k is even and ``c_fixed`` has no odd part; the
test is exact, with no tolerance, so a fitted Lie matrix never passes it.
The odd phi coefficients are then 0 at a symmetrised optimum and each Gram
matrix is block diagonal by parity, so only the even E rows and the even phi
coefficients are kept, and each term (s, w) becomes (s, w_even) and
(s, w_odd), with s cut to its even basis elements.  ``solve`` returns phi
with zeros in the odd places and one Gram per split term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polybasis import (Dictionary, Poly, _check_same_space, evaluate,
                        inclusion_matrix, multiplication_matrix,
                        product_tensor, project, total_degree_dictionary)
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
    terms: list                  # [(s_k or None, w_k)], parity-split if even
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
    phi_dec: np.ndarray          # positions in phi of its decision variables


def _match_coefficients(con: InequalityConstraint, prog: SosProgram):
    """Coefficient matching of one constraint over the E basis that spans
    all of its products: its Gram terms and its phi, scalar and constant
    columns, from bases that must all share phi's space."""
    phi = con.phi
    polys = [con.c_const, *con.c_scalars.values(), *con.domain.s_list]
    named = [con.lie_basis] + [p.basis for p in polys if p is not None]
    _check_same_space(phi, *(dic for dic in named if dic is not None))
    D, terms = auto_bases(con)
    deg_E = max(D, *[(0 if s is None else s.basis.max_degree)
                     + 2 * w.max_degree for s, w in terms])
    E = total_degree_dictionary(phi.family, phi.dimension, deg_E, phi.box)
    nE = E.size

    # columns are added onto zeros, which turns a placed -0.0 into 0.0: the
    # sign of a zero in A or b can move the solver's last bits
    phi_cols = np.zeros((nE, phi.size))
    if con.a:
        phi_cols += con.a * inclusion_matrix(phi, E).T
    if con.b:
        phi_cols += con.b * project(con.lie_basis.indices, con.lie_matrix,
                                    E).T
    const = np.zeros(nE)
    if con.c_const is not None:
        const += project(con.c_const.basis.indices, con.c_const.coeffs, E)
    if prog.c_fixed is not None:
        const += phi_cols @ prog.c_fixed
    scalar_cols = np.zeros((nE, len(prog.scalars)))
    for k, name in enumerate(prog.scalars):
        if (c := con.c_scalars.get(name)) is not None:
            scalar_cols[:, k] += project(c.basis.indices, c.coeffs, E)
    return E, terms, phi_cols, scalar_cols, const


def _gram_columns(terms, E: Dictionary) -> list:
    """Per Gram term, the svec columns over E of s_k <Q_k, w_k w_k^T>."""
    gram_cols = []
    for s, w in terms:
        if s is None:
            G = product_tensor(w, w, E)
        else:
            ww = total_degree_dictionary(w.family, w.dimension,
                                         2 * w.max_degree, w.box)
            T = product_tensor(w, w, ww)
            # only the products w_i w_j that occur: all of ww for a full w
            hit = T.any(axis=(1, 2))
            G = np.tensordot(multiplication_matrix(s, _part(ww, hit), E),
                             T[hit], axes=([1], [0]))
        gram_cols.append(svec(G))
    return gram_cols


def _odd(dic: Dictionary) -> np.ndarray:
    """Whether each basis element changes sign under x -> -x."""
    return dic.exponents.sum(axis=1) % 2 == 1


def _part(dic: Dictionary, keep) -> Dictionary:
    """The sub-dictionary of the indices of dic where the mask keep holds."""
    return Dictionary(dic.family, dic.dimension,
                      tuple(idx for idx, k in zip(dic.indices, keep) if k),
                      dic.box)


def _is_even(prog: SosProgram, con: InequalityConstraint, E: Dictionary,
             phi_cols, scalar_cols, const) -> bool:
    """Exact test that a matched constraint is invariant under x -> -x."""
    odd_E, odd_phi = _odd(E), _odd(prog.phi)
    return not (phi_cols[odd_E[:, None] != odd_phi].any()
                or const[odd_E].any() or scalar_cols[odd_E].any()
                or any(s.coeffs[_odd(s.basis)].any()
                       for s in con.domain.s_list)
                or (prog.c_fixed is not None
                    and prog.c_fixed[odd_phi].any()))


def _even_part(E: Dictionary, terms, phi_cols, scalar_cols, const,
               even_phi: np.ndarray):
    """The even E rows and even phi columns of a matched constraint, with
    each Gram term (s, w) split into (s, w_even) and (s, w_odd) and each
    even domain weight s cut to its even basis elements."""
    even_E = ~_odd(E)
    split = []
    for s, w in terms:
        if s is not None:
            even_s = ~_odd(s.basis)
            s = Poly(_part(s.basis, even_s), s.coeffs[even_s])
        odd_w = _odd(w)
        split += [(s, _part(w, keep)) for keep in (~odd_w, odd_w)
                  if keep.any()]
    return (_part(E, even_E), split, phi_cols[even_E][:, even_phi],
            scalar_cols[even_E], const[even_E])


def compile(prog: SosProgram) -> CompiledSos:
    """Lower the program to an SdpProblem plus an index map back to Grams."""
    phi = prog.phi
    fixed = prog.c_fixed
    for con in prog.constraints:
        if con.phi != phi:
            raise ValueError("all constraints must use the program's phi")
    matched = [_match_coefficients(con, prog) for con in prog.constraints]
    phi_dec = np.arange(phi.size if fixed is None else 0)
    if all(_is_even(prog, con, E, phi_cols, scalar_cols, const)
           for con, (E, _, phi_cols, scalar_cols, const)
           in zip(prog.constraints, matched)):
        even_phi = ~_odd(phi)
        matched = [_even_part(*m, even_phi) for m in matched]
        if fixed is None:
            phi_dec = np.flatnonzero(even_phi)
    dec_names = [f"c_{j}" for j in phi_dec] + list(prog.scalars)
    n_dec = len(dec_names)

    per_con, gram_cols_per_con = [], []
    blocks = [(FREE, n_dec)] if n_dec else []

    for E, terms, phi_cols, scalar_cols, const in matched:
        dec_matrix = (scalar_cols if fixed is not None
                      else np.hstack([phi_cols, scalar_cols]))
        term_blocks = list(range(len(blocks), len(blocks) + len(terms)))
        blocks += [(PSD, w.size) for _, w in terms]
        per_con.append(_CompiledConstraint(
            E=E, terms=terms, blocks=term_blocks, dec_matrix=dec_matrix,
            const=const))
        gram_cols_per_con.append(_gram_columns(terms, E))

    # optional l1 objective on the phi coefficients: free t_j with nonneg
    # slacks t_j - c_j >= 0 and t_j + c_j >= 0, minimize sum t_j
    l1 = prog.objective[0] == "l1_phi"
    if l1:
        if fixed is not None:
            raise ValueError("l1 objective needs free phi coefficients")
        t_block = len(blocks)
        blocks.append((FREE, phi_dec.size))
        slack_block = len(blocks)
        blocks.append((NONNEG, 2 * phi_dec.size))

    layout = block_layout(blocks)
    total = sum(block_dim(kind, size) for kind, size in blocks)

    # the Gram columns are written into A and not kept: A is their one copy
    A = np.zeros((sum(cc.E.size for cc in per_con)
                  + (2 * phi_dec.size if l1 else 0), total))
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
        # row j: t_j - c_j - slack_minus_j = 0; row ell + j:
        # t_j + c_j - slack_plus_j = 0
        ell = phi_dec.size
        j = np.arange(2 * ell)
        rows = A[start:]
        rows[j, layout[t_block][2].start + j % ell] = 1.0
        rows[j, j % ell] = np.repeat([-1.0, 1.0], ell)
        rows[j, layout[slack_block][2].start + j] = -1.0

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
                       dec_slice=slice(0, n_dec), phi_dec=phi_dec)


@dataclass
class SosSolution:
    """The one record of a solve: phi, the scalars and Grams it lifts, and
    the SDP solution, sole holder of status, reason, iterations, residuals."""

    phi: Poly | None     # None unless Optimal
    scalar_values: dict
    objective: float | None
    grams: list          # per constraint, the Gram Q_k of each term
    sdp: SdpSolution
    sdp_blocks: tuple    # the solved problem's (kind, size) blocks
    sdp_rows: int

    @property
    def status(self) -> str:
        return self.sdp.status

    def verdict(self) -> str:
        """The status, followed by its stop reason unless it is Optimal."""
        return (self.status if self.status == OPTIMAL
                else f"{self.status}: {self.sdp.reason}")

    def solver_state(self) -> dict:
        """The stop reason, iterations, blocks and equality rows of a result's
        JSON; a parity-split program shows two PSD blocks per Gram term."""
        return {"reason": self.sdp.reason,
                "iterations": self.sdp.iterations,
                "sdp_blocks": [list(block) for block in self.sdp_blocks],
                "sdp_rows": self.sdp_rows}


def solve(compiled: CompiledSos, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER) -> SosSolution:
    """Solve the lowered SDP and lift the solution back to SOS objects."""
    problem = compiled.problem
    sol = sdp_solve(problem, tol=tol, max_iter=max_iter)
    prog = compiled.program
    sdp_shape = (problem.blocks, problem.A.shape[0])
    if sol.status != OPTIMAL:
        return SosSolution(None, {}, None, [], sol, *sdp_shape)
    dec = sol.z[compiled.dec_slice]
    ell = compiled.phi_dec.size
    # a fixed phi has no decision variables; a split program's odd phi
    # coefficients are 0
    phi_coeffs = (np.zeros(prog.phi.size) if prog.c_fixed is None
                  else prog.c_fixed.copy())
    phi_coeffs[compiled.phi_dec] = dec[:ell]
    scalar_values = {n: float(dec[ell + k])
                     for k, n in enumerate(prog.scalars)}
    slices = block_layout(problem.blocks)
    grams = [[smat(sol.z[slices[bi][2]]) for bi in cc.blocks]
             for cc in compiled.per_constraint]
    objective = (compiled.sense * sol.objective
                 if prog.objective[0] in ("min", "max", "l1_phi") else None)
    return SosSolution(Poly(prog.phi, phi_coeffs), scalar_values, objective,
                       grams, sol, *sdp_shape)


def certificate_values(compiled: CompiledSos, solution: SosSolution,
                       index: int, X: np.ndarray) -> np.ndarray:
    """Evaluate the certified constraint polynomial a*phi + b*Lphi + c at the
    rows of X, reconstructed from the solved decision variables."""
    cc = compiled.per_constraint[index]
    prog = compiled.program
    dec = []
    if prog.c_fixed is None:
        dec.append(solution.phi.coeffs[compiled.phi_dec])
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

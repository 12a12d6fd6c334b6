"""Compile auxiliary-function inequality constraints into semidefinite programs.

A constraint has the form

    a(x) phi(x) + b(x) Lphi(x) + c(x) >= 0   for all x in S,

where phi = cvec . phivec is the unknown polynomial, Lphi is its image under a
(data-driven or exact) Lie derivative matrix, c may depend affinely on named
scalar decision variables, and S = {x : s_j(x) >= 0}.  Nonnegativity is
certified by a weighted sum-of-squares representation

    q(x) = <P, v(x) v(x)^T> + sum_j s_j(x) <Q_j, w_j(x) w_j(x)^T>,

with P and Q_j positive semidefinite, matched coefficient-by-coefficient in
the dictionary spanning v (x) v products.  Matching is done directly in the
working polynomial family (monomial or Chebyshev) using exact product
structure constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polybasis import (Dictionary, Poly, evaluate, norm_squared,
                        sparse_product, sparse_to_poly, to_sparse,
                        total_degree_dictionary)
from .sdp import (FREE, NONNEG, OPTIMAL, PSD, SdpProblem, SdpSolution,
                  block_dim, block_layout, smat, solve as sdp_solve,
                  svec)


class BasisContainment(ValueError):
    """A product index falls outside the coefficient-matching basis."""


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

    ``c_const`` is the fixed part of c; ``c_scalars`` maps scalar decision
    variable names to their polynomial coefficients in c.  ``lie_matrix`` maps
    phi coefficients to coefficients over ``lie_basis`` and is required
    whenever b is nonzero.
    """

    phi: Dictionary
    a: Poly | None = None
    b: Poly | None = None
    c_const: Poly | None = None
    c_scalars: dict = field(default_factory=dict)
    lie_matrix: np.ndarray | None = None
    lie_basis: Dictionary | None = None
    domain: SemialgebraicSet = field(default_factory=SemialgebraicSet)

    def __post_init__(self):
        if self.b is not None and (self.lie_matrix is None
                                   or self.lie_basis is None):
            raise ValueError("a nonzero b requires lie_matrix and lie_basis")


def auto_bases(con: InequalityConstraint):
    """The (u, v, w_j) dictionaries from the constraint degrees: u covers
    the full constraint degree D, v has degree ceil(D/2), and each multiplier
    w_j has degree ceil((D - deg s_j) / 2)."""
    phi = con.phi
    degs = [0]
    if con.a is not None:
        degs.append(con.a.basis.max_degree + phi.max_degree)
    if con.b is not None:
        degs.append(con.b.basis.max_degree + con.lie_basis.max_degree)
    if con.c_const is not None:
        degs.append(con.c_const.basis.max_degree)
    for p in con.c_scalars.values():
        degs.append(p.basis.max_degree)
    D = max(degs)
    fam, d, box = phi.family, phi.dimension, phi.box
    u = total_degree_dictionary(fam, d, D, box)
    v = total_degree_dictionary(fam, d, math.ceil(D / 2), box)
    ws = [total_degree_dictionary(
        fam, d, max(0, math.ceil((D - s.basis.max_degree) / 2)), box)
        for s in con.domain.s_list]
    return u, v, ws


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


def _unit_sparse(basis: Dictionary, j: int) -> dict:
    return {basis.indices[j]: 1.0}


def _coeffs_in(sp: dict, E: Dictionary) -> np.ndarray:
    try:
        return sparse_to_poly(sp, E, tol=0.0).coeffs
    except Exception as exc:
        raise BasisContainment(str(exc)) from exc


@dataclass
class _CompiledConstraint:
    E: Dictionary
    v: Dictionary
    ws: list
    s_polys: list
    dec_matrix: np.ndarray       # (|E|, n_dec)
    const: np.ndarray            # (|E|,)
    gram_cols: list              # [(block_kind_index_in_z, matrix |E| x svecdim)]
    p_block: int                 # index into problem block list
    q_blocks: list


@dataclass
class CompiledSos:
    problem: SdpProblem
    program: SosProgram
    dec_names: list
    per_constraint: list
    sense: float                 # +1 minimize, -1 (maximize encoded negated)
    dec_slice: slice


def compile(prog: SosProgram) -> CompiledSos:
    """Lower the program to an SdpProblem plus an index map back to Grams."""
    phi = prog.phi
    fam = phi.family
    fixed = prog.c_fixed
    dec_names = ([] if fixed is not None
                 else [f"c_{j}" for j in range(phi.size)]) + list(prog.scalars)
    n_dec = len(dec_names)

    per_con = []
    blocks = [(FREE, n_dec)] if n_dec else []
    col_offset = n_dec
    rows_A, rows_b = [], []

    for con in prog.constraints:
        if con.phi != phi:
            raise ValueError("all constraints must use the program's phi")
        u, v, ws = auto_bases(con)
        deg_E = max(u.max_degree, 2 * v.max_degree,
                    *[s.basis.max_degree + 2 * w.max_degree
                      for s, w in zip(con.domain.s_list, ws)] or [0])
        E = total_degree_dictionary(fam, phi.dimension, deg_E, phi.box)
        nE = E.size

        # decision-variable contributions to the constraint polynomial
        phi_cols = np.zeros((nE, phi.size))
        if con.a is not None:
            a_sp = to_sparse(con.a)
            for j in range(phi.size):
                phi_cols[:, j] += _coeffs_in(
                    sparse_product(fam, a_sp, _unit_sparse(phi, j)), E)
        if con.b is not None:
            b_sp = to_sparse(con.b)
            bpsi = np.zeros((con.lie_basis.size, nE))
            for mdx in range(con.lie_basis.size):
                bpsi[mdx] = _coeffs_in(
                    sparse_product(fam, b_sp, _unit_sparse(con.lie_basis, mdx)),
                    E)
            phi_cols += (con.lie_matrix @ bpsi).T
        const = np.zeros(nE)
        if con.c_const is not None:
            const += _coeffs_in(to_sparse(con.c_const), E)
        if fixed is not None:
            const += phi_cols @ fixed
        scalar_cols = np.zeros((nE, len(prog.scalars)))
        for k, name in enumerate(prog.scalars):
            if name in con.c_scalars:
                scalar_cols[:, k] = _coeffs_in(
                    to_sparse(con.c_scalars[name]), E)
        dec_matrix = (scalar_cols if fixed is not None
                      else np.hstack([phi_cols, scalar_cols]))

        # Gram columns: <P, v v^T> and s_j <Q_j, w_j w_j^T> in the E basis
        def gram_matrix(w: Dictionary, s_sp: dict | None) -> np.ndarray:
            nw = w.size
            G = np.zeros((nE, nw, nw))      # svec reads the lower triangle
            for jj in range(nw):
                for ii in range(jj, nw):
                    sp = sparse_product(fam, _unit_sparse(w, ii),
                                        _unit_sparse(w, jj))
                    if s_sp is not None:
                        sp = sparse_product(fam, s_sp, sp)
                    G[:, ii, jj] = _coeffs_in(sp, E)
            return svec(G)

        gram_cols = [gram_matrix(v, None)]
        s_sps = [to_sparse(s) for s in con.domain.s_list]
        for w, s_sp in zip(ws, s_sps):
            gram_cols.append(gram_matrix(w, s_sp))

        p_block = len(blocks)
        blocks.append((PSD, v.size))
        q_blocks = []
        for w in ws:
            q_blocks.append(len(blocks))
            blocks.append((PSD, w.size))

        per_con.append(_CompiledConstraint(
            E=E, v=v, ws=list(ws), s_polys=list(con.domain.s_list),
            dec_matrix=dec_matrix, const=const, gram_cols=gram_cols,
            p_block=p_block, q_blocks=q_blocks))

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

    A_rows = []
    b_vals = []
    for cc in per_con:
        nE = cc.E.size
        block_A = np.zeros((nE, total))
        block_A[:, 0:n_dec] = cc.dec_matrix
        for gm, bi in zip(cc.gram_cols, [cc.p_block] + cc.q_blocks):
            block_A[:, layout[bi][2]] = -gm
        A_rows.append(block_A)
        b_vals.append(-cc.const)
    if l1:
        t_off = layout[t_block][2].start
        s_off = layout[slack_block][2].start
        ell = phi.size
        rows = np.zeros((2 * ell, total))
        for j in range(ell):
            # t_j - c_j - slack_minus_j = 0
            rows[j, t_off + j] = 1.0
            rows[j, j] = -1.0
            rows[j, s_off + j] = -1.0
            # t_j + c_j - slack_plus_j = 0
            rows[ell + j, t_off + j] = 1.0
            rows[ell + j, j] = 1.0
            rows[ell + j, s_off + ell + j] = -1.0
        A_rows.append(rows)
        b_vals.append(np.zeros(2 * ell))

    A = np.vstack(A_rows) if A_rows else np.zeros((0, total))
    b = np.concatenate(b_vals) if b_vals else np.zeros(0)

    cost = np.zeros(total)
    sense = 1.0
    if l1:
        cost[layout[t_block][2]] = 1.0
    elif prog.objective[0] in ("min", "max"):
        sense = 1.0 if prog.objective[0] == "min" else -1.0
        for name, weight in prog.objective[1].items():
            cost[dec_names.index(name)] = sense * weight

    return CompiledSos(problem=SdpProblem(blocks, cost, A, b), program=prog,
                       dec_names=dec_names, per_constraint=per_con,
                       sense=sense, dec_slice=slice(0, n_dec))


@dataclass
class SosSolution:
    status: str
    phi_coeffs: np.ndarray | None
    scalar_values: dict
    objective: float | None
    grams: list
    sdp: SdpSolution


def solve(compiled: CompiledSos, tol: float = 1e-8, max_iter: int = 200
          ) -> SosSolution:
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
    grams = []
    slices = block_layout(compiled.problem.blocks)
    for cc in compiled.per_constraint:
        P = smat(z[slices[cc.p_block][2]])
        Qs = [smat(z[slices[bi][2]]) for bi in cc.q_blocks]
        grams.append((P, Qs))
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
    """Evaluate <P, v v^T> + sum_j s_j <Q_j, w_j w_j^T> at the rows of X."""
    cc = compiled.per_constraint[index]
    P, Qs = solution.grams[index]
    X = np.atleast_2d(X)
    V = evaluate(cc.v, X)
    out = np.einsum("in,ij,jn->n", V, P, V)
    for Q, w, s in zip(Qs, cc.ws, cc.s_polys):
        W = evaluate(w, X)
        out += s(X) * np.einsum("in,ij,jn->n", W, Q, W)
    return out


def posterior_verify(V: Poly, lie_matrix: np.ndarray, lie_basis: Dictionary,
                     tol: float = 1e-8) -> dict:
    """Re-check a Lyapunov candidate with a trusted Lie matrix: maximize eps
    subject to V - eps |x|^2 >= 0 and -LV - eps |x|^2 >= 0 with V fixed."""
    phi = V.basis
    neg_n2 = -1.0 * norm_squared(phi.family, phi.dimension, phi.box)

    cons = [
        InequalityConstraint(phi=phi, a=_one(phi), c_scalars={"eps": neg_n2}),
        InequalityConstraint(phi=phi, b=-1.0 * _one(phi),
                             lie_matrix=lie_matrix, lie_basis=lie_basis,
                             c_scalars={"eps": neg_n2}),
    ]
    prog = SosProgram(phi=phi, scalars=("eps",), constraints=cons,
                      objective=("max", {"eps": 1.0}), c_fixed=V.coeffs)
    sol = solve(compile(prog), tol=tol)
    return {"status": sol.status,
            "epsilon": sol.scalar_values.get("eps"),
            "objective": sol.objective,
            "sdp_residuals": sol.sdp.kkt_residuals}


def _one(phi: Dictionary) -> Poly:
    basis = total_degree_dictionary(phi.family, phi.dimension, 0, phi.box)
    return Poly(basis, np.ones(1))

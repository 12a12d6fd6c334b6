"""Tests for the SOS compiler: feasibility, soundness, and Gram recovery."""

import numpy as np
import pytest

from koopsos import auxfn, sos
from koopsos.auxfn import circle_dictionaries, posterior_verify
from koopsos.koopman import fit_edmd
from koopsos.polybasis import (CHEBYSHEV, MONOMIAL, DimensionMismatch, Poly,
                               evaluate, monomial_to_cheb, norm_squared,
                               poly_from_terms, total_degree_dictionary)
from koopsos.sdp import block_layout, svec
from koopsos.snapshots import KOOPMAN
from koopsos.sos import (InequalityConstraint, SemialgebraicSet, SosProgram,
                         SosSolution, auto_bases, certificate_values, compile,
                         gram_values, solve)
from koopsos.systems import (CIRCULAR_ORBIT, MAP_LYAP_2D, STOCHASTIC_LOGISTIC,
                             VAN_DER_POL, SystemSpec, exact_lie_matrix,
                             sample_snapshots)

BOX = ((0.0, 1.0),)
ONE_1D = poly_from_terms({(0,): 1.0}, CHEBYSHEV, BOX)
ONE_2D = poly_from_terms({(0, 0): 1.0})
BOX33 = ((-3.0, 3.0), (-3.0, 3.0))


def _fixed_feasibility(c_poly, domain=None):
    """Program asking only whether c_poly >= 0 (on the domain)."""
    phi = total_degree_dictionary(c_poly.basis.family, c_poly.basis.dimension,
                                  0, c_poly.basis.box)
    con = InequalityConstraint(phi=phi, c_const=c_poly,
                               domain=domain or SemialgebraicSet())
    prog = SosProgram(phi=phi, constraints=[con], c_fixed=np.zeros(1))
    return compile(prog)


def test_perfect_square_is_sos():
    dic = total_degree_dictionary(MONOMIAL, 1, 2)
    square = Poly(dic, np.array([1.0, 2.0, 1.0]))  # (x + 1)^2
    sol = solve(_fixed_feasibility(square))
    assert sol.status == "Optimal"
    P = sol.grams[0][0]
    assert np.linalg.eigvalsh(P)[0] > -1e-9


def test_globally_negative_poly_infeasible():
    dic = total_degree_dictionary(MONOMIAL, 1, 2)
    neg = Poly(dic, np.array([-1.0, 0.0, 1.0]))  # x^2 - 1
    sol = solve(_fixed_feasibility(neg))
    assert sol.status == "Infeasible"


def test_x_nonneg_on_half_line():
    dic = total_degree_dictionary(MONOMIAL, 1, 1)
    x = Poly(dic, np.array([0.0, 1.0]))
    domain = SemialgebraicSet((x,))
    sol = solve(_fixed_feasibility(x, domain))
    assert sol.status == "Optimal"


def test_x_not_globally_nonneg():
    dic = total_degree_dictionary(MONOMIAL, 1, 1)
    x = Poly(dic, np.array([0.0, 1.0]))
    sol = solve(_fixed_feasibility(x))
    assert sol.status == "Infeasible"


def test_auto_bases_degrees():
    # b couples a degree-8 Lie basis; s = x - x^2 has degree 2:
    # u covers degree 8, v degree 4, w degree 3
    phi = total_degree_dictionary(CHEBYSHEV, 1, 4, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 8, BOX)
    mono = total_degree_dictionary(MONOMIAL, 1, 2)
    s = monomial_to_cheb(Poly(mono, np.array([0.0, 1.0, -1.0])),
                         total_degree_dictionary(CHEBYSHEV, 1, 2, BOX))
    con = InequalityConstraint(
        phi=phi, b=1.0, lie_matrix=np.zeros((phi.size, psi.size)),
        lie_basis=psi, domain=SemialgebraicSet((s,)))
    D, terms = auto_bases(con)
    assert D == 8
    assert terms[0][0] is None and terms[0][1].max_degree == 4
    assert [w.max_degree for _, w in terms[1:]] == [3]


def test_auto_bases_degree_zero():
    phi = total_degree_dictionary(MONOMIAL, 1, 0)
    con = InequalityConstraint(phi=phi, c_const=poly_from_terms({(0,): 1.0}))
    D, terms = auto_bases(con)
    assert terms[0][1].indices == ((0,),)
    assert terms[1:] == []


def _bound_program(direction="upper"):
    return compile(_logistic_program(direction))


def _logistic_program(direction="upper", s_list=((0.0, 1.0, -1.0),)):
    """Upper/lower bound program for x over the stochastic-logistic system,
    on the domain {s >= 0 for s in s_list}, each s given by its monomial
    coefficients; the default is x - x^2 >= 0."""
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 4, BOX)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 8, BOX)
    lie = exact_lie_matrix(spec, phi, psi)
    cheb2 = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX)
    mono = total_degree_dictionary(MONOMIAL, 1, 2)
    g = monomial_to_cheb(Poly(mono, np.array([0.0, 1.0, 0.0])), cheb2)
    domain = SemialgebraicSet(
        monomial_to_cheb(Poly(mono, np.array(s)), cheb2) for s in s_list)
    sign = -1.0 if direction == "upper" else 1.0
    con = InequalityConstraint(
        phi=phi, b=sign, lie_matrix=lie, lie_basis=psi,
        c_const=sign * g, c_scalars={"bound": -sign * ONE_1D},
        domain=domain)
    sense = "min" if direction == "upper" else "max"
    return SosProgram(phi=phi, scalars=("bound",), constraints=[con],
                      objective=(sense, {"bound": 1.0}))


def _logistic_interval_program():
    """The upper-bound program on {x >= 0, 1 - x >= 0}: three Gram terms."""
    return _logistic_program("upper", ((0.0, 1.0, 0.0), (1.0, -1.0, 0.0)))


def _vdp_exact_program(alpha=6, system=VAN_DER_POL, g=None,
                       family=MONOMIAL, box=None, domain=None):
    """Upper bound on the mean of g (by default |x|^2) for Van der Pol, or
    another 2-D ODE, with its exact Lie matrix, on the domain if given."""
    spec = SystemSpec(system)
    phi = total_degree_dictionary(family, 2, alpha, box)
    psi = total_degree_dictionary(family, 2, alpha + 2, box)
    g = norm_squared(family, 2, box) if g is None else g
    one = poly_from_terms({(0, 0): 1.0}, family, box)
    con = InequalityConstraint(
        phi=phi, b=-1.0, lie_matrix=exact_lie_matrix(spec, phi, psi),
        lie_basis=psi, c_const=-1.0 * g, c_scalars={"bound": one},
        domain=domain or SemialgebraicSet())
    return SosProgram(phi=phi, scalars=("bound",), constraints=[con],
                      objective=("min", {"bound": 1.0}))


def _lyapunov_program():
    """The l1-minimal Lyapunov program of the 2D map, exact Lie, alpha=4."""
    spec = SystemSpec(MAP_LYAP_2D)
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    psi = total_degree_dictionary(MONOMIAL, 2, 8)
    neg_n2 = -1.0 * norm_squared(MONOMIAL, 2)
    cons = [
        InequalityConstraint(phi=phi, a=1.0, c_const=neg_n2),
        InequalityConstraint(phi=phi, b=-1.0,
                             lie_matrix=exact_lie_matrix(spec, phi, psi),
                             lie_basis=psi, c_const=neg_n2),
    ]
    return SosProgram(phi=phi, constraints=cons, objective=("l1_phi",))


def _posterior_program():
    """The posterior check of a fixed V on the 2D map, exact Lie, alpha=4:
    maximize eps with V - eps |x|^2 >= 0 and -LV - eps |x|^2 >= 0."""
    spec = SystemSpec(MAP_LYAP_2D)
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    psi = total_degree_dictionary(MONOMIAL, 2, 8)
    neg_n2 = -1.0 * norm_squared(MONOMIAL, 2)
    cons = [
        InequalityConstraint(phi=phi, a=1.0, c_scalars={"eps": neg_n2}),
        InequalityConstraint(phi=phi, b=-1.0,
                             lie_matrix=exact_lie_matrix(spec, phi, psi),
                             lie_basis=psi, c_scalars={"eps": neg_n2}),
    ]
    return SosProgram(phi=phi, scalars=("eps",), constraints=cons,
                      objective=("max", {"eps": 1.0}),
                      c_fixed=np.linspace(-1.0, 2.0, phi.size))


def _circle_program():
    """The circle case study's lower bound on the mean of |x|^2 with
    V = 3 tau (1 + x1^2 + x2^2) fixed, EDMD Lie matrix at tau = 0.01."""
    phi, psi = circle_dictionaries()
    data = sample_snapshots(SystemSpec(CIRCULAR_ORBIT), "limit_cycle", 0.01,
                            1000, snapshot_kind=KOOPMAN)
    con = InequalityConstraint(
        phi=phi, b=1.0, lie_matrix=fit_edmd(data, phi, psi).L, lie_basis=psi,
        c_const=norm_squared(MONOMIAL, 2), c_scalars={"bound": -1.0 * ONE_2D})
    return SosProgram(phi=phi, scalars=("bound",), constraints=[con],
                      objective=("max", {"bound": 1.0}),
                      c_fixed=np.full(phi.size, 0.03))


# -- reference: coefficient matching one basis pair at a time in dicts --------

def _pair_product(family, a, b):
    """{index: weight} expansion of basis_a * basis_b."""
    if family == MONOMIAL:
        return {tuple(x + y for x, y in zip(a, b)): 1.0}
    # Chebyshev: T_i T_j = (T_{i+j} + T_{|i-j|}) / 2, per coordinate.
    terms = {(): 1.0}
    for ai, bi in zip(a, b):
        new = {}
        for prefix, coef in terms.items():
            if ai == 0 or bi == 0:
                key = prefix + (ai + bi,)
                new[key] = new.get(key, 0.0) + coef
            else:
                for k in (ai + bi, abs(ai - bi)):
                    key = prefix + (k,)
                    new[key] = new.get(key, 0.0) + 0.5 * coef
        terms = new
    return terms


def _terms(p):
    """{index: coefficient} of the nonzero coefficients of p."""
    return {idx: c for idx, c in zip(p.basis.indices, p.coeffs) if c != 0.0}


def _dict_product(family, a, b):
    out = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            for idx, w in _pair_product(family, ia, ib).items():
                out[idx] = out.get(idx, 0.0) + ca * cb * w
    return {k: v for k, v in out.items() if v != 0.0}


def _dict_in_E(E, sp):
    out = np.zeros(E.size)
    for idx, c in sp.items():
        out[E.positions[idx]] = c
    return out


def _dict_match_coefficients(con, prog):
    """Stand-in for sos._match_coefficients built from dict products."""
    phi, fam = con.phi, con.phi.family
    D, terms = auto_bases(con)
    deg_E = max(D, *[(0 if s is None else s.basis.max_degree)
                     + 2 * w.max_degree for s, w in terms])
    E = total_degree_dictionary(fam, phi.dimension, deg_E, phi.box)

    def unit(basis, j):
        return {basis.indices[j]: 1.0}

    # the constant weights a and b, as terms of degree 0
    zero = (0,) * phi.dimension
    phi_cols = np.zeros((E.size, phi.size))
    if con.a:
        for j in range(phi.size):
            phi_cols[:, j] += _dict_in_E(E, _dict_product(
                fam, {zero: con.a}, unit(phi, j)))
    if con.b:
        bpsi = np.array([_dict_in_E(E, _dict_product(
            fam, {zero: con.b}, unit(con.lie_basis, m)))
            for m in range(con.lie_basis.size)])
        phi_cols += (con.lie_matrix @ bpsi).T
    const = np.zeros(E.size)
    if con.c_const is not None:
        const += _dict_in_E(E, _terms(con.c_const))
    if prog.c_fixed is not None:
        const += phi_cols @ prog.c_fixed
    scalar_cols = np.zeros((E.size, len(prog.scalars)))
    for k, name in enumerate(prog.scalars):
        if name in con.c_scalars:
            scalar_cols[:, k] = _dict_in_E(E, _terms(con.c_scalars[name]))
    return E, terms, phi_cols, scalar_cols, const


def _dict_gram_columns(terms, E):
    """Stand-in for sos._gram_columns built from dict products."""
    fam = E.family

    def gram(w, s_sp):
        G = np.zeros((E.size, w.size, w.size))
        for jj in range(w.size):
            for ii in range(jj, w.size):
                sp = _pair_product(fam, w.indices[ii], w.indices[jj])
                if s_sp is not None:
                    sp = _dict_product(fam, s_sp, sp)
                G[:, ii, jj] = _dict_in_E(E, sp)
        return svec(G)

    return [gram(w, None if s is None else _terms(s)) for s, w in terms]


@pytest.mark.parametrize("make, split",
                         [(_vdp_exact_program, True),
                          (_logistic_program, False),
                          (_lyapunov_program, False),
                          (_posterior_program, False),
                          (_circle_program, True),
                          (_logistic_interval_program, False)],
                         ids=["vdp_exact_alpha6", "logistic_alpha4",
                              "lyapunov_l1", "posterior_eps",
                              "circle_fixed_v", "logistic_interval"])
def test_compile_matches_dict_reference(make, split, monkeypatch):
    prog = make()
    got = compile(prog).problem
    seen = []

    def reference_grams(terms, E):
        seen.append(terms)
        return _dict_gram_columns(terms, E)

    monkeypatch.setattr(sos, "_match_coefficients", _dict_match_coefficients)
    monkeypatch.setattr(sos, "_gram_columns", reference_grams)
    ref = compile(prog).problem
    # the reference built the Gram columns of the terms compile used: one
    # parity per Gram basis exactly when the program was split
    assert len(seen) == len(prog.constraints)
    one_parity = [len({sum(idx) % 2 for idx in w.indices}) == 1
                  for terms in seen for _, w in terms]
    assert all(one_parity) is split
    assert got.blocks == ref.blocks
    np.testing.assert_array_equal(got.A, ref.A)
    np.testing.assert_array_equal(got.b, ref.b)
    np.testing.assert_array_equal(got.c, ref.c)


def test_l1_rows_match_the_loop_reference():
    # rows t_j - c_j - slack_minus_j = 0, then t_j + c_j - slack_plus_j = 0
    compiled = compile(_lyapunov_program())
    prob = compiled.problem
    layout = block_layout(prob.blocks)
    t_off, s_off = layout[-2][2].start, layout[-1][2].start
    ell = compiled.phi_dec.size
    ref = np.zeros((2 * ell, prob.A.shape[1]))
    for j in range(ell):
        ref[j, [t_off + j, j, s_off + j]] = 1.0, -1.0, -1.0
        ref[ell + j, [t_off + j, j, s_off + ell + j]] = 1.0, 1.0, -1.0
    np.testing.assert_array_equal(prob.A[-2 * ell:], ref)
    np.testing.assert_array_equal(prob.b[-2 * ell:], 0.0)


def test_bound_program_optimum():
    compiled = _bound_program("upper")
    sol = solve(compiled)
    assert sol.status == "Optimal"
    assert sol.scalar_values["bound"] == pytest.approx(0.3125, abs=2e-4)


def test_certificate_matches_gram_reconstruction():
    compiled = _bound_program("upper")
    sol = solve(compiled)
    X = np.linspace(0.0, 1.0, 101)[:, None]
    cert = certificate_values(compiled, sol, 0, X)
    gram = gram_values(compiled, sol, 0, X)
    np.testing.assert_allclose(cert, gram, atol=1e-7)


def test_three_term_certificate():
    compiled = compile(_logistic_interval_program())
    assert [len(cc.terms) for cc in compiled.per_constraint] == [3]
    sol = solve(compiled)
    assert sol.status == "Optimal"
    # the same set as x - x^2 >= 0, so the same optimum
    assert sol.scalar_values["bound"] == pytest.approx(0.3125, abs=2e-4)
    assert len(sol.grams[0]) == 3
    X = np.linspace(0.0, 1.0, 101)[:, None]
    cert = certificate_values(compiled, sol, 0, X)
    np.testing.assert_allclose(cert, gram_values(compiled, sol, 0, X),
                               atol=1e-7)
    assert cert.min() >= -1e-6


def test_certificate_soundness_on_domain():
    rng = np.random.default_rng(0)
    for direction in ("upper", "lower"):
        compiled = _bound_program(direction)
        sol = solve(compiled)
        assert sol.status == "Optimal"
        X = rng.uniform(0.0, 1.0, size=(1000, 1))
        assert certificate_values(compiled, sol, 0, X).min() >= -1e-6


def test_constraint_order_stability():
    # the same pair of constraints in either order yields the same optimum
    spec = SystemSpec(MAP_LYAP_2D)
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    psi = total_degree_dictionary(MONOMIAL, 2, 8)
    lie = exact_lie_matrix(spec, phi, psi)
    mono2 = total_degree_dictionary(MONOMIAL, 2, 2)
    n2 = Poly(mono2, np.array([0.0, 0, 0, 1.0, 0, 1.0]))
    cons = [
        InequalityConstraint(phi=phi, a=1.0, c_const=-1.0 * n2),
        InequalityConstraint(phi=phi, b=-1.0, lie_matrix=lie,
                             lie_basis=psi, c_const=-1.0 * n2),
    ]
    sol_a = solve(compile(SosProgram(phi=phi, constraints=cons,
                                     objective=("l1_phi",))))
    sol_b = solve(compile(SosProgram(phi=phi, constraints=cons[::-1],
                                     objective=("l1_phi",))))
    assert sol_a.status == sol_b.status == "Optimal"
    assert sol_a.objective == pytest.approx(sol_b.objective, abs=1e-6)


def test_posterior_verify_zero_candidate_gets_no_margin():
    # V = 0 satisfies V - eps |x|^2 >= 0 only for eps <= 0
    spec = SystemSpec(MAP_LYAP_2D)
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    psi = total_degree_dictionary(MONOMIAL, 2, 8)
    lie = exact_lie_matrix(spec, phi, psi)
    sol = posterior_verify(Poly(phi, np.zeros(phi.size)), lie, psi)
    assert isinstance(sol, SosSolution)
    if sol.status == "Optimal":
        assert sol.sdp.reason == "optimal"
        assert sol.scalar_values["eps"] <= 1e-7


@pytest.mark.parametrize("other", [(MONOMIAL, BOX), (CHEBYSHEV, ((0.0, 2.0),))],
                         ids=["family", "box"])
@pytest.mark.parametrize("part", ["lie_basis", "c_const", "c_scalar",
                                  "domain"])
def test_compile_rejects_a_basis_of_another_space(part, other):
    # every basis a constraint names must share phi's family and box
    phi = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX)

    def program(spaces):
        psi = total_degree_dictionary(spaces["lie_basis"][0], 1, 4,
                                      spaces["lie_basis"][1])
        s = poly_from_terms({(1,): 1.0, (2,): -1.0}, *spaces["domain"])
        con = InequalityConstraint(
            phi=phi, b=1.0, lie_matrix=np.zeros((phi.size, psi.size)),
            lie_basis=psi,
            c_const=poly_from_terms({(0,): 1.0}, *spaces["c_const"]),
            c_scalars={"bound": poly_from_terms({(0,): 1.0},
                                                *spaces["c_scalar"])},
            domain=SemialgebraicSet((s,)))
        return SosProgram(phi=phi, scalars=("bound",), constraints=[con],
                          objective=("min", {"bound": 1.0}))

    same = dict.fromkeys(("lie_basis", "c_const", "c_scalar", "domain"),
                         (CHEBYSHEV, BOX))
    compile(program(same))
    with pytest.raises(DimensionMismatch):
        compile(program({**same, part: other}))


def test_b_without_lie_matrix_rejected():
    phi = total_degree_dictionary(MONOMIAL, 1, 2)
    with pytest.raises(ValueError):
        InequalityConstraint(phi=phi, b=1.0)


# -- parity split of programs invariant under x -> -x ---------------------------

def _linear_lie(phi):
    """Exact Lie matrix over phi of dx/dt = -x - y, dy/dt = x - y: an odd,
    globally stable field that keeps every monomial's degree."""
    L = np.zeros((phi.size, phi.size))
    for k, (a, b) in enumerate(phi.indices):
        L[k, k] = -(a + b)
        if a:
            L[k, phi.positions[(a - 1, b + 1)]] -= a
        if b:
            L[k, phi.positions[(a + 1, b - 1)]] += b
    return L


def _linear_lyapunov_program():
    """The l1-minimal Lyapunov search for the linear field, alpha=4."""
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    return auxfn._lyapunov_program(phi, _linear_lie(phi), phi)


def _linear_posterior_program():
    """The posterior check of V = 1 + 2 |x|^2 + |x|^4 (c_fixed) for the
    linear field: the largest margin is 4."""
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    V = poly_from_terms({(0, 0): 1.0, (2, 0): 2.0, (0, 2): 2.0, (4, 0): 1.0,
                         (2, 2): 2.0, (0, 4): 1.0})
    return auxfn._lyapunov_program(phi, _linear_lie(phi), phi, V)


def _vdp_ball_program():
    """The VdP alpha=8 bound on the ball 16 - |x|^2 >= 0: an even domain
    weight stored over a full basis, its odd coefficients 0."""
    ball = poly_from_terms({(0, 0): 16.0, (2, 0): -1.0, (0, 2): -1.0})
    return _vdp_exact_program(8, domain=SemialgebraicSet((ball,)))


def _no_split(monkeypatch):
    monkeypatch.setattr(sos, "_is_even", lambda *args: False)


def _n_psd(problem):
    return sum(kind == "psd" for kind, _ in problem.blocks)


@pytest.mark.parametrize("make", [
    lambda: _vdp_exact_program(6), lambda: _vdp_exact_program(8),
    lambda: _vdp_exact_program(10), lambda: _vdp_exact_program(12),
    lambda: _vdp_exact_program(6, CIRCULAR_ORBIT),
    _vdp_ball_program, _linear_lyapunov_program, _linear_posterior_program,
    lambda: _vdp_exact_program(10, family=CHEBYSHEV, box=BOX33)],
    ids=["vdp6", "vdp8", "vdp10", "vdp12", "circle_orbit6", "vdp8_ball",
         "l1_phi", "c_fixed", "vdp_chebyshev"])
def test_parity_split_keeps_the_optimum(make, monkeypatch):
    prog = make()
    tol = 1e-8
    split = compile(prog)
    sol = solve(split, tol=tol)
    _no_split(monkeypatch)
    full = compile(prog)
    ref = solve(full, tol=tol)
    # each Gram term becomes two, on fewer equality rows
    assert _n_psd(split.problem) == 2 * _n_psd(full.problem)
    assert split.problem.A.shape[0] < full.problem.A.shape[0]
    assert sol.status == ref.status == "Optimal"
    assert sol.objective == pytest.approx(
        ref.objective, abs=10 * tol * (1 + abs(ref.objective)))
    odd = np.array([sum(idx) % 2 == 1 for idx in prog.phi.indices])
    assert not sol.phi.coeffs[odd].any()
    # one Gram per split term, each PSD
    assert len(sol.grams[0]) == len(split.per_constraint[0].terms)
    assert min(np.linalg.eigvalsh(Q)[0] for Q in sol.grams[0]) > -1e-8


def _vdp_edmd_program():
    """The VdP upper-bound program over a fitted alpha=4 Lie matrix."""
    phi = total_degree_dictionary(MONOMIAL, 2, 4)
    psi = total_degree_dictionary(MONOMIAL, 2, 6)
    data = sample_snapshots(SystemSpec(VAN_DER_POL), "trajectory", 1e-3,
                            20_000, x0=(0.1, 0.2))
    con = InequalityConstraint(
        phi=phi, b=-1.0, lie_matrix=fit_edmd(data, phi, psi).L,
        lie_basis=psi, c_const=-1.0 * norm_squared(MONOMIAL, 2),
        c_scalars={"bound": ONE_2D})
    return SosProgram(phi=phi, scalars=("bound",), constraints=[con],
                      objective=("min", {"bound": 1.0}))


@pytest.mark.parametrize("make", [
    _vdp_edmd_program,
    lambda: _vdp_exact_program(6, g=poly_from_terms({(1, 0): 1.0,
                                                     (0, 2): 1.0})),
    _logistic_interval_program],
    ids=["vdp_edmd", "odd_g", "odd_domain_weight"])
def test_programs_without_symmetry_compile_unsplit(make, monkeypatch):
    # a fitted L, an odd observable and an odd domain weight
    prog = make()
    got = compile(prog).problem
    _no_split(monkeypatch)
    ref = compile(prog).problem
    assert got.blocks == ref.blocks
    for name in ("A", "b", "c"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


# Mean of x^2 + y^2 over the Van der Pol (mu = 0.1) limit cycle, from
# scipy's DOP853 at rtol = atol = 1e-12 (perfbench/workloads.py,
# vdp_limit_cycle_mean)
LC = 4.0012495207


@pytest.mark.parametrize("alpha", [12, 18])
def test_chebyshev_exact_vdp_bound_reaches_the_limit_cycle(alpha):
    # the exact Chebyshev Lie matrix is parity-exact, so the program splits
    # into an even and an odd Gram block and solves at the default tolerance
    sol = solve(compile(_vdp_exact_program(alpha, family=CHEBYSHEV,
                                           box=BOX33)), tol=1e-8)
    assert sol.status == "Optimal"
    assert LC <= sol.scalar_values["bound"] <= LC + 5e-8
    assert [kind for kind, _ in sol.sdp_blocks].count("psd") == 2


def test_certificate_matches_gram_reconstruction_when_split():
    compiled = compile(_vdp_exact_program(8))
    assert len(compiled.per_constraint[0].terms) == 2
    sol = solve(compiled)
    assert sol.status == "Optimal"
    X = np.random.default_rng(3).uniform(-3.0, 3.0, size=(500, 2))
    cert = certificate_values(compiled, sol, 0, X)
    gram = gram_values(compiled, sol, 0, X)
    scale = 1 + np.abs(cert).max()
    np.testing.assert_allclose(cert, gram, atol=1e-6 * scale)
    # the certified polynomial of the reduced program is U - g - LV in full
    prog = compiled.program
    con = prog.constraints[0]
    lv = (sol.phi.coeffs @ con.lie_matrix) @ evaluate(con.lie_basis, X)
    full = sol.scalar_values["bound"] - norm_squared(MONOMIAL, 2)(X) - lv
    np.testing.assert_allclose(cert, full, rtol=0, atol=1e-12 * scale)

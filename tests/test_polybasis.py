"""Tests for dictionaries, polynomial arithmetic, and basis conversions."""

import copy
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopsos import _kernels, polybasis
from koopsos.polybasis import (CHEBYSHEV, MONOMIAL, Dictionary,
                               DimensionMismatch, Poly, TargetTooSmall,
                               compose, evaluate, grlex_key,
                               inclusion_matrix, monomial_to_cheb,
                               multiplication_matrix, norm_squared,
                               poly_from_terms, product_tensor, project,
                               total_degree_dictionary)

BOX1 = ((-1.0, 1.0),)
BOX2 = ((-1.0, 1.0), (-1.0, 1.0))


def test_total_degree_sizes():
    # binomial(d + deg, deg) indices in d variables up to total degree deg
    assert total_degree_dictionary(MONOMIAL, 2, 1).size == 3
    assert total_degree_dictionary(MONOMIAL, 2, 4).size == 15
    assert total_degree_dictionary(MONOMIAL, 2, 8).size == 45
    for d in (1, 2, 3):
        for deg in range(5):
            got = total_degree_dictionary(MONOMIAL, d, deg).size
            assert got == math.comb(d + deg, deg)


def test_graded_lex_order_and_eval():
    dic = total_degree_dictionary(MONOMIAL, 2, 2)
    assert dic.indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    vals = evaluate(dic, np.array([1.0, -1.0]))
    np.testing.assert_allclose(vals, [1, 1, -1, 1, -1, 1])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_total_degree_indices_are_sorted_grlex(d):
    # generated in grlex order; the reference sorts every index of the box
    for deg in range(13):
        box = itertools.product(range(deg + 1), repeat=d)
        expected = sorted((i for i in box if sum(i) <= deg), key=grlex_key)
        got = total_degree_dictionary(MONOMIAL, d, deg).indices
        assert got == tuple(expected)


@pytest.mark.parametrize("indices, message", [
    (((0, 0), (0, 1), (1, 0)), "graded-lex order"),
    (((0, 0), (1, 0), (0, 0)), "graded-lex order"),
    (((1, 0), (0, 0)), "graded-lex order"),
    (((0, 0), (1, 0), (1, 0)), "distinct"),
    (((0, 0), (0, 0)), "distinct"),
])
def test_dictionary_rejects_unordered_or_repeated_indices(indices, message):
    with pytest.raises(ValueError, match=message):
        Dictionary(MONOMIAL, 2, indices)


def test_dictionary_deterministic():
    a = total_degree_dictionary(CHEBYSHEV, 3, 4, ((-1, 1),) * 3)
    b = total_degree_dictionary(CHEBYSHEV, 3, 4, ((-1, 1),) * 3)
    assert a == b
    assert a.indices == b.indices


def test_total_degree_dictionary_is_built_once_per_arguments():
    # the box as a list of ints or a tuple of floats is the same box, so the
    # same object, whose cached facts are then built once
    a = total_degree_dictionary(CHEBYSHEV, 2, 3, [[0, 1], [-2, 5]])
    assert a is total_degree_dictionary(CHEBYSHEV, 2, 3,
                                        ((0.0, 1.0), (-2.0, 5.0)))
    assert a.exponents is total_degree_dictionary(
        CHEBYSHEV, 2, 3, [(0.0, 1.0), (-2.0, 5.0)]).exponents
    mono = total_degree_dictionary(MONOMIAL, 2, 3)
    assert mono is total_degree_dictionary(MONOMIAL, 2, 3, None)
    assert mono is not total_degree_dictionary(MONOMIAL, 2, 3, BOX2)
    assert mono is not total_degree_dictionary(MONOMIAL, 2, 4)


def test_cached_dictionaries_give_the_same_bits(monkeypatch):
    # compose, monomial_to_cheb and the exact Lie matrices built from fresh
    # dictionaries and from cached ones agree bit for bit
    from koopsos.systems import SystemSpec, exact_lie_matrix
    box = ((0.0, 1.0),)
    vbox = ((-3.0, 3.0), (-3.0, 3.0))
    mono2 = total_degree_dictionary(MONOMIAL, 1, 2)
    x_minus_x2 = Poly(mono2, np.array([0.0, 1.0, -1.0]))

    def results():
        cheb = total_degree_dictionary(CHEBYSHEV, 1, 8, box)
        sq = Poly(mono2, np.array([0.5, 0.0, 2.0]))
        return [
            monomial_to_cheb(x_minus_x2,
                             total_degree_dictionary(CHEBYSHEV, 1, 2, box)
                             ).coeffs,
            compose(total_degree_dictionary(MONOMIAL, 1, 4), [sq],
                    total_degree_dictionary(MONOMIAL, 1, 8)),
            exact_lie_matrix(SystemSpec("StochasticLogistic"),
                             total_degree_dictionary(CHEBYSHEV, 1, 4, box),
                             cheb),
            exact_lie_matrix(SystemSpec("VanDerPol"),
                             total_degree_dictionary(CHEBYSHEV, 2, 4, vbox),
                             total_degree_dictionary(CHEBYSHEV, 2, 6, vbox)),
            exact_lie_matrix(SystemSpec("VanDerPol"),
                             total_degree_dictionary(MONOMIAL, 2, 4),
                             total_degree_dictionary(MONOMIAL, 2, 6)),
        ]

    cached = results()
    monkeypatch.setattr(polybasis, "_total_degree_dictionary",
                        polybasis._total_degree_dictionary.__wrapped__)
    for got, fresh in zip(cached, results()):
        assert got.tobytes() == fresh.tobytes()


def test_chebyshev_t2():
    dic = total_degree_dictionary(CHEBYSHEV, 1, 3, BOX1)
    vals = evaluate(dic, np.array([0.5]))
    assert vals[dic.positions[(2,)]] == pytest.approx(-0.5, abs=1e-15)


@given(st.integers(0, 9), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_chebyshev_cos_identity(k, x):
    dic = total_degree_dictionary(CHEBYSHEV, 1, 9, BOX1)
    val = evaluate(dic, np.array([x]))[dic.positions[(k,)]]
    assert val == pytest.approx(math.cos(k * math.acos(x)), abs=1e-12)


def test_chebyshev_box_rescaling():
    # T_1 on [0, 1] is the affine map x -> 2x - 1
    dic = total_degree_dictionary(CHEBYSHEV, 1, 2, ((0.0, 1.0),))
    vals = evaluate(dic, np.array([[0.25], [0.75]]))
    np.testing.assert_allclose(vals[dic.positions[(1,)]], [-0.5, 0.5],
                               atol=1e-15)


def test_inclusion_matrix_selects():
    small = total_degree_dictionary(MONOMIAL, 2, 2)
    big = total_degree_dictionary(MONOMIAL, 2, 5)
    theta = inclusion_matrix(small, big)
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(20, 2))
    np.testing.assert_allclose(theta @ evaluate(big, X), evaluate(small, X),
                               atol=1e-12)


def test_inclusion_matrix_rejects_missing():
    small = total_degree_dictionary(MONOMIAL, 2, 3)
    big = total_degree_dictionary(MONOMIAL, 2, 2)
    with pytest.raises(TargetTooSmall) as err:
        inclusion_matrix(small, big)
    assert err.value.missing == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_chebyshev_pair_product_identity():
    # T_1 T_1 = 1/2 T_0 + 1/2 T_2
    dic = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX1)
    target = total_degree_dictionary(CHEBYSHEV, 1, 4, BOX1)
    T = product_tensor(dic, dic, target)
    np.testing.assert_array_equal(T[:, 1, 1], [0.5, 0.0, 0.5, 0.0, 0.0])
    # T_0 is the identity of the product
    np.testing.assert_array_equal(T[:, 0, :], np.eye(5, 3))


def test_chebyshev_product_tensor_2d_sign_patterns():
    dic = total_degree_dictionary(CHEBYSHEV, 2, 2, BOX2)
    target = total_degree_dictionary(CHEBYSHEV, 2, 4, BOX2)
    T = product_tensor(dic, dic, target)
    i, j, k = dic.positions[(1, 0)], dic.positions[(0, 1)], dic.positions[(1, 1)]
    # a zero coordinate adds both sign patterns up to weight 1
    expected = np.zeros(target.size)
    expected[target.positions[(1, 1)]] = 1.0
    np.testing.assert_array_equal(T[:, i, j], expected)
    # T_(1,1)^2 = (T_(2,2) + T_(2,0) + T_(0,2) + T_(0,0)) / 4
    expected = np.zeros(target.size)
    for idx in ((2, 2), (2, 0), (0, 2), (0, 0)):
        expected[target.positions[idx]] = 0.25
    np.testing.assert_array_equal(T[:, k, k], expected)


def test_product_tensor_checks_target_and_spaces():
    mono = total_degree_dictionary(MONOMIAL, 1, 2)
    with pytest.raises(TargetTooSmall):
        product_tensor(mono, mono, mono)
    cheb = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX1)
    other_box = total_degree_dictionary(CHEBYSHEV, 1, 4, ((0.0, 2.0),))
    with pytest.raises(DimensionMismatch):
        product_tensor(cheb, cheb, other_box)
    with pytest.raises(DimensionMismatch):
        product_tensor(cheb, mono, total_degree_dictionary(CHEBYSHEV, 1, 4))


def test_product_one_minus_x_squared():
    line = total_degree_dictionary(MONOMIAL, 1, 1)
    dic = total_degree_dictionary(MONOMIAL, 1, 2)
    one_plus = Poly(line, np.array([1.0, 1.0]))
    prod = multiplication_matrix(one_plus, line, dic) @ [1.0, -1.0]
    np.testing.assert_allclose(prod, [1.0, 0.0, -1.0], atol=1e-15)


def test_product_target_too_small():
    line = total_degree_dictionary(MONOMIAL, 1, 1)
    dic = total_degree_dictionary(MONOMIAL, 1, 2)
    x = Poly(line, np.array([0.0, 1.0]))
    with pytest.raises(TargetTooSmall):
        multiplication_matrix(x, dic, dic)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_product_evaluation_property(data):
    family = data.draw(st.sampled_from([MONOMIAL, CHEBYSHEV]))
    d = data.draw(st.integers(1, 2))
    box = None
    if family == CHEBYSHEV:
        box = data.draw(st.sampled_from([((-1.0, 1.0),) * d,
                                         ((0.0, 2.0), (-3.0, 0.5))[:d]]))
    deg = data.draw(st.integers(0, 3))
    dic = total_degree_dictionary(family, d, deg, box)
    target = total_degree_dictionary(family, d, 2 * deg, box)
    cp = np.array(data.draw(st.lists(
        st.floats(-2, 2), min_size=dic.size, max_size=dic.size)))
    cq = np.array(data.draw(st.lists(
        st.floats(-2, 2), min_size=dic.size, max_size=dic.size)))
    p, q = Poly(dic, cp), Poly(dic, cq)
    prod = Poly(target, multiplication_matrix(p, dic, target) @ cq)
    lo, hi = np.array(box or ((-1.0, 1.0),) * d).T
    X = np.random.default_rng(0).uniform(lo, hi, size=(25, d))
    np.testing.assert_allclose(prod(X), p(X) * q(X), atol=1e-10, rtol=1e-10)


def test_monomial_to_cheb_matches_values():
    rng = np.random.default_rng(3)
    mono = total_degree_dictionary(MONOMIAL, 2, 5)
    cheb = total_degree_dictionary(CHEBYSHEV, 2, 5, BOX2)
    p = Poly(mono, rng.standard_normal(mono.size))
    X = rng.uniform(-1, 1, size=(30, 2))
    np.testing.assert_allclose(monomial_to_cheb(p, cheb)(X), p(X), atol=1e-10)


def test_monomial_to_cheb_respects_box():
    mono = total_degree_dictionary(MONOMIAL, 1, 3)
    cheb = total_degree_dictionary(CHEBYSHEV, 1, 3, ((0.0, 2.0),))
    p = Poly(mono, np.array([0.5, -1.0, 2.0, -0.75]))
    xs = np.linspace(0.0, 2.0, 11)[:, None]
    np.testing.assert_allclose(monomial_to_cheb(p, cheb)(xs), p(xs),
                               atol=1e-12)


LOGISTIC_RATE = 3.2
MAP_BOX = ((-1.0, 3.0), (-1.0, 3.0))


@pytest.mark.parametrize("src, terms, target, F", [
    (total_degree_dictionary(MONOMIAL, 2, 5),
     [{(1, 0): 1.0}, {(0, 1): 1.0}],
     total_degree_dictionary(CHEBYSHEV, 2, 5, ((0.0, 2.0), (-3.0, 0.5))),
     lambda X: X),
    (total_degree_dictionary(CHEBYSHEV, 2, 4, MAP_BOX),
     [{(1, 0): 0.3}, {(1, 0): -1.0, (0, 1): 0.5, (2, 0): 7.0 / 18.0}],
     total_degree_dictionary(CHEBYSHEV, 2, 8, MAP_BOX),
     lambda X: np.column_stack([0.3 * X[:, 0], -X[:, 0] + 0.5 * X[:, 1]
                                + 7.0 / 18.0 * X[:, 0] ** 2])),
    (total_degree_dictionary(CHEBYSHEV, 1, 6, ((0.0, 1.0),)),
     [{(1,): LOGISTIC_RATE, (2,): -LOGISTIC_RATE}],
     total_degree_dictionary(CHEBYSHEV, 1, 12, ((0.0, 1.0),)),
     lambda X: LOGISTIC_RATE * X * (1.0 - X)),
], ids=["monomial-in-chebyshev-coordinates", "chebyshev-map2d-off-centre",
        "chebyshev-logistic"])
def test_compose_matches_pointwise_substitution(src, terms, target, F):
    # row k of compose is src[k] o F over target: at any point of the box,
    # the target values weighted by the row are src[k] evaluated at F(x)
    args = [poly_from_terms(t, target.family, target.box) for t in terms]
    rows = compose(src, args, target)
    assert rows.shape == (src.size, target.size)
    lo, hi = target.bounds
    X = np.random.default_rng(5).uniform(lo, hi, size=(40, target.dimension))
    expected = evaluate(src, F(X))
    np.testing.assert_allclose(rows @ evaluate(target, X), expected,
                               atol=1e-11 * np.abs(expected).max())


def test_compose_target_must_hold_every_image():
    # x^2 composed with x needs degree 2; only the nonzeros must fit
    line = total_degree_dictionary(MONOMIAL, 1, 1)
    x = poly_from_terms({(1,): 1.0}, deg=1)
    np.testing.assert_array_equal(compose(line, [x], line), np.eye(2))
    with pytest.raises(TargetTooSmall):
        compose(total_degree_dictionary(MONOMIAL, 1, 2), [x], line)
    with pytest.raises(DimensionMismatch):
        compose(total_degree_dictionary(MONOMIAL, 2, 1), [x], line)


def test_monomial_to_cheb_closed_forms_on_unit_interval():
    # on [0, 1], x = (T_0 + T_1) / 2 and x - x^2 = (T_0 - T_2) / 8 with
    # T_k of z = 2 x - 1, exactly
    mono = total_degree_dictionary(MONOMIAL, 1, 2)
    cheb = total_degree_dictionary(CHEBYSHEV, 1, 2, ((0.0, 1.0),))
    g = monomial_to_cheb(Poly(mono, np.array([0.0, 1.0, 0.0])), cheb)
    s = monomial_to_cheb(Poly(mono, np.array([0.0, 1.0, -1.0])), cheb)
    np.testing.assert_array_equal(g.coeffs, [0.5, 0.5, 0.0])
    np.testing.assert_array_equal(s.coeffs, [0.125, 0.0, -0.125])


def test_project_drops_only_noise_outside_target():
    target = total_degree_dictionary(MONOMIAL, 1, 1)
    indices = [(0,), (1,), (2,)]
    rows = np.array([[1.0, 2.0, 0.0], [4.0, -1.0, 1e-14]])
    with pytest.raises(TargetTooSmall) as err:
        project(indices, rows, target)  # every nonzero must fit, 1e-14 too
    assert err.value.missing == [(2,)]
    # an exact zero outside the target is all that is dropped
    np.testing.assert_array_equal(project(indices, rows[0], target),
                                  [1.0, 2.0])
    np.testing.assert_array_equal(
        project(indices, rows[0], total_degree_dictionary(MONOMIAL, 1, 3)),
        [1.0, 2.0, 0.0, 0.0])


@pytest.mark.parametrize("family,box", [(MONOMIAL, None),
                                        (MONOMIAL, ((0.0, 2.0),) * 2),
                                        (CHEBYSHEV, ((0.0, 2.0),) * 2)],
                         ids=["monomial-None", "monomial-boxed",
                              "chebyshev-box1"])
def test_poly_from_terms_matches_hand_built(family, box):
    # |x|^2, x - x^2 and x on a degree-2 dictionary, against the coefficient
    # arrays written out by hand and converted to the family; a monomial
    # polynomial keeps the box, so it combines with boxed dictionaries
    mono = total_degree_dictionary(MONOMIAL, 2, 2, box)
    for got, coeffs in [
            (norm_squared(family, 2, box), [0, 0, 0, 1, 0, 1]),
            (poly_from_terms({(1, 0): 1.0, (2, 0): -1.0}, family, box),
             [0, 1, 0, -1, 0, 0]),
            (poly_from_terms({(1, 0): 1.0}, family, box, deg=2),
             [0, 1, 0, 0, 0, 0])]:
        ref = Poly(mono, np.array(coeffs, dtype=float))
        if family == CHEBYSHEV:
            ref = monomial_to_cheb(
                ref, total_degree_dictionary(CHEBYSHEV, 2, 2, box))
        assert got.basis == ref.basis
        np.testing.assert_array_equal(got.coeffs, ref.coeffs)


def test_json_round_trip():
    dic = total_degree_dictionary(CHEBYSHEV, 2, 3, BOX2)
    again = Dictionary.from_dict(json.loads(json.dumps(dic.to_dict())))
    assert again == dic


def test_poly_arithmetic():
    dic = total_degree_dictionary(MONOMIAL, 1, 2)
    p = Poly(dic, np.array([1.0, 2.0, 3.0]))
    q = Poly(dic, np.array([0.0, 1.0, -1.0]))
    np.testing.assert_allclose((p + q).coeffs, [1, 3, 2])
    np.testing.assert_allclose((p - q).coeffs, [1, 1, 4])
    np.testing.assert_allclose((2.0 * p).coeffs, [2, 4, 6])


def _chebyshev_reference(dic, X):
    """(2x - (lo + hi)) / (hi - lo) written out, then T_k by the recurrence
    and the product over coordinates, in the kernel's order."""
    lo = np.array([b[0] for b in dic.box])
    hi = np.array([b[1] for b in dic.box])
    Z = (2.0 * X - (lo + hi)) / (hi - lo)
    T = [np.ones_like(Z), Z]
    for _ in range(2, dic.max_degree + 1):
        T.append(2.0 * Z * T[-1] - T[-2])
    rows = []
    for idx in dic.indices:
        row = T[idx[0]][:, 0]
        for j in range(1, dic.dimension):
            row = row * T[idx[j]][:, j]
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("box", [((-0.3, 1.9),), ((-0.3, 1.9), (0.1, 3.4))],
                         ids=["d1", "d2"])
def test_boxed_chebyshev_evaluate_is_the_explicit_rescale(monkeypatch, box):
    # off-centre boxes whose lo + hi and hi - lo are not powers of two, over
    # several evaluation blocks; the states themselves are left alone
    monkeypatch.setattr(_kernels, "EVAL_BLOCK", 16)
    dic = total_degree_dictionary(CHEBYSHEV, len(box), 6, box)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 4.0, size=(3 * 16 + 5, len(box)))
    before = X.copy()
    got = evaluate(dic, X)
    np.testing.assert_array_equal(X, before)
    ref = _chebyshev_reference(dic, X)
    assert got.tobytes() == ref.tobytes()
    assert evaluate(dic, X[7]).tobytes() == ref[:, 7].tobytes()


def test_monomial_box_does_not_change_values():
    X = np.random.default_rng(2).uniform(-3.0, 3.0, size=(40, 2))
    plain = total_degree_dictionary(MONOMIAL, 2, 5)
    boxed = total_degree_dictionary(MONOMIAL, 2, 5, ((0.5, 1.5), (-2.0, 0.0)))
    assert evaluate(boxed, X).tobytes() == evaluate(plain, X).tobytes()


@pytest.mark.parametrize("dic", [total_degree_dictionary(MONOMIAL, 2, 4),
                                 total_degree_dictionary(CHEBYSHEV, 1, 5,
                                                         ((0.0, 1.0),)),
                                 Dictionary(MONOMIAL, 3, ())],
                         ids=["mono-2d", "cheb-1d", "empty"])
def test_exponent_table_is_read_only_and_equals_indices(dic):
    table = dic.exponents
    assert table.dtype == np.int64 and table.shape == (dic.size, dic.dimension)
    assert table.tolist() == [list(idx) for idx in dic.indices]
    assert not table.flags.writeable
    if dic.size:
        with pytest.raises(ValueError):
            table[0, 0] = 7
    assert dic.exponents is table  # built once
    assert all(dic.positions[idx] == k for k, idx in enumerate(dic.indices))
    # the kernels' facts, built once on the same table: only the 1-D
    # total-degree dictionary has exponents 0..max_deg in order
    basis = dic.basis
    assert dic.basis is basis and basis.expo is table
    assert basis.max_deg == dic.max_degree
    assert basis.in_order == (dic.dimension == 1)


def test_box_bounds_and_their_checks():
    dic = total_degree_dictionary(CHEBYSHEV, 2, 1, ((0.0, 1.0), (-2.0, 5.0)))
    np.testing.assert_array_equal(dic.bounds, [[0.0, -2.0], [1.0, 5.0]])
    assert not dic.bounds.flags.writeable
    np.testing.assert_array_equal(
        total_degree_dictionary(CHEBYSHEV, 2, 1).bounds, [[-1, -1], [1, 1]])
    for box in [((0.0, math.inf),), ((-math.inf, 0.0),), ((math.nan, 1.0),),
                ((1.0, 1.0),), ((0.0,),), ((0.0, 1.0), (0.0, 1.0))]:
        with pytest.raises(ValueError, match="finite"):
            total_degree_dictionary(CHEBYSHEV, 1, 2, box)


def test_missing_indices_are_named():
    # every consumer of the position map reports what the target lacks
    mono1 = total_degree_dictionary(MONOMIAL, 1, 2)
    with pytest.raises(TargetTooSmall) as err:
        project([(0,), (3,), (1,), (4,)], [1.0, 2.0, 3.0, 4.0], mono1)
    assert err.value.missing == [(3,), (4,)]
    with pytest.raises(TargetTooSmall) as err:
        product_tensor(mono1, mono1, mono1)
    assert err.value.missing == [(3,), (4,)]
    cheb = total_degree_dictionary(CHEBYSHEV, 2, 2, BOX2)
    with pytest.raises(TargetTooSmall) as err:
        product_tensor(cheb, cheb, total_degree_dictionary(CHEBYSHEV, 2, 3,
                                                           BOX2))
    assert err.value.missing == [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
    with pytest.raises(TargetTooSmall) as err:
        inclusion_matrix(total_degree_dictionary(MONOMIAL, 2, 3),
                         total_degree_dictionary(MONOMIAL, 2, 2))
    assert err.value.missing == [(3, 0), (2, 1), (1, 2), (0, 3)]


def test_dictionary_with_read_facts_pickles_copies_and_compares():
    dic = total_degree_dictionary(CHEBYSHEV, 2, 3, ((0.0, 1.0), (-2.0, 5.0)))
    X = np.random.default_rng(1).uniform(0.0, 1.0, size=(9, 2))
    vals = evaluate(dic, X)
    assert dic.positions[(1, 1)] == 4 and dic.bounds.shape == (2, 2)
    for other in (pickle.loads(pickle.dumps(dic)), copy.copy(dic),
                  copy.deepcopy(dic)):
        assert other == dic and hash(other) == hash(dic)
        assert not other.exponents.flags.writeable
        assert other.positions == dic.positions
        np.testing.assert_array_equal(other.bounds, dic.bounds)
        assert evaluate(other, X).tobytes() == vals.tobytes()
    assert Dictionary.from_dict(dic.to_dict()) == dic

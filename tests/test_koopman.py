"""Tests for the EDMD / gEDMD fits, moment matrices, and diagnostics."""

import pickle
import warnings

import numpy as np
import pytest

from koopsos import _kernels, koopman
from koopsos.auxfn import circle_dictionaries
from koopsos.koopman import (analytic_circle_moments, circle_moment,
                             convergence_study, divergence_indicator,
                             fit_edmd, fit_gedmd, loglog_slope,
                             moment_matrices, pinv)
from koopsos.polybasis import (CHEBYSHEV, MONOMIAL, Dictionary, Poly, evaluate,
                               inclusion_matrix, total_degree_dictionary)
from koopsos.snapshots import GENERATOR, KOOPMAN, SnapshotSet
from koopsos.systems import (CIRCULAR_ORBIT, MAP_LYAP_2D, STOCHASTIC_LOGISTIC,
                             VAN_DER_POL, SystemSpec, exact_lie_matrix,
                             make_rng, sample_snapshots)


# -- pseudoinverse ----------------------------------------------------------

def test_pinv_diagonal():
    M = np.diag([2.0, 0.0, 0.5])
    np.testing.assert_allclose(pinv(M), np.diag([0.5, 0.0, 2.0]), atol=1e-14)


def test_pinv_rank_one():
    M = np.full((2, 2), 0.25)
    np.testing.assert_allclose(pinv(M), np.ones((2, 2)), atol=1e-12)


def test_pinv_moore_penrose_axioms():
    rng = np.random.default_rng(0)
    for _ in range(5):
        M = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 5))
        P = pinv(M)
        np.testing.assert_allclose(M @ P @ M, M, atol=1e-10)
        np.testing.assert_allclose(P @ M @ P, P, atol=1e-10)
        np.testing.assert_allclose((M @ P).T, M @ P, atol=1e-10)
        np.testing.assert_allclose((P @ M).T, P @ M, atol=1e-10)


def test_pinv_truncates_small_singular_values():
    M = np.diag([1.0, 1e-15])
    P = pinv(M)
    np.testing.assert_allclose(P, np.diag([1.0, 0.0]), atol=1e-14)


def test_pinv_singular_matrix_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        P = pinv(np.diag([1.0, 0.0]))
    np.testing.assert_array_equal(P, np.diag([1.0, 0.0]))


# -- fits and identities ------------------------------------------------------

def _random_snapshots(rng, n=60, kind=KOOPMAN, q=2):
    X = rng.uniform(-1, 1, size=(n, 2))
    Y = (rng.uniform(-1, 1, size=(n, 2)) if kind == KOOPMAN
         else rng.standard_normal((n, q)))
    return SnapshotSet(t=np.arange(n, dtype=float), X=X, Y=Y, tau=0.1,
                       kind=kind)


def test_moment_identities_randomized():
    # K = A B^+ and L = D B^+ + (1/tau) Theta (B B^+ - I) with
    # D = (A - Theta B) / tau on koopman data; L = A B^+ on generator data
    rng = np.random.default_rng(42)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 3)
    theta = inclusion_matrix(phi, psi)
    for trial in range(15):
        s = _random_snapshots(rng, n=rng.integers(8, 80))
        ops = fit_edmd(s, phi, psi)
        mm = moment_matrices(s, phi, psi)
        Bp = pinv(mm.B)
        scale = 1.0 + np.linalg.norm(ops.K)
        assert np.linalg.norm(ops.K - mm.A @ Bp) / scale < 1e-9
        D = (mm.A - theta @ mm.B) / s.tau
        L_id = D @ Bp + (theta @ (mm.B @ Bp - np.eye(psi.size))) / s.tau
        assert (np.linalg.norm(ops.L - L_id)
                / (1.0 + np.linalg.norm(ops.L)) < 1e-9)

        g = _random_snapshots(rng, n=rng.integers(8, 80), kind=GENERATOR,
                              q=phi.size)
        gops = fit_gedmd(g, phi, psi)
        gm = moment_matrices(g, phi, psi)
        assert gops.K is None
        assert (np.linalg.norm(gops.L - gm.A @ pinv(gm.B))
                / (1.0 + np.linalg.norm(gops.L)) < 1e-9)


def test_each_fit_factors_B_once_and_reports_the_rank_pinv_kept(monkeypatch):
    # 8 rows against 10 dictionary elements: B has rank at most 8
    rng = np.random.default_rng(3)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 3)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    for kind, fit in ((KOOPMAN, fit_edmd), (GENERATOR, fit_gedmd)):
        s = _random_snapshots(rng, n=8, kind=kind, q=phi.size)
        monkeypatch.setattr(np.linalg, "svd", counted)
        calls.clear()
        rep = fit(s, phi, psi).svd_report
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert calls == [(psi.size, psi.size)]
        sv = np.array(rep["singular_values"])
        kept = int(np.sum(sv >= rep["rel_tol"] * sv[0] * psi.size))
        assert rep["rank"] == kept <= 8
        # B B^+ projects onto the kept singular directions
        B = moment_matrices(s, phi, psi).B
        assert np.trace(B @ pinv(B)) == pytest.approx(kept, abs=1e-6)


def test_identity_dynamics_gives_theta_and_zero_lie():
    rng = np.random.default_rng(1)
    X = rng.uniform(-1, 1, size=(200, 2))
    s = SnapshotSet(t=np.zeros(200), X=X, Y=X.copy(), tau=0.5, kind=KOOPMAN)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 3)
    ops = fit_edmd(s, phi, psi)
    np.testing.assert_allclose(ops.K, ops.theta, atol=1e-9)
    np.testing.assert_allclose(ops.L, 0.0, atol=1e-9)


def test_linear_map_koopman_oracle():
    # for y = M x and phi = psi = (1, x1, x2), row j of K holds the exact
    # coefficients of phi_j composed with M
    rng = np.random.default_rng(7)
    dic = total_degree_dictionary(MONOMIAL, 2, 1)
    for _ in range(5):
        M = rng.standard_normal((2, 2))
        X = rng.uniform(-1, 1, size=(100, 2))
        s = SnapshotSet(t=np.zeros(100), X=X, Y=X @ M.T, tau=1.0,
                        kind=KOOPMAN)
        ops = fit_edmd(s, dic, dic)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        expected[1, 1:] = M[0]
        expected[2, 1:] = M[1]
        np.testing.assert_allclose(ops.K, expected, atol=1e-9)


def test_gedmd_recovers_exact_generator():
    # Lie images of degree-2 monomials under the van der Pol field live in
    # the degree-4 dictionary, so the fit is residual-free and exact
    spec = SystemSpec(VAN_DER_POL)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 4)
    s = sample_snapshots(spec, "iid_uniform_box", 1e-3, 300, rng=make_rng(3),
                         snapshot_kind=GENERATOR, phi=phi,
                         bounds=[(-2, 2), (-2, 2)])
    ops = fit_gedmd(s, phi, psi)
    np.testing.assert_allclose(ops.L, exact_lie_matrix(spec, phi, psi),
                               atol=1e-8)


def test_both_fits_return_L_from_one_moment_pair():
    # the circle's limit-cycle data: gEDMD's L is A B^+ of its generator
    # moments, EDMD's is (K - Theta) / tau with K = A B^+ of its koopman
    # moments, both from one least-squares routine, bit for bit
    spec = SystemSpec(CIRCULAR_ORBIT)
    phi, psi = circle_dictionaries()
    gen = sample_snapshots(spec, "limit_cycle", 0.01, 1000,
                           snapshot_kind=GENERATOR, phi=phi)
    mm = moment_matrices(gen, phi, psi)
    ops = fit_gedmd(gen, phi, psi)
    assert ops.K is None
    np.testing.assert_array_equal(ops.L, koopman._refined_ls(mm.A, mm.B)[0])
    koop = sample_snapshots(spec, "limit_cycle", 0.01, 1000)
    mm = moment_matrices(koop, phi, psi)
    ops = fit_edmd(koop, phi, psi)
    K = koopman._refined_ls(mm.A, mm.B)[0]
    np.testing.assert_array_equal(ops.K, K)
    np.testing.assert_array_equal(ops.L, (K - ops.theta) / koop.tau)
    # each estimator keeps its snapshot kind
    with pytest.raises(ValueError, match="fit_gedmd needs generator-kind"):
        fit_gedmd(koop, phi, psi)
    with pytest.raises(ValueError, match="fit_edmd needs koopman-kind"):
        fit_edmd(gen, phi, psi)


def test_edmd_lie_image_is_finite_difference():
    # the Lie image of p = c . phi is c @ L over psi, and pointwise it is
    # (K p - p) / tau with K p = c @ K over psi
    rng = np.random.default_rng(5)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 3)
    s = _random_snapshots(rng, n=50)
    ops = fit_edmd(s, phi, psi)
    p = Poly(phi, rng.standard_normal(phi.size))
    X = rng.uniform(-1, 1, size=(20, 2))
    koopman_image = Poly(psi, p.coeffs @ ops.K)(X)
    np.testing.assert_allclose(Poly(psi, p.coeffs @ ops.L)(X),
                               (koopman_image - p(X)) / s.tau,
                               rtol=1e-12, atol=1e-12)


def test_fit_invariant_under_row_reorder_and_duplication():
    rng = np.random.default_rng(9)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 3)
    s = _random_snapshots(rng, n=40)
    perm = rng.permutation(s.n)
    s_perm = SnapshotSet(t=s.t[perm], X=s.X[perm], Y=s.Y[perm], tau=s.tau,
                         kind=s.kind)
    s_dup = SnapshotSet(t=np.concatenate([s.t, s.t]),
                        X=np.vstack([s.X, s.X]), Y=np.vstack([s.Y, s.Y]),
                        tau=s.tau, kind=s.kind)
    K = fit_edmd(s, phi, psi).K
    np.testing.assert_allclose(fit_edmd(s_perm, phi, psi).K, K, atol=1e-10)
    np.testing.assert_allclose(fit_edmd(s_dup, phi, psi).K, K, atol=1e-10)


# -- circle moments ------------------------------------------------------------

# -- trajectory moments ---------------------------------------------------------

def _reference_moments(s, phi, psi, block=None):
    """The two-evaluation moment pass: psi at every x and phi at every y,
    chunked and Kahan-summed like moment_matrices: by koopman.CHUNK_ROWS, or
    for a 1-D psi on the moment route by min(CHUNK_ROWS, block), block
    _kernels.EVAL_BLOCK unless given, with each chunk's products summed over
    slices of koopman.MOMENT_SLICE columns."""
    chunk = width = koopman.CHUNK_ROWS
    if koopman._moment_structure(psi) is not None:
        chunk = min(chunk, block or _kernels.EVAL_BLOCK)
        width = koopman.MOMENT_SLICE
    acc_b = koopman._KahanAccumulator((psi.size, psi.size))
    acc_a = koopman._KahanAccumulator((phi.size, psi.size))
    for start in range(0, s.n, chunk):
        rows = slice(start, start + chunk)
        Psi, Phi = evaluate(psi, s.X[rows]), evaluate(phi, s.Y[rows])
        for first in range(0, Psi.shape[1], width):
            cols = slice(first, first + width)
            b = Psi[:, cols] @ Psi[:, cols].T
            a = Phi[:, cols] @ Psi[:, cols].T
            B, A = (b, a) if first == 0 else (B + b, A + a)
        acc_b.add(B)
        acc_a.add(A)
    return acc_b.total / s.n, acc_a.total / s.n


def _trajectory_cases(n):
    """(snapshots, phi, psi): logistic Chebyshev (d=1), Van der Pol monomial
    (d=2), MapLyap2D, and a phi contained in psi but not a prefix of it."""
    box = ((0.0, 1.0),)
    logistic = sample_snapshots(SystemSpec(STOCHASTIC_LOGISTIC), "trajectory",
                                1.0, n, rng=make_rng(0))
    yield (logistic, total_degree_dictionary(CHEBYSHEV, 1, 3, box),
           total_degree_dictionary(CHEBYSHEV, 1, 6, box))
    vdp = sample_snapshots(SystemSpec(VAN_DER_POL), "trajectory", 1e-2, n,
                           x0=(0.1, 0.2))
    mono2, mono4 = (total_degree_dictionary(MONOMIAL, 2, a) for a in (2, 4))
    yield vdp, mono2, mono4
    yield (sample_snapshots(SystemSpec(MAP_LYAP_2D), "trajectory", 1.0, n),
           mono2, mono4)
    gaps = Dictionary(MONOMIAL, 2, tuple(mono4.indices[i] for i in (0, 2, 5, 9)))
    yield vdp, gaps, mono4


def _edited(s, edit):
    """A copy of s whose X and Y arrays ``edit(X, Y)`` has changed in place."""
    X, Y = s.X.copy(), s.Y.copy()
    edit(X, Y)
    return SnapshotSet(t=s.t, X=X, Y=Y, tau=s.tau, kind=s.kind)


def _ulp_up(row):
    """Move y_row up by 1 ulp, off the trajectory."""
    def edit(X, Y):
        Y[row, 0] = np.nextafter(Y[row, 0], np.inf)
    return edit


def _signed_zero(row):
    """x_{row+1} = +0.0 and y_row = -0.0: equal as floats, not as bits."""
    def edit(X, Y):
        X[row + 1, 0], Y[row, 0] = 0.0, -0.0
    return edit


def _evaluated(monkeypatch):
    """Record every dictionary that moment_matrices evaluates, with the
    number of points, as (dictionary, points) pairs."""
    seen = []
    inner = koopman.evaluate

    def spy(dictionary, x, out=None):
        seen.append((dictionary, len(x)))
        return inner(dictionary, x, out)
    monkeypatch.setattr(koopman, "evaluate", spy)
    return seen


def _assert_matches_reference(mm, psi, reference):
    """A bitwise equal to the reference pass; B bitwise too, except for a
    1-D psi, whose B is assembled from its moments instead of the product
    Psi Psi^T: those agree within rounding, 1e-13 max |B|."""
    B, A = reference
    np.testing.assert_array_equal(mm.A, A)
    if psi.dimension > 1:
        np.testing.assert_array_equal(mm.B, B)
    else:
        np.testing.assert_allclose(mm.B, B, rtol=0,
                                   atol=1e-13 * np.max(np.abs(B)))


@pytest.mark.parametrize("n", [1, 7, 8, 50])
def test_trajectory_moments_match_reference(monkeypatch, n):
    # chunks of 7 rows: n=7 is an exact multiple, n=8 leaves a 1-row last
    # chunk and n=1 is a single row; a 1-D chunk's products are summed over
    # slices of 3, 3 and 1 columns
    monkeypatch.setattr(koopman, "CHUNK_ROWS", 7)
    monkeypatch.setattr(koopman, "MOMENT_SLICE", 3)
    for s, phi, psi in _trajectory_cases(n):
        variants = [s]
        if n > 1:
            variants += [_edited(s, _ulp_up(n // 2)),
                         _edited(s, _signed_zero(n // 2))]
        for data in variants:
            _assert_matches_reference(moment_matrices(data, phi, psi), psi,
                                      _reference_moments(data, phi, psi))


def test_moments_over_several_eval_blocks_match_reference(monkeypatch):
    # chunks of 11 rows evaluated in blocks of 3 points: each chunk's values
    # fill a view of the pass's buffer block by block, the last chunk (6
    # rows) a narrower view; a 1-D psi streams chunks of one block, 3 rows,
    # whose products are summed over slices of 2 and 1 columns.  The
    # reference evaluates at the default block
    monkeypatch.setattr(koopman, "CHUNK_ROWS", 11)
    monkeypatch.setattr(koopman, "MOMENT_SLICE", 2)
    cases = []
    for s, phi, psi in _trajectory_cases(50):
        for data in (s, _edited(s, _ulp_up(20))):
            cases.append((data, phi, psi,
                          _reference_moments(data, phi, psi, block=3)))
    monkeypatch.setattr(_kernels, "EVAL_BLOCK", 3)
    for data, phi, psi, reference in cases:
        _assert_matches_reference(moment_matrices(data, phi, psi), psi,
                                  reference)


@pytest.mark.parametrize("family", [CHEBYSHEV, MONOMIAL])
def test_one_dimensional_gram_comes_from_its_moments(monkeypatch, family):
    # a 1-D psi with exponents 0..D: the fits' B is assembled from the
    # 2D + 1 moments, so entries made of the same moments are the same bits,
    # which the product Psi Psi^T does not give; trajectory, iid and
    # generator data all take that route
    monkeypatch.setattr(koopman, "CHUNK_ROWS", 700)
    built = []
    inner = koopman._gram_from_moments

    def spy(P, T):
        built.append(inner(P, T))
        return built[-1]
    monkeypatch.setattr(koopman, "_gram_from_moments", spy)
    box = ((0.0, 1.0),) if family == CHEBYSHEV else None
    phi, psi = (total_degree_dictionary(family, 1, deg, box) for deg in (4, 8))
    D = psi.max_degree
    rng = np.random.default_rng(11)
    n = 2000
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    iid = SnapshotSet(t=1.0, X=X, Y=rng.uniform(0.0, 1.0, size=(n, 1)),
                      tau=1.0, kind=KOOPMAN)
    cases = [
        (fit_edmd, sample_snapshots(SystemSpec(STOCHASTIC_LOGISTIC),
                                    "trajectory", 1.0, n, rng=make_rng(1))),
        (fit_edmd, iid),
        (fit_gedmd, SnapshotSet(t=1.0, X=X,
                                Y=rng.standard_normal((n, phi.size)),
                                tau=1.0, kind=GENERATOR)),
    ]
    i, j = np.indices((psi.size, psi.size))
    for fit, s in cases:
        built.clear()
        fit(s, phi, psi)
        [B] = built
        if family == MONOMIAL:
            # Hankel: B[i, j] = mu_{i+j}, one value per antidiagonal
            bits = B.view(np.int64)
            for k in range(2 * D + 1):
                assert np.all(bits[i + j == k]
                              == bits[k - min(k, D), min(k, D)])
        else:
            # B[i, j] = (mu_{i+j} + mu_{|i-j|}) / 2 with B[0, k] = mu_k
            low = i + j <= D
            np.testing.assert_array_equal(
                B[low], (B[0, (i + j)[low]] + B[0, abs(i - j)[low]]) / 2)
        Psi = evaluate(psi, s.X).astype(np.longdouble)
        B_ld = Psi @ Psi.T / s.n
        assert np.max(np.abs(B - B_ld)) <= 1e-14 * np.max(np.abs(B_ld))
    # a gap in the exponents: the full product, bit for bit
    gaps = Dictionary(family, 1, ((0,), (1,), (3,), (4,)), box)
    phi_gaps = Dictionary(family, 1, ((0,), (1,)), box)
    built.clear()
    B, A = _reference_moments(iid, phi_gaps, gaps)
    mm = moment_matrices(iid, phi_gaps, gaps)
    assert not built
    np.testing.assert_array_equal(mm.B, B)
    np.testing.assert_array_equal(mm.A, A)


def test_trajectory_moments_never_evaluate_phi(monkeypatch):
    monkeypatch.setattr(koopman, "CHUNK_ROWS", 7)
    seen = _evaluated(monkeypatch)
    for s, phi, psi in _trajectory_cases(30):
        seen.clear()
        fit_edmd(s, phi, psi)
        assert seen and all(d == psi for d, _ in seen)
        # each state once, x_n being y_{n-1}: a chunk's first state is the
        # last one of the chunk before
        assert sum(points for _, points in seen) == s.n + 1
        # off the trajectory by 1 ulp or by the sign of a zero: phi is
        # evaluated at y again
        for edit in (_ulp_up(3), _signed_zero(3)):
            seen.clear()
            fit_edmd(_edited(s, edit), phi, psi)
            assert phi in (d for d, _ in seen)


def test_one_dimensional_pass_streams_one_eval_block(monkeypatch):
    # a 1-D psi on the moment route streams chunks of one evaluation block,
    # so its pass buffers are EVAL_BLOCK + 1 columns wide; a d >= 2 psi keeps
    # the CHUNK_ROWS chunks that group its Kahan sums
    monkeypatch.setattr(koopman, "CHUNK_ROWS", 100)
    monkeypatch.setattr(_kernels, "EVAL_BLOCK", 16)
    widths = []
    inner = koopman._pass_buffer

    def spy(rows, cols):
        widths.append(cols)
        return inner(rows, cols)
    monkeypatch.setattr(koopman, "_pass_buffer", spy)
    for s, phi, psi in _trajectory_cases(300):
        for data in (s, _edited(s, _ulp_up(5))):
            widths.clear()
            moment_matrices(data, phi, psi)
            if psi.dimension == 1:
                assert widths and max(widths) <= 16 + 1
            else:
                assert widths and set(widths) == {100 + 1}


@pytest.mark.parametrize("family", [CHEBYSHEV, MONOMIAL])
@pytest.mark.parametrize("extra", [-6, -1, 0, 1, 12])
def test_one_dimensional_moments_over_block_chunks(monkeypatch, family,
                                                   extra):
    # chunks of one 8-point block, their products summed over slices of 3
    # columns, for n = 8 + extra: 2 rows (one short slice), one short of a
    # block, one block, one block and a row, and two blocks, a slice and a
    # row.  B and A^tau (C on generator data) of trajectory, iid and
    # generator data are the long-double sums of the same values within
    # 1e-14 of their largest entry
    block = 8
    monkeypatch.setattr(_kernels, "EVAL_BLOCK", block)
    monkeypatch.setattr(koopman, "MOMENT_SLICE", 3)
    n = block + extra
    box = ((0.0, 1.0),) if family == CHEBYSHEV else None
    phi, psi = (total_degree_dictionary(family, 1, deg, box) for deg in (3, 6))
    rng = np.random.default_rng(5)
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    cases = [
        sample_snapshots(SystemSpec(STOCHASTIC_LOGISTIC), "trajectory", 1.0,
                         n, rng=make_rng(2)),
        SnapshotSet(t=1.0, X=X, Y=rng.uniform(0.0, 1.0, size=(n, 1)),
                    tau=1.0, kind=KOOPMAN),
        SnapshotSet(t=1.0, X=X, Y=rng.standard_normal((n, phi.size)),
                    tau=1.0, kind=GENERATOR),
    ]
    for s in cases:
        mm = moment_matrices(s, phi, psi)
        koop = s.kind == KOOPMAN
        Psi = evaluate(psi, s.X).astype(np.longdouble)
        Phi = (evaluate(phi, s.Y) if koop else s.Y.T).astype(np.longdouble)
        for got, ref in ((mm.B, Psi @ Psi.T / s.n),
                         (mm.A, Phi @ Psi.T / s.n)):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_sampled_trajectory_is_detected_without_a_compare(monkeypatch):
    # sample_snapshots makes X and Y views of one states array, Y one row
    # on: that pair is a trajectory with no data-sized compare.  A pickled
    # copy holds X and Y apart and is found by comparing them; views two
    # rows apart are no trajectory
    n = 500
    box = ((0.0, 1.0),)
    phi, psi = (total_degree_dictionary(CHEBYSHEV, 1, deg, box)
                for deg in (2, 4))
    s = sample_snapshots(SystemSpec(STOCHASTIC_LOGISTIC), "trajectory", 1.0,
                         n, rng=make_rng(4))
    compared = []
    array_equal = np.array_equal

    def spy(a, b, *args, **kwargs):
        compared.append(np.size(a))
        return array_equal(a, b, *args, **kwargs)
    monkeypatch.setattr(np, "array_equal", spy)
    seen = _evaluated(monkeypatch)

    def moments(data):
        seen.clear()
        compared.clear()
        mm = moment_matrices(data, phi, psi)
        return mm, {d for d, _ in seen}

    view, evaluated = moments(s)
    assert evaluated == {psi} and max(compared) < n - 1
    copy, evaluated = moments(pickle.loads(pickle.dumps(s)))
    assert evaluated == {psi} and n - 1 in compared
    for name in ("B", "A"):
        np.testing.assert_array_equal(getattr(copy, name), getattr(view, name))
    states = np.random.default_rng(6).uniform(0.0, 1.0, n + 2)
    _, evaluated = moments(SnapshotSet(t=1.0, X=states[:n, None],
                                       Y=states[2:, None], tau=1.0,
                                       kind=KOOPMAN))
    assert phi in evaluated


def test_circle_moment_wallis_vs_quadrature():
    thetas = np.linspace(0.0, 2 * np.pi, 20001)[:-1]
    for a in range(0, 7):
        for b in range(0, 7):
            quad = float(np.mean(np.cos(thetas) ** a * np.sin(thetas) ** b))
            assert circle_moment(a, b) == pytest.approx(quad, abs=1e-10)


def test_analytic_circle_moments_match_equispaced_data():
    # n equispaced angles integrate trigonometric polynomials exactly
    spec = SystemSpec(CIRCULAR_ORBIT)
    psi = total_degree_dictionary(MONOMIAL, 2, 2)
    n = 100
    s = sample_snapshots(spec, "limit_cycle", 2 * np.pi / n, n)
    B_emp = moment_matrices(s, psi, psi).B
    B_exact = analytic_circle_moments(psi).B
    np.testing.assert_allclose(B_emp, B_exact, atol=1e-10)


def test_pinv_of_empirical_moments_converges():
    # pinv(B_n) approaches pinv(B) when the empirical measure converges and
    # the rank stabilizes
    spec = SystemSpec(CIRCULAR_ORBIT)
    psi = total_degree_dictionary(MONOMIAL, 2, 2)
    B_exact = analytic_circle_moments(psi).B
    n = 1_000_000
    s = sample_snapshots(spec, "limit_cycle", 2 * np.pi / n, n)
    B_n = moment_matrices(s, psi, psi).B
    assert np.linalg.norm(pinv(B_n) - pinv(B_exact)) < 1e-3


def test_divergence_indicator_vanishes_on_data_support():
    # the indicator polynomial is zero wherever psi(x) lies in range(B)
    spec = SystemSpec(CIRCULAR_ORBIT)
    phi = total_degree_dictionary(MONOMIAL, 2, 2)
    psi = total_degree_dictionary(MONOMIAL, 2, 4)
    n = 64
    s = sample_snapshots(spec, "limit_cycle", 2 * np.pi / n, n)
    mm = moment_matrices(s, phi, psi)
    theta = inclusion_matrix(phi, psi)
    p = Poly(phi, np.ones(phi.size))
    ind = divergence_indicator(mm.B, theta, p, psi)
    np.testing.assert_allclose(ind(s.X), 0.0, atol=1e-8)
    # off the circle the indicator is nonzero
    assert abs(ind(np.array([0.5, 0.0]))) > 1e-3


# -- convergence ---------------------------------------------------------------

def test_loglog_slope_exact_power_law():
    ns = np.array([1e2, 1e3, 1e4])
    dists = 3.0 * ns ** -0.5
    assert loglog_slope(ns, dists) == pytest.approx(-0.5, abs=1e-12)


def test_convergence_study_shapes_and_decay():
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    from koopsos.polybasis import CHEBYSHEV
    box = ((0.0, 1.0),)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 2, box)
    psi = total_degree_dictionary(CHEBYSHEV, 1, 4, box)

    def sample(n, seed):
        return sample_snapshots(spec, "trajectory", 1.0, n,
                                rng=make_rng(seed))

    ns, dists, table = convergence_study(sample, phi, psi,
                                         [500, 5000, 50000], [0, 1], 200000)
    assert table.shape == (2, 3)
    assert dists[0] > dists[-1]

"""Tests for the interior-point conic solver and KKT verification."""

import math
import warnings

import numpy as np
import pytest

from koopsos.sdp import (FREE, MAXITER, NONNEG, PSD, SdpProblem,
                         SdpSolution, _Cone, _Scaling, block_layout, smat,
                         solve, svec, verify_kkt)


def test_svec_round_trip_and_inner_product():
    rng = np.random.default_rng(0)
    for s in (1, 2, 5):
        A = rng.standard_normal((s, s))
        A = A + A.T
        B = rng.standard_normal((s, s))
        B = B + B.T
        np.testing.assert_allclose(smat(svec(A)), A, atol=1e-14)
        assert svec(A) @ svec(B) == pytest.approx(np.sum(A * B), abs=1e-10)


def _svec_loop(M):
    """Reference svec: lower triangle column by column, off-diagonals
    times sqrt(2)."""
    s = M.shape[0]
    out = np.empty(s * (s + 1) // 2)
    k = 0
    for j in range(s):
        out[k] = M[j, j]
        k += 1
        for i in range(j + 1, s):
            out[k] = M[i, j] * math.sqrt(2.0)
            k += 1
    return out


def _smat_loop(v):
    """Reference inverse of _svec_loop."""
    s = int(round((math.sqrt(8 * v.shape[0] + 1) - 1) / 2))
    M = np.empty((s, s))
    k = 0
    for j in range(s):
        M[j, j] = v[k]
        k += 1
        for i in range(j + 1, s):
            M[i, j] = M[j, i] = v[k] / math.sqrt(2.0)
            k += 1
    return M


def test_svec_smat_take_stacks():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((6, 5, 5))
    stack = stack + stack.transpose(0, 2, 1)
    V = svec(stack)
    assert V.shape == (6, 15)
    np.testing.assert_array_equal(V, [_svec_loop(M) for M in stack])
    S = smat(V)
    assert S.shape == (6, 5, 5)
    np.testing.assert_array_equal(S, [_smat_loop(v) for v in V])
    for M, v, back in zip(stack, V, S):
        np.testing.assert_array_equal(svec(M), v)
        np.testing.assert_array_equal(smat(svec(M)), back)
        np.testing.assert_allclose(back, M, atol=1e-14)


def _interior(rng, blocks):
    """A random point strictly inside the cone of a (kind, size) list."""
    parts = []
    for kind, size in blocks:
        if kind == NONNEG:
            parts.append(rng.uniform(0.5, 2.0, size))
        else:
            Q = rng.standard_normal((size, size))
            parts.append(svec(Q @ Q.T + 0.5 * np.eye(size)))
    return np.concatenate(parts)


def test_apply_w2_on_rows_matches_row_by_row():
    rng = np.random.default_rng(4)
    blocks = [(PSD, 3), (NONNEG, 2), (PSD, 4)]
    cone = _Cone(blocks)
    scaling = _Scaling(cone, _interior(rng, blocks), _interior(rng, blocks))
    U = rng.standard_normal((7, cone.dim))
    np.testing.assert_array_equal(scaling.apply_w2(U),
                                  [scaling.apply_w2(u) for u in U])


class _ScalingLoop:
    """Reference NT scaling: one (kind, slice, data) entry per block, and
    every operation a loop over the blocks that tests each block's kind."""

    def __init__(self, blocks, x, s):
        self.dim = x.shape[0]
        self.data = []
        for kind, size, sl in block_layout(blocks):
            if kind == NONNEG:
                w2 = np.sqrt(x[sl] / s[sl])
                lam = np.sqrt(x[sl] * s[sl])
                self.data.append((kind, sl, (w2, lam)))
            else:
                Lx = np.linalg.cholesky(smat(x[sl]))
                Ls = np.linalg.cholesky(smat(s[sl]))
                U, sig, Vt = np.linalg.svd(Ls.T @ Lx)
                R = Lx @ Vt.T / np.sqrt(sig)
                self.data.append((kind, sl, (R, np.linalg.inv(R), sig,
                                             R @ R.T)))

    def apply_w2(self, u):
        out = np.empty_like(u)
        for kind, sl, dat in self.data:
            if kind == NONNEG:
                w2, _ = dat
                out[..., sl] = w2 * w2 * u[..., sl]
            else:
                T = dat[3]
                out[..., sl] = svec(T @ smat(u[..., sl]) @ T)
        return out

    def w_comp_target(self, targets):
        out = np.empty(self.dim)
        for (kind, sl, dat), D in zip(self.data, targets):
            if kind == NONNEG:
                w2, lam = dat
                out[sl] = w2 * D / lam
            else:
                R, _, sig, _ = dat
                M = 2.0 * D / (sig[:, None] + sig[None, :])
                out[sl] = svec(R @ M @ R.T)
        return out

    def scaled_dirs(self, dx, ds):
        out = []
        for kind, sl, dat in self.data:
            if kind == NONNEG:
                w2, _ = dat
                out.append((dx[sl] / w2, w2 * ds[sl]))
            else:
                R, Rinv, _, _ = dat
                out.append((Rinv @ smat(dx[sl]) @ Rinv.T,
                            R.T @ smat(ds[sl]) @ R))
        return out

    def max_step(self, dirs):
        alpha = np.inf
        for (kind, _, dat), (dxt, dst) in zip(self.data, dirs):
            if not (np.isfinite(dxt).all() and np.isfinite(dst).all()):
                return 0.0
            if kind == NONNEG:
                _, lam = dat
                for dv in (dxt, dst):
                    neg = dv < 0
                    if np.any(neg):
                        alpha = min(alpha, float(np.min(-lam[neg] / dv[neg])))
            else:
                _, _, sig, _ = dat
                scale = 1.0 / np.sqrt(sig)
                for dv in (dxt, dst):
                    m = float(np.linalg.eigvalsh(
                        scale[:, None] * dv * scale[None, :])[0])
                    if m < 0:
                        alpha = min(alpha, -1.0 / m)
        return alpha

    def min_eig(self, v):
        worst = np.inf
        for kind, sl, _ in self.data:
            if kind == NONNEG:
                worst = min(worst, float(np.min(v[sl])))
            else:
                worst = min(worst, float(np.linalg.eigvalsh(smat(v[sl]))[0]))
        return worst


def _by_kind(blocks, parts):
    """A per-block list as the cone's (orthant, [per PSD block]) pair."""
    kinds = [kind for kind, _ in blocks]
    return (np.concatenate([p for k, p in zip(kinds, parts) if k == NONNEG]),
            [p for k, p in zip(kinds, parts) if k == PSD])


def test_scaling_matches_the_per_block_reference():
    rng = np.random.default_rng(11)
    blocks = [(NONNEG, 2), (PSD, 3), (NONNEG, 1), (PSD, 4)]
    cone = _Cone(blocks)
    x, s = _interior(rng, blocks), _interior(rng, blocks)
    scaling, ref = _Scaling(cone, x, s), _ScalingLoop(blocks, x, s)
    U = rng.standard_normal((5, cone.dim))
    for u in (U, U[0]):
        np.testing.assert_array_equal(scaling.apply_w2(u), ref.apply_w2(u))
    for trial in range(20):
        targets = []
        for kind, size in blocks:
            D = rng.standard_normal(size if kind == NONNEG else (size, size))
            targets.append(D if kind == NONNEG else D + D.T)
        np.testing.assert_array_equal(
            scaling.w_comp_target(_by_kind(blocks, targets)),
            ref.w_comp_target(targets))
        # longer directions leave the cone sooner, so that the step bound
        # comes from the orthant in some trials and a PSD block in others
        dx, ds = rng.standard_normal((2, cone.dim)) * (1 + trial)
        if trial == 0:
            dx[2] = np.inf
        (dxn, dsn), blocks_got = got = scaling.scaled_dirs(dx, ds)
        want = ref.scaled_dirs(dx, ds)
        want_x, want_s = (_by_kind(blocks, [d[i] for d in want])
                          for i in (0, 1))
        np.testing.assert_array_equal(dxn, want_x[0])
        np.testing.assert_array_equal(dsn, want_s[0])
        for (gx, gs), wx, ws in zip(blocks_got, want_x[1], want_s[1]):
            np.testing.assert_array_equal(gx, wx)
            np.testing.assert_array_equal(gs, ws)
        assert scaling.max_step(got) == ref.max_step(want)
        if trial:
            for v in (x, s, dx, ds):
                assert cone.min_eig(v) == ref.min_eig(v)


def _random_feasible(rng, blocks, m):
    """Strictly feasible primal-dual pair by construction."""
    dim = 0
    x0 = []
    s0 = []
    for kind, size in blocks:
        if kind == NONNEG:
            x0.append(rng.uniform(0.5, 2.0, size))
            s0.append(rng.uniform(0.5, 2.0, size))
            dim += size
        else:
            for store in (x0, s0):
                Q = rng.standard_normal((size, size))
                store.append(svec(Q @ Q.T + 0.5 * np.eye(size)))
            dim += size * (size + 1) // 2
    x0 = np.concatenate(x0)
    s0 = np.concatenate(s0)
    A = rng.standard_normal((m, dim))
    y0 = rng.standard_normal(m)
    return SdpProblem(blocks, A.T @ y0 + s0, A, A @ x0)


def test_random_feasible_suite():
    rng = np.random.default_rng(2024)
    choices = [
        [(PSD, 3)],
        [(PSD, 5), (NONNEG, 4)],
        [(PSD, 10)],
        [(PSD, 20)],
        [(NONNEG, 8), (PSD, 7), (PSD, 2)],
    ]
    for trial in range(50):
        blocks = choices[trial % len(choices)]
        m = int(rng.integers(2, 8))
        prob = _random_feasible(rng, blocks, m)
        sol = solve(prob, tol=1e-8)
        assert sol.status == "Optimal", f"trial {trial}: {sol.status}"
        primal, cone, gap = verify_kkt(prob, sol)
        assert gap <= 1e-8, f"trial {trial}: gap {gap}"
        assert primal <= 1e-8 and cone <= 1e-7


def test_constructed_infeasible_suite():
    # force a negative value on a coordinate that must be nonnegative
    rng = np.random.default_rng(7)
    for trial in range(10):
        size = int(rng.integers(2, 6))
        dim = size * (size + 1) // 2
        # first constraint pins a diagonal entry of the PSD block to -1
        E = np.outer(_unit(size, trial % size), _unit(size, trial % size))
        rows = [svec(E)]
        b = [-1.0]
        for _ in range(int(rng.integers(0, 3))):
            M = rng.standard_normal((size, size))
            rows.append(svec(M + M.T))
            b.append(float(rng.standard_normal()))
        prob = SdpProblem([(PSD, size)], rng.standard_normal(dim),
                          np.array(rows), np.array(b))
        sol = solve(prob, tol=1e-9)
        assert sol.status == "Infeasible", f"trial {trial}: {sol.status}"
        assert sol.reason == "infeasible certificate"


def _unit(size, j):
    u = np.zeros(size)
    u[j] = 1.0
    return u


def test_simple_lp_optimum():
    # minimize x1 + 2 x2 subject to x1 + x2 = 1, x >= 0  ->  x = (1, 0)
    prob = SdpProblem([(NONNEG, 2)], np.array([1.0, 2.0]),
                      np.array([[1.0, 1.0]]), np.array([1.0]))
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-7)
    np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-6)


def test_simple_sdp_optimum():
    # minimize tr(X) subject to X11 = 1, X PSD  ->  tr(X) = 1
    I2 = svec(np.eye(2))
    E11 = svec(np.diag([1.0, 0.0]))
    prob = SdpProblem([(PSD, 2)], I2, E11[None, :], np.array([1.0]))
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-7)


def test_unbounded_detection():
    # minimize -x1 with only x1 - x2 = 0: ray (t, t) drives objective down
    prob = SdpProblem([(NONNEG, 2)], np.array([-1.0, 0.0]),
                      np.array([[1.0, -1.0]]), np.array([0.0]))
    sol = solve(prob)
    assert sol.status == "Unbounded"
    assert sol.reason == "unbounded certificate"


def test_free_variable_elimination():
    # minimize x_free^2-like: free var fixed by equality, cone part solves
    prob = SdpProblem([(FREE, 1), (NONNEG, 2)], np.array([1.0, 1.0, 1.0]),
                      np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                      np.array([3.0, 1.0]))
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.reason == "optimal"
    assert sol.z[0] == pytest.approx(3.0, abs=1e-7)
    assert sol.objective == pytest.approx(4.0, abs=1e-7)


def test_inconsistent_free_rows_infeasible():
    prob = SdpProblem([(FREE, 1)], np.array([0.0]),
                      np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
    sol = solve(prob)
    assert sol.status == "Infeasible"
    assert sol.reason == "inconsistent equalities"


def test_free_unbounded_reason():
    # the free column is absent from every row, so -x drives c.z down
    prob = SdpProblem([(FREE, 1), (NONNEG, 1)], np.array([-1.0, 0.0]),
                      np.array([[0.0, 1.0]]), np.array([1.0]))
    sol = solve(prob)
    assert sol.status == "Unbounded"
    assert sol.reason == "free unbounded"


def test_weak_duality_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(10):
        prob = _random_feasible(rng, [(PSD, 4), (NONNEG, 3)], 4)
        sol = solve(prob, tol=1e-9)
        assert sol.status == "Optimal"
        # b^T y <= c^T x for any feasible pair; at optimum they coincide
        assert prob.b @ sol.y <= prob.c @ sol.z + 1e-7


def test_block_order_permutation_equivalence():
    rng = np.random.default_rng(11)
    prob = _random_feasible(rng, [(NONNEG, 3), (PSD, 3)], 3)
    n1, dpsd = 3, 6
    # swap the two blocks, permuting columns accordingly
    perm = np.concatenate([np.arange(n1, n1 + dpsd), np.arange(n1)])
    prob2 = SdpProblem([(PSD, 3), (NONNEG, 3)], prob.c[perm],
                       prob.A[:, perm], prob.b)
    s1 = solve(prob, tol=1e-9)
    s2 = solve(prob2, tol=1e-9)
    assert s1.status == s2.status == "Optimal"
    assert s1.objective == pytest.approx(s2.objective, abs=1e-6)


def test_rejects_bad_data():
    with pytest.raises(ValueError):
        SdpProblem([(NONNEG, 2)], np.array([1.0]), np.zeros((1, 2)),
                   np.array([0.0]))
    with pytest.raises(ValueError):
        SdpProblem([("cone", 2)], np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        SdpProblem([(NONNEG, 2)], np.array([np.nan, 0.0]), np.zeros((0, 2)),
                   np.zeros(0))


@pytest.mark.parametrize("block, dim", [
    ((PSD, 2.7), 3), ((NONNEG, True), 1), ((PSD, 0), 0),
], ids=["non-integral", "bool", "zero"])
def test_rejects_a_bad_block_size(block, dim):
    # int(2.7) would silently take a 3-entry c as one PSD block of size 2
    with pytest.raises(ValueError, match="bad block"):
        SdpProblem([block], np.zeros(dim), np.zeros((0, dim)), np.zeros(0))


def test_never_optimal_without_meeting_tolerance():
    rng = np.random.default_rng(21)
    prob = _random_feasible(rng, [(PSD, 6)], 5)
    sol = solve(prob, tol=1e-9, max_iter=3)
    if sol.status == "Optimal":
        assert sol.reason == "optimal"
        assert max(verify_kkt(prob, sol)) <= 1e-8
    else:
        assert sol.reason in ("iteration cap", "kkt rejected")


def test_iteration_cap_reason():
    rng = np.random.default_rng(21)
    prob = _random_feasible(rng, [(PSD, 6)], 5)
    sol = solve(prob, max_iter=1)
    assert (sol.status, sol.reason, sol.iterations) == (
        "MaxIter", "iteration cap", 1)
    # the point of the capped iteration is still returned
    assert sol.z is not None and sol.y is not None


@pytest.mark.parametrize("options", [
    {"tol": -1.0}, {"tol": math.nan}, {"tol": 1.0}, {"max_iter": 0},
    {"max_iter": 10.5}, {"max_iter": True}, {"tol": "1e-8"}, {"tol": None},
], ids=["tol-negative", "tol-nan", "tol-one", "max_iter-zero",
        "max_iter-fraction", "max_iter-bool", "tol-string", "tol-none"])
def test_rejects_meaningless_options(options):
    # tol -1 would certify unboundedness, tol 1 accept a point far from the
    # optimum, max_iter 0 report a cap without one iteration
    prob = _random_feasible(np.random.default_rng(21), [(PSD, 6)], 5)
    with pytest.raises(ValueError, match=next(iter(options))):
        solve(prob, **options)


@pytest.mark.parametrize("blocks, c, A, b, z_opt", [
    ([(NONNEG, 2)], [1.0, 2.0], np.zeros((0, 2)), [], [0.0, 0.0]),
    ([(PSD, 2)], svec(np.eye(2)), np.zeros((0, 3)), [], [0.0, 0.0, 0.0]),
    # the free column absorbs the only row, leaving no conic equality
    ([(FREE, 1), (NONNEG, 1)], [0.0, 1.0], [[1.0, 1.0]], [1.0], [1.0, 0.0]),
    # no conic block at all: the least-norm free point is returned
    ([(FREE, 2)], [0.0, 0.0], [[1.0, 1.0]], [1.0], [0.5, 0.5]),
], ids=["nonneg", "psd", "free-eliminated", "free-only"])
def test_no_equality_rows_after_reduction(blocks, c, A, b, z_opt):
    prob = SdpProblem(blocks, np.array(c), np.array(A), np.array(b))
    sol = solve(prob)
    assert sol.status == "Optimal"
    np.testing.assert_allclose(sol.z, z_opt, atol=1e-7)
    assert max(verify_kkt(prob, sol)) <= 1e-8


def test_verify_kkt_huge_point_is_unverifiable_without_warnings():
    prob = SdpProblem([(NONNEG, 2)], np.array([1.0, 2.0]),
                      np.array([[1.0, 1.0]]), np.array([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = verify_kkt(prob, np.full(2, 1e200), np.array([1e200]))
    assert res == (np.inf, np.inf, np.inf)


def test_verify_kkt_of_a_solution_without_a_point_is_unverifiable():
    # x1 + x2 = -1 with x >= 0 has no point: the solver certifies that
    prob = SdpProblem([(NONNEG, 2)], np.array([1.0, 2.0]),
                      np.array([[1.0, 1.0]]), np.array([-1.0]))
    sol = solve(prob)
    assert sol.status == "Infeasible" and sol.z is None
    capped = SdpSolution(MAXITER, None, None, None, (np.inf,) * 3, 5,
                         reason="tau collapse")
    for s in (sol, capped):
        assert verify_kkt(prob, s) == (np.inf, np.inf, np.inf)


def test_verify_kkt_of_an_array_needs_y():
    prob = SdpProblem([(NONNEG, 2)], np.array([1.0, 2.0]),
                      np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError, match="y"):
        verify_kkt(prob, np.array([1.0, 0.0]))


@pytest.mark.parametrize("delta", [1e-13, 1e-14])
def test_free_part_has_nothing_along_a_cut_direction(delta):
    # A_f = diag(1, delta): delta lies below the elimination's rank cut
    # 1e-12 * sigma_max * 2, so z[1] is a direction the cut declared null.
    # A second least-squares solve with a finer cut would invert delta and
    # turn the O(1e-14) rounding left in row 2 into an O(1e-14 / delta) z[1]
    prob = SdpProblem([(FREE, 2), (NONNEG, 2)], np.array([0.0, 0.0, 1.0, 1.0]),
                      np.array([[1.0, 0.0, 1.0, 0.0], [0.0, delta, 0.0, 1.0]]),
                      np.array([1.0, 1.0]))
    tol = 1e-8
    sol = solve(prob, tol=tol)
    assert sol.status == "Optimal"
    assert abs(sol.z[1]) <= 1e-9
    assert max(sol.kkt_residuals) <= 10 * tol

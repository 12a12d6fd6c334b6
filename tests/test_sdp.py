"""Tests for the interior-point conic solver and KKT verification."""

import math
import warnings

import numpy as np
import pytest

from koopsos.sdp import (FREE, NONNEG, PSD, SdpProblem, _Cone, _Scaling,
                         smat, solve, svec, verify_kkt)


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


def test_apply_w2_on_rows_matches_row_by_row():
    rng = np.random.default_rng(4)
    blocks = [(PSD, 3), (NONNEG, 2), (PSD, 4)]
    cone = _Cone(blocks)
    point = []
    for _ in range(2):
        parts = []
        for kind, size in blocks:
            if kind == NONNEG:
                parts.append(rng.uniform(0.5, 2.0, size))
            else:
                Q = rng.standard_normal((size, size))
                parts.append(svec(Q @ Q.T + 0.5 * np.eye(size)))
        point.append(np.concatenate(parts))
    scaling = _Scaling(cone, *point)
    U = rng.standard_normal((7, cone.dim))
    np.testing.assert_array_equal(scaling.apply_w2(U),
                                  [scaling.apply_w2(u) for u in U])


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
    assert solve(prob).status == "Unbounded"


def test_free_variable_elimination():
    # minimize x_free^2-like: free var fixed by equality, cone part solves
    prob = SdpProblem([(FREE, 1), (NONNEG, 2)], np.array([1.0, 1.0, 1.0]),
                      np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]),
                      np.array([3.0, 1.0]))
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert sol.z[0] == pytest.approx(3.0, abs=1e-7)
    assert sol.objective == pytest.approx(4.0, abs=1e-7)


def test_inconsistent_free_rows_infeasible():
    prob = SdpProblem([(FREE, 1)], np.array([0.0]),
                      np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))
    assert solve(prob).status == "Infeasible"


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


def test_json_round_trip():
    rng = np.random.default_rng(3)
    prob = _random_feasible(rng, [(PSD, 3), (NONNEG, 2)], 3)
    again = SdpProblem.from_json(prob.to_json())
    assert again.blocks == prob.blocks
    np.testing.assert_allclose(again.A, prob.A)
    np.testing.assert_allclose(again.b, prob.b)
    np.testing.assert_allclose(again.c, prob.c)


def test_rejects_bad_data():
    with pytest.raises(ValueError):
        SdpProblem([(NONNEG, 2)], np.array([1.0]), np.zeros((1, 2)),
                   np.array([0.0]))
    with pytest.raises(ValueError):
        SdpProblem([("cone", 2)], np.zeros(2), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        SdpProblem([(NONNEG, 2)], np.array([np.nan, 0.0]), np.zeros((0, 2)),
                   np.zeros(0))


def test_never_optimal_without_meeting_tolerance():
    rng = np.random.default_rng(21)
    prob = _random_feasible(rng, [(PSD, 6)], 5)
    sol = solve(prob, tol=1e-9, max_iter=3)
    if sol.status == "Optimal":
        assert max(verify_kkt(prob, sol)) <= 1e-8


@pytest.mark.parametrize("blocks, c, A, b, z_opt", [
    ([(NONNEG, 2)], [1.0, 2.0], np.zeros((0, 2)), [], [0.0, 0.0]),
    ([(PSD, 2)], svec(np.eye(2)), np.zeros((0, 3)), [], [0.0, 0.0, 0.0]),
    # the free column absorbs the only row, leaving no conic equality
    ([(FREE, 1), (NONNEG, 1)], [0.0, 1.0], [[1.0, 1.0]], [1.0], [1.0, 0.0]),
], ids=["nonneg", "psd", "free-eliminated"])
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

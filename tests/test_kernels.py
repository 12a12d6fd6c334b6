"""Tests that the trajectory and dictionary kernels match their numpy
references."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from koopsos import _kernels
from koopsos.polybasis import MONOMIAL, total_degree_dictionary


# References: the vectorized RK4 step and the logistic recurrence, written with
# numpy arrays rather than the scalar floats the kernels hold.  The kernels
# must match them bit for bit, whether numba compiles them or not.

def _reference_logistic(x0, lams):
    out = np.empty(lams.shape[0] + 1)
    out[0] = x = x0
    for i in range(lams.shape[0]):
        x = lams[i] * x * (1.0 - x)
        out[i + 1] = x
    return out


def _reference_rk4(kind, x0, tau, n_steps, mu):
    def rhs(s):
        x, y = s
        if kind == _kernels.VDP:
            return np.array([y, mu * (1.0 - x * x) * y - x])
        r = 1.0 - x * x - y * y
        return np.array([-y + x * r, x + y * r])

    out = np.empty((n_steps + 1, 2))
    out[0] = s = np.asarray(x0, dtype=float)
    for i in range(n_steps):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * tau * k1)
        k3 = rhs(s + 0.5 * tau * k2)
        k4 = rhs(s + tau * k3)
        s = s + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = s
    return out


# References: the dictionary evaluation kernels as one-shot vectorized numpy,
# a power or recurrence table of shape (max_deg + 1, n, d) multiplied into a
# block of ones.  The in-place kernels do the same floating-point operations in
# the same order, so they must match bit for bit.

def _reference_monomial(X, expo):
    n, d = X.shape
    max_deg = int(expo.max()) if expo.size else 0
    pows = np.ones((max_deg + 1, n, d))
    for k in range(1, max_deg + 1):
        pows[k] = pows[k - 1] * X
    out = np.ones((expo.shape[0], n))
    for j in range(d):
        out *= pows[expo[:, j], :, j]
    return out


def _reference_chebyshev(Z, expo):
    n, d = Z.shape
    max_deg = int(expo.max()) if expo.size else 0
    T = np.ones((max_deg + 1, n, d))
    if max_deg >= 1:
        T[1] = Z
    for k in range(2, max_deg + 1):
        T[k] = 2.0 * Z * T[k - 1] - T[k - 2]
    out = np.ones((expo.shape[0], n))
    for j in range(d):
        out *= T[expo[:, j], :, j]
    return out


def _eval_cases():
    """(points, exponents) pairs: d in {1, 2, 3}, rows out of order and
    repeated, max_deg 0, 1, 2 and 9, a single point, fewer points than one
    block and two blocks and a part; at d = 1 also the exponents 0..max_deg in
    order, whose recurrence runs in the output."""
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        for max_deg in (0, 1, 2, 9):
            expo = rng.integers(0, max_deg + 1, size=(12, d))
            expo[-1] = expo[0]          # a repeated row
            expo[0, 0] = max_deg        # the top degree is always present
            in_order = np.arange(max_deg + 1)[:, None]
            for n in (1, 257, 2 * _kernels.EVAL_BLOCK + 3):
                yield rng.uniform(-1.0, 1.0, size=(n, d)), expo
                if d == 1:
                    yield rng.uniform(-1.0, 1.0, size=(n, d)), in_order


def _check_against_reference(kernel, reference):
    for X, expo in _eval_cases():
        want = reference(X, expo)
        got = kernel(X, expo)
        np.testing.assert_array_equal(got, want)
        assert got.shape == (expo.shape[0], X.shape[0])
        assert got.flags.c_contiguous
        assert not np.shares_memory(got, X)
        # into the first n columns of a wider buffer, as in the last chunk
        # of a moment pass: nothing outside them is written
        n = X.shape[0]
        buf = np.full((expo.shape[0], n + 5), np.pi)
        got = kernel(X, expo, buf[:, :n])
        assert np.shares_memory(got, buf) and got.shape == want.shape
        np.testing.assert_array_equal(buf[:, :n], want)
        assert np.all(buf[:, n:] == np.pi)


def test_monomial_eval_matches_reference():
    _check_against_reference(_kernels.monomial_eval, _reference_monomial)


def test_chebyshev_eval_matches_reference():
    _check_against_reference(_kernels.chebyshev_eval, _reference_chebyshev)


@pytest.mark.parametrize("kernel, reference",
                         [(_kernels.monomial_eval, _reference_monomial),
                          (_kernels.chebyshev_eval, _reference_chebyshev)],
                         ids=["monomial", "chebyshev"])
def test_product_kernel_allocates_only_output_and_table(kernel, reference,
                                                         monkeypatch):
    # the full grlex total-degree-12 dictionary in d = 2 (91 rows), the psi of
    # the largest Van der Pol fit, on four blocks of points: the traced peak
    # may hold the output and one block's power table, but no second
    # (n_basis, n) array and no table over all n points
    max_deg, n, block = 12, 4096, 1024
    monkeypatch.setattr(_kernels, "EVAL_BLOCK", block)
    dictionary = total_degree_dictionary(MONOMIAL, 2, max_deg)
    expo = np.array(dictionary.indices, dtype=np.int64)
    X = np.random.default_rng(5).uniform(-1.0, 1.0, size=(n, 2))
    tracemalloc.start()
    try:
        got = kernel(X, expo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, reference(X, expo))
    assert got.shape == (91, n)
    table_bytes = (max_deg + 1) * 2 * block * X.itemsize
    assert peak <= 1.1 * (got.nbytes + table_bytes)


def test_logistic_trajectory_matches_reference():
    lams = np.random.default_rng(0).uniform(0.0, 4.0, 500)
    np.testing.assert_array_equal(_kernels.logistic_trajectory(0.51, lams),
                                  _reference_logistic(0.51, lams))


def test_logistic_trajectory_takes_any_float_array():
    # a strided view and a float32 array are read as their float64 values
    lams = np.random.default_rng(1).uniform(0.0, 4.0, 1000)
    strided = lams[::3]
    assert not strided.flags.c_contiguous
    np.testing.assert_array_equal(
        _kernels.logistic_trajectory(0.51, strided),
        _reference_logistic(0.51, np.ascontiguousarray(strided)))
    single = lams.astype(np.float32)
    np.testing.assert_array_equal(
        _kernels.logistic_trajectory(0.51, single),
        _reference_logistic(0.51, single.astype(np.float64)))


def test_logistic_trajectory_fills_a_given_slice():
    lams = np.random.default_rng(2).uniform(0.0, 4.0, 300)
    states = np.full(400, -1.0)
    out = _kernels.logistic_trajectory(0.51, lams, states[50:351])
    assert np.shares_memory(out, states)
    np.testing.assert_array_equal(out, _reference_logistic(0.51, lams))
    assert np.all(states[:50] == -1.0) and np.all(states[351:] == -1.0)
    with pytest.raises(ValueError, match="out must be"):
        _kernels.logistic_trajectory(0.51, lams, states[:300])


def test_trajectories_of_no_steps_hold_the_start():
    out = _kernels.logistic_trajectory(0.51, np.empty(0))
    np.testing.assert_array_equal(out, [0.51])
    assert out.dtype == np.float64
    for kind in (_kernels.VDP, _kernels.CIRCLE):
        out = _kernels.rk4_trajectory(kind, [0.1, 0.2], 1e-3, 0)
        np.testing.assert_array_equal(out, [[0.1, 0.2]])
        assert out.dtype == np.float64


@pytest.mark.parametrize("kind", [_kernels.VDP, _kernels.CIRCLE],
                         ids=["vdp", "circle"])
def test_rk4_trajectory_matches_reference(kind):
    x0 = np.array([0.1, 0.2])
    np.testing.assert_array_equal(_kernels.rk4_trajectory(kind, x0, 1e-3, 2000),
                                  _reference_rk4(kind, x0, 1e-3, 2000, 0.1))


def test_no_numba_env_flag_selects_numpy_path():
    code = ("import koopsos._kernels as k; "
            "assert not k.USE_NUMBA; "
            "import numpy as np; "
            "out = k.logistic_trajectory(0.5, np.array([4.0])); "
            "assert abs(out[1] - 1.0) < 1e-15")
    env = dict(os.environ, KOOPSOS_NO_NUMBA="1")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_results_identical_across_paths_end_to_end():
    # the packaged results must not depend on which path is active: each
    # trajectory's bytes are hashed, so any differing bit shows
    code = (
        "import hashlib\n"
        "from koopsos.systems import SystemSpec, sample_snapshots, make_rng\n"
        "for system, tau in (('StochasticLogistic', 1.0),"
        " ('VanDerPol', 1e-2), ('CircularOrbit', 1e-2)):\n"
        "    s = sample_snapshots(SystemSpec(system), 'trajectory', tau, 1000,"
        " rng=make_rng(5))\n"
        "    print(system, hashlib.sha256(s.X.tobytes()).hexdigest())\n")
    outs = []
    for flag in ("0", "1"):
        env = dict(os.environ, KOOPSOS_NO_NUMBA=flag)
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outs.append(res.stdout)
    assert outs[0] == outs[1]

"""Tests for snapshot containers, CSV round trips, and empirical averages."""

import copy
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from koopsos.polybasis import MONOMIAL, Poly, total_degree_dictionary
from koopsos.snapshots import (GENERATOR, KOOPMAN, SnapshotFormatError,
                               SnapshotSet, empirical_average, load_csv,
                               save_csv)
from koopsos.systems import (CIRCULAR_ORBIT, MAP_LYAP_2D, STOCHASTIC_LOGISTIC,
                             VAN_DER_POL, SystemSpec, make_rng,
                             sample_snapshots)

MIB = 1 << 20


def _example(n=7, seed=0):
    rng = np.random.default_rng(seed)
    return SnapshotSet(t=np.arange(n, dtype=float),
                       X=rng.standard_normal((n, 2)),
                       Y=rng.standard_normal((n, 2)),
                       tau=0.5, kind=KOOPMAN, metadata={"seed": seed})


def test_csv_round_trip_bit_exact(tmp_path):
    s = _example()
    path = tmp_path / "snaps.csv"
    save_csv(s, path)
    again = load_csv(path)
    assert again == s
    assert again.metadata["seed"] == 0


def test_generator_kind_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    s = SnapshotSet(t=np.zeros(5), X=rng.uniform(size=(5, 1)),
                    Y=rng.uniform(size=(5, 3)), tau=1.0, kind=GENERATOR)
    path = tmp_path / "gen.csv"
    save_csv(s, path)
    assert load_csv(path) == s


def test_sampled_round_trip(tmp_path):
    s = sample_snapshots(SystemSpec(VAN_DER_POL), "trajectory", 0.01, 40,
                         rng=make_rng(3))
    path = tmp_path / "vdp.csv"
    save_csv(s, path)
    assert load_csv(path) == s


@pytest.mark.parametrize("make", [
    lambda: _example(),
    lambda: sample_snapshots(SystemSpec(VAN_DER_POL), "trajectory", 0.01, 40,
                             rng=make_rng(3)),
], ids=["array-times", "grid-times"])
@pytest.mark.parametrize("clone", [
    lambda s: pickle.loads(pickle.dumps(s)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_copies_and_pickles(make, clone):
    s = make()
    c = clone(s)
    assert c == s and c.metadata == s.metadata
    np.testing.assert_array_equal(c.t.view(np.int64), s.t.view(np.int64))
    with pytest.raises(AttributeError):
        c.tau = 2.0


@pytest.mark.parametrize("system, mode, tau, times", [
    (STOCHASTIC_LOGISTIC, "iid_uniform_box", 1.0, lambda n: np.zeros(n)),
    (MAP_LYAP_2D, "iid_uniform_box", 1.0, lambda n: np.zeros(n)),
    (STOCHASTIC_LOGISTIC, "trajectory", 1.0,
     lambda n: np.arange(n, dtype=float)),
    (MAP_LYAP_2D, "trajectory", 1.0, lambda n: np.arange(n, dtype=float)),
    (VAN_DER_POL, "trajectory", 0.01, lambda n: 0.01 * np.arange(n)),
    (CIRCULAR_ORBIT, "trajectory", 0.03, lambda n: 0.03 * np.arange(n)),
    (CIRCULAR_ORBIT, "limit_cycle", 0.03, lambda n: 0.03 * np.arange(n)),
], ids=["logistic-iid", "map-iid", "logistic", "map", "vdp", "circle",
        "limit_cycle"])
def test_sampled_times_are_built_bit_for_bit(system, mode, tau, times):
    # sampled sets keep their time step and build t when it is read; int64
    # views make a -0.0 differ from 0.0
    n = 300
    bounds = [(0.0, 1.0)] * SystemSpec(system).dimension
    s = sample_snapshots(SystemSpec(system), mode, tau, n, rng=make_rng(1),
                         bounds=bounds)
    assert s.n == n and s.t.dtype == np.float64
    np.testing.assert_array_equal(s.t.view(np.int64), times(n).view(np.int64))


def test_sampled_logistic_holds_only_its_states():
    n = 1 << 20
    states_bytes = (n + 1) * 8
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    sample_snapshots(spec, "trajectory", 1.0, 10)  # lazy imports load here
    tracemalloc.start()
    try:
        s = sample_snapshots(spec, "trajectory", 1.0, n, rng=make_rng(0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.n == n
    assert held <= states_bytes + MIB
    assert peak < states_bytes + 3 * MIB


@pytest.mark.parametrize("edit, rows", [
    (lambda lines: lines[:-1], 6),
    (lambda lines: lines + lines[-1:], 8),
], ids=["fewer", "more"])
def test_row_count_must_match_sidecar(tmp_path, edit, rows):
    path = tmp_path / "snaps.csv"
    save_csv(_example(), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(SnapshotFormatError,
                       match=f"holds {rows} data rows, its sidecar says n = 7"):
        load_csv(path)


def test_oversized_sidecar_count_is_a_format_error(tmp_path):
    # rows are stored as they arrive, so an n far beyond the file reserves
    # nothing and the count check names both numbers
    path = tmp_path / "snaps.csv"
    save_csv(_example(), path)
    sidecar = tmp_path / "snaps.csv.json"
    meta = json.loads(sidecar.read_text())
    meta["n"] = 10 ** 12
    sidecar.write_text(json.dumps(meta))
    with pytest.raises(SnapshotFormatError,
                       match="holds 7 data rows, its sidecar says n = 10{12}"):
        load_csv(path)


def test_load_grows_through_several_doublings(tmp_path, monkeypatch):
    monkeypatch.setattr("koopsos.snapshots.CHUNK_ROWS", 2)
    s = _example(n=13)
    path = tmp_path / "snaps.csv"
    save_csv(s, path)
    assert load_csv(path) == s


def test_malformed_row_reports_line(tmp_path):
    path = tmp_path / "snaps.csv"
    save_csv(_example(), path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]  # drop a field from data row 5
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotFormatError, match="row 6"):
        load_csv(path)


def test_non_numeric_field(tmp_path):
    path = tmp_path / "snaps.csv"
    save_csv(_example(), path)
    text = path.read_text().replace("\n0,", "\nzero,", 1)
    path.write_text(text)
    with pytest.raises(SnapshotFormatError, match="row 2"):
        load_csv(path)


def test_missing_sidecar(tmp_path):
    path = tmp_path / "snaps.csv"
    save_csv(_example(), path)
    (tmp_path / "snaps.csv.json").unlink()
    with pytest.raises(SnapshotFormatError, match="sidecar"):
        load_csv(path)


@pytest.mark.parametrize("text, error", [
    (lambda meta: json.dumps({k: v for k, v in meta.items() if k != "d"}),
     "KeyError"),
    (lambda meta: json.dumps(list(meta)), "TypeError"),
    (lambda meta: "not json", "JSONDecodeError"),
    (lambda meta: json.dumps({**meta, "d": "x"}), "ValueError"),
], ids=["no-d", "list", "not-json", "d-not-int"])
def test_malformed_sidecar_is_a_format_error(tmp_path, text, error):
    path = tmp_path / "snaps.csv"
    save_csv(_example(), path)
    sidecar = tmp_path / "snaps.csv.json"
    sidecar.write_text(text(json.loads(sidecar.read_text())))
    with pytest.raises(SnapshotFormatError,
                       match=f"malformed sidecar {sidecar}: {error}"):
        load_csv(path)


def test_wrong_header(tmp_path):
    path = tmp_path / "snaps.csv"
    save_csv(_example(), path)
    text = path.read_text().replace("x_1", "u_1", 1)
    path.write_text(text)
    with pytest.raises(SnapshotFormatError, match="header"):
        load_csv(path)


def test_koopman_dim_mismatch_rejected():
    with pytest.raises(SnapshotFormatError):
        SnapshotSet(t=np.zeros(3), X=np.zeros((3, 2)), Y=np.zeros((3, 1)),
                    tau=1.0, kind=KOOPMAN)


def test_non_finite_rejected():
    X = np.zeros((3, 1))
    X[1] = np.nan
    with pytest.raises(SnapshotFormatError):
        SnapshotSet(t=np.zeros(3), X=X, Y=np.zeros((3, 1)), tau=1.0,
                    kind=KOOPMAN)


def test_empirical_average_linearity():
    s = _example(n=50, seed=2)
    dic = total_degree_dictionary(MONOMIAL, 2, 2)
    rng = np.random.default_rng(3)
    p = Poly(dic, rng.standard_normal(dic.size))
    q = Poly(dic, rng.standard_normal(dic.size))
    lhs = empirical_average(s, Poly(dic, 2.0 * p.coeffs + q.coeffs))
    rhs = 2.0 * empirical_average(s, p) + empirical_average(s, q)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_empirical_average_matches_direct():
    s = _example(n=40, seed=4)
    dic = total_degree_dictionary(MONOMIAL, 2, 2)
    g = Poly(dic, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0]))  # x1^2 + x2^2
    direct = float(np.mean(np.sum(s.X ** 2, axis=1)))
    assert empirical_average(s, g) == pytest.approx(direct, abs=1e-12)

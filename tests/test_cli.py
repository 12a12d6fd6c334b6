"""Tests for the command-line front end: exit codes, schema, determinism."""

import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from koopsos import (SystemSpec, __version__, cli, reference_values,
                     sample_snapshots)
from koopsos.auxfn import BoundResult
from koopsos.cli import (EXIT_CONFIG, EXIT_NONOPTIMAL, EXIT_OK, ConfigError,
                         config_hash, main, validate_config)
from koopsos.polybasis import CHEBYSHEV, MONOMIAL, total_degree_dictionary
from koopsos.sdp import SdpSolution
from koopsos.snapshots import empirical_average
from koopsos.sos import SemialgebraicSet, SosSolution
from koopsos.systems import (STOCHASTIC_LOGISTIC, VAN_DER_POL,
                             lie_image_degree, make_rng)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _sim_config(tmp_path, out="snaps.csv", seed=3):
    return _write(tmp_path, "sim.json", {
        "system": "StochasticLogistic",
        "sampling": {"mode": "trajectory", "n": 200, "seed": seed},
        "output": {"path": str(tmp_path / out)},
    })


def test_validate_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="'bogus'"):
        validate_config({"system": "VanDerPol", "bogus": 1})


def test_validate_rejects_unknown_nested_key():
    with pytest.raises(ConfigError, match="'solver'.*'bogus'"):
        validate_config({"system": "VanDerPol", "solver": {"bogus": 1}})


def test_validate_requires_system():
    with pytest.raises(ConfigError, match="system"):
        validate_config({"task": "upper"})


def test_config_hash_is_order_independent():
    a = {"system": "VanDerPol", "task": "upper"}
    b = {"task": "upper", "system": "VanDerPol"}
    assert config_hash(a) == config_hash(b)


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"system": "VanDerPol", "nope": 1})
    assert main(["bound", cfg]) == EXIT_CONFIG
    assert "'nope'" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path):
    assert main(["simulate", str(tmp_path / "absent.json")]) == EXIT_CONFIG


def test_unknown_system_exit_code(tmp_path):
    cfg = _write(tmp_path, "sys.json", {"system": "Lorenz"})
    assert main(["simulate", cfg]) == EXIT_CONFIG


def test_simulate_writes_csv_and_sidecar(tmp_path):
    cfg = _sim_config(tmp_path)
    assert main(["simulate", cfg]) == EXIT_OK
    assert (tmp_path / "snaps.csv").exists()
    sidecar = json.loads((tmp_path / "snaps.csv.json").read_text())
    assert sidecar["n"] == 200
    assert sidecar["metadata"]["version"] == __version__
    assert "config_hash" in sidecar["metadata"]


def test_simulate_seed_determinism(tmp_path):
    cfg = _sim_config(tmp_path)
    hashes = []
    for name in ("a.csv", "b.csv"):
        assert main(["simulate", cfg, "--out", str(tmp_path / name)]) == EXIT_OK
        hashes.append(hashlib.sha256(
            (tmp_path / name).read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = _sim_config(tmp_path)
    main(["simulate", cfg, "--out", str(tmp_path / "a.csv")])
    main(["simulate", cfg, "--out", str(tmp_path / "b.csv"), "--seed", "99"])
    assert ((tmp_path / "a.csv").read_bytes()
            != (tmp_path / "b.csv").read_bytes())


def test_bound_exact_logistic(tmp_path):
    cfg = _write(tmp_path, "bound.json", {
        "system": "StochasticLogistic",
        "task": "upper",
        "lie_source": "exact",
        "dictionaries": {"alpha": 4},
        "output": {"path": str(tmp_path / "bound.json.out")},
    })
    assert main(["bound", cfg]) == EXIT_OK
    out = json.loads((tmp_path / "bound.json.out").read_text())
    assert list(out) == ["direction", "bound", "status", "lie_source",
                         "V_coeffs", "residuals", "validity", "reason",
                         "iterations", "sdp_blocks", "sdp_rows",
                         "config_hash", "version"]
    assert out["status"] == "Optimal"
    assert out["reason"] == "optimal" and out["iterations"] > 0
    assert abs(out["bound"] - 0.3125) < 2e-4
    assert out["version"] == __version__
    assert len(out["config_hash"]) == 16
    # x - x^2 >= 0 is not even: one PSD block per Gram term, unsplit
    assert [kind for kind, _ in out["sdp_blocks"]] == ["free", "psd", "psd"]
    assert out["sdp_rows"] == 9


def test_bound_json_shows_parity_split(tmp_path):
    # exact Van der Pol is odd and |x|^2 even: the even V coefficients and
    # an even and an odd Gram block, on the 25 even rows of the 45
    cfg = _write(tmp_path, "bound.json", {
        "system": "VanDerPol", "lie_source": "exact",
        "dictionaries": {"family": "monomial", "alpha": 6},
        "output": {"path": str(tmp_path / "bound.json.out")},
    })
    assert main(["bound", cfg]) == EXIT_OK
    out = json.loads((tmp_path / "bound.json.out").read_text())
    assert out["sdp_blocks"] == [["free", 17], ["psd", 9], ["psd", 6]]
    assert out["sdp_rows"] == 25
    odd = [k for k, idx in enumerate(
        total_degree_dictionary(MONOMIAL, 2, 6).indices) if sum(idx) % 2]
    assert all(out["V_coeffs"][k] == 0.0 for k in odd)


def test_bound_monomial_box_matches_boxless(tmp_path):
    # a box does not change monomial values, so it does not change the bound
    outs = []
    for name, extra in [("plain", {}), ("boxed", {"box": [[-3, 3], [-3, 3]]})]:
        cfg = _write(tmp_path, f"{name}.json", {
            "system": "VanDerPol", "lie_source": "exact",
            "dictionaries": {"family": "monomial", "alpha": 6, **extra},
            "output": {"path": str(tmp_path / f"{name}.json.out")},
        })
        assert main(["bound", cfg]) == EXIT_OK
        outs.append(json.loads((tmp_path / f"{name}.json.out").read_text()))
    plain, boxed = outs
    assert boxed["status"] == "Optimal"
    assert boxed["bound"] == plain["bound"]
    assert boxed["sdp_blocks"] == plain["sdp_blocks"]
    assert boxed["iterations"] == plain["iterations"]


@pytest.mark.parametrize("lie_source", ["edmd", "exact"])
def test_non_finite_box_is_config_error(tmp_path, capsys, lie_source):
    cfg = _write(tmp_path, "bound.json", {
        "system": "StochasticLogistic", "lie_source": lie_source,
        "sampling": {"n": 200},
        "dictionaries": {"family": "chebyshev", "alpha": 4,
                         "box": [[0, float("inf")]]},
        "output": {"path": str(tmp_path / "bound.json.out")},
    })
    assert "Infinity" in (tmp_path / "bound.json").read_text()
    assert main(["bound", cfg]) == EXIT_CONFIG
    assert "config error: dictionaries" in capsys.readouterr().err
    assert not (tmp_path / "bound.json.out").exists()


def test_fit_writes_operators(tmp_path):
    cfg = _write(tmp_path, "fit.json", {
        "system": "StochasticLogistic",
        "sampling": {"mode": "trajectory", "n": 2000, "seed": 1},
        "dictionaries": {"alpha": 2},
        "lie_source": "edmd",
        "output": {"path": str(tmp_path / "ops.json")},
    })
    assert main(["fit", cfg]) == EXIT_OK
    ops = json.loads((tmp_path / "ops.json").read_text())
    assert ops["K"] is not None and ops["L"] is not None
    assert len(ops["K"]) == 3  # phi size for alpha=2 in 1D


def test_fit_gedmd_writes_generator(tmp_path):
    cfg = _write(tmp_path, "fit.json", {
        "system": "StochasticLogistic",
        "sampling": {"mode": "trajectory", "n": 2000, "seed": 1},
        "dictionaries": {"alpha": 2},
        "lie_source": "gedmd",
        "output": {"path": str(tmp_path / "ops.json")},
    })
    assert main(["fit", cfg]) == EXIT_OK
    ops = json.loads((tmp_path / "ops.json").read_text())
    assert ops["K"] is None and "G" not in ops
    assert len(ops["L"]) == 3


def test_fit_exact_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "fit.json", {
        "system": "StochasticLogistic",
        "lie_source": "exact",
        "output": {"path": str(tmp_path / "ops.json")},
    })
    assert main(["fit", cfg]) == EXIT_CONFIG
    assert "edmd or gedmd" in capsys.readouterr().err
    assert not (tmp_path / "ops.json").exists()


def test_lyapunov_then_verify(tmp_path, capsys):
    result = str(tmp_path / "lyap.json.out")
    cfg = _write(tmp_path, "lyap.json", {
        "system": "MapLyap2D",
        "sampling": {"mode": "iid_uniform_box", "n": 2000, "seed": 7,
                     "bounds": [[-2, 2], [-2, 2]]},
        "dictionaries": {"alpha": 4, "beta": 8},
        "lie_source": "edmd",
        "output": {"path": result},
    })
    assert main(["lyapunov", cfg]) == EXIT_OK
    payload = json.loads(Path(result).read_text())
    assert list(payload) == ["feasible", "status", "V_coeffs",
                             "epsilon_posterior", "reason", "iterations",
                             "sdp_blocks", "sdp_rows", "phi", "config_hash",
                             "version"]
    assert payload["feasible"] is True
    assert payload["reason"] == "optimal"
    # MapLyap2D is not odd: the rows of degree 4 and 8 and the l1 rows
    assert payload["sdp_rows"] == 15 + 45 + 2 * 15
    assert payload["epsilon_posterior"] >= 0.99
    vcfg = _write(tmp_path, "verify.json", {
        "system": "MapLyap2D",
        "dictionaries": {"alpha": 4, "beta": 8},
        "output": {"path": result},
    })
    assert main(["verify", vcfg]) == EXIT_OK
    # one interior-point iteration cannot reach Optimal
    vcfg = _write(tmp_path, "verify1.json", {
        "system": "MapLyap2D",
        "dictionaries": {"alpha": 4, "beta": 8},
        "solver": {"max_iter": 1},
        "output": {"path": result},
    })
    capsys.readouterr()
    assert main(["verify", vcfg]) == EXIT_NONOPTIMAL
    assert "(MaxIter: iteration cap)" in capsys.readouterr().out


@pytest.mark.parametrize("sampling, message", [
    ({"mode": "foo"}, "unknown sampling mode"),
    ({"n": 0}, "nonempty"),
    ({"tau": -1}, "tau must be positive"),
    ({"mode": "iid_uniform_box"}, "requires bounds"),
    ({"mode": "iid_uniform_box", "bounds": [[-2, 2]]}, "bounds must hold"),
    ({"mode": "iid_uniform_box", "bounds": [[-2, float("inf")], [-2, 2]]},
     "bounds must hold"),
    ({"mode": "iid_uniform_box", "bounds": [[2, -2], [-2, 2]]},
     "bounds must hold"),
    ({"mode": "iid_uniform_box", "bounds": {"lo": -2, "hi": 2}},
     "bounds must hold"),
    ({"mode": "iid_uniform_box", "bounds": [[-2, 2], [-2]]},
     "bounds must hold"),
    ({"x0": [1, 2, 3]}, "x0 must hold 2 numbers"),
    ({"x0": [1]}, "x0 must hold 2 numbers"),
    ({"x0": {"a": 1}}, "x0 must hold 2 numbers"),
    ({"x0": [0.1, float("nan")]}, "x0 must hold 2 numbers"),
], ids=["mode", "n", "tau", "bounds", "bounds-short", "bounds-infinite",
        "bounds-reversed", "bounds-not-pairs", "bounds-ragged", "x0-long",
        "x0-short", "x0-object", "x0-nan"])
def test_sampling_error_is_config_error(tmp_path, capsys, sampling, message):
    cfg = _write(tmp_path, "bound.json", {
        "system": "VanDerPol",
        "sampling": {"n": 200, **sampling},
        "dictionaries": {"alpha": 2},
        "lie_source": "edmd",
        "output": {"path": str(tmp_path / "bound.json.out")},
    })
    assert main(["bound", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: sampling:" in err and message in err
    assert not (tmp_path / "bound.json.out").exists()


@pytest.mark.parametrize("result", [
    {"feasible": False, "V_coeffs": None},   # what an infeasible run writes
    {"feasible": True},
    {"feasible": True, "V_coeffs": [1.0] * 14},
    "not json",
    {"feasible": True, "V_coeffs": ["one"] * 15},
    {"feasible": True, "V_coeffs": [float("nan")] * 15},
], ids=["null", "missing", "wrong-length", "not-json", "strings", "nan"])
def test_verify_without_usable_v_is_config_error(tmp_path, capsys, result):
    path = str(tmp_path / "lyap.json.out")
    Path(path).write_text(result if isinstance(result, str)
                          else json.dumps(result))
    vcfg = _write(tmp_path, "verify.json", {
        "system": "MapLyap2D",
        "dictionaries": {"alpha": 4, "beta": 8},
        "output": {"path": path},
    })
    assert main(["verify", vcfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"output.path {path}" in err and "length 15" in err


@pytest.mark.parametrize("phi, dictionaries", [
    (None, {}),
    ([1, 2], {}),
    ({"family": "monomial"}, {}),
    ({"family": "monomial", "dimension": 2, "indices": [["a", 0]]}, {}),
    (total_degree_dictionary(CHEBYSHEV, 2, 4, ((-2, 2), (-2, 2))).to_dict(),
     {}),
    (total_degree_dictionary(MONOMIAL, 2, 4).to_dict(),
     {"family": "chebyshev", "box": [[-2, 2], [-2, 2]]}),
], ids=["missing", "not-object", "no-indices", "bad-index", "other-phi",
        "other-config"])
def test_verify_reads_v_only_over_its_own_phi(tmp_path, capsys, phi,
                                              dictionaries):
    # a Chebyshev and a monomial phi of degree 4 both hold 15 elements: V's
    # coefficients used to be read over whichever the config named
    path = str(tmp_path / "lyap.json.out")
    result = {"feasible": True, "V_coeffs": [1.0] * 15}
    if phi is not None:
        result["phi"] = phi
    Path(path).write_text(json.dumps(result))
    vcfg = _write(tmp_path, "verify.json", {
        "system": "MapLyap2D",
        "dictionaries": {"alpha": 4, "beta": 8, **dictionaries},
        "output": {"path": path},
    })
    assert main(["verify", vcfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"output.path {path} holds no phi equal" in err


@pytest.mark.parametrize("update, key", [
    ({"dictionaries": {"alpha": "four"}}, "dictionaries.alpha"),
    ({"dictionaries": {"alpha": 4.9}}, "dictionaries.alpha"),
    ({"dictionaries": {"alpha": -1}}, "dictionaries"),
    ({"dictionaries": {"box": [[0]]}}, "dictionaries"),
    ({"dictionaries": {"box": [[1, 0], [0, 1]]}}, "dictionaries"),
    ({"dictionaries": {"box": []}}, "dictionaries"),
    ({"sampling": {"n": "many"}}, "sampling.n"),
    ({"sampling": {"n": 1000.5}}, "sampling.n"),
    ({"solver": {"tol": "tight"}}, "solver.tol"),
    ({"solver": {"max_iter": "x"}}, "solver.max_iter"),
    ({"solver": {"tol": -1}}, "solver.tol"),
    ({"solver": {"tol": float("nan")}}, "solver.tol"),
    ({"solver": {"tol": 1}}, "solver.tol"),
    ({"solver": {"max_iter": 0}}, "solver.max_iter"),
    ({"solver": {"max_iter": True}}, "solver.max_iter"),
    ({"observable": "bogus"}, "unknown observable"),
    ({"domain": "bogus"}, "unknown domain"),
    ({"domain": "unit_interval"}, "domain 'unit_interval' needs a 1-D"),
    # the map's default beta is 2 alpha, so alpha is checked before beta
    ({"system": "MapLyap2D", "dictionaries": {"alpha": -1}},
     "dictionaries.alpha"),
    ({"system": ["VanDerPol"]}, "unknown system"),
    ({"system": {"a": 1}}, "unknown system"),
    ({"output": {"path": 5}}, "output.path"),
], ids=["alpha", "alpha-fraction", "alpha-negative", "box-short",
        "box-reversed", "box-empty", "n", "n-fraction", "tol", "max_iter",
        "tol-negative", "tol-nan", "tol-one", "max_iter-zero", "max_iter-bool",
        "observable", "domain", "domain-2d", "map-alpha-negative",
        "system-list", "system-object", "output-path"])
def test_bad_config_value_is_config_error(tmp_path, capsys, monkeypatch,
                                          update, key):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(cli, "sample_snapshots", no_sampling)
    config = {"system": "VanDerPol", "lie_source": "edmd",
              "sampling": {"n": 200}, "dictionaries": {"alpha": 2},
              "output": {"path": str(tmp_path / "bound.json.out")}}
    for section, entry in update.items():
        config[section] = ({**config[section], **entry}
                           if isinstance(config.get(section), dict)
                           else entry)
    assert main(["bound", _write(tmp_path, "bound.json", config)]) == EXIT_CONFIG
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "bound.json.out").exists()


def test_lyapunov_honours_max_iter(tmp_path):
    # one interior-point iteration cannot reach Optimal
    config = {**reference_values.LYAPUNOV_MAP2D["config"],
              "solver": {"max_iter": 1},
              "output": {"path": str(tmp_path / "lyap.json.out")}}
    cfg = _write(tmp_path, "lyap.json", config)
    assert main(["lyapunov", cfg]) == EXIT_NONOPTIMAL
    out = json.loads((tmp_path / "lyap.json.out").read_text())
    assert not out["feasible"]
    assert (out["reason"], out["iterations"]) == ("iteration cap", 1)


def test_bound_stops_when_tau_collapses(tmp_path, capsys):
    # the rank-deficient alpha=10 EDMD fit makes the upper-bound program
    # nearly unbounded: tau vanishes next to kappa without a certificate, and
    # the solve stops there instead of rescaling the iterate until overflow
    cfg = _write(tmp_path, "vdp10.json", {
        "system": "VanDerPol", "lie_source": "edmd",
        "sampling": {"n": 200000, "x0": [0.1, 0.2]},
        "dictionaries": {"alpha": 10},
        "output": {"path": str(tmp_path / "vdp10.json.out")},
    })
    assert main(["bound", cfg]) == EXIT_NONOPTIMAL
    out = json.loads((tmp_path / "vdp10.json.out").read_text())
    assert (out["status"], out["reason"]) == ("MaxIter", "tau collapse")
    assert out["iterations"] < 25
    assert out["bound"] is None
    assert "(MaxIter: tau collapse)" in capsys.readouterr().out


def test_lyapunov_map_default_beta(tmp_path):
    # without a beta the Lie image dictionary has degree 2 * alpha for a map
    result = str(tmp_path / "lyap.json.out")
    cfg = _write(tmp_path, "lyap.json", {
        "system": "MapLyap2D",
        "sampling": {"mode": "iid_uniform_box", "n": 2000, "seed": 7,
                     "bounds": [[-2, 2], [-2, 2]]},
        "dictionaries": {"alpha": 4},
        "output": {"path": result},
    })
    assert main(["lyapunov", cfg]) == EXIT_OK
    assert json.loads(Path(result).read_text())["epsilon_posterior"] >= 0.99


def test_too_small_beta_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bound.json", {
        "system": "VanDerPol",
        "lie_source": "exact",
        "dictionaries": {"alpha": 4, "beta": 5},
        "output": {"path": str(tmp_path / "bound.json.out")},
    })
    assert main(["bound", cfg]) == EXIT_CONFIG
    assert "dictionaries.beta" in capsys.readouterr().err
    assert not (tmp_path / "bound.json.out").exists()


def test_beta_below_alpha_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bound.json", {
        "system": "VanDerPol",
        "sampling": {"n": 2000},
        "dictionaries": {"alpha": 4, "beta": 3},
        "output": {"path": str(tmp_path / "bound.json.out")},
    })
    assert main(["bound", cfg]) == EXIT_CONFIG
    assert "dictionaries.beta" in capsys.readouterr().err
    assert not (tmp_path / "bound.json.out").exists()


def test_reproduce_circle(tmp_path):
    out = str(tmp_path / "circle.csv")
    assert main(["reproduce", "circle", "--out", out]) == EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "table,row,cell,value,reference,diff"
    assert any("L_edmd" in line for line in lines)


def test_reproduce_circle_counts_a_failed_bound(tmp_path, monkeypatch,
                                               capsys):
    real = cli.circular_orbit_casestudy
    monkeypatch.setattr(cli, "circular_orbit_casestudy",
                        lambda: {**real(), "L_gedmd": None})
    out = tmp_path / "circle.csv"
    assert main(["reproduce", "circle", "--out", str(out)]) == EXIT_NONOPTIMAL
    assert "circle,L_gedmd,,failed,0.0," in out.read_text().splitlines()
    assert "(1 failed cells)" in capsys.readouterr().out


@pytest.mark.parametrize("exponent, code", [(0.0, EXIT_NONOPTIMAL),
                                            (-0.5, EXIT_OK)])
def test_reproduce_logistic_rate_checks_the_slope(tmp_path, monkeypatch,
                                                  exponent, code):
    def study(sample, phi, psi, n_grid, seeds, n_reference):
        ns = np.asarray(n_grid, float)
        return ns, ns ** exponent, None

    monkeypatch.setattr(cli, "convergence_study", study)
    out = tmp_path / "rate.csv"
    assert main(["reproduce", "logistic_rate", "--out", str(out)]) == code


def test_reproduce_lyapunov(tmp_path):
    out = str(tmp_path / "lyap.csv")
    assert main(["reproduce", "lyapunov", "--out", out]) == EXIT_OK
    text = Path(out).read_text()
    assert "posterior_epsilon" in text


def test_reproduce_unknown_table():
    with pytest.raises(SystemExit):  # argparse rejects bad choices
        main(["reproduce", "notatable"])


def _logistic_cell(writer):
    """The table runner on one cell: the exact logistic upper bound at
    alpha=2."""
    row = reference_values.LOGISTIC_TABLE["rows"]["exact"]
    table = {"alphas": [2],
             "directions": {"logistic_upper": ("upper", "upper")},
             "rows": {"exact": {"config": row["config"], "upper": [0.375]}}}
    return cli._reproduce_bounds(table, writer)


def test_reproduce_cell_exact_logistic_alpha2():
    rows = []
    assert _logistic_cell(rows.append) == 0
    assert rows == [["logistic_upper", "exact", "alpha=2", "0.3750", 0.375,
                     "+0.0000"]]


def _bound_result(direction, lie_source, status, residuals, bound=None):
    """A BoundResult whose solve record holds only a status, residuals and
    the bound, if any."""
    sdp = SdpSolution(status, None, None, None, residuals)
    scalars = {} if bound is None else {"bound": bound}
    return BoundResult(direction, lie_source,
                       SosSolution(None, scalars, None, [], sdp, (), 0))


def _never_optimal(calls):
    def bound(direction, *args, tol=1e-8, lie_source="exact", **kwargs):
        calls.append(tol)
        return _bound_result(direction, lie_source, "MaxIter",
                             (float("inf"),) * 3)
    return bound


def test_reproduce_cell_failure_is_reported_after_retry(monkeypatch):
    calls, rows = [], []
    monkeypatch.setattr(cli, "ergodic_bound", _never_optimal(calls))
    assert _logistic_cell(rows.append) == 1
    assert calls == [1e-8, 1e-6]
    assert rows == [["logistic_upper", "exact", "alpha=2", "failed", 0.375,
                     ""]]


def test_reproduce_vdp_counts_failed_cells(tmp_path, monkeypatch, capsys):
    def short_sample(spec, mode, tau, n, **kwargs):
        return sample_snapshots(spec, mode, tau, 2000, **kwargs)

    monkeypatch.setattr(cli, "ergodic_bound", _never_optimal([]))
    monkeypatch.setattr(cli, "sample_snapshots", short_sample)
    out = tmp_path / "vdp.csv"
    assert main(["reproduce", "vdp", "--out", str(out)]) == EXIT_NONOPTIMAL
    assert out.read_text().count(",failed,") == 16
    assert "(16 failed cells)" in capsys.readouterr().out


def _short_sample(spec, mode, tau, n, **kwargs):
    return sample_snapshots(spec, mode, tau, n // 100, **kwargs)


def test_reproduce_logistic_fits_each_dataset_and_alpha_once(tmp_path,
                                                              monkeypatch):
    counts = {"fit_edmd": 0, "exact_lie_matrix": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    monkeypatch.setattr(cli, "sample_snapshots", _short_sample)
    monkeypatch.setattr(cli, "ergodic_bound", _never_optimal([]))
    out = tmp_path / "logistic.csv"
    assert main(["reproduce", "logistic", "--out", str(out)]) == EXIT_NONOPTIMAL
    assert out.read_text().count(",failed,") == 28
    assert counts == {"fit_edmd": 7, "exact_lie_matrix": 7}


# The per-table pipelines the runner replaced, kept as references.  They call
# the sampler, the fits and the bound through ``cli`` so that the test's
# stand-ins reach them; the only edit is that logistic expected values are
# read from the table's rows.

def _reference_cell(writer, label, spec, data, direction, g, phi, psi,
                    expected, domain=None) -> bool:
    if data is None:
        lie, source = cli.exact_lie_matrix(spec, phi, psi), "exact"
    else:
        lie, source = cli.fit_edmd(data, phi, psi).L, "edmd"
    res = cli._retry_bound(direction, g, lie, psi, phi, domain=domain,
                           lie_source=source)
    val = "failed" if res.bound is None else f"{res.bound:.4f}"
    diff = "" if res.bound is None else f"{res.bound - expected:+.4f}"
    writer([*label, f"alpha={phi.max_degree}", val, expected, diff])
    return res.status != "Optimal"


def _reference_vdp(writer):
    spec = SystemSpec(VAN_DER_POL)
    ref = reference_values.VDP_TABLE
    g = cli._observable("energy", spec, MONOMIAL, None)
    rows = [("exact", None), ("T=1e2", 100_000), ("T=1e2.5", 316_228),
            ("T=1e3", 1_000_000)]
    failures = 0
    for row_name, n in rows:
        data = (None if n is None else cli.sample_snapshots(
            spec, "trajectory", 1e-3, n, x0=(0.1, 0.2)))
        if data is not None:
            emp = empirical_average(data, g)
            writer(["vdp", row_name, "empirical", f"{emp:.4f}",
                    ref["rows"][row_name]["empirical"],
                    f"{emp - ref['rows'][row_name]['empirical']:+.4f}"])
        for alpha, expected in zip(ref["alphas"],
                                   ref["rows"][row_name]["bounds"]):
            failures += _reference_cell(
                writer, ("vdp", row_name), spec, data, "upper", g,
                total_degree_dictionary(MONOMIAL, 2, alpha),
                total_degree_dictionary(
                    MONOMIAL, 2, lie_image_degree(spec, alpha)), expected)
    return failures


def _reference_logistic(writer):
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    box = ((0.0, 1.0),)
    ref = reference_values.LOGISTIC_TABLE
    g = cli._observable("state", spec, CHEBYSHEV, box)
    domain = cli._domain("unit_interval", spec, CHEBYSHEV, box)
    data = cli.sample_snapshots(spec, "trajectory", 1.0, 10_000_000,
                                rng=make_rng(12345))
    failures = 0
    for direction in ("upper", "lower"):
        for row_name, row_data in (("exact", None), ("n=1e7", data)):
            for alpha, expected in zip(ref["alphas"],
                                       ref["rows"][row_name][direction]):
                failures += _reference_cell(
                    writer, (f"logistic_{direction}", row_name), spec,
                    row_data, direction, g,
                    total_degree_dictionary(CHEBYSHEV, 1, alpha, box),
                    total_degree_dictionary(
                        CHEBYSHEV, 1, lie_image_degree(spec, alpha), box),
                    expected, domain)
    return failures


def _digest(a) -> int:
    return zlib.crc32(np.ascontiguousarray(a, dtype=float).tobytes())


def _fake_bound(calls):
    """A deterministic ergodic_bound: the bound is read off the Lie matrix,
    and by alpha and direction a cell is Optimal at the first tolerance,
    only after the retry, or never.  Each call's inputs are recorded."""
    def bound(direction, g, lie, psi, phi, domain=None, tol=1e-8,
              lie_source="exact", **kwargs):
        domain = domain or SemialgebraicSet()
        calls.append((direction, phi, psi, tol, lie_source, _digest(lie),
                      _digest(g.coeffs),
                      tuple(_digest(s.coeffs) for s in domain.s_list)))
        k = (phi.max_degree // 2 + (direction == "lower")) % 3
        if k == 2 or (k == 1 and tol < 1e-6):
            return _bound_result(direction, lie_source, "MaxIter",
                                 (float("inf"),) * 3)
        value = float(np.abs(lie).sum()) + float(g.coeffs.sum())
        return _bound_result(direction, lie_source, "Optimal", (0.0,) * 3,
                             value)
    return bound


@pytest.mark.parametrize("table, reference", [
    ("vdp", _reference_vdp), ("logistic", _reference_logistic)])
def test_reproduce_rows_match_reference_pipelines(monkeypatch, table,
                                                  reference):
    monkeypatch.setattr(cli, "sample_snapshots", _short_sample)
    ref_calls, ref_rows, calls, rows = [], [], [], []
    monkeypatch.setattr(cli, "ergodic_bound", _fake_bound(ref_calls))
    ref_failures = reference(ref_rows.append)
    monkeypatch.setattr(cli, "ergodic_bound", _fake_bound(calls))
    failures = cli._TABLES[table](rows.append)
    assert rows == ref_rows
    assert failures == ref_failures
    assert 0 < failures < sum(row[2].startswith("alpha=") for row in rows)
    assert {tol for _, _, _, tol, *_ in calls} == {1e-8, 1e-6}
    assert sorted(calls, key=repr) == sorted(ref_calls, key=repr)

"""Tests for the command-line front end: exit codes, schema, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from koopsos import SystemSpec, __version__, cli, sample_snapshots
from koopsos.auxfn import BoundResult
from koopsos.cli import (EXIT_CONFIG, EXIT_NONOPTIMAL, EXIT_OK, ConfigError,
                         config_hash, main, validate_config)
from koopsos.polybasis import CHEBYSHEV, total_degree_dictionary


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
    assert out["status"] == "Optimal"
    assert abs(out["bound"] - 0.3125) < 2e-4
    assert out["version"] == __version__
    assert len(out["config_hash"]) == 16


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
    assert ops["K"] is None and ops["L"] is None
    assert len(ops["G"]) == 3


def test_fit_exact_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "fit.json", {
        "system": "StochasticLogistic",
        "lie_source": "exact",
        "output": {"path": str(tmp_path / "ops.json")},
    })
    assert main(["fit", cfg]) == EXIT_CONFIG
    assert "edmd or gedmd" in capsys.readouterr().err
    assert not (tmp_path / "ops.json").exists()


def test_lyapunov_then_verify(tmp_path):
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
    assert payload["feasible"] is True
    assert payload["epsilon_posterior"] >= 0.99
    vcfg = _write(tmp_path, "verify.json", {
        "system": "MapLyap2D",
        "dictionaries": {"alpha": 4, "beta": 8},
        "output": {"path": result},
    })
    assert main(["verify", vcfg]) == EXIT_OK


def test_reproduce_circle(tmp_path):
    out = str(tmp_path / "circle.csv")
    assert main(["reproduce", "circle", "--out", out]) == EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "table,row,cell,value,reference,diff"
    assert any("L_edmd" in line for line in lines)


def test_reproduce_lyapunov(tmp_path):
    out = str(tmp_path / "lyap.csv")
    assert main(["reproduce", "lyapunov", "--out", out]) == EXIT_OK
    text = Path(out).read_text()
    assert "posterior_epsilon" in text


def test_reproduce_unknown_table():
    with pytest.raises(SystemExit):  # argparse rejects bad choices
        main(["reproduce", "notatable"])


def _logistic_cell(writer):
    spec = SystemSpec("StochasticLogistic")
    box = ((0.0, 1.0),)
    return cli._reproduce_cell(
        writer, ("logistic_upper", "exact"), spec, None, "upper",
        cli._observable("state", spec, CHEBYSHEV, box),
        total_degree_dictionary(CHEBYSHEV, 1, 2, box),
        total_degree_dictionary(CHEBYSHEV, 1, 4, box), 0.375,
        cli._domain("unit_interval", spec, CHEBYSHEV, box))


def test_reproduce_cell_exact_logistic_alpha2():
    rows = []
    assert _logistic_cell(rows.append) is False
    assert rows == [["logistic_upper", "exact", "alpha=2", "0.3750", 0.375,
                     "+0.0000"]]


def _never_optimal(calls):
    def bound(direction, *args, tol=1e-8, lie_source="exact", **kwargs):
        calls.append(tol)
        return BoundResult(direction, None, None, lie_source, "MaxIter",
                           (float("inf"),) * 3, "")
    return bound


def test_reproduce_cell_failure_is_reported_after_retry(monkeypatch):
    calls, rows = [], []
    monkeypatch.setattr(cli, "ergodic_bound", _never_optimal(calls))
    assert _logistic_cell(rows.append) is True
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

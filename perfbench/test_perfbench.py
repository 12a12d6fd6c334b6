"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines, result = _run(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln for ln in lines
                   if ln.startswith(f"metric {m['name']} ")]
        assert len(printed) == 1
        assert printed[0].split()[3] == m["unit"]
        assert printed[0].split()[4].startswith("n=")
    assert any(ln.startswith("env {") for ln in lines)


def test_counts_repeat_across_runs():
    _, _, first = _run("logistic_edmd", 1, seed=7)
    _, _, second = _run("logistic_edmd", 1, seed=7)
    counts = [m["name"] for m in BENCHMARK["per_layer"]
              if m["unit"] not in ("s", "s/iter")]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_corrupted_reference_fails_the_run(monkeypatch, capsys):
    for var in ("KOOPSOS_NO_NUMBA", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")     # restored after the test
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads as wl
    argv = ["--workload", "vdp_exact", "--seed", "0", "--seconds", "1",
            "--size", "tiny"]
    assert run.main(argv) == 0

    alpha = wl.SIZES["tiny"]["vdp_exact"]["alphas"][0]
    monkeypatch.setitem(wl.VDP_EXACT_REFERENCE, alpha,
                        wl.VDP_EXACT_REFERENCE[alpha] + 1e-3)
    capsys.readouterr()
    assert run.main(argv) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is False
    assert any(ln.startswith("WRONG vdp_exact") for ln in lines)


def test_wrong_recorded_value_fails_the_check(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import workloads as wl
    inp = wl.build_inputs("logistic_edmd", 0, "tiny")
    _, cells, data = wl.run_pass(inp)
    wl.check_cells(inp, cells, data)
    assert all(c.ok for c in cells)

    inp.size = "full"       # recorded values apply to full-size runs only
    recorded = {(c.alpha, c.direction): c.bound for c in cells}
    first = (cells[0].alpha, cells[0].direction)
    recorded[first] += 1e-3
    wl.check_cells(inp, cells, data, recorded=recorded)
    assert [c.wrong for c in cells] == [True] + [False] * (len(cells) - 1)

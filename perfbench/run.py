"""koopsos benchmark: one workload, timed end to end or layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload vdp_exact --seed 0 --seconds 42 \
        --trace 0

The library is imported from the checkout's ``src`` directory and always on
its pure-numpy kernel path.  Within ``--seconds`` the workload pipeline is
repeated as often as whole passes fit (at least once).  With ``--trace 0``
the passes are untraced and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the traced passes are reported.  Every certified cell is checked
for correctness.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 1 when a certified cell fails its correctness check and 2 when the
library cannot be found.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT_DIR / "src"
BUILDS = 3
# The bounded metrics of an untraced run.  The cell times are reported with
# the per-layer metrics, unbounded: see README.md.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb", "cells_ok_ratio")


def _configure_process() -> int:
    """Pin the kernel path and the BLAS thread count before numpy loads.

    One BLAS thread: on a small shared machine a second thread mostly adds
    run-to-run noise, and the workload is generated from this one process.
    """
    os.environ["KOOPSOS_NO_NUMBA"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, if it exposes one."""
    import ctypes
    import glob

    import numpy
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(nproc: int) -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    from koopsos import _kernels
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_used": bool(_kernels.USE_NUMBA),
        "KOOPSOS_NO_NUMBA": os.environ.get("KOOPSOS_NO_NUMBA"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": nproc,
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a reduced problem, for the smoke test")
    return p.parse_args(argv)


def _emit(name, value, unit, n):
    print(f"metric {name} {value!r} {unit} n={n}")
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC_DIR / "koopsos" / "__init__.py").is_file():
        print(f"error: no koopsos sources under {SRC_DIR}", file=sys.stderr)
        return 2
    nproc = _configure_process()
    sys.path.insert(0, str(SRC_DIR))

    import resource
    import warnings

    import koopsos
    import tracer as tr
    import workloads as wl
    if Path(koopsos.__file__).resolve().parent != SRC_DIR / "koopsos":
        print(f"error: koopsos imported from {koopsos.__file__}",
              file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    # koopman.pinv warns on every fit; the warning is not the benchmark's
    warnings.simplefilter("ignore", UserWarning)
    import_s = time.perf_counter() - T_START

    builds = []
    for _ in range(BUILDS):
        b0 = time.perf_counter()
        inp = wl.build_inputs(args.workload, args.seed, args.size)
        builds.append(time.perf_counter() - b0)
    setup_s = import_s + statistics.median(builds)

    print("env " + json.dumps(environment(nproc), sort_keys=True))
    print(f"workload {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} seconds={args.seconds:g}")

    walls, traced_walls, layers, cells_all = [], [], [], []
    t_run = time.perf_counter()
    last = 0.0
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        p0 = time.perf_counter()
        if traced:
            tracer = tr.Tracer()
            with tr.installed(tracer):
                wall, cells, data = tracer.call(
                    tr.ROOT, wl.run_pass, inp, tracer.call)
            traced_walls.append(wall)
            layers.append(tracer)
        else:
            wall, cells, data = wl.run_pass(inp)
            walls.append(wall)
        wl.check_cells(inp, cells, data)
        del data
        last = time.perf_counter() - p0
        kind = "traced" if traced else "untraced"
        print(f"pass {len(walls) + len(traced_walls)} {kind} wall={wall!r}")
        for c in cells:
            bound = "-" if c.bound is None else repr(c.bound)
            print(f"cell pass={len(walls) + len(traced_walls)} {kind} "
                  f"{c.label} status={c.status} iters={c.iterations} "
                  f"bound={bound} seconds={c.seconds:.4f} check={c.note}")
        cells_all.append((traced, cells))
        done = len(walls) >= 1 and (not args.trace or traced_walls)
        if done and time.perf_counter() - t_run + last > args.seconds:
            break

    all_cells = [c for _, cs in cells_all for c in cs]
    attempted = len(all_cells)
    failed = sum(not c.ok for c in all_cells)
    wrong = [c for c in all_cells if c.wrong]
    correct = not wrong
    for c in wrong:
        print(f"WRONG {args.workload} {c.label}: bound={c.bound!r} {c.note}")
    print(f"cells attempted={attempted} failed={failed}")

    # each cell's time is its median over the untraced passes, which keeps
    # a single slow pass from setting the p50 or the maximum
    untraced = [cs for t, cs in cells_all if not t]
    per_cell = [statistics.median(times) for times in zip(
        *[[c.seconds for c in cs] for cs in untraced])]
    calls = sum(len(cs) for cs in untraced)
    wall_s = statistics.median(walls)
    metrics = {}
    summary = {
        "setup_s": (setup_s, "s", len(builds)),
        "wall_s": (wall_s, "s", len(walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
        "cells_ok_ratio": ((attempted - failed) / attempted, "ratio",
                           attempted),
        "cell_p50_s": (statistics.median(per_cell), "s", calls),
        "cell_max_s": (max(per_cell), "s", calls),
    }
    for name, (value, unit, n) in summary.items():
        m = _emit(name, value, unit, n)
        if (name in END_TO_END) != bool(args.trace):
            metrics[name] = m

    if args.trace:
        per_pass = [tr.layer_metrics(t) for t in layers]
        counts_repeat = all(
            all(p[k] == per_pass[0][k] for k in tr.COUNT_NAMES)
            for p in per_pass)
        print(f"counts repeat across traced passes: {counts_repeat}")
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            value = (values[0] if name in tr.COUNT_NAMES
                     else statistics.median(values))
            metrics[name] = _emit(name, value, tr.unit_of(name), len(values))
        overhead = statistics.median(traced_walls) - wall_s
        metrics["trace.overhead_s"] = _emit("trace.overhead_s", overhead, "s",
                                            len(traced_walls) + len(walls))
        layer_sum = metrics["trace.layer_self_sum_s"]["value"]
        print(f"accounting: layer self sum {layer_sum:.4f} s vs untraced "
              f"wall_s {wall_s:.4f} s, difference "
              f"{wall_s - layer_sum:+.4f} s, trace.overhead_s "
              f"{overhead:+.4f} s")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

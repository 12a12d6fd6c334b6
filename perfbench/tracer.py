"""Spans and counts recorded around koopsos calls, from outside the library.

While ``installed(tracer)`` is active, the public names the library calls
through are replaced by wrappers that record a span (name, start, end,
parent) around each call.  The benchmark's own direct calls go through
``Tracer.call`` as well.  Spans stay in memory; ``layer_metrics`` turns them
into per-layer times and counts.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from koopsos import _kernels, koopman, sos

ROOT = "workload"

# (module, attribute, span name) of every wrapped library entry point
WRAPPED = (
    (_kernels, "rk4_trajectory", "kernels.rk4_trajectory"),
    (_kernels, "logistic_trajectory", "kernels.logistic_trajectory"),
    (_kernels, "monomial_eval", "kernels.monomial_eval"),
    (_kernels, "chebyshev_eval", "kernels.chebyshev_eval"),
    (koopman, "evaluate", "koopman.evaluate"),
    (sos, "compile", "sos.compile"),
    (sos, "sdp_solve", "sdp.solve"),
)


def _count_trajectory(c, out, *args, **kwargs):
    c["kernels.trajectory_steps"] += out.shape[0] - 1


def _count_eval(c, out, *args, **kwargs):
    c["kernels.eval_values"] += out.size
    # computed from array sizes: points read plus values written
    points = np.asarray(args[0]).size
    c["kernels.eval_bytes_computed"] += 8 * (points + out.size)


def _count_sample(c, out, *args, **kwargs):
    c["systems.rows"] += out.n


def _count_fit(c, out, data, phi, psi, **kwargs):
    m, ell = psi.size, phi.size
    c["koopman.fits"] += 1
    c["koopman.rows_streamed"] += data.n
    c["koopman.gram_flops"] += 2 * data.n * m * (m + ell)
    c["koopman.rank_deficit"] += m - out.svd_report["rank"]


def _count_compile(c, out, *args, **kwargs):
    c["sos.sdp_rows"] += out.problem.A.shape[0]
    c["sos.sdp_dim"] += out.problem.dim


def _count_solve(c, out, *args, **kwargs):
    c["sdp.solves"] += 1
    c["sdp.iters"] += out.iterations
    c["sdp.not_optimal"] += out.status != "Optimal"


COUNTERS = {
    "kernels.rk4_trajectory": _count_trajectory,
    "kernels.logistic_trajectory": _count_trajectory,
    "kernels.monomial_eval": _count_eval,
    "kernels.chebyshev_eval": _count_eval,
    "systems.sample_snapshots": _count_sample,
    "koopman.fit_edmd": _count_fit,
    "sos.compile": _count_compile,
    "sdp.solve": _count_solve,
}

COUNT_NAMES = ("systems.rows", "kernels.trajectory_steps",
               "kernels.eval_values", "kernels.eval_bytes_computed",
               "koopman.fits", "koopman.rows_streamed", "koopman.gram_flops",
               "koopman.rank_deficit", "sos.sdp_rows", "sos.sdp_dim",
               "sdp.solves", "sdp.iters", "sdp.not_optimal")

COUNT_UNITS = {"kernels.eval_bytes_computed": "B",
               "koopman.gram_flops": "flop"}


class Tracer:
    """In-memory span and count recorder for one pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = Counter()
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        rec = [name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            counter(self.counts, out, *args, **kwargs)
        return out

    def self_times(self):
        """(total seconds, self seconds) summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = Counter(), Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - covered
        return total, own


@contextmanager
def installed(tracer: Tracer):
    """Route the wrapped library names through ``tracer`` until exit."""
    saved = []
    try:
        for module, attr, name in WRAPPED:
            orig = getattr(module, attr)
            saved.append((module, attr, orig))
            setattr(module, attr, functools.wraps(orig)(
                functools.partial(tracer.call, name, orig)))
        yield tracer
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times (s) and counts of one traced pass, by metric name."""
    total, own = tracer.self_times()
    c = tracer.counts
    iters = c["sdp.iters"]
    out = {
        "systems.sample_s": total["systems.sample_snapshots"],
        "systems.sample_self_s": own["systems.sample_snapshots"],
        "kernels.trajectory_s": (total["kernels.rk4_trajectory"]
                                 + total["kernels.logistic_trajectory"]),
        "kernels.eval_s": (total["kernels.monomial_eval"]
                           + total["kernels.chebyshev_eval"]),
        "koopman.evaluate_self_s": own["koopman.evaluate"],
        "koopman.fit_s": total["koopman.fit_edmd"],
        "koopman.fit_self_s": own["koopman.fit_edmd"],
        "auxfn.exact_lie_s": total["auxfn.exact_lie_matrix"],
        "auxfn.bound_s": total["auxfn.ergodic_bound"],
        "auxfn.bound_self_s": own["auxfn.ergodic_bound"],
        "sos.compile_s": total["sos.compile"],
        "sdp.solve_s": total["sdp.solve"],
        "sdp.s_per_iter": total["sdp.solve"] / iters if iters else 0.0,
        "trace.wall_s": total[ROOT],
        "trace.layer_self_sum_s": sum(v for k, v in own.items() if k != ROOT),
        "trace.unattributed_s": own[ROOT],
    }
    out.update({name: c[name] for name in COUNT_NAMES})
    return out


def unit_of(name: str) -> str:
    if name in COUNT_UNITS:
        return COUNT_UNITS[name]
    if name.endswith("s_per_iter"):
        return "s/iter"
    return "s" if name.endswith("_s") else "count"

"""The three benchmark workloads: their inputs, their pipeline and the
correctness check of every certified cell.

A cell is one ``ergodic_bound`` call at the library defaults (tol=1e-8,
max_iter=200).  Cells are never retried at a looser tolerance, so a solve
that does not reach ``Optimal`` counts as a failed cell.

Inputs are built through the public API only, as in the README quickstart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from koopsos import (SemialgebraicSet, SystemSpec, ergodic_bound,
                     exact_lie_matrix, fit_edmd, make_rng, sample_snapshots,
                     total_degree_dictionary)
from koopsos.polybasis import (CHEBYSHEV, MONOMIAL, Poly, evaluate,
                               monomial_to_cheb)
from koopsos.reference_values import VDP_TABLE

WORKLOADS = ("logistic_edmd", "vdp_edmd", "vdp_exact")

# problem sizes; "tiny" exists for the smoke test only
SIZES = {
    "full": {
        "logistic_edmd": {"n": 2_000_000, "alphas": (2, 4, 6, 8, 10, 12, 14)},
        "vdp_edmd": {"n": 200_000, "alphas": (4, 6, 8, 10)},
        "vdp_exact": {"alphas": (4, 6, 8, 10, 12, 14, 16)},
    },
    "tiny": {
        "logistic_edmd": {"n": 20_000, "alphas": (2, 4)},
        "vdp_edmd": {"n": 20_000, "alphas": (4,)},
        "vdp_exact": {"alphas": (6,)},
    },
}

DEFAULT_SEED = 0
BOX = ((0.0, 1.0),)
VDP_TAU = 1e-3
# The VdP trajectory starts at (0.1, 0.2) whatever the seed.  Moving the
# initial state by as little as 1e-6 flips the alpha=4 and alpha=6 cells
# between Optimal and MaxIter from seed to seed (4 of 8 seeds had an extra
# failed cell), which would make every end-to-end metric of this workload
# depend on the seed; see README.md.
VDP_X0 = (0.1, 0.2)

# Exact VdP cells are compared with the reference table, which is rounded to
# four decimals; alpha=4 uses the derived optimum instead of the published
# (valid but suboptimal) 6.6751.
VDP_EXACT_REFERENCE = dict(zip(VDP_TABLE["alphas"],
                               VDP_TABLE["rows"]["exact"]["bounds"]))
VDP_EXACT_REFERENCE[4] = VDP_TABLE["derived_exact_alpha4"]
TABLE_TOL = 5e-5

# Data-driven bounds recorded at full size for DEFAULT_SEED, keyed by
# (alpha, direction).  Cells that did not reach Optimal have no entry.
RECORDED = {
    "logistic_edmd": {
        (2, "upper"): 0.37502454955985254,
        (2, "lower"): 5.5668141134809416e-05,
        (4, "upper"): 0.3125646858684908,
        (4, "lower"): 0.00028192237244318034,
        (6, "upper"): 0.30750806276972964,
        (6, "lower"): 0.0008802973233270623,
        (8, "upper"): 0.2825335587038532,
        (8, "lower"): 0.00043890610257361256,
        (10, "upper"): 0.2815789941494812,
        (10, "lower"): 0.0030942510060306583,
        (12, "upper"): 0.27696583525068963,
        (12, "lower"): 0.0008256015235358413,
        (14, "upper"): 0.27427933480760347,
        (14, "lower"): 0.000791079709296037,
    },
    "vdp_edmd": {
        (4, "upper"): 5.901261836741444,
        (6, "upper"): 4.009988140980179,
        (8, "upper"): 3.8375490470278635,
    },
}
RECORDED_TOL = 5e-5

# slack for certificate checks against values computed outside the solver
ORACLE_TOL = 1e-6
# rows of the sampled data on which data-driven certificates are evaluated
ORACLE_ROWS = 4096


@dataclass
class Cell:
    """One certified bound and how it was checked."""

    alpha: int
    direction: str
    seconds: float
    status: str
    bound: float | None
    iterations: int
    result: object = field(repr=False, default=None)
    lie: np.ndarray | None = field(repr=False, default=None)
    psi: object = field(repr=False, default=None)
    ok: bool = False
    wrong: bool = False
    note: str = ""

    @property
    def label(self) -> str:
        return f"alpha={self.alpha} {self.direction}"


@dataclass
class Inputs:
    """Everything a pass needs that is built before the clock starts."""

    name: str
    seed: int
    size: str
    spec: SystemSpec
    g: Poly
    dictionaries: list          # [(alpha, phi, psi)]
    domain: SemialgebraicSet | None = None
    n: int = 0
    limit_cycle_mean: float | None = None


def _energy() -> Poly:
    mono2 = total_degree_dictionary(MONOMIAL, 2, 2)
    return Poly(mono2, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0]))


def vdp_limit_cycle_mean(mu: float = 0.1) -> float:
    """Average of x^2 + y^2 over the Van der Pol limit cycle.

    Computed with scipy's DOP853, independently of the library: converge onto
    the cycle from (2, 0), then integrate x^2 + y^2 over one period, cut at
    consecutive upward crossings of y = 0.
    """
    def rhs(t, s):
        x, y, _ = s
        return [y, mu * (1.0 - x * x) * y - x, x * x + y * y]

    def crossing(t, s):
        return s[1]
    crossing.direction = 1.0

    opts = {"method": "DOP853", "rtol": 1e-12, "atol": 1e-12}
    settle = solve_ivp(rhs, (0.0, 200.0), [2.0, 0.0, 0.0], **opts)
    start = settle.y[:, -1]
    lap = solve_ivp(rhs, (0.0, 20.0), [start[0], start[1], 0.0],
                    events=crossing, **opts)
    t0, t1 = lap.t_events[0][:2]
    q0, q1 = lap.y_events[0][0][2], lap.y_events[0][1][2]
    return float((q1 - q0) / (t1 - t0))


def build_inputs(name: str, seed: int, size: str = "full") -> Inputs:
    """Inputs of one workload; the same seed gives the same inputs."""
    cfg = SIZES[size][name]
    if name == "logistic_edmd":
        mono2 = total_degree_dictionary(MONOMIAL, 1, 2)
        cheb2 = total_degree_dictionary(CHEBYSHEV, 1, 2, BOX)
        g = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, 0.0])), cheb2)
        s = monomial_to_cheb(Poly(mono2, np.array([0.0, 1.0, -1.0])), cheb2)
        dicts = [(a, total_degree_dictionary(CHEBYSHEV, 1, a, BOX),
                  total_degree_dictionary(CHEBYSHEV, 1, 2 * a, BOX))
                 for a in cfg["alphas"]]
        return Inputs(name, seed, size, SystemSpec("StochasticLogistic"), g,
                      dicts, domain=SemialgebraicSet((s,)), n=cfg["n"])
    dicts = [(a, total_degree_dictionary(MONOMIAL, 2, a),
              total_degree_dictionary(MONOMIAL, 2, a + 2))
             for a in cfg["alphas"]]
    if name == "vdp_edmd":
        return Inputs(name, seed, size, SystemSpec("VanDerPol"), _energy(),
                      dicts, n=cfg["n"])
    return Inputs(name, seed, size, SystemSpec("VanDerPol"), _energy(), dicts,
                  limit_cycle_mean=vdp_limit_cycle_mean())


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_pass(inp: Inputs, call=_direct):
    """Run the pipeline once; returns (wall seconds, cells, data).

    ``call(name, fn, *args, **kwargs)`` performs each public library call so
    that a tracer can time it; the default calls straight through.
    The clock runs from the first sampling (or exact Lie) call until the last
    certificate.
    """
    cells = []
    data = None
    t0 = time.perf_counter()
    if inp.name == "logistic_edmd":
        data = call("systems.sample_snapshots", sample_snapshots, inp.spec,
                    "trajectory", 1.0, inp.n, rng=make_rng(inp.seed))
    elif inp.name == "vdp_edmd":
        data = call("systems.sample_snapshots", sample_snapshots, inp.spec,
                    "trajectory", VDP_TAU, inp.n, x0=VDP_X0)
    directions = ("upper", "lower") if inp.domain is not None else ("upper",)
    for alpha, phi, psi in inp.dictionaries:
        if data is None:
            lie = call("auxfn.exact_lie_matrix", exact_lie_matrix, inp.spec,
                       phi, psi)
            source = "exact"
        else:
            lie = call("koopman.fit_edmd", fit_edmd, data, phi, psi).L
            source = "edmd"
        for direction in directions:
            c0 = time.perf_counter()
            res = call("auxfn.ergodic_bound", ergodic_bound, direction, inp.g,
                       lie, psi, phi, domain=inp.domain, lie_source=source)
            seconds = time.perf_counter() - c0
            iters = res.sos_solution.sdp.iterations if res.sos_solution else 0
            cells.append(Cell(alpha, direction, seconds, res.status,
                              res.bound, iters, res, lie, psi))
    wall = time.perf_counter() - t0
    return wall, cells, data


def _certificate_slack(cell: Cell, inp: Inputs, X: np.ndarray) -> float:
    """Smallest value of the certified polynomial over the rows of X.

    upper: U - g - LV >= 0; lower: g + LV - L >= 0, with LV evaluated from
    the returned V and the Lie matrix the cell was certified against.
    """
    V = cell.result.V
    lv = (V.coeffs @ cell.lie) @ evaluate(cell.psi, X)
    gx = inp.g(X)
    if cell.direction == "upper":
        vals = cell.bound - gx - lv
    else:
        vals = gx + lv - cell.bound
    return float(np.min(vals))


def check_cells(inp: Inputs, cells: list, data=None,
                recorded: dict | None = None) -> None:
    """Mark each cell ok (certified and correct), failed, or wrong.

    A cell is wrong when it certified a value that misses its check; a wrong
    cell makes the whole run incorrect.  A cell that did not reach Optimal
    has failed but is not wrong.
    """
    recorded = RECORDED.get(inp.name, {}) if recorded is None else recorded
    # the vdp_edmd data do not depend on the seed
    use_recorded = inp.size == "full" and (inp.seed == DEFAULT_SEED
                                           or inp.name == "vdp_edmd")
    X = None
    if data is not None:
        stride = max(1, data.n // ORACLE_ROWS)
        X = data.X[::stride]
    by_alpha = {}
    for cell in cells:
        by_alpha.setdefault(cell.alpha, {})[cell.direction] = cell
        if cell.status != "Optimal" or cell.bound is None:
            cell.note = f"not certified: {cell.status}"
            continue
        notes = []
        if data is None:
            ref = VDP_EXACT_REFERENCE.get(cell.alpha)
            if ref is not None and abs(cell.bound - ref) > TABLE_TOL:
                notes.append(f"reference {ref:.4f}")
            lc = inp.limit_cycle_mean
            if cell.bound < lc - ORACLE_TOL * (1.0 + abs(lc)):
                notes.append(f"below limit-cycle mean {lc:.6f}")
        else:
            ref = recorded.get((cell.alpha, cell.direction))
            if use_recorded and ref is not None \
                    and abs(cell.bound - ref) > RECORDED_TOL:
                notes.append(f"recorded {ref:.6f}")
            slack = _certificate_slack(cell, inp, X)
            if slack < -ORACLE_TOL * (1.0 + abs(cell.bound)):
                notes.append(f"certificate violated on data by {-slack:.2e}")
        cell.wrong = bool(notes)
        cell.ok = not notes
        cell.note = "; ".join(notes) or "ok"
    for pair in by_alpha.values():
        up, lo = pair.get("upper"), pair.get("lower")
        if up is None or lo is None or not (up.ok and lo.ok):
            continue
        if up.bound < lo.bound - ORACLE_TOL:
            for cell in (up, lo):
                cell.ok, cell.wrong = False, True
                cell.note = "upper bound below lower bound"


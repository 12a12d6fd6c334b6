"""Command-line front end.

Subcommands: simulate | fit | bound | lyapunov | reproduce | verify.
Every command is driven by a JSON config file validated against a strict
schema (unknown keys are rejected), and every JSON output embeds the config
hash and library version so results are traceable to their inputs.

Exit codes: 0 success, 1 solver did not reach Optimal, 2 config error: a bad
file, key, name, number, degree, box, sampling setting or output path, a
verify result without usable V_coeffs, or one whose stored phi is missing,
malformed or not the config's phi dictionary; numbers, degrees, boxes, the
output path, the observable and the domain of ``bound`` fail before sampling.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

from . import __version__, reference_values
from .auxfn import (circular_orbit_casestudy, ergodic_bound, find_lyapunov,
                    posterior_verify)
from .koopman import convergence_study, fit_edmd, fit_gedmd, loglog_slope
from .polybasis import (CHEBYSHEV, MONOMIAL, Dictionary, Poly, TargetTooSmall,
                        norm_squared, poly_from_terms, total_degree_dictionary)
from .sdp import DEFAULT_MAX_ITER, DEFAULT_TOL, check_options
from .snapshots import GENERATOR, KOOPMAN, empirical_average, save_csv
from .sos import SemialgebraicSet
from .systems import (STOCHASTIC_LOGISTIC, SystemSpec, _finite_array,
                      exact_lie_matrix, lie_image_degree, make_rng,
                      sample_snapshots)

EXIT_OK = 0
EXIT_NONOPTIMAL = 1
EXIT_CONFIG = 2

_DATA_SOURCES = ("edmd", "gedmd")


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "system": None,
    "sampling": {"mode", "tau", "n", "seed", "x0", "bounds"},
    "dictionaries": {"family", "alpha", "beta", "box"},
    "task": None,
    "lie_source": None,
    "observable": None,
    "domain": None,
    "solver": {"tol", "max_iter"},
    "output": {"path"},
}


def validate_config(cfg: dict) -> dict:
    """Reject unknown keys at the top level and within each section."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key, val in cfg.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is not None:
            if not isinstance(val, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            for sub in val:
                if sub not in allowed:
                    raise ConfigError(f"unknown config key {key!r}.{sub!r}")
    if "system" not in cfg:
        raise ConfigError("missing config key 'system'")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _load_config(path: str, overrides) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = validate_config(cfg)
    if overrides.seed is not None:
        cfg.setdefault("sampling", {})["seed"] = overrides.seed
    if overrides.tol is not None:
        cfg.setdefault("solver", {})["tol"] = overrides.tol
    if overrides.out is not None:
        cfg.setdefault("output", {})["path"] = overrides.out
    out = cfg.get("output", {}).get("path")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"output.path must be a string, got {out!r}")
    return cfg


def _number(cfg, key: str, default, kind):
    """Parse config value ``key`` (``section.name``) with ``kind``.

    A boolean is not a number, and an int key takes no fractional part:
    ``int`` would read true as 1 and truncate 4.9 to 4.
    """
    section, name = key.split(".")
    value = cfg.get(section, {}).get(name, default)
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
        if kind is int and isinstance(value, float) and number != value:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {kind.__name__}, "
                          f"got {value!r}") from None


def _system(cfg) -> SystemSpec:
    try:
        return SystemSpec(cfg["system"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _dictionaries(cfg, spec: SystemSpec):
    sec = cfg.get("dictionaries", {})
    family = sec.get("family",
                     MONOMIAL if spec.system.box is None else CHEBYSHEV)
    if family not in (MONOMIAL, CHEBYSHEV):
        raise ConfigError(f"unknown dictionary family {family!r}")
    alpha = _number(cfg, "dictionaries.alpha", 4, int)
    if alpha < 0:  # before the default beta, which is computed from it
        raise ConfigError(f"dictionaries.alpha must be >= 0, got {alpha}")
    beta = _number(cfg, "dictionaries.beta", lie_image_degree(spec, alpha), int)
    if beta < alpha:
        raise ConfigError(f"dictionaries.beta ({beta}) is below "
                          f"dictionaries.alpha ({alpha})")
    box = sec.get("box")
    if box is None and family == CHEBYSHEV:
        box = [[0.0, 1.0]] * spec.dimension
    try:  # a negative degree or a bad box
        phi = total_degree_dictionary(family, spec.dimension, alpha, box)
        psi = total_degree_dictionary(family, spec.dimension, beta, box)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"dictionaries: {exc}") from None
    return phi, psi


def _sample(cfg, spec: SystemSpec, kind: str = KOOPMAN, phi=None):
    sec = cfg.get("sampling", {})
    mode = sec.get("mode", "trajectory")
    tau = _number(cfg, "sampling.tau",
                  1.0 if spec.time_kind == "discrete" else 1e-3, float)
    n = _number(cfg, "sampling.n", 10_000, int)
    seed = _number(cfg, "sampling.seed", 0, int)
    try:
        return sample_snapshots(spec, mode, tau, n, rng=make_rng(seed),
                                snapshot_kind=kind, x0=sec.get("x0"),
                                bounds=sec.get("bounds"), phi=phi)
    except ValueError as exc:  # SnapshotFormatError is a ValueError
        raise ConfigError(f"sampling: {exc}") from None


def _observable(name: str, spec: SystemSpec, family, box) -> Poly:
    d = spec.dimension
    if name == "energy":
        return norm_squared(family, d, box)
    if name != "state":
        raise ConfigError(f"unknown observable {name!r}")
    return poly_from_terms({(1,) + (0,) * (d - 1): 1.0}, family, box, deg=2)


def _domain(name: str, spec: SystemSpec, family, box) -> SemialgebraicSet:
    if name == "none":
        return SemialgebraicSet()
    if name == "unit_interval":
        if spec.dimension != 1:
            raise ConfigError("domain 'unit_interval' needs a 1-D system")
        return SemialgebraicSet(
            (poly_from_terms({(1,): 1.0, (2,): -1.0}, family, box),))
    raise ConfigError(f"unknown domain {name!r}")


def _stamp(cfg, payload: dict) -> dict:
    payload["config_hash"] = config_hash(cfg)
    payload["version"] = __version__
    return payload


def _output_path(path: str | None, default_name: str) -> Path:
    """path (default_name if unset), with its parent directory made."""
    path = Path(path or default_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(cfg, payload: dict, default_name: str) -> Path:
    path = _output_path(cfg.get("output", {}).get("path"), default_name)
    path.write_text(json.dumps(_stamp(cfg, payload), indent=2))
    return path


# -- commands -------------------------------------------------------------------

def cmd_simulate(cfg) -> int:
    spec = _system(cfg)
    data = _sample(cfg, spec)
    _stamp(cfg, data.metadata)
    path = _output_path(cfg.get("output", {}).get("path"), "snapshots.csv")
    save_csv(data, path)
    print(f"wrote {data.n} snapshots to {path}")
    return EXIT_OK


def _fit_data(cfg, spec, source: str, phi, psi, data):
    """Fit a data-driven lie source to ``data``, or to snapshots sampled here
    when None; gEDMD snapshots depend on phi and are always sampled here."""
    if source == "gedmd":
        return fit_gedmd(_sample(cfg, spec, kind=GENERATOR, phi=phi), phi, psi)
    return fit_edmd(_sample(cfg, spec) if data is None else data, phi, psi)


def _solver(cfg) -> dict:
    """The ``tol`` and ``max_iter`` keywords of a config's solver section,
    checked as ``sdp.solve`` checks them."""
    opts = {"tol": _number(cfg, "solver.tol", DEFAULT_TOL, float),
            "max_iter": _number(cfg, "solver.max_iter", DEFAULT_MAX_ITER, int)}
    try:
        check_options(**opts)
    except ValueError as exc:
        raise ConfigError(f"solver.{exc}") from None
    return opts


def _fit_operators(cfg, spec, phi, psi, data):
    """The Lie matrix over (phi, psi), its source and the solver options of a
    config, all parsed before any sampling; ``data`` as in ``_fit_data``."""
    source = cfg.get("lie_source", "edmd")
    solver = _solver(cfg)
    if source == "exact":
        return exact_lie_matrix(spec, phi, psi), source, solver
    if source not in _DATA_SOURCES:
        raise ConfigError(f"unknown lie_source {cfg['lie_source']!r}")
    return _fit_data(cfg, spec, source, phi, psi, data).L, source, solver


def _bound_problem(cfg, spec, phi):
    """The observable g and the domain of a bound config."""
    default_obs = "state" if spec.dimension == 1 else "energy"
    default_dom = "none" if spec.system.box is None else "unit_interval"
    g = _observable(cfg.get("observable", default_obs), spec, phi.family,
                    phi.box)
    domain = _domain(cfg.get("domain", default_dom), spec, phi.family, phi.box)
    return g, domain


def _lyapunov(cfg):
    """phi and the exact-checked Lyapunov search of a config."""
    spec = _system(cfg)
    phi, psi = _dictionaries(cfg, spec)
    lie, _, solver = _fit_operators(cfg, spec, phi, psi, None)
    posterior = exact_lie_matrix(spec, phi, psi)
    return phi, find_lyapunov(lie, psi, phi, posterior_lie=posterior,
                              **solver)


def cmd_fit(cfg) -> int:
    spec = _system(cfg)
    phi, psi = _dictionaries(cfg, spec)
    source = cfg.get("lie_source", "edmd")
    if source not in _DATA_SOURCES:
        raise ConfigError("fit requires lie_source edmd or gedmd")
    ops = _fit_data(cfg, spec, source, phi, psi, None)
    path = _write_json(cfg, ops.to_dict(), "operators.json")
    print(f"wrote fitted operators to {path}")
    return EXIT_OK


def cmd_bound(cfg) -> int:
    spec = _system(cfg)
    task = cfg.get("task", "upper")
    if task not in ("upper", "lower"):
        raise ConfigError("bound requires task 'upper' or 'lower'")
    phi, psi = _dictionaries(cfg, spec)
    g, domain = _bound_problem(cfg, spec, phi)  # names fail before sampling
    lie, source, solver = _fit_operators(cfg, spec, phi, psi, None)
    res = ergodic_bound(task, g, lie, psi, phi, domain=domain,
                        lie_source=source, **solver)
    path = _write_json(cfg, res.to_dict(), "bound.json")
    print(f"{task} bound: {res.bound} "
          f"({res.sos_solution.verdict()}); wrote {path}")
    return EXIT_OK if res.status == "Optimal" else EXIT_NONOPTIMAL


def cmd_lyapunov(cfg) -> int:
    phi, res = _lyapunov(cfg)
    path = _write_json(cfg, {**res.to_dict(), "phi": phi.to_dict()},
                       "lyapunov.json")
    print(f"lyapunov feasible={res.feasible} "
          f"posterior_eps={res.epsilon_posterior} "
          f"({res.sos_solution.verdict()}); wrote {path}")
    return EXIT_OK if res.feasible else EXIT_NONOPTIMAL


def cmd_verify(cfg) -> int:
    """Re-check a stored Lyapunov result against the exact generator."""
    spec = _system(cfg)
    result_path = cfg.get("output", {}).get("path")
    if result_path is None:
        raise ConfigError("verify requires output.path pointing at a "
                          "lyapunov result JSON")
    try:
        data = json.loads(Path(result_path).read_text())
    except json.JSONDecodeError:
        data = None
    phi, psi = _dictionaries(cfg, spec)
    coeffs = _finite_array(data.get("V_coeffs") if isinstance(data, dict)
                           else None, (phi.size,))
    if coeffs is None:
        raise ConfigError(f"output.path {result_path} holds no finite "
                          f"V_coeffs of length {phi.size}, the size of the "
                          f"config's phi dictionary")
    stored = data.get("phi")  # V is read over it, so it must be the config's
    if isinstance(stored, dict):
        try:
            stored = Dictionary.from_dict(stored)
        except (KeyError, TypeError, ValueError, OverflowError):  # malformed
            stored = None
    if stored != phi:
        raise ConfigError(f"output.path {result_path} holds no phi equal to "
                          f"the config's phi dictionary, over which V_coeffs "
                          f"would be read")
    solution = posterior_verify(Poly(phi, coeffs),
                                exact_lie_matrix(spec, phi, psi), psi,
                                **_solver(cfg))
    eps = solution.scalar_values.get("eps")
    print(f"posterior epsilon: {eps} ({solution.verdict()})")
    return EXIT_OK if (eps is not None and eps > 0) else EXIT_NONOPTIMAL


# -- reproduce ------------------------------------------------------------------

def _retry_bound(*args, tol=DEFAULT_TOL, **kwargs):
    res = ergodic_bound(*args, tol=tol, **kwargs)
    if res.status != "Optimal":
        res = ergodic_bound(*args, tol=100 * tol, **kwargs)
    return res


def _reproduce_bounds(table, writer) -> int:
    """Bound every cell of a ``reference_values`` table: sample each row's
    config once and bound every direction with each (row, alpha) Lie matrix.
    Writes label by label, a row's empirical average first; returns the
    failed cells."""
    lines = {label: [] for label in table["directions"]}
    failures = 0
    for row_name, row in table["rows"].items():
        cfg = row["config"]
        spec = _system(cfg)
        data = None if cfg["lie_source"] == "exact" else _sample(cfg, spec)
        for i, alpha in enumerate(table["alphas"]):
            cell = {**cfg, "dictionaries": {**cfg.get("dictionaries", {}),
                                            "alpha": alpha}}
            phi, psi = _dictionaries(cell, spec)
            g, domain = _bound_problem(cell, spec, phi)
            lie, source, solver = _fit_operators(cell, spec, phi, psi, data)
            if i == 0 and row.get("empirical") is not None:
                emp, ref = empirical_average(data, g), row["empirical"]
                first = next(iter(lines))
                lines[first].append([first, row_name, "empirical",
                                     f"{emp:.4f}", ref, f"{emp - ref:+.4f}"])
            for label, (direction, key) in table["directions"].items():
                res = _retry_bound(direction, g, lie, psi, phi, domain=domain,
                                   lie_source=source, **solver)
                expected = row[key][i]
                val = "failed" if res.bound is None else f"{res.bound:.4f}"
                diff = ("" if res.bound is None
                        else f"{res.bound - expected:+.4f}")
                lines[label].append([label, row_name, f"alpha={alpha}", val,
                                     expected, diff])
                failures += res.status != "Optimal"
    for line in sum(lines.values(), []):
        writer(line)
    return failures


def _reproduce_logistic_rate(writer):
    spec = SystemSpec(STOCHASTIC_LOGISTIC)
    box = ((0.0, 1.0),)
    phi = total_degree_dictionary(CHEBYSHEV, 1, 4, box)
    psi = total_degree_dictionary(CHEBYSHEV, 1, lie_image_degree(spec, 4), box)

    def sample(n, seed):
        return sample_snapshots(spec, "trajectory", 1.0, n,
                                rng=make_rng(seed))

    ns, dists, _ = convergence_study(sample, phi, psi,
                                     [10 ** 4, 10 ** 5, 10 ** 6],
                                     [0, 1, 2, 3, 4], 10 ** 7)
    for n, dist in zip(ns, dists):
        writer(["logistic_rate", f"n={int(n)}", "frobenius_distance",
                f"{dist:.6e}", "", ""])
    slope = loglog_slope(ns, dists)
    ref = reference_values.CONVERGENCE_RATE
    writer(["logistic_rate", "slope", "", f"{slope:.4f}", ref["slope"],
            f"{slope - ref['slope']:+.4f}"])
    return int(abs(slope - ref["slope"]) > ref["slope_tolerance"])


def _reproduce_circle(writer):
    rep = circular_orbit_casestudy()
    ref = reference_values.CIRCLE_CASESTUDY
    failures = 0
    for key in ("L_edmd", "L_gedmd"):
        if rep[key] is None:
            writer(["circle", key, "", "failed", ref[key], ""])
            failures += 1
        else:
            writer(["circle", key, "", f"{rep[key]:.6f}", ref[key],
                    f"{rep[key] - ref[key]:+.2e}"])
    writer(["circle", "divergence_indicator", "psi coefficients",
            " ".join(f"{c:.6f}" for c in rep["divergence_indicator"].coeffs),
            "", ""])
    return failures


def _reproduce_lyapunov(writer):
    ref = reference_values.LYAPUNOV_MAP2D
    phi, res = _lyapunov(ref["config"])
    writer(["lyapunov", "feasible", "", str(res.feasible), "True", ""])
    eps, eps_min = res.epsilon_posterior, ref["posterior_epsilon_min"]
    writer(["lyapunov", "posterior_epsilon", "",
            "failed" if eps is None else f"{eps:.4f}", f">={eps_min}", ""])
    if res.V is not None:
        for idx, cv in zip(phi.indices, res.V.coeffs):
            expected = ref["V_reported"].get(idx)
            if abs(cv) > 1e-3 or expected is not None:
                writer(["lyapunov", "V", str(idx), f"{cv:.4f}",
                        "" if expected is None else expected,
                        "" if expected is None else f"{cv - expected:+.4f}"])
    return 0 if eps is not None and eps >= eps_min else 1


_TABLES = {
    "vdp": partial(_reproduce_bounds, reference_values.VDP_TABLE),
    "logistic": partial(_reproduce_bounds, reference_values.LOGISTIC_TABLE),
    "logistic_rate": _reproduce_logistic_rate,
    "circle": _reproduce_circle,
    "lyapunov": _reproduce_lyapunov,
}


def cmd_reproduce(table_id: str, out: str | None) -> int:
    out_path = _output_path(out, f"{table_id}.csv")
    rows = []

    def writer(row):
        rows.append(row)
        print("  ".join(str(v) for v in row))

    failures = _TABLES[table_id](writer)
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["table", "row", "cell", "value", "reference", "diff"])
        w.writerows(rows)
    print(f"wrote {out_path} ({failures} failed cells)")
    return EXIT_OK if failures == 0 else EXIT_NONOPTIMAL


# -- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="koopsos",
        description="Data-driven Lie derivatives with sum-of-squares "
                    "certificates")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "fit", "bound", "lyapunov", "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("config", help="path to JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--tol", type=float, default=None)
    rp = sub.add_parser("reproduce")
    rp.add_argument("table", choices=sorted(_TABLES))
    rp.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.table, args.out)
        cfg = _load_config(args.config, args)
        handler = {"simulate": cmd_simulate, "fit": cmd_fit,
                   "bound": cmd_bound, "lyapunov": cmd_lyapunov,
                   "verify": cmd_verify}[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TargetTooSmall as exc:  # the default beta is never too small
        print(f"config error: dictionaries.beta is below the Lie image "
              f"degree: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands:

* ``solve``    -- compute the unknown boundary traces for the configured
                  problem and write them as CSV plus a run manifest,
* ``verify``   -- global-relation residual audit of user-supplied full
                  (Dirichlet + Neumann) trace sets,
* ``interior`` -- evaluate the interior field on a triangular point grid,
* ``sweep``    -- rerun the solver over a truncation ladder and tabulate
                  the successive differences,
* ``oracle``   -- compare the solver output against the finite-difference
                  reference solution.

Configuration is a single JSON document (schema in the README); every run
writes a manifest that reproduces it byte-for-byte.  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical failures (a typed
solver error, an overflow or a non-finite output value).  Every output is
computed and checked before the first file is written, and the files are
written under temporary names and renamed into place only once all of them
are complete, so a failed run leaves no output behind.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, NonFiniteError, ParameterError, TriDtnError
from .expressions import expression_trace
from .fdgrid import TriangularGrid, _check_spacing, fd_solve
from .geometry import TriangleGeometry
from .interior import TraceSet, fokas_eval, greens_eval
from .poincare import mixed_nr_trace, symmetric_dirichlet_integral, validate_mixed
from .problems import BCKind, ProblemSpec, SideCondition
from .relations import GlobalRelation
from .series import general_dirichlet_dtn, neumann_to_dirichlet, symmetric_dirichlet_dtn
from .traces import BoundaryTrace, sample_grid

#: the solvers each subcommand accepts (from --solver or the config key
#: "solver"); the first is its default.  verify runs no solver.
_SOLVERS = {
    "solve": ("series", "integral"),
    "interior": ("greens", "fokas"),
    "sweep": ("series", "integral"),
    "oracle": ("series", "integral"),
}


# -- configuration ----------------------------------------------------------
def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for key in ("lam", "side_length", "bc"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    if not _three_objects(cfg["bc"]):
        raise ConfigError("config key 'bc' must list exactly three side objects")
    lam = _number("lam", cfg["lam"], lambda x: x >= 0, " >= 0")
    side_length = _number("side_length", cfg["side_length"], lambda x: x > 0, " > 0")
    for key in ("truncation", "samples", "audit_points"):
        if key in cfg:
            _check_count(f"config key {key!r}", cfg[key])
    if "sweep" in cfg:
        if not isinstance(cfg["sweep"], list) or len(cfg["sweep"]) < 2:
            raise ConfigError("config key 'sweep' must list at least two truncations")
        for n in cfg["sweep"]:
            _check_count("each entry of config key 'sweep'", n)
    for key in ("interior", "oracle"):
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(f"config key {key!r} must be an object")
    interior, oracle = cfg.get("interior", {}), cfg.get("oracle", {})
    if "divisions" in interior:
        _check_count("config key 'interior.divisions'", interior["divisions"])
    _number("interior.margin", interior.get("margin", 0.1), lambda x: 0 < x < 0.5 / math.sqrt(3.0),
            " in (0, 1/(2 sqrt 3)), below the inradius over l")
    _number("oracle.corner_margin", oracle.get("corner_margin", 0.02), lambda x: 0 <= x < 0.5,
            " in [0, 0.5)")
    if "h" in oracle:
        try:
            _check_spacing(side_length, _number("oracle.h", oracle["h"]))
        except DomainError as exc:
            raise ConfigError(f"config key 'oracle.h': {exc}") from exc
    return cfg


def _number(key: str, value, within=lambda x: True, bounds: str = ""):
    """``value``, which must be a finite number (not a boolean) for which
    ``within`` holds; ``bounds`` says what that asks."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and math.isfinite(value) and within(value)):
        raise ConfigError(f"config key {key!r} must be a finite number{bounds}, not {value!r}")
    return value


def _three_objects(value) -> bool:
    return isinstance(value, list) and len(value) == 3 and all(isinstance(e, dict) for e in value)


def _check_count(what: str, value):
    """A truncation or sample count must be an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{what} must be an integer >= 1, not {value!r}")


def _truncation(cfg: dict, args) -> int:
    if args.truncation is None:
        return cfg.get("truncation", 64)
    _check_count("--truncation", args.truncation)
    return args.truncation


def _data_trace(entry: dict, side: int, side_length: float, read: dict) -> BoundaryTrace:
    """An expression, or a cubic spline through the rows (s, value) after the
    header line of a {"samples": CSV file}: two or more rows of finite
    numbers, s strictly increasing.  ``read`` maps each expression the call
    has parsed to its trace, which sides with the same expression share."""
    data = entry.get("data", "0")
    if isinstance(data, str):
        if data not in read:
            read[data] = expression_trace(data, side, side_length)
        return read[data]
    path = data.get("samples") if isinstance(data, dict) else None
    if not isinstance(path, str):
        raise ConfigError(f"side {side}: 'data' {data!r} is neither an expression nor a samples file")
    from scipy.interpolate import CubicSpline

    try:
        with warnings.catch_warnings():  # a file of no rows is refused below
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"side {side}: cannot read samples {path}: {exc}") from exc
    if not (min(table.shape) > 1 and np.isfinite(table).all() and np.all(np.diff(table[:, 0]) > 0)):
        raise ConfigError(f"side {side}: samples {path} must hold two or more rows s, value "
                          "of finite numbers, s strictly increasing")
    spline = CubicSpline(table[:, 0], table[:, 1])
    return BoundaryTrace(side=side, value=spline, derivative=spline.derivative())


def build_problem(cfg: dict) -> ProblemSpec:
    lam = float(cfg["lam"])
    geom = TriangleGeometry(float(cfg["side_length"]))
    sides, read = [], {}
    for side, entry in enumerate(cfg["bc"], start=1):
        if "kind" not in entry:
            raise ConfigError(f"side {side}: each bc entry needs a 'kind'")
        try:
            kind = BCKind(entry["kind"])
        except ValueError as exc:
            raise ConfigError(f"side {side}: unknown bc kind {entry['kind']!r}") from exc
        if kind == BCKind.POINCARE:
            raise ConfigError(f"side {side}: no subcommand solves a 'poincare' side")
        trace = _data_trace(entry, side, geom.side_length, read)
        try:
            kwargs = {
                key: float(_number(f"bc.{key}", entry[key]))
                for key in ("gamma", "beta")
                if key in entry
            }
            sides.append(SideCondition(kind, trace, **kwargs))
        except TriDtnError as exc:
            raise ConfigError(f"side {side}: {exc}") from exc
    try:
        spec = ProblemSpec(lam=lam, geometry=geom, sides=tuple(sides))
    except TriDtnError as exc:
        raise ConfigError(str(exc)) from exc
    report = spec.admissibility()
    if not report.admissible:
        raise ConfigError(
            "problem fails the admissibility conditions: "
            + "; ".join(report.violations)
        )
    return spec


# -- solver dispatch --------------------------------------------------------
def _solve_traces(spec: ProblemSpec, solver: str, n: int):
    """Returns (dict side -> computed BoundaryTrace, manifest details); the
    details name the solver that ran."""
    kinds = [side.kind for side in spec.sides]
    data = tuple(side.data for side in spec.sides)
    if kinds == [BCKind.ROBIN, BCKind.NEUMANN, BCKind.NEUMANN]:
        # the mixed problem has one solver, the contour integral, for lam > 0
        if spec.lam == 0.0:
            raise ConfigError("the mixed Neumann-Robin solver needs lam > 0")
        try:
            validate_mixed(spec)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        count = max(n, 8)
        trace = mixed_nr_trace(spec, count=count)
        return {2: trace}, {"solver": "integral", "truncation": count}
    details = {"solver": solver, "truncation": n}
    dirichlet = all(k == BCKind.DIRICHLET for k in kinds)
    # build_problem gives the sides of one expression text one shared trace
    symmetric = dirichlet and data[1] is data[0] and data[2] is data[0]
    if solver == "integral":
        if not symmetric:
            raise ConfigError("the integral solver needs symmetric Dirichlet data")
        trace = symmetric_dirichlet_integral(data[0], spec.lam, spec.side_length, n_max=n)
        return {1: trace, 2: trace, 3: trace}, details
    if symmetric:
        trace = symmetric_dirichlet_dtn(data[0], spec.lam, spec.side_length, n_max=n)
        return {1: trace, 2: trace, 3: trace}, details
    if dirichlet:
        out = general_dirichlet_dtn(data, spec.lam, spec.side_length, m_max=n)
        return dict(zip((1, 2, 3), out)), details
    if all(k == BCKind.NEUMANN for k in kinds):
        out = neumann_to_dirichlet(data, spec.lam, spec.side_length, m_max=n)
        return dict(zip((1, 2, 3), out)), details
    raise ConfigError(
        "unsupported side-condition combination: "
        + ", ".join(k.value for k in kinds)
    )


# -- output helpers ---------------------------------------------------------
def _finite(values, what: str):
    """``values`` as a float array; NonFiniteError if any is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{what} is not finite")
    return values


def _trace_values(computed: dict, s) -> dict:
    """Each distinct computed trace on the whole grid ``s``, once, checked finite."""
    first_side = {trace: j for j, trace in reversed(computed.items())}
    values = {trace: _finite(trace(s), f"side {j} trace") for trace, j in first_side.items()}
    return {j: values[trace] for j, trace in computed.items()}


def _csv_rows(*columns) -> list:
    """One %.17e line per row of ``columns``, as format(x, ".17e"): -0.0, inf, NaN too."""
    line = ",".join(["%.17e"] * len(columns))
    return [line % tuple(row) for row in np.column_stack(columns).tolist()]


def _write_outputs(out_dir: Path, outputs: dict):
    """Write each output (file name -> text) to a temporary file in
    ``out_dir``, then rename them all into place; an OSError leaves no
    output and no temporary file behind and is a ConfigError."""
    temps = {}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            temps[name] = out_dir / f".{name}.{os.getpid()}.tmp"
            temps[name].write_text(text, newline="\n")
        for name, tmp in temps.items():
            os.replace(tmp, out_dir / name)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    finally:
        for tmp in temps.values():
            tmp.unlink(missing_ok=True)


def _audit_points(rng, side_length: float, count: int):
    radii = rng.uniform(0.5, 3.0, size=count) * (2.0 / side_length)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    return radii * np.exp(1j * angles)


def _full_traces(spec, computed):
    """(Dirichlet, Neumann) traces of all three sides, from the data and the
    computed traces; None for mixed runs, which produce a single side."""
    known = tuple(spec.side(j).data for j in (1, 2, 3))
    found = tuple(computed.get(j) for j in (1, 2, 3))
    kinds = {side.kind for side in spec.sides}
    if kinds == {BCKind.DIRICHLET}:
        return known, found
    return (found, known) if kinds == {BCKind.NEUMANN} else None


def _full_trace_audit(spec, computed, seed: int):
    """Global-relation residual of known data plus computed traces."""
    full = _full_traces(spec, computed)
    if full is None:
        return None
    rng = np.random.default_rng(seed)
    ks = _audit_points(rng, spec.side_length, 20)
    rel = GlobalRelation(*full, spec.lam, spec.side_length)
    return float(rel.residual_audit(ks))


# -- subcommands ------------------------------------------------------------
def _cmd_solve(cfg, args):
    spec = build_problem(cfg)
    n = _truncation(cfg, args)
    computed, details = _solve_traces(spec, args.solver, n)
    n_samples = cfg.get("samples", 256)
    s_grid = sample_grid(spec.side_length, n_samples + 1, corner_margin=0.0)
    columns = _trace_values(computed, s_grid)
    audit = _full_trace_audit(spec, computed, args.seed)
    if audit is not None:
        _finite(audit, "residual audit")
    sides = sorted(columns)
    header = "s," + ",".join(f"side{j}" for j in sides)
    fields = {"details": details, "residual_audit": audit, "samples": n_samples}
    return "traces.csv", header, _csv_rows(s_grid, *(columns[j] for j in sides)), fields


def _cmd_verify(cfg, args):
    if not _three_objects(cfg.get("complement")):
        raise ConfigError("verify needs a 'complement' list of three sides of the other trace kind")
    lam, side_length = float(cfg["lam"]), float(cfg["side_length"])
    # a map per list, so that the error of a non-finite trace names a side of its own list
    first, second = (
        [_data_trace(entry, j, side_length, read) for j, entry in enumerate(cfg[key], start=1)]
        for key, read in (("bc", {}), ("complement", {}))
    )
    kinds = {entry.get("kind") for entry in cfg["bc"]}
    if kinds == {"dirichlet"}:
        dirichlet, neumann = first, second
    elif kinds == {"neumann"}:
        dirichlet, neumann = second, first
    else:
        raise ConfigError("verify expects 'bc' to be all dirichlet or all neumann")
    rng = np.random.default_rng(args.seed)
    ks = _audit_points(rng, side_length, cfg.get("audit_points", 50))
    rel = GlobalRelation(dirichlet, neumann, lam, side_length)
    residuals = _finite(rel.relative_residual(ks), "relative residual")
    worst = float(np.max(residuals))
    rows = _csv_rows(ks.real, ks.imag, residuals)
    return "audit.csv", "re_k,im_k,relative_residual", rows, {"worst_relative_residual": worst}


def _cmd_interior(cfg, args):
    spec = build_problem(cfg)
    if args.solver == "fokas" and spec.lam == 0.0:
        raise ConfigError("interior --solver fokas needs lam > 0 (the ray representation)")
    if {side.kind for side in spec.sides} not in ({BCKind.DIRICHLET}, {BCKind.NEUMANN}):
        raise ConfigError("interior evaluation needs a Dirichlet or Neumann problem")
    margin = cfg.get("interior", {}).get("margin", 0.1) * spec.side_length
    lattice = TriangularGrid(spec.side_length, cfg.get("interior", {}).get("divisions", 8))
    points = lattice.point(*lattice.nodes())
    points = points[spec.geometry.boundary_margin(points) >= margin]
    if points.size == 0:
        raise ConfigError("no 'interior.divisions' lattice point lies 'interior.margin' inside")
    computed, details = _solve_traces(spec, "series", _truncation(cfg, args))
    traces = TraceSet(spec.geometry, *_full_traces(spec, computed))
    evaluator = greens_eval if args.solver == "greens" else fokas_eval
    values = _finite(evaluator(traces, spec.lam, points), "interior values")
    fields = {"details": details, "margin": margin, "points": len(points), "solver": args.solver}
    return "interior.csv", "x,y,value", _csv_rows(points.real, points.imag, values), fields


def _cmd_sweep(cfg, args):
    spec = build_problem(cfg)
    ladder = sorted(cfg.get("sweep", [16, 32, 64]))
    n_samples = cfg.get("samples", 256)
    s_grid = sample_grid(spec.side_length, n_samples + 1, corner_margin=0.0)
    runs = {}
    for n in ladder:
        computed, _ = _solve_traces(spec, args.solver, n)
        runs[n] = _trace_values(computed, s_grid)
    finest = runs[ladder[-1]]
    deltas = {n: max(np.max(np.abs(runs[n][j] - finest[j])) for j in finest) for n in ladder[:-1]}
    rows = ["%d,%.17e" % row for row in deltas.items()]
    return "sweep.csv", "truncation,max_diff_to_finest", rows, {"ladder": ladder}


def _cmd_oracle(cfg, args):
    spec = build_problem(cfg)
    n = _truncation(cfg, args)
    computed, details = _solve_traces(spec, args.solver, n)
    h = float(cfg.get("oracle", {}).get("h", spec.side_length / 64))
    grid_solution = fd_solve(spec, h)
    margin = float(cfg.get("oracle", {}).get("corner_margin", 0.02)) * spec.side_length
    deltas = {}
    for j in sorted(computed):
        s, fd_vals = grid_solution.traces[j]
        keep = (s > -spec.side_length / 2 + margin) & (s < spec.side_length / 2 - margin)
        deltas[j] = float(np.max(np.abs(computed[j](s[keep]) - fd_vals[keep])))
    _finite(list(deltas.values()), "oracle difference")
    worst = max(deltas.values(), default=0.0)
    rows = ["%d,%.17e" % row for row in deltas.items()]
    fields = {
        "details": details,
        "gauge_fixed": grid_solution.gauge_fixed,
        "grid_spacing": h,
        "worst_difference": worst,
    }
    return "oracle.csv", "side,max_abs_difference", rows, fields


#: each subcommand returns (CSV file name, header, rows, manifest fields); the
#: manifest also records the command, the config, the seed and the version
_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "interior": _cmd_interior,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


@functools.cache  # one parser per process: it keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tridtn",
        description="Dirichlet-to-Neumann maps and interior fields on an "
        "equilateral triangle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    every_solver = tuple(dict.fromkeys(s for names in _SOLVERS.values() for s in names))
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        if name in _SOLVERS:
            p.add_argument("--solver", choices=every_solver, default=None)
        p.add_argument("--truncation", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
    return parser


def _pick_solver(command: str, requested) -> str:
    accepted = _SOLVERS[command]
    solver = requested or accepted[0]
    if solver not in accepted:
        raise ConfigError(
            f"{command} accepts solver {' or '.join(map(repr, accepted))}, not {solver!r}"
        )
    return solver


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be an integer >= 0, not {args.seed}")
        cfg = load_config(args.config)
        if args.command in _SOLVERS:
            args.solver = _pick_solver(args.command, args.solver or cfg.get("solver"))
        # every output is checked finite before it is written, so numpy's
        # floating-point warnings would only add stderr lines to the exit code
        with np.errstate(all="ignore"):
            name, header, rows, fields = _COMMANDS[args.command](cfg, args)
        manifest = {"command": args.command, "config": cfg, "seed": args.seed}
        manifest.update(fields, version=__version__)
        _write_outputs(
            Path(args.out),
            {
                name: "".join(f"{line}\n" for line in (header, *rows)),
                "manifest.json": json.dumps(manifest, sort_keys=True, indent=2) + "\n",
            },
        )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TriDtnError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads.  Each ``setup(rng, workdir)`` returns the fixed batch
of ops; an op is one user-level call plus the check of its output against
the manufactured reference.

The runner times ``op.call()`` alone and then passes its result to
``op.check``, which returns the relative error it measured (or None when the
check is a pass/fail test without a manufactured value) and raises
``CheckFailed`` when the output is wrong.

Tolerances are relative to max(1, max |exact|).  Where an acceptance
criterion of the test suite fixes one, the check uses it; the contour
operating points are far below the acceptance ones (count and T are kept
small so that a batch stays short), so their tolerances sit a few times
above the truncation error measured there.
"""
from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tridtn.cli as cli
import tridtn.interior as interior
import tridtn.poincare as poincare
import tridtn.series as series
from tridtn.geometry import TriangleGeometry
from tridtn.oracle import all_traces, poincare_trace
from tridtn.problems import mixed_nr_problem

from inputs import (
    SIDE_LENGTH,
    general_family,
    interior_points,
    stratified_margins,
    relative_error,
    symmetric_family,
    trace_expression,
    wave_family,
)

#: series traces against the exact ones (acceptance criteria 3 and 4)
SERIES_TOL = 1e-6
#: global-relation audit of exact traces of plane-wave sums (acceptance
#: criterion 2)
VERIFY_TOL = 1e-8
#: global-relation audit of data plus computed series traces
SOLVE_AUDIT_TOL = 1e-4
#: interior values against q(z) (acceptance criterion 7)
INTERIOR_TOL = 1e-6
#: symmetric residue-series interior values (tests/test_interior.py), at a
#: ray panel order that reaches it at margin 0.1 l: the default order 16
#: gives up to 2.8e-4 there, order 24 at most 8.3e-7
SYMMETRIC_INTERIOR_TOL = 1e-5
SYMMETRIC_INTERIOR_ORDER = 24
#: FD oracle against the series traces at h = l/48, O(h^2)
ORACLE_TOL = 2e-3
#: sweep: difference of the second-finest truncation to the finest
SWEEP_TOL = 1e-3
#: CLI integral solver (T = 40 (2 pi/l)) away from the corner layers
CLI_INTEGRAL_TOL = 1e-2
CLI_INTEGRAL_MARGIN = 0.1
#: mixed Neumann-Robin trace at (count, T) = MIXED_PARAMS
MIXED_PARAMS = (4, 4.0)
MIXED_TOL = 5e-2
#: symmetric Dirichlet integral at (n_max, t_factor) = SDI_PARAMS
SDI_PARAMS = (16, 80.0)
SDI_TOL = 1e-3
CONTOUR_MARGIN = 0.1
D_ROOT_COUNT = 8
D_ROOT_TOL = 1e-12
#: corner window excluded from trace comparisons, as a share of l
CORNER_MARGIN = 0.02


class CheckFailed(Exception):
    """An op returned output that disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], float | None]


def _check(err: float, tol: float, what: str) -> float:
    if not err <= tol:
        raise CheckFailed(f"{what}: error {err:.3e} above {tol:.1e}")
    return err


def _window(margin: float, n: int = 129):
    half = SIDE_LENGTH / 2.0 - margin * SIDE_LENGTH
    return np.linspace(-half, half, n)


# -- cli-series ---------------------------------------------------------------
CLI_LAMS = (0.0, 1.0, 5.0)
CLI_FAMILIES = ("sym", "gen", "neu")
#: fields of each family, and the trace kind its configs give as data
CLI_FIELDS = {
    "sym": (symmetric_family, "dirichlet"),
    "gen": (general_family, "dirichlet"),
    "neu": (general_family, "neumann"),
    "wave": (wave_family, "dirichlet"),
    "wave-neu": (wave_family, "neumann"),
}
CLI_SAMPLES = 128
CLI_TRUNCATION = {"sym": 16, "gen": 64, "neu": 64, "wave": 64, "wave-neu": 64}
#: (family, lambda) of the configs only ``verify`` reads
VERIFY_CASES = (("wave", 0.0), ("wave", 1.0), ("wave-neu", 5.0))
#: (subcommand, family, lambda) schedule of one batch after the nine solves
CLI_SCHEDULE = (
    ("verify", "wave", 0.0),
    ("verify", "wave", 1.0),
    ("verify", "wave-neu", 5.0),
    ("sweep", "sym", 5.0),
    ("sweep", "gen", 0.0),
    ("sweep", "neu", 1.0),
    ("interior", "gen", 0.0),
    ("interior", "neu", 5.0),
    ("oracle", "sym", 1.0),
    ("oracle", "gen", 5.0),
    ("oracle", "neu", 0.0),
    ("integral", "sym", 1.0),
)


@dataclass(frozen=True)
class _CliCase:
    family: str
    lam: float
    sol: object
    config: Path


def _cli_case(rng, family: str, lam: float, workdir: Path) -> _CliCase:
    geom = TriangleGeometry(SIDE_LENGTH)
    make, known = CLI_FIELDS[family]
    sol = make(rng, lam)
    other = "dirichlet" if known == "neumann" else "neumann"
    # the symmetric solver needs literally identical data strings
    sides = (1, 1, 1) if family == "sym" else (1, 2, 3)
    n = CLI_TRUNCATION[family]
    cfg = {
        "lam": lam,
        "side_length": SIDE_LENGTH,
        "bc": [{"kind": known, "data": trace_expression(sol, j, known, geom)} for j in sides],
        "complement": [
            {"kind": other, "data": trace_expression(sol, j, other, geom)} for j in sides
        ],
        "truncation": n,
        "samples": CLI_SAMPLES,
        "sweep": [n // 4, n // 2, n],
        "interior": {"margin": 0.1, "divisions": 8},
        "oracle": {"h": SIDE_LENGTH / 48, "corner_margin": CORNER_MARGIN},
        "audit_points": 50,
    }
    path = workdir / f"{family}-lam{lam:g}.json"
    path.write_text(json.dumps(cfg))
    return _CliCase(family, lam, sol, path)


def _cli_op(label: str, argv, out: Path, check) -> Op:
    """``tridtn <argv> --out <out>``; ``check(manifest)`` reads the outputs,
    which are removed afterwards so that no op sees another's files."""

    def checked(code):
        try:
            if code != 0:
                raise CheckFailed(f"tridtn {argv[0]} exited {code}")
            return check(json.loads((out / "manifest.json").read_text()))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Op(label, lambda: cli.main(argv + ["--out", str(out)]), checked)


def _unknown_traces(case: _CliCase):
    """The exact traces of the kind the solver computes."""
    dirichlet, neumann = all_traces(case.sol, TriangleGeometry(SIDE_LENGTH))
    return dirichlet if CLI_FIELDS[case.family][1] == "neumann" else neumann


def _check_traces_csv(case: _CliCase, path: Path, margin: float, tol: float) -> float:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    s = table[:, 0]
    keep = np.abs(s) <= SIDE_LENGTH / 2.0 - margin * SIDE_LENGTH
    exact = [t(s[keep]) for t in _unknown_traces(case)]
    got = [table[keep, 1 + j] for j in range(3)]
    if CLI_FIELDS[case.family][1] == "neumann" and case.lam == 0.0:
        # Neumann data fix the Dirichlet traces up to one constant
        offset = float(np.mean(np.concatenate([g - e for g, e in zip(got, exact)])))
        got = [g - offset for g in got]
    err = relative_error(np.concatenate(got), np.concatenate(exact))
    return _check(err, tol, f"{path.parent.name} traces")


def _finite(value, what: str) -> float:
    if value is None or not math.isfinite(value):
        raise CheckFailed(f"{what} is {value}")
    return value


def _solve_op(case: _CliCase, out: Path) -> Op:
    def check(manifest):
        audit = _finite(manifest["residual_audit"], "residual audit")
        _check(audit, SOLVE_AUDIT_TOL, "solve residual audit")
        return _check_traces_csv(case, out / "traces.csv", CORNER_MARGIN, SERIES_TOL)

    argv = ["solve", "--config", str(case.config)]
    return _cli_op(f"solve/{case.family}/lam{case.lam:g}", argv, out, check)


def _integral_op(case: _CliCase, out: Path) -> Op:
    def check(manifest):
        return _check_traces_csv(
            case, out / "traces.csv", CLI_INTEGRAL_MARGIN, CLI_INTEGRAL_TOL
        )

    argv = ["solve", "--solver", "integral", "--truncation", "16", "--config", str(case.config)]
    return _cli_op(f"integral/{case.family}/lam{case.lam:g}", argv, out, check)


def _verify_op(case: _CliCase, out: Path) -> Op:
    def check(manifest):
        worst = _finite(manifest["worst_relative_residual"], "worst relative residual")
        return _check(worst, VERIFY_TOL, "verify residual")

    argv = ["verify", "--config", str(case.config)]
    return _cli_op(f"verify/{case.family}/lam{case.lam:g}", argv, out, check)


def _data_scale(traces) -> float:
    s = _window(CORNER_MARGIN)
    return max(1.0, max(float(np.max(np.abs(t(s)))) for t in traces))


def _sweep_op(case: _CliCase, out: Path) -> Op:
    def check(manifest):
        table = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
        diffs = table[:, 1]
        if not np.all(np.isfinite(diffs)):
            raise CheckFailed("non-finite sweep differences")
        scale = _data_scale(_unknown_traces(case))
        _check(float(diffs[-1]) / scale, SWEEP_TOL, "sweep difference")

    argv = ["sweep", "--config", str(case.config)]
    return _cli_op(f"sweep/{case.family}/lam{case.lam:g}", argv, out, check)


def _interior_op(case: _CliCase, out: Path) -> Op:
    def check(manifest):
        table = np.loadtxt(out / "interior.csv", delimiter=",", skiprows=1, ndmin=2)
        if table.shape[0] == 0:
            raise CheckFailed("no interior points written")
        exact = case.sol.q(table[:, 0] + 1j * table[:, 1])
        return _check(relative_error(table[:, 2], exact), INTERIOR_TOL, "interior values")

    argv = ["interior", "--solver", "greens", "--config", str(case.config)]
    return _cli_op(f"interior/{case.family}/lam{case.lam:g}", argv, out, check)


def _oracle_op(case: _CliCase, out: Path) -> Op:
    def check(manifest):
        worst = _finite(manifest["worst_difference"], "oracle difference")
        dirichlet, neumann = all_traces(case.sol, TriangleGeometry(SIDE_LENGTH))
        _check(worst / _data_scale(dirichlet + neumann), ORACLE_TOL, "oracle difference")

    argv = ["oracle", "--config", str(case.config)]
    return _cli_op(f"oracle/{case.family}/lam{case.lam:g}", argv, out, check)


_CLI_OPS = {
    "verify": _verify_op,
    "sweep": _sweep_op,
    "interior": _interior_op,
    "oracle": _oracle_op,
    "integral": _integral_op,
}


def setup_cli_series(rng, workdir: Path):
    cases = {
        (family, lam): _cli_case(rng, family, lam, workdir)
        for lam in CLI_LAMS
        for family in CLI_FAMILIES
    }
    for family, lam in VERIFY_CASES:
        cases[(family, lam)] = _cli_case(rng, family, lam, workdir)
    ops = [
        _solve_op(case, workdir / f"out-solve-{key[0]}-{key[1]:g}")
        for key, case in cases.items()
        if key[0] in CLI_FAMILIES
    ]
    for command, family, lam in CLI_SCHEDULE:
        out = workdir / f"out-{command}-{family}-{lam:g}"
        ops.append(_CLI_OPS[command](cases[(family, lam)], out))
    return ops


# -- contour-residue ------------------------------------------------------------
CONTOUR_LAMS = (0.5, 1.0, 2.0)


def _mixed_op(rng, lam: float) -> Op:
    geom = TriangleGeometry(SIDE_LENGTH)
    sol = symmetric_family(rng, lam)
    dirichlet, neumann = all_traces(sol, geom)
    robin = poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0 * lam))
    problem = mixed_nr_problem(lam, geom, robin, neumann[1], neumann[2])
    s = _window(CONTOUR_MARGIN)
    exact = dirichlet[1](s)
    count, t_factor = MIXED_PARAMS

    def call():
        return poincare.mixed_nr_trace(problem, count=count, t_factor=t_factor).value(s)

    def check(got):
        return _check(relative_error(got, exact), MIXED_TOL, "mixed NR trace")

    return Op(f"mixed_nr_trace/lam{lam:g}", call, check)


def _sdi_op(rng, lam: float) -> Op:
    geom = TriangleGeometry(SIDE_LENGTH)
    sol = symmetric_family(rng, lam)
    dirichlet, neumann = all_traces(sol, geom)
    s = _window(CONTOUR_MARGIN)
    exact = neumann[0](s)
    n_max, t_factor = SDI_PARAMS

    def call():
        return poincare.symmetric_dirichlet_integral(
            dirichlet[0], lam, SIDE_LENGTH, n_max=n_max, t_factor=t_factor
        ).value(s)

    def check(got):
        return _check(relative_error(got, exact), SDI_TOL, "symmetric integral")

    return Op(f"symmetric_dirichlet_integral/lam{lam:g}", call, check)


def _d_root_op(lam: float) -> Op:
    def call():
        return list(poincare.d_root_set(lam, SIDE_LENGTH, D_ROOT_COUNT, audit=True))

    def check(roots):
        # one root per mode index and k-branch, the m = 0 pair included
        if len(roots) != 2 * (2 * D_ROOT_COUNT + 1):
            raise CheckFailed(f"{len(roots)} D-roots for count {D_ROOT_COUNT}")
        worst = max(root.residual for root in roots)
        return _check(worst, D_ROOT_TOL, "D-root residual")

    return Op(f"d_root_set/lam{lam:g}", call, check)


def setup_contour_residue(rng, workdir: Path):
    ops = []
    for lam in CONTOUR_LAMS:
        ops += [_mixed_op(rng, lam), _sdi_op(rng, lam), _d_root_op(lam)]
    return ops


# -- interior-field -------------------------------------------------------------
GREENS_POINTS = 12
FOKAS_POINTS = 2
SYMMETRIC_POINTS = 2
INTERIOR_SERIES_M = 48


def setup_interior_field(rng, workdir: Path):
    geom = TriangleGeometry(SIDE_LENGTH)
    ops = []
    traces = {}
    for lam in (0.0, 1.0):
        sol = general_family(rng, lam)
        dirichlet, _ = all_traces(sol, geom)
        neumann = series.general_dirichlet_dtn(
            dirichlet, lam, SIDE_LENGTH, m_max=INTERIOR_SERIES_M
        )
        traces[lam] = (sol, interior.TraceSet(geom, dirichlet, neumann))
    sym_sol = symmetric_family(rng, 1.0)
    sym_data = all_traces(sym_sol, geom)[0][0]

    def point_op(label, evaluate, sol, z, tol=INTERIOR_TOL):
        exact = float(sol.q(z))

        def check(got):
            return _check(relative_error(got, exact), tol, label)

        return Op(label, lambda: evaluate(z), check)

    for lam in (0.0, 1.0):
        sol, trace_set = traces[lam]
        for z in interior_points(rng, stratified_margins(GREENS_POINTS)):
            ops.append(
                point_op(
                    f"greens_eval/lam{lam:g}",
                    lambda z, ts=trace_set, lam=lam: interior.greens_eval(ts, lam, z),
                    sol,
                    z,
                )
            )
    sol, trace_set = traces[1.0]
    for z in interior_points(rng, stratified_margins(FOKAS_POINTS, rng)):
        ops.append(
            point_op(
                "fokas_eval/lam1",
                lambda z: interior.fokas_eval(trace_set, 1.0, z),
                sol,
                z,
            )
        )
    for z in interior_points(rng, stratified_margins(SYMMETRIC_POINTS, rng)):
        ops.append(
            point_op(
                "symmetric_interior/lam1",
                lambda z: interior.symmetric_interior(
                    sym_data, 1.0, z, geometry=geom, order=SYMMETRIC_INTERIOR_ORDER
                ),
                sym_sol,
                z,
                SYMMETRIC_INTERIOR_TOL,
            )
        )
    return ops


WORKLOADS = {
    "cli-series": setup_cli_series,
    "contour-residue": setup_contour_residue,
    "interior-field": setup_interior_field,
}

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import tridtn.expressions
from tridtn.cli import _csv_rows, _trace_values, build_parser, main
from tridtn.expressions import MAX_DEPTH
from tridtn.traces import BoundaryTrace

from conftest import fresh_python


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sym_dirichlet_cfg(truncation=16, samples=32):
    return {
        "lam": 1.0,
        "side_length": 1.0,
        "bc": [{"kind": "dirichlet", "data": "cos(2*pi*s/l)"} for _ in range(3)],
        "truncation": truncation,
        "samples": samples,
    }


def test_solve_writes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, sym_dirichlet_cfg())
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    traces = (out / "traces.csv").read_text().splitlines()
    assert traces[0] == "s,side1,side2,side3"
    assert len(traces) == 1 + 33
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["residual_audit"] is not None


def test_solve_byte_determinism(tmp_path):
    cfg = write_cfg(tmp_path, sym_dirichlet_cfg())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("traces.csv", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _count_parses(monkeypatch):
    calls = []
    parse = tridtn.expressions.parse_expression
    monkeypatch.setattr(tridtn.expressions, "parse_expression",
                        lambda text: calls.append(text) or parse(text))
    return calls


def test_identical_side_data_are_parsed_once(tmp_path, monkeypatch):
    # the sides of a symmetric config share one trace; distinct data do not
    calls = _count_parses(monkeypatch)
    assert main(["solve", "--config", write_cfg(tmp_path, sym_dirichlet_cfg()),
                 "--out", str(tmp_path / "sym")]) == 0
    assert calls == ["cos(2*pi*s/l)"]
    cfg = sym_dirichlet_cfg()
    for entry, data in zip(cfg["bc"], ["cos(2*pi*s/l)", "s^2 - 1/12", "exp(s)"]):
        entry["data"] = data
    calls.clear()
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "gen")]) == 0
    assert calls == ["cos(2*pi*s/l)", "s^2 - 1/12", "exp(s)"]


def test_verify_parses_six_distinct_data_six_times(tmp_path, monkeypatch):
    calls = _count_parses(monkeypatch)
    cfg = sym_dirichlet_cfg()
    cfg["complement"] = [{"kind": "neumann", "data": f"{j}*s"} for j in (1, 2, 3)]
    for j, entry in enumerate(cfg["bc"], start=1):
        entry["data"] = f"{j}*cos(s)"
    assert main(["verify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    assert sorted(calls) == ["1*cos(s)", "1*s", "2*cos(s)", "2*s", "3*cos(s)", "3*s"]


def test_parser_is_built_once_and_calls_share_no_state(tmp_path):
    assert build_parser() is build_parser()
    cfg = sym_dirichlet_cfg()
    cfg["complement"] = [{"kind": "neumann", "data": "0"}] * 3
    cfg["sweep"] = [4, 8]
    path = write_cfg(tmp_path, cfg)
    for command in ("solve", "verify", "sweep"):
        outs = [tmp_path / command / name for name in ("a", "b")]
        for out in outs:
            assert main([command, "--config", path, "--out", str(out)]) == 0
        for f in outs[0].iterdir():
            assert f.read_bytes() == (outs[1] / f.name).read_bytes(), f
    for seed, out in [(["--seed", "3"], "seeded"), ([], "default")]:
        assert main(["verify", "--config", path, "--out", str(tmp_path / out)] + seed) == 0
    seeds = [json.loads((tmp_path / out / "manifest.json").read_text())["seed"]
             for out in ("seeded", "default")]
    assert seeds == [3, 0]


def test_missing_config_is_config_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "missing.json")]) == 2


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path)]) == 2


def test_inadmissible_problem_is_config_error(tmp_path):
    cfg = sym_dirichlet_cfg()
    cfg["bc"] = [
        {"kind": "robin", "data": "1", "gamma": 0.5},
        {"kind": "neumann", "data": "0"},
        {"kind": "neumann", "data": "0"},
    ]
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2


def test_numerical_failure_exit_code(tmp_path):
    # lam = 0 all-Neumann data with nonzero total flux: SolvabilityError -> 3
    cfg = {
        "lam": 0.0,
        "side_length": 1.0,
        "bc": [{"kind": "neumann", "data": "1"} for _ in range(3)],
        "truncation": 8,
        "samples": 16,
    }
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 3


def test_negative_lambda_is_config_error(tmp_path):
    cfg = sym_dirichlet_cfg()
    cfg["lam"] = -2
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert not (out / "traces.csv").exists()


@pytest.mark.parametrize("data", ["exp(1400*s)", "exp(1415*s)", "1/(s-s)"])
def test_non_finite_numerics_exit_3_and_write_nothing(tmp_path, capsys, data):
    # overflow of a collapsed coefficient, and data that evaluate to inf or
    # NaN: typed numerical failures, one line on stderr, no partial output
    cfg = sym_dirichlet_cfg()
    for entry in cfg["bc"]:
        entry["data"] = data
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", path, "--out", str(out)]) == 3
    # a warning would print its own lines to stderr outside the test run
    lines = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure:"), lines
    assert not (out / "traces.csv").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "kind, tail",
    [("dirichlet", ""), ("dirichlet", " + s^2 - l^2/4"), ("neumann", "")],
    ids=["symmetric", "general", "neumann"],
)
def test_tiny_positive_lambda_is_solved_as_lambda_zero(tmp_path, kind, tail):
    # the m = 0 mode's denominator 2 sinh(sqrt(3 lam) l/2) vanishes with its
    # numerator; below the resonance threshold the mode is taken at lam = 0
    runs = []
    for lam in (0.0, 5e-324, 1e-300, 1e-20):
        cfg = sym_dirichlet_cfg()
        cfg["lam"] = lam
        for entry, extra in zip(cfg["bc"], ("", tail, "")):
            entry["kind"], entry["data"] = kind, entry["data"] + extra
        out = tmp_path / f"lam{lam}"
        assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        runs.append(np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1))
    for run in runs[1:]:
        assert np.max(np.abs(run - runs[0])) <= 1e-10


def test_tiny_positive_lambda_integral_solve_matches_lambda_zero(tmp_path):
    # the contour solver's root pair k = +-i sqrt(lam) cancels like the m = 0
    # series mode; at lam 1e-40 it wrote traces near 1.6e4 (true 3.6)
    runs = []
    for lam in (0.0, 1e-40, 1e-200):
        cfg = sym_dirichlet_cfg()
        cfg["lam"] = lam
        out = tmp_path / f"lam{lam}"
        path = write_cfg(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(out), "--solver", "integral"]) == 0
        runs.append(np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1))
        assert json.loads((out / "manifest.json").read_text())["residual_audit"] < 1e-2
    for run in runs[1:]:
        assert np.max(np.abs(run - runs[0])) <= 1e-10 * np.max(np.abs(runs[0]))


@pytest.mark.parametrize("lam", [5e-20, 1e-18, 1e-16, 1e-14])
def test_small_lambda_neumann_mean_is_accurate_or_refused(tmp_path, capsys, lam):
    # just above the lambda = 0 threshold the boundary mean, flux/(4 lam
    # area), is set by the rounding of a zero flux unless it is refused
    runs = {}
    for key in (1e-8, lam):
        cfg = sym_dirichlet_cfg()
        cfg["lam"] = key
        for entry in cfg["bc"]:
            entry["kind"] = "neumann"
        out = tmp_path / f"lam{key}"
        code = main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        if code == 0:
            runs[key] = np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1)
    assert 1e-8 in runs
    if lam in runs:
        assert np.max(np.abs(runs[lam] - runs[1e-8])) <= 1e-6
    else:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "Neumann-to-Dirichlet map" in lines[0], lines
        assert not (tmp_path / f"lam{lam}").exists()


def mixed_cfg(lam):
    cfg = sym_dirichlet_cfg()
    del cfg["truncation"]  # the CLI default
    cfg["lam"] = lam
    cfg["bc"] = [
        {"kind": "robin", "data": "cos(2*pi*s/l)", "gamma": math.sqrt(3.0 * lam)},
        {"kind": "neumann", "data": "s"},
        {"kind": "neumann", "data": "0"},
    ]
    return cfg


def test_mixed_solve_at_large_lambda(tmp_path):
    # the mode roots are counted in mu = k + lam/k, where no essential
    # point sits near the audit box, so lam = 100 is certified
    out = tmp_path / "o"
    assert main(["solve", "--config", write_cfg(tmp_path, mixed_cfg(100.0)), "--out", str(out)]) == 0
    traces = np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1)
    assert traces.shape == (33, 2) and np.all(np.isfinite(traces))


def test_mixed_solve_past_a_thousand_modes(tmp_path):
    # the phase of each mode root is reduced by its 2 pi m, so truncation
    # 1100 certifies (it exited 3 with a 1.02e-12 residual); about 50 ms
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, mixed_cfg(1.0))
    assert main(["solve", "--config", cfg, "--truncation", "1100", "--out", str(out)]) == 0
    traces = np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(traces))


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_mixed_solve_outside_the_lambda_range_exits_3(tmp_path, capsys, lam):
    out = tmp_path / "o"
    assert main(["solve", "--config", write_cfg(tmp_path, mixed_cfg(lam)), "--out", str(out)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "mixed Neumann-Robin trace" in lines[0], lines
    assert "certified range" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "sweep", "oracle"])
def test_mixed_solve_at_lambda_zero_is_config_error(tmp_path, monkeypatch, capsys, command):
    # the mixed solver needs lam > 0: bad input, refused before solving
    import tridtn.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the mixed solve ran")

    monkeypatch.setattr(cli, "mixed_nr_trace", no_solve)
    cfg = mixed_cfg(0.0)
    cfg.update(sweep=[4, 8], oracle={"h": 1.0 / 16})
    code, lines, out = _run_one_line(tmp_path, capsys, cfg, command)
    assert code == 2 and "mixed Neumann-Robin solver needs lam > 0" in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("gamma", [0.0, -math.sqrt(3.0)], ids=["zero", "negative"])
@pytest.mark.parametrize("command", ["solve", "sweep", "oracle"])
def test_mixed_config_the_solver_cannot_take_is_config_error(tmp_path, monkeypatch, capsys, command, gamma):
    # Robin gamma = 0 and -sqrt(3 lam) pass the admissibility check, but the
    # mixed solver takes only +sqrt(3 lam): bad input, refused before solving
    import tridtn.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the mixed solve ran")

    monkeypatch.setattr(cli, "mixed_nr_trace", no_solve)
    cfg = mixed_cfg(1.0)
    cfg["bc"][0]["gamma"] = gamma
    cfg.update(sweep=[4, 8], oracle={"h": 1.0 / 16})
    code, lines, out = _run_one_line(tmp_path, capsys, cfg, command)
    assert code == 2 and lines[0].startswith("config error:"), lines
    assert "gamma = sqrt(3 lambda) on side 1" in lines[0], lines
    assert not out.exists()


DIRICHLET_ZERO = {"kind": "dirichlet", "data": "0"}


def _bc(*entries):
    return lambda cfg: {**cfg, "bc": list(entries)}


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("solve", lambda cfg: [cfg], "config root must be an object"),
        ("solve", lambda cfg: {k: v for k, v in cfg.items() if k != "lam"}, "required key 'lam'"),
        ("solve", lambda cfg: {k: v for k, v in cfg.items() if k != "side_length"}, "'side_length'"),
        ("solve", lambda cfg: {k: v for k, v in cfg.items() if k != "bc"}, "required key 'bc'"),
        ("sweep", lambda cfg: {**cfg, "sweep": [8]}, "at least two truncations"),
        ("solve", _bc({"data": "0"}, DIRICHLET_ZERO, DIRICHLET_ZERO), "side 1: each bc entry needs a 'kind'"),
        ("solve", _bc(DIRICHLET_ZERO, {"kind": "cauchy"}, DIRICHLET_ZERO), "side 2: unknown bc kind"),
        ("solve", _bc(DIRICHLET_ZERO, {"kind": "neumann"}, DIRICHLET_ZERO), "mixed Dirichlet/derivative"),
        (
            "solve",
            _bc({"kind": "neumann"}, {"kind": "robin", "gamma": math.sqrt(3.0)}, {"kind": "neumann"}),
            "unsupported side-condition combination: neumann, robin, neumann",
        ),
        ("verify", lambda cfg: cfg, "verify needs a 'complement'"),
    ],
    ids=["root-list", "no-lam", "no-side-length", "no-bc", "sweep-of-one", "no-kind", "unknown-kind",
         "dirichlet-and-neumann", "neumann-robin-neumann", "verify-no-complement"],
)
def test_refused_config_exits_2_with_one_line(tmp_path, capsys, command, edit, message):
    code, lines, out = _run_one_line(tmp_path, capsys, edit(sym_dirichlet_cfg(truncation=8)), command)
    assert code == 2 and lines[0].startswith("config error:") and message in lines[0], lines
    assert not out.exists()


def _spy_on_series_maps(monkeypatch):
    """The names of the series maps that the CLI calls, in call order."""
    import tridtn.cli as cli

    ran = []
    for name in ("symmetric_dirichlet_dtn", "general_dirichlet_dtn"):
        def spy(*args, _name=name, _map=getattr(cli, name), **kwargs):
            ran.append(_name)
            return _map(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    return ran


def test_one_expression_text_on_every_side_runs_the_symmetric_map(tmp_path, monkeypatch, capsys):
    # sides with one expression text share one trace, which is what makes
    # the data symmetric
    ran = _spy_on_series_maps(monkeypatch)
    code, _, _ = _run_one_line(tmp_path, capsys, sym_dirichlet_cfg(truncation=8))
    assert code == 0 and ran == ["symmetric_dirichlet_dtn"]


def test_equal_valued_but_differently_written_data_run_the_general_map(tmp_path, monkeypatch, capsys):
    ran = _spy_on_series_maps(monkeypatch)
    cfg = sym_dirichlet_cfg(truncation=8)
    cfg["bc"][1]["data"] = "cos(2*pi*s/l) + 0"
    code, _, _ = _run_one_line(tmp_path / "series", capsys, cfg)
    assert code == 0 and ran == ["general_dirichlet_dtn"]
    cfg["solver"] = "integral"
    code, lines, out = _run_one_line(tmp_path / "integral", capsys, cfg)
    assert code == 2 and "integral solver needs symmetric Dirichlet data" in lines[0], lines
    assert not out.exists() and ran == ["general_dirichlet_dtn"]


@pytest.mark.parametrize("data, side_length", [("cos(2*pi*s/l)", 1e300), ("10^400", 1.0)])
def test_expression_overflow_names_the_side(tmp_path, capsys, data, side_length):
    # an overflowing power is inf, as in numpy, so the failure is reported
    # by the stage that meets it, not as a bare OverflowError
    cfg = sym_dirichlet_cfg()
    cfg["side_length"] = side_length
    for entry in cfg["bc"]:
        entry["data"] = data
    path = write_cfg(tmp_path, cfg)
    code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert code in (0, 3)
    if code == 3:
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "side" in lines[0], lines


@pytest.mark.parametrize("data", ["1/0", "1/(l-l)", "1/(pi-pi)*s"])
@pytest.mark.parametrize("command", ["solve", "verify", "interior", "oracle"])
def test_constant_division_by_zero_exits_3_naming_the_side(tmp_path, capsys, command, data):
    # constants divide as numpy floats: the data are inf or NaN, and the
    # stage that reads them names their side, with no ZeroDivisionError
    cfg = sym_dirichlet_cfg()
    cfg["bc"][1]["data"] = data
    cfg["complement"] = [{"kind": "neumann", "data": "0"}] * 3
    cfg["oracle"] = {"h": 1.0 / 8}
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    lines = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(lines) == 1 and "side 2" in lines[0], lines
    assert not out.exists()


def test_trace_values_evaluates_a_shared_trace_once():
    calls = []
    shared = BoundaryTrace(1, lambda s: calls.append(len(s)) or np.cos(s), np.sin)
    other = BoundaryTrace(3, np.sin, np.cos)
    s = np.linspace(-0.5, 0.5, 9)
    values = _trace_values({1: shared, 2: shared, 3: other}, s)
    assert calls == [9]
    assert values[1] is values[2] and np.array_equal(values[1], np.cos(s))
    assert np.array_equal(values[3], np.sin(s))


def test_failed_write_leaves_no_output(tmp_path, monkeypatch, capsys):
    # every output goes to a temporary file first; a write error is a
    # "cannot write" config error and leaves neither outputs nor temp files
    write_text = Path.write_text

    def fail_on_manifest(path, text, **kwargs):
        if "manifest" in path.name:
            raise OSError("disk full")
        return write_text(path, text, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_on_manifest)
    cfg = write_cfg(tmp_path, sym_dirichlet_cfg())
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_unwritable_out_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = write_cfg(tmp_path, sym_dirichlet_cfg())
    assert main(["solve", "--config", cfg, "--out", str(blocker / "run")]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_solve_spline_samples_match_expressions(tmp_path):
    # {"samples": file} data (a cubic spline through the rows) against the
    # same field as three different expressions; both take the general map
    s = np.linspace(-0.5, 0.5, 201)
    table = tmp_path / "cos.csv"
    rows = "".join(f"{x:.17e},{math.cos(2 * math.pi * x):.17e}\n" for x in s)
    table.write_text("s,value\n" + rows)
    spline = {"lam": 1.0, "side_length": 1.0, "truncation": 64, "samples": 32}
    spline["bc"] = [{"kind": "dirichlet", "data": {"samples": str(table)}} for _ in range(3)]
    exprs = dict(spline)
    exprs["bc"] = [
        {"kind": "dirichlet", "data": text}
        for text in ("cos(2*pi*s/l)", "cos(-2*pi*s/l)", "cos(2*pi*s)")
    ]
    runs = []
    for name, cfg in (("spline", spline), ("exprs", exprs)):
        out = tmp_path / name
        path = write_cfg(tmp_path, cfg, f"{name}.json")
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert math.isfinite(json.loads((out / "manifest.json").read_text())["residual_audit"])
        runs.append(np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1))
    assert np.max(np.abs(runs[0] - runs[1])) < 1e-5


@pytest.mark.parametrize(
    "rows",
    ["0.0,1\n0.1,x\n", "0.0,1\n", "-0.5\n0.0\n0.5\n", "-0.5,1\n0.0,nan\n0.5,1\n",
     "-0.5,1\n0.5,1\n0.0,1\n", 5,
     "".join(f"{x:.17e},{math.cos(2 * math.pi * x):.17e}\n" for x in np.linspace(-0.2, 0.2, 21))],
    ids=["non-numeric", "one-row", "one-column", "nan", "s-not-increasing", "not-a-file",
         "short-of-the-side"],
)
def test_malformed_samples_table_is_config_error(tmp_path, capsys, rows):
    # each malformed table names its side and its file in one stderr line
    samples = rows
    if isinstance(rows, str):
        samples = str(tmp_path / "table.csv")
        Path(samples).write_text("s,value\n" + rows)
    cfg = sym_dirichlet_cfg()
    cfg["bc"][1]["data"] = {"samples": samples}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "side 2" in lines[0] and str(samples) in lines[0], lines
    assert not out.exists()


def test_bad_expression_is_config_error(tmp_path):
    cfg = sym_dirichlet_cfg()
    cfg["bc"][0]["data"] = "sin(s"
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2


def _run_one_line(tmp_path, capsys, cfg, command="solve"):
    """Exit code and stderr lines of one run; a failed run must leave no files."""
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    lines = [str(w.message) for w in caught] + capsys.readouterr().err.splitlines()
    if code:
        assert len(lines) == 1 and "Traceback" not in lines[0], lines
        assert not out.exists() or not any(out.iterdir())
    return code, lines, out


def test_expression_depth_limit(tmp_path, capsys):
    # cos(2*pi*s/l) is five levels deep, and each '/1' adds one; at the limit
    # the run is the plain expression's, past it one config-error line
    plain = sym_dirichlet_cfg()
    code, _, out = _run_one_line(tmp_path, capsys, plain)
    assert code == 0
    want = (out / "traces.csv").read_bytes()
    for extra, expected in [(MAX_DEPTH - 5, 0), (MAX_DEPTH - 4, 2)]:
        cfg = sym_dirichlet_cfg()
        for entry in cfg["bc"]:
            entry["data"] += "/1" * extra
        code, lines, out = _run_one_line(tmp_path / str(extra), capsys, cfg)
        assert code == expected
        if code == 0:
            assert (out / "traces.csv").read_bytes() == want
        else:
            assert f"nested deeper than {MAX_DEPTH} levels (at offset 203)" in lines[0], lines


@pytest.mark.parametrize("command", ["solve", "verify", "sweep", "interior", "oracle"])
def test_derivative_is_read_only_for_dirichlet_data(tmp_path, capsys, command):
    # d/ds of 2^s fails; Neumann data never read their derivative, so only
    # the Dirichlet run is a config error naming the '^'
    for kind, other in [("neumann", "dirichlet"), ("dirichlet", "neumann")]:
        cfg = {
            "lam": 1.0,
            "side_length": 1.0,
            "bc": [{"kind": kind, "data": "2^s"} for _ in range(3)],
            "complement": [{"kind": other, "data": "0"} for _ in range(3)],
            "truncation": 16,
            "samples": 16,
            "sweep": [4, 8],
            "audit_points": 5,
            "oracle": {"h": 1.0 / 16},
        }
        code, lines, out = _run_one_line(tmp_path / kind, capsys, cfg, command)
        if kind == "neumann":
            assert code == 0
            rows = [f for f in out.iterdir() if f.suffix == ".csv"][0].read_text().splitlines()[1:]
            assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
        else:
            assert code == 2
            assert lines[0].endswith("d/ds of a power needs a constant exponent (at offset 1)")


def test_verify_subcommand(tmp_path):
    cfg = {
        "lam": 1.0,
        "side_length": 1.0,
        "bc": [{"kind": "dirichlet", "data": "cos(2*pi*s/l)"} for _ in range(3)],
        "complement": [{"kind": "neumann", "data": "0"} for _ in range(3)],
        "audit_points": 10,
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "v"
    assert main(["verify", "--config", path, "--out", str(out)]) == 0
    rows = (out / "audit.csv").read_text().splitlines()
    assert rows[0] == "re_k,im_k,relative_residual"
    assert len(rows) == 11
    manifest = json.loads((out / "manifest.json").read_text())
    # a zero Neumann guess is badly wrong: the audit must say so
    assert manifest["worst_relative_residual"] > 1e-3


def test_sweep_subcommand(tmp_path):
    cfg = sym_dirichlet_cfg()
    cfg["sweep"] = [8, 16, 32]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "s"
    assert main(["sweep", "--config", path, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "truncation,max_diff_to_finest"
    diffs = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(diffs) == 2
    assert diffs[0] > diffs[1]  # coarser truncation sits farther from finest


def test_interior_subcommand(tmp_path):
    cfg = sym_dirichlet_cfg(truncation=16)
    cfg["interior"] = {"margin": 0.15, "divisions": 6}
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "i"
    assert main(["interior", "--config", path, "--out", str(out)]) == 0
    rows = (out / "interior.csv").read_text().splitlines()
    assert rows[0] == "x,y,value"
    assert len(rows) > 1


def test_interior_values_match_per_point_evaluation(tmp_path):
    """One evaluator call on the lattice writes what per-point calls give."""
    from tridtn.cli import build_problem
    from tridtn.fdgrid import TriangularGrid
    from tridtn.interior import TraceSet, greens_eval
    from tridtn.series import symmetric_dirichlet_dtn

    cfg = sym_dirichlet_cfg(truncation=16)
    cfg["interior"] = {"margin": 0.1, "divisions": 8}
    out = tmp_path / "i"
    assert main(["interior", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    table = np.loadtxt(out / "interior.csv", delimiter=",", skiprows=1, ndmin=2)
    spec = build_problem(cfg)
    trace = symmetric_dirichlet_dtn(spec.side(1).data, 1.0, 1.0, n_max=16)
    traces = TraceSet(spec.geometry, tuple(s.data for s in spec.sides), (trace,) * 3)
    lattice = TriangularGrid(1.0, 8)
    i, j = lattice.nodes()
    points = [complex(z) for z in lattice.point(i, j) if spec.geometry.boundary_margin(z) >= 0.1]
    assert np.array_equal(table[:, 0] + 1j * table[:, 1], points)
    expected = [greens_eval(traces, 1.0, z) for z in points]
    assert np.max(np.abs(table[:, 2] - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_fokas_interior_at_lambda_zero_is_config_error(tmp_path, capsys):
    cfg = sym_dirichlet_cfg(truncation=8)
    cfg["lam"] = 0.0
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "i"
    assert main(["interior", "--solver", "fokas", "--config", path, "--out", str(out)]) == 2
    assert "lam > 0" in capsys.readouterr().err
    assert not out.exists()


def test_interior_rejects_mixed_problem_before_solving(tmp_path, monkeypatch, capsys):
    import tridtn.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the mixed solve ran")

    monkeypatch.setattr(cli, "mixed_nr_trace", no_solve)
    cfg = sym_dirichlet_cfg(truncation=8)
    cfg["bc"] = [
        {"kind": "robin", "data": "1", "gamma": math.sqrt(3.0)},
        {"kind": "neumann", "data": "0"},
        {"kind": "neumann", "data": "0"},
    ]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "i"
    assert main(["interior", "--config", path, "--out", str(out)]) == 2
    assert "Dirichlet or Neumann" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("lam", "abc"),
        ("lam", float("inf")),
        ("lam", True),
        ("side_length", 0),
        ("side_length", -1.0),
        ("side_length", float("nan")),
        ("truncation", -3),
        ("truncation", 0),
        ("truncation", 8.5),
        ("--truncation", 0),
        ("samples", 0),
        ("samples", 1.5),
        ("sweep", [8, 0]),
        ("sweep", [8, "16"]),
        ("lam", -2.0),
        ("audit_points", 0),
        ("audit_points", 2.5),
        ("interior", 3),
        ("interior.divisions", 0),
        ("interior.divisions", "x"),
        ("interior.divisions", 1),
        ("interior.margin", 0.9),
        ("interior.margin", 0.25),
        ("interior.margin", 0),
        ("interior.margin", float("nan")),
        ("oracle", [1]),
        ("oracle.h", 0),
        ("oracle.h", 2),
        ("oracle.h", -0.25),
        ("oracle.h", float("inf")),
        ("oracle.h", "x"),
        ("oracle.corner_margin", 0.6),
        ("oracle.corner_margin", -0.1),
        ("bc", ["dirichlet"] * 3),
        ("bc.gamma", "x"),
        ("bc.beta", None),
    ],
)
def test_bad_numeric_key_is_config_error(tmp_path, capsys, key, value):
    cfg = sym_dirichlet_cfg(truncation=8)
    cfg["complement"] = [{"kind": "neumann", "data": "0"} for _ in range(3)]
    option = [key, str(value)] if key.startswith("--") else []
    group, _, inner = key.partition(".")
    if inner:
        for entry in cfg["bc"] if group == "bc" else [cfg.setdefault(group, {})]:
            entry[inner] = value
    elif not option:
        cfg[key] = value
    path = write_cfg(tmp_path, cfg)
    # lam reaches every subcommand; verify reads it without building a problem
    commands = {
        "sweep": ["sweep"],
        "audit_points": ["verify"],
        "interior": ["interior"],
        "oracle": ["oracle"],
        "lam": ["solve", "verify"],
    }.get(group, ["solve"])
    for command in commands:
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out), *option]) == 2
        err = capsys.readouterr().err
        assert key.lstrip("-") in err and "Traceback" not in err
        assert not out.exists()


def test_poincare_side_is_config_error(tmp_path, capsys):
    cfg = sym_dirichlet_cfg(truncation=8)
    cfg["bc"][1] = {"kind": "poincare", "data": "0", "beta": 1.0471975511965976}
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 2
    assert "side 2" in capsys.readouterr().err
    assert not out.exists()


#: the scipy modules a fresh ``import tridtn.cli`` leaves out: each is loaded
#: by the code path that calls it
LAZY_SCIPY = (
    "scipy.interpolate",
    "scipy.sparse",
    "scipy.sparse.linalg",
    "scipy.linalg",
    "scipy.special",
)


def test_cli_import_leaves_out_lazy_scipy_modules():
    code = f"import sys, tridtn.cli; print([m for m in {LAZY_SCIPY!r} if m in sys.modules])"
    assert fresh_python(code).strip() == "[]"


def test_fresh_process_imports_scipy_on_the_paths_that_call_it(tmp_path):
    # one fresh process runs a series solve, which loads no scipy module,
    # then a Green's interior run and the FD oracle, which import theirs on
    # first use; each writes what an in-process run (with every scipy
    # module already loaded) writes
    cfg = sym_dirichlet_cfg(truncation=32)
    cfg["oracle"] = {"h": 1.0 / 16}
    path = write_cfg(tmp_path, cfg)
    runs = [
        (["solve"], "traces.csv", []),
        (["interior", "--solver", "greens"], "interior.csv", ["scipy", "scipy.special"]),
        (["oracle"], "oracle.csv",
         ["scipy", "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.special"]),
    ]
    argvs = [[*argv, "--config", path, "--out", f"fresh-{i}"] for i, (argv, _, _) in enumerate(runs)]
    code = (
        "import sys\nfrom tridtn.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    rc = main(argv)\n"
        f"    print(rc, sorted(m for m in sys.modules if m in ('scipy', *{LAZY_SCIPY!r})))\n"
    )
    lines = fresh_python(code, cwd=tmp_path).splitlines()
    assert lines == [f"0 {loads!r}" for _, _, loads in runs]
    for i, (argv, output, _) in enumerate(runs):
        here = tmp_path / f"here-{i}"
        assert main([*argv, "--config", path, "--out", str(here)]) == 0
        for name in (output, "manifest.json"):
            assert (tmp_path / f"fresh-{i}" / name).read_bytes() == (here / name).read_bytes()


def test_oracle_subcommand(tmp_path):
    cfg = sym_dirichlet_cfg(truncation=32)
    cfg["oracle"] = {"h": 1.0 / 24}
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["oracle", "--config", path, "--out", str(out)]) == 0
    rows = (out / "oracle.csv").read_text().splitlines()
    assert rows[0] == "side,max_abs_difference"
    worst = json.loads((out / "manifest.json").read_text())["worst_difference"]
    assert worst < 5e-2


def test_solver_choice_validation(tmp_path):
    cfg = write_cfg(tmp_path, sym_dirichlet_cfg())
    assert main(["solve", "--config", cfg, "--solver", "greens"]) == 2
    assert main(["interior", "--config", cfg, "--solver", "integral"]) == 2
    assert main(["sweep", "--config", cfg, "--solver", "greens"]) == 2
    assert main(["oracle", "--config", cfg, "--solver", "greens"]) == 2
    with pytest.raises(SystemExit):
        main(["oracle", "--config", cfg, "--solver", "fd-oracle"])


@pytest.mark.parametrize("command", ["solve", "sweep", "oracle"])
def test_integral_solver_on_neumann_config_is_config_error(tmp_path, capsys, command):
    # the integral solver covers symmetric Dirichlet data only; it must not
    # run the series map and label it "integral"
    cfg = sym_dirichlet_cfg(truncation=8)
    cfg.update(sweep=[4, 8], oracle={"h": 1.0 / 16})
    for entry in cfg["bc"]:
        entry["kind"] = "neumann"
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out), "--solver", "integral"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "integral solver" in err
    assert not out.exists()


def test_mixed_manifest_names_the_contour_solver(tmp_path):
    cfg = sym_dirichlet_cfg(truncation=8, samples=16)
    cfg["bc"] = [
        {"kind": "robin", "data": "1", "gamma": math.sqrt(3.0)},
        {"kind": "neumann", "data": "0"},
        {"kind": "neumann", "data": "0"},
    ]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    details = json.loads((out / "manifest.json").read_text())["details"]
    assert details == {"solver": "integral", "truncation": 8}


def test_csv_rows_match_the_format_of_each_double():
    column = np.array([-0.0, 5e-324, 1.7976931348623157e308, 1 / 3, np.inf, -np.inf, np.nan])
    assert _csv_rows(column, -column) == [f"{x:.17e},{-x:.17e}" for x in column]

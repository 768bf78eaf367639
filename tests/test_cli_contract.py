"""The CLI input contract, on configs drawn from valid, invalid and extreme
key values and on valid and negative seeds: every run exits 0, 2 or 3 (2 for
a negative seed); a failed run prints exactly one line and no traceback, and
leaves no files; a successful run writes only finite values."""
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from tridtn.cli import main

#: key -> (valid values, extreme ones among them; invalid values).  A drawn
#: config breaks at most one key, so that the runs reach the solvers too.
#: MISSING leaves the key out.
MISSING = object()
KEYS = {
    "lam": ([0, 0.5, 1.0, 5.0, 5e-324, 1e3, 1e300], [-1.0, "1", True, None, math.nan, math.inf]),
    "side_length": ([1.0, 0.5, 2.0, 1e-300, 1e300], [0, -1.0, "l", MISSING]),
    "data": (
        ["cos(2*pi*s/l)", "1", "s^2 - 1/12", "exp(s)", "exp(1400*s)", "exp(800*s)^2", "1/(s-s)",
         "10^400", "1/0", "1/(l-l)", "2^s"],
        ["sin(", "s + @", 7, {"samples": "missing.csv"}, "(" * 250 + "s" + ")" * 250],
    ),
    "kinds": (
        [("dirichlet",) * 3, ("neumann",) * 3, ("robin", "neumann", "neumann")],
        [("dirichlet", "neumann", "neumann"), ("poincare", "neumann", "neumann"),
         ("bogus", "neumann", "neumann"), ("neumann",) * 2],
    ),
    "gamma": (["sqrt(3 lam)", 0], [0.5, -1.0, "x", math.nan]),
    "truncation": ([MISSING, 1, 2, 4, 8, 16], [0, -3, 2.5, "8", True]),
    "samples": ([MISSING, 1, 8, 16], [0, 1.5, "8"]),
    "audit_points": ([MISSING, 1, 10], [0, 2.5]),
    "sweep": ([[4, 8], [2, 8, 16]], [[8], [8, 0], "x"]),
    "interior": ([MISSING, {"divisions": 4}, {"divisions": 6, "margin": 0.2}],
                 [{"divisions": 0}, {"divisions": 1}, {"margin": 0.9}, 3]),
    # a valid "h" is a number of divisions of the side, set to l / divisions
    "oracle": ([{"h": 16}, {"h": 8, "corner_margin": 0.1}],
               [{"h": 0.3}, {"h": 1e-7}, {"h": 0}, {"corner_margin": -1}, [1]]),
    # OTHER_KIND is three sides of the trace kind that bc does not give
    "complement": (["OTHER_KIND"], [MISSING, [], "x"]),
    "solver": ([MISSING], ["bogus", 3, "fokas"]),
}
#: each subcommand with the --solver values it accepts, then one it refuses
COMMANDS = {
    "solve": [None, "series", "integral", "greens"],
    "verify": [None],
    "interior": [None, "greens", "fokas", "series"],
    "sweep": [None, "series", "integral", "fokas"],
    "oracle": [None, "series", "integral", "greens"],
}


@st.composite
def configs(draw):
    # one config in four breaks a key
    broken = draw(st.sampled_from(list(KEYS))) if draw(st.integers(0, 3)) == 3 else None
    pick = {
        key: draw(st.sampled_from(invalid if key == broken else valid))
        for key, (valid, invalid) in KEYS.items()
    }
    lam, kinds = pick["lam"], pick["kinds"]
    symmetric = draw(st.booleans())
    bc = []
    for kind in kinds:
        data = pick["data"] if symmetric or not bc else draw(st.sampled_from(KEYS["data"][0]))
        entry = {"kind": kind, "data": data}
        if kind == "robin":
            gamma = pick["gamma"]
            if gamma == "sqrt(3 lam)":
                gamma = math.sqrt(3.0 * lam) if lam in KEYS["lam"][0] else 1.0
            entry["gamma"] = gamma
        if kind == "poincare":
            entry["beta"] = math.pi / 3.0
        bc.append(entry)
    cfg = {"lam": lam, "side_length": pick["side_length"], "bc": bc}
    for key in ("truncation", "samples", "audit_points", "sweep", "interior", "oracle",
                "complement", "solver"):
        cfg[key] = pick[key]
    if cfg["complement"] == "OTHER_KIND":
        other = "neumann" if kinds[0] == "dirichlet" else "dirichlet"
        cfg["complement"] = [{"kind": other, "data": "0"}] * 3
    if pick["oracle"] in KEYS["oracle"][0] and isinstance(cfg["side_length"], float):
        cfg["oracle"] = {**pick["oracle"], "h": cfg["side_length"] / pick["oracle"]["h"]}
    return {key: value for key, value in cfg.items() if value is not MISSING}


def _reject_constant(name):
    raise AssertionError(f"manifest holds {name}")


def _check_outputs(out: Path):
    files = sorted(out.iterdir())
    assert [f.name for f in files if f.suffix == ".json"] == ["manifest.json"]
    for path in files:
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
            continue
        header, *rows = path.read_text().splitlines()
        assert rows and header
        for row in rows:
            assert all(math.isfinite(float(x)) for x in row.split(",")), row


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=configs(), command=st.sampled_from(list(COMMANDS)), data=st.data())
def test_cli_contract(cfg, command, data):
    solver = data.draw(st.sampled_from(COMMANDS[command]))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        argv = [command, "--config", str(path), "--out", str(out)]
        if solver is not None:
            argv += ["--solver", solver]
        seed = data.draw(st.sampled_from([None, 0, 3, -1, -2**40]))
        if seed is not None:
            argv += ["--seed", str(seed)]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        # a warning prints its own lines to stderr outside a test run
        lines = [str(w.message) for w in caught] + err.getvalue().splitlines()
        assert code in (0, 2, 3)
        if seed is not None and seed < 0:
            assert code == 2, lines
        if code == 0:
            _check_outputs(out)
        else:
            assert len(lines) == 1 and "Traceback" not in lines[0], lines
            assert not out.exists() or not any(out.iterdir())

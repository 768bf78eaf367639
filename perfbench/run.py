"""tridtn benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
One client in one process runs the fixed batch of ops of the workload in a
closed loop (the next op starts when the previous one has finished) for
``--seconds`` seconds, checking every op's output against the manufactured
reference.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of the traced run with
``--trace 1``.  Lines before it give the same numbers for reading, with the
environment.  Raw per-op timings (and, traced, the spans) are written under
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS and OpenMP pool size, set before numpy is imported.  One thread: the
#: loop has one client, and a second BLAS thread only adds contention.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WORKLOAD_NAMES = ("cli-series", "contour-residue", "interior-field")
#: set-up runs once before the loop and again every SETUP_INTERVAL_S of an
#: untraced run; setup_s takes the medians.  A fresh interpreter's import
#: time moves by up to 1.7x between runs in the machine's slow phases, and
#: repeats taken back to back all fall in the same phase.
SETUP_INTERVAL_S = 5.0
#: modules whose import counts as set-up time
IMPORTS = "numpy, scipy.sparse, tridtn.cli, tridtn.interior, tridtn.poincare, tridtn.oracle"
#: standard-library modules, no tridtn code, whose import in a fresh
#: interpreter right after each import of IMPORTS is the reference for it:
#: import times are scaled to the speed at which these take REF_IMPORT_S
REF_IMPORTS = (
    "asyncio, email.parser, http.client, xml.etree.ElementTree, smtplib, imaplib, "
    "xmlrpc.client, http.server, mailbox, urllib.request, pdb, doctest, configparser, "
    "tarfile, multiprocessing.pool, xml.dom.minidom, xml.sax, html.parser, plistlib, "
    "shelve, pstats, cProfile, timeit, trace, zipapp, venv, uuid, ssl, sqlite3, "
    "wsgiref.simple_server, ftplib, poplib, fractions"
)
REF_IMPORT_S = 0.2
#: op_p90_s needs at least ten samples above it
P90_MIN_OPS = 100
#: floor for log10 of an error (double precision roundoff)
ERR_FLOOR = 1e-16
#: the calibration loop runs before an op when this long has passed since its
#: last run, and timings are scaled to the speed at which it takes CAL_REF_S
CAL_INTERVAL_S = 0.25
CAL_REF_S = 0.006


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(modules: str) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    probe = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:  # the numba lane may be removed; record null then
        from tridtn.kernels import USE_NUMBA
    except ImportError:
        USE_NUMBA = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "use_numba": USE_NUMBA,
        "blas_threads": BLAS_THREADS,
        "thread_vars": list(THREAD_VARS),
        "git_commit": git_commit(),
    }


def calibrate() -> float:
    """Seconds one fixed loop takes: pure-Python arithmetic, small complex
    numpy arrays in a Python loop and small dense products, the mix the
    package spends its time in.  It runs no tridtn code.

    The machine this was built on runs the same code up to 2x slower in phases
    that last from seconds to minutes, on both vCPUs at once.  Scaling a run's
    timings by CAL_REF_S over the loop's mean time in that run halved their
    spread over seeds on contour-residue (0.096 to 0.049).
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += i * 0.5
    rng = np.random.default_rng(0)
    z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    a = z
    for _ in range(300):
        a = a * (0.5 * np.exp(1j * a.imag)) + np.maximum(a.real, 0.1)
    m = rng.standard_normal((48, 48))
    for _ in range(15):
        np.exp(np.multiply.outer(z, z[:40])) @ z[:40]
        m @ m
    return time.perf_counter() - start


def op_means(samples) -> list:
    """Each op's mean time over the run, which averages the machine's phases
    over the whole run; their sum is the time of one batch."""
    by_op = {}
    for s in samples:
        by_op.setdefault(s["op"], []).append(s["seconds"])
    return [statistics.fmean(d) for d in by_op.values()]


def run_loop(ops, seconds: float, tracer=None, setup=None):
    """Closed loop over the batch until ``seconds`` have passed.

    Untraced, the loop stops after the op running at the deadline, once every
    op has run.  Traced, passes alternate untraced and traced and only whole
    passes run, so per-batch counts are exact; it stops after the pass running
    at the deadline once both kinds have run.  ``setup()``, when given, runs
    between ops every SETUP_INTERVAL_S; the deadline moves by its time.
    """
    import tridtn.quadrature

    # the Gauss-Legendre node cache, while the package has one
    leggauss_cache = getattr(tridtn.quadrature, "_leggauss", None)
    samples, cal = [], []
    last_cal = -math.inf
    last_setup = time.perf_counter()
    deadline = last_setup + seconds
    leggauss = {"hits": 0, "misses": 0}
    n_pass = 0
    while True:
        traced = tracer is not None and n_pass % 2 == 1
        if traced:
            before = leggauss_cache.cache_info() if leggauss_cache else None
            tracer.install()
        try:
            for index, op in enumerate(ops):
                if tracer is None and n_pass > 0 and time.perf_counter() >= deadline:
                    break
                if setup is not None and time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
                    start = time.perf_counter()
                    setup()
                    last_setup = time.perf_counter()
                    deadline += last_setup - start
                if time.perf_counter() - last_cal >= CAL_INTERVAL_S:
                    cal.append((traced, calibrate()))
                    last_cal = time.perf_counter()
                err = message = None
                start = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # a failed op is counted, not fatal
                    message = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
                if message is None:
                    try:
                        err = op.check(result)
                    except Exception as exc:
                        message = f"{type(exc).__name__}: {exc}"
                samples.append(
                    {
                        "op": index,
                        "label": op.label,
                        "pass": n_pass,
                        "traced": traced,
                        "start": start,
                        "seconds": elapsed,
                        "err": err,
                        "error": message,
                    }
                )
        finally:
            if traced:
                tracer.uninstall()
                if before is not None:
                    after = leggauss_cache.cache_info()
                    leggauss["hits"] += after.hits - before.hits
                    leggauss["misses"] += after.misses - before.misses
        n_pass += 1
        if time.perf_counter() >= deadline and (tracer is None or n_pass >= 2):
            break
    return samples, leggauss, cal


def end_to_end(samples, setup: dict, run_speed: float) -> dict:
    """Op timings in seconds at the reference speed: raw seconds times the
    run's ``speed``.  ``setup_s`` is the median import time, each scaled by
    its reference import, plus the median in-process set-up time times
    ``speed``.  Import time does not follow the calibration loop (their
    correlation over 25 probes was -0.03 and 0.11), but it follows the
    reference import (0.46 and 0.75 over 25 and 30 probes), and scaling by
    it cut the spread of those probes from 0.16 to 0.13 and from 0.35 to
    0.10."""
    imports = statistics.median(
        t * REF_IMPORT_S / ref for t, ref in zip(setup["import_s"], setup["ref_import_s"])
    )
    in_process = statistics.median(setup["setup_s"])
    setup_s = imports + in_process * run_speed
    durations = [s["seconds"] for s in samples]
    means = op_means(samples)
    wall = sum(means)
    p50 = statistics.median(means)
    failed = sum(s["error"] is not None for s in samples)
    errors = [s["err"] for s in samples if s["err"] is not None]
    worst = max(max(errors, default=0.0), ERR_FLOOR)
    out = {
        "wall_s": (wall * run_speed, "s"),
        "op_p50_s": (p50 * run_speed, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / len(samples), "ratio"),
    }
    # for reading only: a tail percentile needs more ops than some runs have,
    # the error follows the seed's data, and fail_frac is 0 when all is well
    extra = {
        "wall_s.raw": (wall, "s"),
        "setup_s.raw": (
            statistics.median(setup["import_s"]) + in_process,
            "s",
        ),
        "op_p50_s.raw": (p50, "s"),
        "speed": (run_speed, "ratio"),
        "err_log10_max": (math.log10(worst), "log10"),
        "fail_frac": (failed / len(samples), "ratio"),
        "ops": (len(samples), "count"),
    }
    if len(samples) >= P90_MIN_OPS:
        extra["op_p90_s"] = (statistics.quantiles(durations, n=10)[-1] * run_speed, "s")
    return out, extra


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def speed(cal, traced=None) -> float:
    """CAL_REF_S over the calibration loop's mean time, over the whole run or
    over the passes of one kind (traced or not)."""
    times = [t for kind, t in cal if traced is None or kind == traced]
    return CAL_REF_S / statistics.fmean(times)


def per_layer(samples, tracer, leggauss, cal) -> dict:
    passes = len({s["pass"] for s in samples if s["traced"]})
    totals = {name: value / passes for name, value in tracer.totals().items()}
    derived = {
        "spectral.k_per_call": (
            _ratio(totals["spectral.eval.k_points"], totals["spectral.eval.calls"]),
            "count/call",
        ),
        "spectral.evals_per_build": (
            _ratio(totals["spectral.eval.calls"], totals["spectral.sampler_builds"]),
            "count/build",
        ),
        "traces.points_per_call": (
            _ratio(totals["traces.synthesis.points"], totals["traces.synthesis.calls"]),
            "count/call",
        ),
        "kernels.terms_per_s": (
            _ratio(
                totals["kernels.exp_weighted_sum.terms"],
                totals["kernels.exp_weighted_sum.self_s"],
            ),
            "1/s",
        ),
        "quadrature.leggauss.hits": (leggauss["hits"] / passes, "count"),
        "quadrature.leggauss.misses": (leggauss["misses"] / passes, "count"),
    }
    # each kind of pass at its own machine speed, so phases cancel
    traced = sum(op_means([s for s in samples if s["traced"]])) * speed(cal, True)
    plain = sum(op_means([s for s in samples if not s["traced"]])) * speed(cal, False)
    derived["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    out = {
        name: (value, "s" if name.endswith("_s") else "count")
        for name, value in sorted(totals.items())
    }
    out.update(derived)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tridtn" / "__init__.py").is_file():
        print(f"perfbench: no tridtn package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_record = {"import_s": [], "ref_import_s": [], "setup_s": []}

        def setup(where: Path):
            setup_record["import_s"].append(import_seconds(IMPORTS))
            setup_record["ref_import_s"].append(import_seconds(REF_IMPORTS))
            where.mkdir()
            start = time.perf_counter()
            ops = WORKLOADS[args.workload](np.random.default_rng(args.seed), where)
            setup_record["setup_s"].append(time.perf_counter() - start)
            return ops

        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        ops = setup(workdir / "ops")

        def resetup():
            where = workdir / f"setup-{len(setup_record['setup_s'])}"
            setup(where)
            shutil.rmtree(where)

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        samples, leggauss, cal = run_loop(
            ops, args.seconds, tracer, resetup if tracer is None else None
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics, extra = end_to_end(samples, setup_record, speed(cal))
    else:
        metrics, extra = per_layer(samples, tracer, leggauss, cal), {}
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    failed = [s for s in samples if s["error"] is not None]
    env = environment()
    record = {
        "args": vars(args),
        "environment": env,
        "setup": setup_record,
        "calibration_s": cal,
        "metrics": {k: v[0] for k, v in {**metrics, **extra}.items()},
        "samples": samples,
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    print("# environment " + json.dumps(env, sort_keys=True))
    for s in failed[:5]:
        print(f"# failed op {s['label']} (pass {s['pass']}): {s['error']}")
    for key, (value, unit) in {**metrics, **extra}.items():
        print(f"{key:45s} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

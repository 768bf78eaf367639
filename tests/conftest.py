"""Shared fixtures and helpers for the test suite."""
import os
import subprocess
import sys

import numpy as np
import pytest

from tridtn.geometry import TriangleGeometry
from tridtn.oracle import ExpAtomSolution, all_traces


def spectral_points(rng, count, side_length=1.0, r_lo=0.5, r_hi=3.0):
    """Random spectral points in the audit annulus, away from k = 0."""
    radii = rng.uniform(r_lo, r_hi, size=count) * (2.0 / side_length)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return radii * np.exp(1j * angles)


def manufactured_families(lam):
    """The three manufactured families used throughout verification."""
    out = [
        ExpAtomSolution.plane_wave(lam, 1.3 - 0.4j),
        ExpAtomSolution.real_exp(lam, b=1.1, phase=0.3),
    ]
    out.append(ExpAtomSolution.plane_wave(lam, 0.8 + 0.9j).symmetrized())
    return out


@pytest.fixture
def geom():
    return TriangleGeometry(1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def exact_trace_pair(sol, geom):
    return all_traces(sol, geom)


def fresh_python(code: str, cwd=None) -> str:
    """Run ``code`` in a fresh interpreter that sees the test's sys.path;
    returns its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    return done.stdout

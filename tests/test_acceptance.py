"""Acceptance gate: the ten headline checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Each criterion is a separate test at its stated tolerance; the operating
points (truncations, grid sizes, contour parameters) are fixed so every
item runs in well under a minute.
"""
import cmath
import json
import math

import numpy as np
import pytest

from tridtn.cli import main as cli_main
from tridtn.fdgrid import fd_solve
from tridtn.geometry import ALPHA, ALPHA_BAR, SQRT3, TriangleGeometry, exp_E, exp_e
from tridtn.interior import TraceSet, fokas_eval, greens_eval
from tridtn.oracle import (
    all_traces,
    corner_smooth_solution,
    poincare_trace,
    symmetric_corner_compatible,
)
from tridtn.poincare import (
    d_root_set,
    dirichlet_mode_roots,
    mixed_nr_trace,
    symmetric_dirichlet_integral,
)
from tridtn.problems import (
    BCKind,
    ProblemSpec,
    SideCondition,
    dirichlet_problem,
    mixed_nr_problem,
    neumann_problem,
)
from tridtn.relations import GlobalRelation
from tridtn.series import (
    general_dirichlet_dtn,
    neumann_to_dirichlet,
    symmetric_dirichlet_dtn,
)
from tridtn.spectral import Kind, SideSampler
from tridtn.traces import sample_grid

from conftest import manufactured_families, spectral_points
from reference import closed_form_elimination, eliminate_second_side, side_h

L = 1.0
SMOOTH_K0S = [0.9 + 0.3j, 1.4 - 0.5j, 0.7 + 1.1j, 1.9 + 0.2j, 0.5 - 0.9j,
              1.1 + 0.8j, 1.6 - 0.2j, 0.4 + 1.5j, 2.1 - 0.7j, 0.8 + 0.1j,
              1.2 + 1.2j, 1.8 + 0.6j]


def _report(num: int, ok: bool, detail: str = "") -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def _margin_grid(margin=0.02, n=513):
    return np.linspace(-L / 2 + margin * L, L / 2 - margin * L, n)


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def test_criterion_01_identity_suite():
    """Kernel and rotation identities at 100 random k per lambda."""
    rng = np.random.default_rng(11)
    worst = 0.0
    worst = max(worst, abs(ALPHA**2 - ALPHA_BAR))
    worst = max(worst, abs(1 + ALPHA + ALPHA_BAR))
    worst = max(worst, abs(1j * ALPHA_BAR - 1j * ALPHA - SQRT3) / SQRT3)
    worst = max(worst, abs(1j * ALPHA - 1j - SQRT3 * ALPHA_BAR) / SQRT3)
    for lam in (0.0, 1.0, 5.0):
        big = lambda w: exp_E(w, lam, L)
        small = lambda w: exp_e(w, lam, L)
        for _ in range(100):
            k = rng.uniform(0.3, 3.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            worst = max(worst, _rel(big(k) * big(ALPHA * k) * big(ALPHA_BAR * k), 1.0))
            worst = max(worst, _rel(big(1j * ALPHA_BAR * k) * big(-1j * ALPHA * k), small(k)))
            worst = max(worst, _rel(big(1j * ALPHA * k) * big(-1j * k), small(ALPHA_BAR * k)))
            # the cancellation identity behind the symmetric series
            worst = max(
                worst,
                _rel(big(-1j * k) * small(-k), big(-1j * ALPHA_BAR * k) * small(ALPHA_BAR * k)),
            )
    _report(1, worst <= 1e-12, f"worst relative {worst:.2e}")


def test_criterion_02_global_relation_audit():
    """Manufactured trace sets satisfy the global relation at 50 random k."""
    geom = TriangleGeometry(L)
    rng = np.random.default_rng(42)
    worst = 0.0
    for lam in (0.0, 1.0):
        for sol in manufactured_families(lam):
            d, n = all_traces(sol, geom)
            relation = GlobalRelation(d, n, lam, L)
            worst = max(worst, relation.residual_audit(spectral_points(rng, 50)))
    _report(2, worst <= 1e-8, f"worst relative residual {worst:.2e}")


def test_criterion_03_symmetric_dirichlet():
    """Symmetric solver reproduces the exact Neumann trace at N = 64."""
    lam = 1.0
    geom = TriangleGeometry(L)
    sol = symmetric_corner_compatible(lam, L)
    d, n = all_traces(sol, geom)
    trace = symmetric_dirichlet_dtn(d[0], lam, L, n_max=64)
    s = _margin_grid()
    err = float(np.max(np.abs(trace.value(s) - n[0](s))))
    _report(3, err <= 1e-6, f"max error {err:.2e}")


def test_criterion_04_round_trips():
    """D->N->D and N->D->N at N = 64; lambda = 0 modulo the gauge constant."""
    geom = TriangleGeometry(L)
    s = sample_grid(L, n=512, corner_margin=0.02)
    lam = 1.0
    sol = corner_smooth_solution(lam, L, SMOOTH_K0S, smooth_order=3)
    d, n = all_traces(sol, geom)
    qn = general_dirichlet_dtn(d, lam, L, m_max=64)
    back_d = neumann_to_dirichlet(qn, lam, L, m_max=64)
    qd = neumann_to_dirichlet(n, lam, L, m_max=64)
    back_n = general_dirichlet_dtn(qd, lam, L, m_max=64)
    worst = 0.0
    for j in range(3):
        worst = max(worst, float(np.max(np.abs(back_d[j].value(s) - d[j](s)))))
        worst = max(worst, float(np.max(np.abs(back_n[j].value(s) - n[j](s)))))
    sol0 = corner_smooth_solution(0.0, L, SMOOTH_K0S, smooth_order=3)
    d0, n0 = all_traces(sol0, geom)
    qd0 = neumann_to_dirichlet(n0, 0.0, L, m_max=64)
    offsets = [np.mean(qd0[j].value(s) - d0[j](s)) for j in range(3)]
    gauge_spread = max(abs(offsets[0] - offsets[1]), abs(offsets[0] - offsets[2]))
    for j in range(3):
        worst = max(worst, float(np.max(np.abs(qd0[j].value(s) - d0[j](s) - offsets[j]))))
    ok = worst <= 1e-6 and gauge_spread <= 1e-6
    _report(4, ok, f"worst {worst:.2e}, gauge spread {gauge_spread:.2e}")


def test_criterion_04_round_trips_relative_to_the_trace_scale():
    """The criterion-4 legs at N = 128, each bounded relative to the largest
    exact trace it reproduces: the absolute 1e-6 above is the size of the
    lambda = 1 traces themselves, so it cannot see a map off by a factor.
    The error falls as about N^-4.3 (finite corner smoothness); at N = 128
    the N->D->N leg, the largest, reads 3e-7."""
    geom = TriangleGeometry(L)
    s = sample_grid(L, n=512, corner_margin=0.02)

    def scale(traces):
        return max(float(np.max(np.abs(t(s)))) for t in traces)

    def relative(got, exact):
        return max(float(np.max(np.abs(g - t(s)))) for g, t in zip(got, exact)) / scale(exact)

    d, n = all_traces(corner_smooth_solution(1.0, L, SMOOTH_K0S, smooth_order=3), geom)
    back_d = neumann_to_dirichlet(general_dirichlet_dtn(d, 1.0, L, m_max=128), 1.0, L, m_max=128)
    back_n = general_dirichlet_dtn(neumann_to_dirichlet(n, 1.0, L, m_max=128), 1.0, L, m_max=128)
    d0, n0 = all_traces(corner_smooth_solution(0.0, L, SMOOTH_K0S, smooth_order=3), geom)
    qd0 = [q.value(s) for q in neumann_to_dirichlet(n0, 0.0, L, m_max=128)]
    offsets = [float(np.mean(q - t(s))) for q, t in zip(qd0, d0)]
    legs = {
        "D->N->D": relative([t.value(s) for t in back_d], d),
        "N->D->N": relative([t.value(s) for t in back_n], n),
        "N->D at lambda 0": relative([q - c for q, c in zip(qd0, offsets)], d0),
        "gauge spread": (max(offsets) - min(offsets)) / scale(d0),
    }
    assert all(err <= 1e-6 for err in legs.values()), legs


def test_criterion_05_dual_representation_and_elimination():
    """Series vs contour symmetric DtN; closed-form vs numeric elimination."""
    lam = 1.0
    geom = TriangleGeometry(L)
    sol = symmetric_corner_compatible(lam, L)
    d, _ = all_traces(sol, geom)
    series = symmetric_dirichlet_dtn(d[0], lam, L, n_max=64)
    integral = symmetric_dirichlet_integral(d[0], lam, L, n_max=64, t_factor=1280.0)
    s = _margin_grid(n=65)
    dual_err = float(np.max(np.abs(series.value(s) - integral.value(s))))

    beta, gamma = 1.0, 0.7
    sides = tuple(
        SideCondition(
            BCKind.POINCARE, poincare_trace(sol, geom, j, beta, gamma), beta=beta, gamma=gamma
        )
        for j in (1, 2, 3)
    )
    problem = ProblemSpec(lam=lam, geometry=geom, sides=sides)
    psi = [SideSampler(t, Kind.PSI, lam, L) for t in d]
    rng = np.random.default_rng(5)
    elim_err = 0.0
    for _ in range(20):
        k = complex((0.5 + 2.5 * rng.random()) * cmath.exp(2j * np.pi * rng.random()))
        numeric = eliminate_second_side(problem, k)
        big_d, gammas = closed_form_elimination(((beta, gamma),) * 3, k, lam, L)
        h2ab = side_h(ALPHA_BAR * k, lam, beta, gamma)
        closed_coeffs = [gammas[j] * side_h(k, lam, beta, gamma) / (big_d * h2ab) for j in range(3)]
        for j in range(3):
            elim_err = max(elim_err, _rel(closed_coeffs[j], numeric.coeffs[j]))
        # the closed-form inhomogeneity, realized through the exact unknowns
        # Y_j = PSI_j / (2 sin beta) of the Dirichlet traces
        inhom = (
            psi[1].eval(ALPHA_BAR * k) - sum(closed_coeffs[j] * psi[j].eval(k) for j in range(3))
        ) / (2.0 * math.sin(beta))
        elim_err = max(elim_err, _rel(inhom, numeric.inhom))
    ok = dual_err <= 1e-6 and elim_err <= 1e-8
    _report(5, ok, f"dual {dual_err:.2e}, elimination {elim_err:.2e}")


def _mixed_problem(lam, geom):
    sol = symmetric_corner_compatible(lam, L)
    gamma = math.sqrt(3.0 * lam)
    d, n = all_traces(sol, geom)
    problem = mixed_nr_problem(
        lam, geom, poincare_trace(sol, geom, 1, math.pi / 2.0, gamma), n[1], n[2]
    )
    return sol, d, problem


def test_criterion_06_mixed_neumann_robin():
    """Mixed NR side-2 Dirichlet trace vs exact and vs the FD oracle."""
    lam = 1.0
    geom = TriangleGeometry(L)
    sol, d, problem = _mixed_problem(lam, geom)
    trace = mixed_nr_trace(problem, count=64, t_factor=320.0)
    # the contour representation has a corner boundary layer, so the
    # comparison window leaves a 0.05 l margin at both ends of the side
    s = _margin_grid(margin=0.05, n=129)
    exact_err = float(np.max(np.abs(trace.value(s) - d[1](s))))

    oracle = fd_solve(problem, L / 128)
    s2, v2 = oracle.traces[2]
    mask = (s2 > -L / 2 + 0.05 * L) & (s2 < L / 2 - 0.05 * L)
    oracle_err = float(np.max(np.abs(v2[mask] - d[1](s2[mask]))))
    vs_oracle = float(np.max(np.abs(trace.value(s2[mask]) - v2[mask])))
    ok = exact_err <= 1e-5 and vs_oracle <= 3.0 * oracle_err
    _report(
        6, ok,
        f"vs exact {exact_err:.2e}, vs oracle {vs_oracle:.2e} (3x oracle {3 * oracle_err:.2e})",
    )


def test_criterion_07_interior_field():
    """greens_eval and fokas_eval vs manufactured fields and each other."""
    geom = TriangleGeometry(L)
    rng = np.random.default_rng(2024)
    points = []
    v = geom.vertices
    while len(points) < 25:
        w = rng.dirichlet((1.0, 1.0, 1.0))
        z = complex(w[0] * v[0] + w[1] * v[1] + w[2] * v[2])
        if geom.boundary_margin(z) >= 0.1 * L:
            points.append(z)
    worst = 0.0
    for lam in (0.0, 1.0):
        for sol in manufactured_families(lam):
            traces = TraceSet(geom, *all_traces(sol, geom))
            for p in points:
                exact = sol.q(p)
                scale = max(1.0, abs(exact))
                g = greens_eval(traces, lam, p)
                worst = max(worst, abs(g - exact) / scale)
                if lam > 0.0:
                    f = fokas_eval(traces, lam, p)
                    worst = max(worst, abs(f - exact) / scale)
                    worst = max(worst, abs(f - g) / scale)
    _report(7, worst <= 1e-6, f"worst {worst:.2e}")


def test_criterion_08_root_certification():
    """Every mode root is certified; argument-principle audit of D-roots."""
    worst = 0.0
    for lam in (1.0, 5.0):
        for root in dirichlet_mode_roots(lam, L, 12):
            worst = max(worst, root.residual)
    # the audit recounts the roots by contour winding and raises on mismatch
    for root in d_root_set(1.0, L, count=6, audit=True):
        worst = max(worst, root.residual)
    _report(8, worst <= 1e-12, f"worst residual {worst:.2e}")


def _trace_error(solution, exact, margin=0.02):
    worst = 0.0
    for side in (1, 2, 3):
        s, vals = solution.traces[side]
        mask = (s > -L / 2 + margin * L) & (s < L / 2 - margin * L)
        worst = max(worst, float(np.max(np.abs(vals[mask] - exact[side - 1](s[mask])))))
    return worst


def test_criterion_09_fd_oracle_quality():
    """Richardson convergence ratios across families and BC kinds."""
    lam = 1.0
    geom = TriangleGeometry(L)
    ratios = []
    for sol in manufactured_families(lam):
        d, n = all_traces(sol, geom)
        errs = [
            _trace_error(fd_solve(dirichlet_problem(lam, geom, d), 1.0 / m), n)
            for m in (16, 32)
        ]
        ratios.append(errs[0] / errs[1])
        errs = [
            _trace_error(fd_solve(neumann_problem(lam, geom, n), 1.0 / m), d)
            for m in (32, 64)
        ]
        ratios.append(errs[0] / errs[1])
    _, d, problem = _mixed_problem(lam, geom)
    errs = [_trace_error(fd_solve(problem, 1.0 / m), (d[0], d[1], d[2])) for m in (16, 32)]
    ratios.append(errs[0] / errs[1])
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(9, ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_10_cli_determinism(tmp_path):
    """Repeated identical CLI runs produce byte-identical outputs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lam": 1.0,
        "side_length": 1.0,
        "bc": [{"kind": "dirichlet", "data": "cos(2*pi*s/l)"} for _ in range(3)],
        "truncation": 64,
        "samples": 128,
    }))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    ok = bool(files)
    for fname in files:
        ok = ok and (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    _report(10, ok, "files " + ", ".join(files))

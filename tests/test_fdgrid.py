import math

import numpy as np
import pytest

from tridtn.errors import DomainError, ParameterError, SolvabilityError
from tridtn.fdgrid import TriangularGrid, fd_solve
from tridtn.geometry import TriangleGeometry
from tridtn.oracle import all_traces, poincare_trace
from tridtn.problems import (
    BCKind,
    ProblemSpec,
    SideCondition,
    dirichlet_problem,
    mixed_nr_problem,
    neumann_problem,
)
from tridtn.traces import BoundaryTrace

from conftest import manufactured_families


def trace_error(solution, exact_traces, side_length, margin=0.02):
    worst = 0.0
    for j in (1, 2, 3):
        s, vals = solution.traces[j]
        keep = (s > -side_length / 2 + margin * side_length) & (
            s < side_length / 2 - margin * side_length
        )
        worst = max(worst, float(np.max(np.abs(vals[keep] - exact_traces[j - 1](s[keep])))))
    return worst


def test_grid_bookkeeping():
    grid = TriangularGrid(1.0, 8)
    i, j = grid.nodes()
    assert len(i) == len(j) == 45
    geom = TriangleGeometry(1.0)
    # corner nodes land on the vertices
    assert abs(grid.point(0, 0) - geom.z3) < 1e-15
    assert abs(grid.point(8, 0) - geom.z2) < 1e-15
    assert abs(grid.point(0, 8) - geom.z1) < 1e-15
    # side/arclength maps agree with the geometry
    for side in (1, 2, 3):
        i, j, s = grid.side_nodes(side)
        assert np.all(np.diff(s) > 0)
        assert np.all(np.abs(grid.point(i, j) - geom.side_point(side, s)) < 1e-13)


# -- per-node reference assembly ---------------------------------------------
def _node_sides(m, i, j):
    return [side for side, on in ((1, i + j == m), (2, j == 0), (3, i == 0)) if on]


def _arclength(m, side, i, j):
    h = 1.0 / m
    return {1: 0.5 - i * h, 2: -0.5 + i * h, 3: 0.5 - j * h}[side]


def _side_nodes(m, side):
    return {
        1: [(i, m - i) for i in range(m, -1, -1)],
        2: [(i, 0) for i in range(m + 1)],
        3: [(0, j) for j in range(m, -1, -1)],
    }[side]


def _node_index(m):
    """Row numbers of the unit-side lattice nodes, i outer and j inner."""
    nodes = [(i, j) for i in range(m + 1) for j in range(m + 1 - i)]
    return {node: row for row, node in enumerate(nodes)}


def _loop_system(spec, m):
    """The lattice matrix and right-hand side of a unit-side problem,
    assembled one node and one edge at a time: the whole P1 system of a
    Neumann or Robin problem, and the interior block of a Dirichlet one
    against its boundary values g, with right-hand side -A_IB g."""
    from scipy import sparse

    h, lam = 1.0 / m, spec.lam
    index = _node_index(m)

    def data(i, j, side=None):
        side = side or _node_sides(m, i, j)[0]
        return float(spec.side(side).data(_arclength(m, side, i, j)))

    a_mat = sparse.lil_matrix((len(index), len(index)))
    for (i, j), row in index.items():
        for nb in ((i + 1, j), (i, j + 1), (i + 1, j - 1)):
            if nb in index:
                shared = set(_node_sides(m, i, j)) & set(_node_sides(m, *nb))
                w = (0.5 if shared else 1.0) / math.sqrt(3.0)
                col = index[nb]
                a_mat[row, row] += w
                a_mat[col, col] += w
                a_mat[row, col] -= w
                a_mat[col, row] -= w
    for (i, j), row in index.items():
        up = sum(a >= 0 and c >= 0 and a + c <= m - 1 for a, c in ((i, j), (i - 1, j), (i, j - 1)))
        down = sum(
            a >= 0 and c >= 0 and a + c <= m - 2 for a, c in ((i - 1, j), (i, j - 1), (i - 1, j - 1))
        )
        a_mat[row, row] += 4.0 * lam * (up + down) * (math.sqrt(3.0) / 4.0 * h * h) / 3.0
    if spec.is_dirichlet:
        inner = np.array([not _node_sides(m, *node) for node in index])
        g = np.array([data(*node) for node in index if _node_sides(m, *node)])
        a_inner = sparse.csr_matrix(a_mat)[inner]
        return a_inner[:, inner], -(a_inner[:, ~inner] @ g)
    b = np.zeros(len(index))
    for side in (1, 2, 3):
        cond = spec.side(side)
        for (i, j) in _side_nodes(m, side):
            weight = h if len(_node_sides(m, i, j)) == 1 else h / 2.0
            b[index[(i, j)]] += weight * data(i, j, side)
            if cond.kind == BCKind.ROBIN:
                a_mat[index[(i, j)], index[(i, j)]] += cond.gamma * weight
    return sparse.csr_matrix(a_mat), b


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_interior_rows_are_the_six_neighbor_stencil(lam):
    """sqrt(3) times an interior row of the one lattice operator is the
    classical stencil: 6 + 6 lam h^2 on the diagonal and -1 for each of the
    six neighbors."""
    from tridtn.fdgrid import _operator

    m = 8
    grid, index = TriangularGrid(1.0, m), _node_index(m)
    zero = tuple(BoundaryTrace.constant(j, 0.0) for j in (1, 2, 3))
    _, lhs = _operator(dirichlet_problem(lam, TriangleGeometry(1.0), zero), grid, *grid.nodes())
    rows = lhs.toarray()
    interior = [node for node in index if not _node_sides(m, *node)]
    assert len(interior) == 21
    for i, j in interior:
        stencil = np.zeros(len(index))
        stencil[index[i, j]] = 6.0 + 6.0 * lam / m**2
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)):
            stencil[index[i + di, j + dj]] = -1.0
        assert np.max(np.abs(math.sqrt(3.0) * rows[index[i, j]] - stencil)) <= 1e-14


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin"])
def test_array_assembly_matches_node_loops(kind, monkeypatch):
    """fd_solve hands conjugate gradients the system that per-node and
    per-edge loops assemble."""
    import tridtn.fdgrid as fdgrid
    from tridtn.oracle import symmetric_corner_compatible

    lam, geom, m = 1.0, TriangleGeometry(1.0), 8
    sol = symmetric_corner_compatible(lam, 1.0)
    d, n = all_traces(sol, geom)
    spec = {
        "dirichlet": lambda: dirichlet_problem(lam, geom, d),
        "neumann": lambda: neumann_problem(lam, geom, n),
        "robin": lambda: mixed_nr_problem(
            lam, geom, poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0)), n[1], n[2]
        ),
    }[kind]()
    systems = []

    def spy(a_mat, b, **kwargs):
        systems.append((a_mat, b.copy()))
        return fdgrid_cg(a_mat, b, **kwargs)

    fdgrid_cg = fdgrid.cg
    monkeypatch.setattr(fdgrid, "cg", spy)
    fd_solve(spec, 1.0 / m)
    (a_mat, b), = systems
    a_ref, b_ref = _loop_system(spec, m)
    assert a_mat.shape == a_ref.shape
    assert (a_mat != a_ref).nnz == 0
    # the loops read the data one node at a time, fd_solve one side at a
    # time; the manufactured traces round differently on arrays and scalars
    assert np.max(np.abs(b - b_ref)) <= 1e-14 * np.max(np.abs(b_ref))


@pytest.mark.parametrize("kind", ["dirichlet", "robin"])
def test_every_solve_goes_through_module_cg(kind, monkeypatch):
    """``fdgrid.cg`` is the one name every solve calls, so a wrapper set on
    the module (as the benchmark's tracer sets one) sees each call and can
    pass a per-iteration callback through; the solution does not change."""
    import tridtn.fdgrid as fdgrid
    from tridtn.oracle import symmetric_corner_compatible

    lam, geom = 1.0, TriangleGeometry(1.0)
    sol = symmetric_corner_compatible(lam, 1.0)
    d, n = all_traces(sol, geom)
    spec = (
        dirichlet_problem(lam, geom, d)
        if kind == "dirichlet"
        else mixed_nr_problem(
            lam, geom, poincare_trace(sol, geom, 1, math.pi / 2.0, math.sqrt(3.0)), n[1], n[2]
        )
    )
    plain = fd_solve(spec, 1.0 / 16)
    counts = {"calls": 0, "iterations": 0}
    original = fdgrid.cg

    def counting(*args, **kwargs):
        counts["calls"] += 1

        def step(xk):
            counts["iterations"] += 1

        return original(*args, callback=step, **kwargs)

    monkeypatch.setattr(fdgrid, "cg", counting)
    traced = fd_solve(spec, 1.0 / 16)
    assert counts["calls"] == 1 and counts["iterations"] > 0
    assert np.array_equal(traced.values, plain.values, equal_nan=True)


def test_spacing_check():
    sol = manufactured_families(1.0)[0]
    geom = TriangleGeometry(1.0)
    d, _ = all_traces(sol, geom)
    spec = dirichlet_problem(1.0, geom, d)
    with pytest.raises(DomainError):
        fd_solve(spec, 0.31)
    with pytest.raises(DomainError):
        fd_solve(spec, 0.5)  # m = 2 < 4
    for h in (0.0, -0.25, math.inf, math.nan, 1e-300, 1.0 / 2048):
        with pytest.raises(DomainError):
            fd_solve(spec, h)


def test_poincare_sides_rejected():
    sol = manufactured_families(1.0)[0]
    geom = TriangleGeometry(1.0)
    sides = tuple(
        SideCondition(BCKind.POINCARE, poincare_trace(sol, geom, j, 0.7, 0.0), beta=0.7)
        for j in (1, 2, 3)
    )
    spec = ProblemSpec(lam=1.0, geometry=geom, sides=sides)
    with pytest.raises(ParameterError):
        fd_solve(spec, 1.0 / 16)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_dirichlet_solution_richardson(lam):
    sol = manufactured_families(lam)[1]
    geom = TriangleGeometry(1.0)
    d, n = all_traces(sol, geom)
    spec = dirichlet_problem(lam, geom, d)
    errs = []
    for m in (16, 32):
        out = fd_solve(spec, 1.0 / m)
        errs.append(trace_error(out, n, 1.0))
    ratio = errs[0] / errs[1]
    if lam == 0.0:
        # the hex-stencil truncation term is proportional to the biharmonic
        # of q, which vanishes for harmonic fields, so lam = 0 exact
        # solutions converge faster than the generic second-order rate
        assert ratio >= 3.5
    else:
        assert 3.5 <= ratio <= 4.5


def test_neumann_solution_accuracy():
    lam = 1.0
    sol = manufactured_families(lam)[0]
    geom = TriangleGeometry(1.0)
    d, n = all_traces(sol, geom)
    spec = neumann_problem(lam, geom, n)
    out = fd_solve(spec, 1.0 / 48)
    assert not out.gauge_fixed
    assert trace_error(out, d, 1.0) < 5e-3


def test_pure_neumann_gauge_at_lambda_zero():
    from tridtn.oracle import ExpAtomSolution

    sol = ExpAtomSolution.plane_wave(0.0, 1.0 + 0.4j)
    geom = TriangleGeometry(1.0)
    d, n = all_traces(sol, geom)
    spec = neumann_problem(0.0, geom, n)
    out = fd_solve(spec, 1.0 / 32)
    assert out.gauge_fixed
    # match modulo one shared constant
    offsets = []
    for j in (1, 2, 3):
        s, vals = out.traces[j]
        keep = (s > -0.45) & (s < 0.45)
        offsets.append(np.mean(vals[keep] - d[j - 1](s[keep])))
    assert abs(offsets[0] - offsets[1]) < 5e-3
    s, vals = out.traces[1]
    keep = (s > -0.45) & (s < 0.45)
    assert np.max(np.abs(vals[keep] - d[0](s[keep]) - offsets[0])) < 5e-3


def test_incompatible_neumann_data_rejected():
    geom = TriangleGeometry(1.0)
    bad = tuple(BoundaryTrace.constant(j, 1.0) for j in (1, 2, 3))
    spec = neumann_problem(0.0, geom, bad)
    with pytest.raises(SolvabilityError):
        fd_solve(spec, 1.0 / 16)


def test_mixed_robin_neumann_converges():
    lam = 1.0
    geom = TriangleGeometry(1.0)
    from tridtn.oracle import symmetric_corner_compatible

    sol = symmetric_corner_compatible(lam, 1.0)
    gamma = math.sqrt(3.0 * lam)
    d, n = all_traces(sol, geom)
    spec = mixed_nr_problem(
        lam,
        geom,
        poincare_trace(sol, geom, 1, math.pi / 2.0, gamma),
        n[1],
        n[2],
    )
    errs = []
    for m in (16, 32):
        out = fd_solve(spec, 1.0 / m)
        errs.append(trace_error(out, d, 1.0))
    assert 3.0 <= errs[0] / errs[1] <= 5.0

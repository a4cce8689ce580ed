import csv
import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from omnitrack import planning
from omnitrack.cli import standard_map_path
from omnitrack.planning import (
    ARC_LENGTH_TOL,
    CSV_BLOCK_ROWS,
    NEIGHBOR_STEPS,
    TRAJECTORY_HEADER,
    DegenerateCurveError,
    InvalidCellError,
    NoPathError,
    OccupancyGrid,
    ReferenceTrajectory,
    SmoothPath,
    _arc_table,
    _gl_arc,
    _invert_arc_length,
    astar,
    load_grid,
    plan_reference,
    sample_reference,
    smooth,
    write_csv,
    write_trajectory_csv,
)
from omnitrack.simlab import (
    RUN_HEADER_BASE,
    RUN_HEADER_SOLVER,
    Episode,
    NoiseModel,
    StepMetrics,
    TrackingMetrics,
    run_episode,
    write_horizon_csv,
    write_metrics_csv,
    write_run_csv,
    write_step_csv,
)


def dijkstra_oracle(grid, start, goal):
    """Uniform-cost search over the same move set; returns (cost, pops).

    cost is None when the goal is unreachable.  Serves as the reference
    answer for the informed search: both must agree on optimal cost.
    """
    dist = {start: 0}
    counter = 0
    heap = [(0, counter, start)]
    done = set()
    pops = 0
    while heap:
        d, _, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
        pops += 1
        if cell == goal:
            return d, pops
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (cell[0] + dc, cell[1] + dr)
            if nxt in done or not grid.is_free(nxt):
                continue
            nd = d + 1
            if nd < dist.get(nxt, float("inf")):
                dist[nxt] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, nxt))
    return None, pops


def dict_astar(grid, start, goal):
    """A* keyed by (col, row) tuples in dicts and sets: the reference for astar.

    The same search, tie-breaks and errors as astar, with a bounds check
    per neighbour instead of flat indices into a padded grid.  Returns
    (cells, expansions).
    """
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise InvalidCellError(f"{name} cell {cell} outside grid")
        if not grid.is_free(cell):
            raise InvalidCellError(f"{name} cell {cell} is occupied")

    def manhattan(a, b):
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    free = (grid.cells == 0).tolist()
    width, height = grid.width, grid.height
    counter = 0
    g_score = {start: 0}
    parent = {}
    closed = set()
    h0 = manhattan(start, goal)
    heap = [(h0, h0, counter, start)]
    expansions = 0
    while heap:
        _, _, _, cell = heapq.heappop(heap)
        if cell in closed:
            continue
        closed.add(cell)
        expansions += 1
        if cell == goal:
            cells = [cell]
            while cell != start:
                cell = parent[cell]
                cells.append(cell)
            return cells[::-1], expansions
        g_next = g_score[cell] + 1
        for dc, dr in NEIGHBOR_STEPS:
            col, row = cell[0] + dc, cell[1] + dr
            if not (0 <= col < width and 0 <= row < height and free[row][col]):
                continue
            nxt = (col, row)
            if nxt in closed:
                continue
            if g_next < g_score.get(nxt, math.inf):
                g_score[nxt] = g_next
                parent[nxt] = cell
                h = manhattan(nxt, goal)
                counter += 1
                heapq.heappush(heap, (g_next + h, h, counter, nxt))
    raise NoPathError(f"no path from {start} to {goal}")


def search_outcome(search, grid, start, goal):
    """(cells, expansions), or the error's type and message."""
    try:
        if search is astar:
            path, expansions = astar(grid, start, goal, count_expansions=True)
            return path.cells, expansions
        return search(grid, start, goal)
    except (InvalidCellError, NoPathError) as err:
        return type(err), str(err)


def random_grid(rng, fill=0.2, size=20):
    cells = (rng.random((size, size)) < fill).astype(np.uint8)
    cells[0, 0] = 0
    cells[size - 1, size - 1] = 0
    return OccupancyGrid(cells, resolution=0.25)


# ---------------------------------------------------------------- search


def test_search_matches_uniform_cost_oracle():
    rng = np.random.default_rng(3)
    solvable = 0
    for _ in range(25):
        grid = random_grid(rng)
        start, goal = (0, 0), (grid.width - 1, grid.height - 1)
        cost, _ = dijkstra_oracle(grid, start, goal)
        if cost is None:
            with pytest.raises(NoPathError):
                astar(grid, start, goal)
            continue
        path = astar(grid, start, goal)
        assert path.cost == cost
        solvable += 1
    assert solvable > 5  # the comparison actually exercised real instances


def test_search_expands_no_more_than_uninformed():
    rng = np.random.default_rng(11)
    for _ in range(10):
        grid = random_grid(rng)
        start, goal = (0, 0), (grid.width - 1, grid.height - 1)
        cost, pops = dijkstra_oracle(grid, start, goal)
        if cost is None:
            continue
        _, expansions = astar(grid, start, goal, count_expansions=True)
        assert expansions <= pops


def test_search_path_is_connected_and_free():
    rng = np.random.default_rng(5)
    grid = random_grid(rng)
    path = astar(grid, (0, 0), (19, 19))
    assert path.cells[0] == (0, 0)
    assert path.cells[-1] == (19, 19)
    for a, b in zip(path.cells, path.cells[1:]):
        assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
        assert grid.is_free(b)


def test_search_is_deterministic():
    rng = np.random.default_rng(5)
    grid = random_grid(rng)
    first = astar(grid, (0, 0), (19, 19))
    second = astar(grid, (0, 0), (19, 19))
    assert first.cells == second.cells


def test_search_rejects_bad_endpoints():
    grid = OccupancyGrid(np.zeros((4, 4), dtype=np.uint8))
    blocked = OccupancyGrid(np.array([[0, 1], [0, 0]], dtype=np.uint8))
    with pytest.raises(InvalidCellError):
        astar(grid, (-1, 0), (3, 3))
    with pytest.raises(InvalidCellError):
        astar(grid, (0, 0), (4, 0))
    with pytest.raises(InvalidCellError):
        astar(blocked, (0, 0), (1, 0))  # goal cell occupied (col 1, row 0)


def test_single_cell_path():
    grid = OccupancyGrid(np.zeros((3, 3), dtype=np.uint8))
    path = astar(grid, (1, 1), (1, 1))
    assert path.cells == [(1, 1)]
    assert path.cost == 0


def assert_searches_like_dict_astar(grid, start, goal):
    want = search_outcome(dict_astar, grid, start, goal)
    assert search_outcome(astar, grid, start, goal) == want
    return want


@st.composite
def search_problems(draw):
    """A random grid and two end points: mostly free cells, at times an
    occupied one or one a cell outside the grid."""
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    # Cells and end points come from a drawn seed: hypothesis's own draws
    # favour the corner cell and all-equal grids.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = (rng.random((height, width)) < draw(st.sampled_from([0.0, 0.3, 0.45])))
    start = (int(rng.integers(width)), int(rng.integers(height)))
    goal = (int(rng.integers(width)), int(rng.integers(height)))
    kind = rng.integers(10)
    if kind == 0:
        goal = [(-1, goal[1]), (width, goal[1]), (goal[0], height)][rng.integers(3)]
    elif kind > 1:  # kind 1 keeps whatever the end points landed on
        cells[start[1], start[0]] = cells[goal[1], goal[0]] = 0
    return OccupancyGrid(cells.astype(np.uint8)), start, goal


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(search_problems())
def test_search_matches_dict_astar_on_random_grids(problem):
    assert_searches_like_dict_astar(*problem)


def test_search_matches_dict_astar_on_planning_grids():
    # The bundled map, plan-maps-sized random grids, a goal walled off and
    # a goal reachable only by a long detour.
    grid = load_grid(standard_map_path())
    outcomes = [assert_searches_like_dict_astar(grid, (0, 0), (19, 19))]
    for seed, size in ((3, 20), (8, 60), (17, 120), (5, 160)):
        grid = random_grid(np.random.default_rng(seed), size=size)
        outcomes.append(assert_searches_like_dict_astar(grid, (0, 0), (size - 1, size - 1)))
    walled = np.zeros((40, 40), dtype=np.uint8)
    walled[30, 25:] = walled[30:, 25] = 1
    outcomes.append(assert_searches_like_dict_astar(OccupancyGrid(walled), (0, 0), (39, 39)))
    comb = np.zeros((30, 30), dtype=np.uint8)
    comb[::4, :-1] = comb[2::4, 1:] = 1
    outcomes.append(assert_searches_like_dict_astar(OccupancyGrid(comb), (0, 1), (0, 29)))
    assert outcomes[-2][0] is NoPathError
    assert outcomes[-1][1] > 400  # the detour: most of the free cells expanded
    assert sum(isinstance(cells, list) for cells, _ in outcomes) >= 4


# ------------------------------------------------------------- map files


def test_map_file_top_row_first(tmp_path):
    text = "3 2 0.5\n100\n001\n"
    path = tmp_path / "tiny.map"
    path.write_text(text)
    grid = load_grid(path)
    assert grid.width == 3 and grid.height == 2
    assert grid.resolution == 0.5
    # First file line is the TOP row (highest y): obstacle at col 0, row 1.
    assert grid.cells[1, 0] == 1
    assert grid.cells[0, 2] == 1
    assert grid.cells[0, 0] == 0


def test_malformed_map_rejected(tmp_path):
    bad = tmp_path / "bad.map"
    for text, message in (
        ("3 2 0.5\n10\n001\n", "map row 0"),  # wrong row width
        ("3 x 0.5\n100\n001\n", "invalid literal"),
        ("", "empty map file"),
        ("\n  \n", "empty map file"),  # blank lines do not count
        ("3 2\n100\n001\n", "header"),
        ("3 2 0.5\n100\n", "expected 2 map rows, found 1"),
    ):
        bad.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_grid(bad)


@pytest.mark.parametrize(
    "cells, message",
    [
        (np.zeros(4), "2-D"),
        (np.zeros((0, 3)), "2-D"),
        (np.array([[0, 1], [2, 0]]), "only 0 and 1"),
    ],
    ids=["1-d", "empty", "holds-2"],
)
def test_bad_grid_cells_rejected(cells, message):
    with pytest.raises(ValueError, match=message):
        OccupancyGrid(cells)


def test_cell_world_round_trip():
    grid = OccupancyGrid(np.zeros((6, 4), dtype=np.uint8), resolution=0.25)
    assert grid.cell_to_world((0, 0)) == (0.0, 0.0)
    assert grid.cell_to_world((3, 5)) == (0.75, 1.25)


# ------------------------------------------------------------- smoothing


def test_bad_control_points_rejected():
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        SmoothPath(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="degree"):
        SmoothPath(np.zeros((planning.SPLINE_DEGREE, 2)))


def straight_path_grid():
    grid = OccupancyGrid(np.zeros((1, 8), dtype=np.uint8), resolution=0.5)
    return grid, astar(grid, (0, 0), (7, 0))


def test_straight_path_stays_straight():
    grid, path = straight_path_grid()
    curve = smooth(path, grid)
    pts = curve.point(np.linspace(0.0, 1.0, 500))
    assert np.abs(pts[:, 1]).max() < 1e-9
    assert pts[0] == pytest.approx([0.0, 0.0])
    assert pts[-1] == pytest.approx([3.5, 0.0])


def test_curve_interpolates_endpoints():
    rng = np.random.default_rng(23)
    grid = random_grid(rng)
    path = astar(grid, (0, 0), (19, 19))
    curve = smooth(path, grid)
    w = path.world_points(grid)
    assert curve.point(0.0) == pytest.approx(w[0], abs=1e-12)
    assert curve.point(1.0) == pytest.approx(w[-1], abs=1e-12)


def test_curve_is_twice_differentiable():
    # Finite-difference check across interior knots.  A corner in the
    # tangent or a curvature jump would leave an O(1) gap between the
    # one-sided values; a twice-differentiable curve leaves a gap of
    # order h times the next derivative (here |d3| is a few 1e4, so the
    # order-2 gap stays below ~1e-2 while a real jump would be in the
    # hundreds).
    rng = np.random.default_rng(29)
    grid = random_grid(rng)
    curve = smooth(astar(grid, (0, 0), (19, 19)), grid)
    interior = np.unique(curve.knots)[1:-1]
    h = 1e-7
    for t in interior:
        for order, gap in ((1, 1e-3), (2, 1e-1)):
            left = curve.derivative(t - h, order)
            right = curve.derivative(t + h, order)
            assert np.abs(left - right).max() < gap
    # Away from the knots the curve is a polynomial: the central
    # difference of the tangent reproduces the second derivative almost
    # exactly.
    t = float(0.5 * (interior[3] + interior[4]))
    fd = (curve.derivative(t + h) - curve.derivative(t - h)) / (2 * h)
    assert fd == pytest.approx(curve.derivative(t, 2), rel=1e-6, abs=1e-6)


def test_short_paths_are_padded():
    grid = OccupancyGrid(np.zeros((1, 2), dtype=np.uint8), resolution=1.0)
    path = astar(grid, (0, 0), (1, 0))
    curve = smooth(path, grid)  # 2 cells -> padded to 4 control points
    assert curve.control_points.shape[0] >= 4
    assert curve.point(0.0) == pytest.approx([0.0, 0.0])
    assert curve.point(1.0) == pytest.approx([1.0, 0.0])


def oracle_curve(kind):
    rng = np.random.default_rng(71)
    if kind == "padded":
        grid = OccupancyGrid(np.zeros((1, 2), dtype=np.uint8), resolution=1.0)
        return smooth(astar(grid, (0, 0), (1, 0)), grid)
    grid = random_grid(rng)
    return smooth(astar(grid, (0, 0), (19, 19)), grid)


@pytest.mark.parametrize("kind", ["default", "padded"])
def test_spline_matches_scipy_bspline(kind):
    interpolate = pytest.importorskip("scipy.interpolate")
    curve = oracle_curve(kind)
    oracle = interpolate.BSpline(curve.knots, curve.control_points, curve.degree)
    ts = np.concatenate([np.linspace(0.0, 1.0, 1001), np.unique(curve.knots)])
    for order in range(4):
        spline = oracle.derivative(order) if order else oracle
        got = curve.derivative(ts, order) if order else curve.point(ts)
        want = spline(ts)
        atol = 1e-12 * max(np.abs(want).max(), 1.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol)
        for t in (0.0, 0.37, 1.0):
            got = curve.derivative(t, order) if order else curve.point(t)
            assert got.shape == (2,)
            np.testing.assert_allclose(got, spline(t), rtol=1e-12, atol=atol)
    with pytest.raises(ValueError):
        oracle.derivative(4)
    with pytest.raises(ValueError):
        curve.derivative(0.5, 4)


def loop_arc_table(curve, tol):
    """One interval at a time, depth first: the reference for _arc_table."""
    nodes, weights = np.polynomial.legendre.leggauss(10)

    def arc(a, b):
        d = curve.derivative(0.5 * (a + b) + 0.5 * (b - a) * nodes)
        return 0.5 * (b - a) * (np.hypot(d[:, 0], d[:, 1]) @ weights)

    breaks = np.unique(curve.knots)
    budget = tol / (len(breaks) - 1)
    edges, lengths = [breaks[0]], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        stack = [(a, b, arc(a, b))]
        while stack:
            lo, hi, coarse = stack.pop()
            mid = 0.5 * (lo + hi)
            left, right = arc(lo, mid), arc(mid, hi)
            if abs(left + right - coarse) <= budget or hi - lo < 1e-12:
                edges += [mid, hi]
                lengths += [left, right]
            else:
                stack += [(mid, hi, right), (lo, mid, left)]
    return np.array(edges), np.concatenate([[0.0], np.cumsum(lengths)])


@pytest.mark.parametrize("seed", [3, 23, 41])
def test_batched_arc_table_matches_loop(seed):
    grid = random_grid(np.random.default_rng(seed))
    curve = smooth(astar(grid, (0, 0), (19, 19)), grid)
    edges, cumulative, _ = _arc_table(curve, ARC_LENGTH_TOL)
    want_edges, want_cumulative = loop_arc_table(curve, ARC_LENGTH_TOL)
    assert np.array_equal(edges, want_edges)
    np.testing.assert_allclose(cumulative, want_cumulative, rtol=1e-12, atol=1e-12)


def test_gauss_legendre_table_matches_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    np.testing.assert_array_max_ulp(planning._GL_NODES, nodes, maxulp=1)
    np.testing.assert_array_max_ulp(planning._GL_WEIGHTS, weights, maxulp=1)


control_polygons = st.integers(4, 16).flatmap(
    lambda n: arrays(
        float,
        (n, 2),
        elements=st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
    )
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(control_polygons)
def test_arc_table_properties(points):
    curve = SmoothPath(points)
    edges, cumulative, spans = _arc_table(curve, ARC_LENGTH_TOL)
    breaks = np.unique(curve.knots)
    assert np.all(np.diff(edges) > 0.0)
    assert edges[0] == breaks[0] and edges[-1] == breaks[-1]
    # Every interval lies inside one knot span; the inversion relies on it.
    assert np.all(breaks[spans] <= edges[:-1])
    assert np.all(edges[1:] <= breaks[spans + 1])
    # Chords of a fine sampling are shorter than the curve, and the curve
    # is shorter than its control polygon (knot insertion cuts corners).
    samples = curve.point(np.linspace(0.0, 1.0, 2001))
    chords = np.linalg.norm(np.diff(samples, axis=0), axis=1).sum()
    polygon = np.linalg.norm(np.diff(points, axis=0), axis=1).sum()
    slack = 1e-6 * (1.0 + polygon)
    assert chords - slack <= cumulative[-1] <= polygon + slack
    scale = 1e-12 * (1.0 + np.abs(points).max())
    np.testing.assert_allclose(curve.point(0.0), points[0], rtol=0, atol=scale)
    np.testing.assert_allclose(curve.point(1.0), points[-1], rtol=0, atol=scale)


def bisect_arc_length(curve, edges, cumulative, spans, targets):
    """52 bisection steps per target: the reference for _invert_arc_length."""
    targets = np.clip(targets, 0.0, cumulative[-1])
    idx = np.clip(np.searchsorted(cumulative, targets, side="right") - 1, 0, len(edges) - 2)
    lo = start = edges[idx]
    hi = edges[idx + 1]
    local = targets - cumulative[idx]
    span = spans[idx]
    tangent = curve._tangent[:, :, span, None]
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        below = _gl_arc(tangent, curve._breaks[span], start, mid) < local
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def assert_inverts_like_bisection(curve, n_targets=301):
    edges, cumulative, spans = _arc_table(curve, ARC_LENGTH_TOL)
    total = cumulative[-1]
    targets = np.linspace(0.0, total, n_targets)
    got = _invert_arc_length(curve, edges, cumulative, spans, targets)
    want = bisect_arc_length(curve, edges, cumulative, spans, targets)
    idx = np.clip(np.searchsorted(cumulative, targets, side="right") - 1, 0, len(edges) - 2)
    # Newton is held to 4 units of the oracle's resolution: an ulp of t, or
    # the bisection's last bracket (width * 2**-52, wider than an ulp near
    # t = 0), or where the curve all but stops, the span of t over which
    # the arc length moves by less than its rounding error.
    speed = np.linalg.norm(curve.derivative(want), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on a point curve
        flat = np.finfo(float).eps * total / speed
    bracket = (edges[idx + 1] - edges[idx]) * 2.0**-52
    unit = np.fmax.reduce([np.spacing(want), bracket, flat])
    assert np.all(np.abs(got - want) <= 4.0 * unit)
    span = spans[idx]
    arc = cumulative[idx] + _gl_arc(
        curve._tangent[:, :, span, None], curve._breaks[span], edges[idx], got
    )
    assert np.abs(arc - targets).max() <= 1e-12 * total


@pytest.mark.parametrize("kind", ["default", "padded", "cusp"])
def test_newton_inversion_matches_bisection_oracle(kind):
    # The padded curve has zero speed at both ends, where Newton's step is
    # 0/0 and the bracket's midpoint stands in.  The cusp curve runs out
    # and back along a line; near the turn the quadrature's slope is not
    # the speed, and plain Newton ends 97 units off after 52 passes.
    if kind == "cusp":
        curve = SmoothPath([[0.0, 9.016], [0.0, -9.529], [0.0, 9.016], [0.0, 9.016]])
    else:
        curve = oracle_curve(kind)
    assert_inverts_like_bisection(curve)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(control_polygons)
def test_newton_inversion_matches_bisection_on_random_polygons(points):
    assert_inverts_like_bisection(SmoothPath(points))


def inversion_passes(monkeypatch, grid, start, goal, total_time, ts=0.1):
    """Quadrature passes _invert_arc_length makes for one planned reference."""
    curve = smooth(astar(grid, start, goal), grid)
    edges, cumulative, spans = _arc_table(curve, ARC_LENGTH_TOL)
    targets = np.linspace(0.0, cumulative[-1], int(total_time / ts) + 1)
    calls = []

    def counting(*args):
        calls.append(None)
        return _gl_arc(*args)

    monkeypatch.setattr(planning, "_gl_arc", counting)
    _invert_arc_length(curve, edges, cumulative, spans, targets)
    monkeypatch.undo()
    return len(calls)


def test_newton_inversion_converges_in_a_few_passes(monkeypatch):
    # Quadratic convergence takes about 5 passes; linear convergence (a
    # bisection, or a Newton step that keeps falling back) takes dozens.
    cases = [(load_grid(standard_map_path()), (0, 0), (19, 19), 30.0)]
    for seed, size in ((3, 20), (8, 60), (17, 120)):
        grid = random_grid(np.random.default_rng(seed), size=size)
        cases.append((grid, (0, 0), (size - 1, size - 1), 1.5 * size))
    for case in cases:
        assert inversion_passes(monkeypatch, *case) <= 8


# -------------------------------------------------------------- sampling


def planned(total_time=20.0, ts=0.1):
    rng = np.random.default_rng(41)
    grid = random_grid(rng)
    return plan_reference(grid, (0, 0), (19, 19), total_time, ts)


def test_reference_row_count_and_times():
    _, _, traj = planned(total_time=20.0, ts=0.1)
    assert len(traj) == 201
    assert traj.times[-1] == pytest.approx(20.0)
    assert traj.duration == pytest.approx(20.0)


def test_reference_spacing_is_uniform_in_arc_length():
    _, curve, traj = planned()
    hops = np.linalg.norm(np.diff(traj.poses[:, :2], axis=0), axis=1)
    # Chord lengths of an equal-arc-length sampling agree to within 1%.
    assert hops.max() - hops.min() < 0.01 * hops.mean()


def test_reference_headings_and_speeds_match_chords():
    _, _, traj = planned()
    d = np.diff(traj.poses[:, :2], axis=0)
    for n in (1, 50, 150, 200):
        step = d[n - 1]
        assert traj.poses[n, 2] == pytest.approx(math.atan2(step[1], step[0]))
        assert traj.v_ref[n] == pytest.approx(np.hypot(*step) / traj.ts)
    # Row 0 mirrors row 1 so the reference starts aligned and moving.
    assert traj.poses[0, 2] == traj.poses[1, 2]
    assert traj.v_ref[0] == traj.v_ref[1]
    assert traj.omega_ref[0] == 0.0


def test_reference_total_arc_length_matches_curve():
    # Total chord length approximates the curve's arc length from above
    # within the sampling resolution.
    _, curve, traj = planned()
    hops = np.linalg.norm(np.diff(traj.poses[:, :2], axis=0), axis=1)
    start = curve.point(0.0)
    end = curve.point(1.0)
    straight = np.hypot(*(end - start))
    assert hops.sum() >= straight


def test_degenerate_curve_rejected():
    grid = OccupancyGrid(np.zeros((3, 3), dtype=np.uint8), resolution=1.0)
    path = astar(grid, (1, 1), (1, 1))
    curve = smooth(path, grid)
    with pytest.raises(DegenerateCurveError):
        sample_reference(curve, 10.0, 0.1)


def test_bad_sampling_arguments():
    _, curve, _ = planned()
    with pytest.raises(ValueError):
        sample_reference(curve, 0.0, 0.1)
    with pytest.raises(ValueError):
        sample_reference(curve, 10.0, -0.1)
    # 0.05 s at ts 0.1 s is one sample, which holds no step.
    with pytest.raises(ValueError, match="at least one step"):
        sample_reference(curve, 0.05, 0.1)


@pytest.mark.parametrize(
    "ts, poses, v_ref, omega_ref, message",
    [
        (0.0, np.zeros((3, 3)), np.zeros(3), np.zeros(3), "ts must be positive"),
        (-0.1, np.zeros((3, 3)), np.zeros(3), np.zeros(3), "ts must be positive"),
        (0.1, np.zeros((3, 2)), np.zeros(3), np.zeros(3), r"\(N >= 2, 3\)"),
        (0.1, np.zeros((1, 3)), np.zeros(1), np.zeros(1), r"\(N >= 2, 3\)"),
        (0.1, np.zeros((3, 3)), np.zeros(2), np.zeros(3), "match poses length"),
        (0.1, np.zeros((3, 3)), np.zeros(3), np.zeros(4), "match poses length"),
        (0.1, np.zeros((3, 3)), np.array([0.0, -1e-9, 0.0]), np.zeros(3), "non-negative"),
    ],
    ids=["zero-ts", "negative-ts", "two-columns", "one-row", "short-v", "long-omega", "negative-v"],
)
def test_bad_reference_trajectories_rejected(ts, poses, v_ref, omega_ref, message):
    with pytest.raises(ValueError, match=message):
        ReferenceTrajectory(ts, poses, v_ref, omega_ref)


def traced_peak(fn, *args):
    """fn's result and the most bytes it held at once, as tracemalloc saw them."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_sampling_and_writing_a_reference_hold_no_tenfold_copies(tmp_path):
    # The Newton passes of the arc-length inversion need three (rows, 10)
    # arrays of quadrature nodes, and the trajectory writer one block of
    # text: about 0.44 and 0.07 KiB a row at 4001 rows.  Tangent
    # coefficients repeated over the ten nodes, four node temporaries and
    # a whole-table list of floats took 1.05 and 0.29 KiB a row.
    grid = load_grid(standard_map_path())
    curve = smooth(astar(grid, (0, 0), (19, 19)), grid)
    traj, sampled = traced_peak(sample_reference, curve, 40.0, 0.01)
    _, written = traced_peak(write_trajectory_csv, traj, tmp_path / "traj.csv")
    assert len(traj) == 4001
    assert sampled / len(traj) <= 0.6 * 1024
    assert written / len(traj) <= 0.15 * 1024


# ------------------------------------------------------------------ csv


def test_trajectory_csv_round_trip(tmp_path):
    _, _, traj = planned()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "t", "x_ref", "y_ref", "theta_ref", "v_ref", "omega_ref"]
    assert path.read_text().splitlines()[2].startswith("1,0.1,")
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(back[:, 0], np.arange(len(traj)))
    assert np.array_equal(back[:, 1], np.arange(len(traj)) * traj.ts)
    assert np.array_equal(back[:, 2:5], traj.poses)
    assert np.array_equal(back[:, 5], traj.v_ref)
    assert np.array_equal(back[:, 6], traj.omega_ref)


def test_trajectory_csv_is_deterministic(tmp_path):
    _, _, traj = planned()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trajectory_csv(traj, a)
    write_trajectory_csv(traj, b)
    assert a.read_bytes() == b.read_bytes()


def csv_writer_oracle(path, header, rows):
    """The csv.writer writer that write_csv replaced: the reference for its bytes."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def numbered_rows(table, ts):
    """Rows [n, n * ts, *table row], as the run and trajectory tables were built."""
    return ([n, n * ts, *row] for n, row in enumerate(table.tolist()))


def assert_same_bytes(tmp_path, write, oracle_header, oracle_rows):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got)
    csv_writer_oracle(want, oracle_header, oracle_rows)
    assert got.read_bytes() == want.read_bytes()
    return got


def test_trajectory_csv_matches_csv_writer(tmp_path):
    # 601 rows: more than two blocks, the last one partial.
    _, _, traj = planned(total_time=60.0)
    assert len(traj) > 2 * CSV_BLOCK_ROWS
    table = np.column_stack([traj.poses, traj.v_ref, traj.omega_ref])
    assert_same_bytes(
        tmp_path,
        lambda path: write_trajectory_csv(traj, path),
        TRAJECTORY_HEADER,
        numbered_rows(table, traj.ts),
    )


@pytest.mark.parametrize("controller", ["fpid-t1", "nmpc"])
def test_run_csv_matches_csv_writer(tmp_path, controller):
    _, _, traj = planned(total_time=30.0)
    log = run_episode(
        Episode(trajectory=traj, controller=controller, noise=NoiseModel(), seed=4)
    ).log
    blocks = [log.reference, log.true_pose, log.measured, log.command, log.wheels]
    header = RUN_HEADER_BASE
    if log.solver is not None:
        blocks.append(log.solver)
        header = RUN_HEADER_SOLVER
    assert_same_bytes(
        tmp_path,
        lambda path: write_run_csv(log, path),
        header,
        numbered_rows(np.hstack(blocks), log.ts),
    )


def test_result_tables_match_csv_writer(tmp_path):
    metrics = [
        ("nmpc", TrackingMetrics(me_xy=0.1 + 0.2, mae_theta=5e-324)),
        ("fpid-t1", TrackingMetrics(me_xy=1e16, mae_theta=-0.0)),
    ]
    keys = ["controller", "scenario", "tracking_time", "me_xy", "mae_theta"]
    for scenario, tracking_time in (('maps/"a,b".map', 30.0), ("standard", 29.900000000000002)):
        for noise in (False, True):
            flag = ["true"] if noise else []
            rows = [[cid, scenario, tracking_time, m.me_xy, m.mae_theta] + flag for cid, m in metrics]
            assert_same_bytes(
                tmp_path,
                lambda path: write_metrics_csv(metrics, path, scenario, tracking_time, noise=noise),
                keys + (["noise"] if noise else []),
                rows,
            )
    steps = [
        ("nmpc", {"y": (StepMetrics(0.0, None, None), None)}),
        ("fpid-it2", {"theta": (StepMetrics(12.5, 0.7000000000000001, 2.0), None)}),
    ]
    assert_same_bytes(
        tmp_path,
        lambda path: write_step_csv(steps, path),
        ["controller", "axis", "overshoot_pct", "rise_time", "settling_time"],
        [["nmpc", "y", 0.0, None, None], ["fpid-it2", "theta", 12.5, 0.7000000000000001, 2.0]],
    )
    horizons = [(h, TrackingMetrics(1.0 / (3 * h), math.pi / h)) for h in (1, 5, 20)]
    assert_same_bytes(
        tmp_path,
        lambda path: write_horizon_csv(horizons, path),
        ["horizon", "me_xy", "mae_theta"],
        [[h, m.me_xy, m.mae_theta] for h, m in horizons],
    )


EDGE_CELLS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22, 0.1 + 0.2, -1.5,
    0, -7, 10**30, -(10**19), True,
    "", "plain", "a,b", 'say "hi"', '"', ",", "lf\nhere", "\r\n", " pad ",
]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_write_csv_edge_cells_match_csv_writer(tmp_path, width):
    # Every edge cell in every column position, in tables of 1-3 columns:
    # a one-column table is where csv quotes an empty field.
    n = len(EDGE_CELLS)
    columns = [[EDGE_CELLS[(i + j * 7) % n] for i in range(n)] for j in range(width)]
    header = ["h", "a,b", 'q"'][:width]
    assert_same_bytes(
        tmp_path,
        lambda path: write_csv(path, header, columns),
        header,
        zip(*columns),
    )
    assert_same_bytes(tmp_path, lambda path: write_csv(path, [""], [[]]), [""], [])


def read_rows(path):
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("width", [1, 2, 3])
def test_write_csv_quotes_a_carriage_return(tmp_path, width):
    # csv.writer quotes a field holding a CR only from Python 3.13 on, so
    # these cells are checked by their quotes and by csv.reader, which
    # would end the row at an unquoted CR.
    cells = ["cr\rhere", "\r", "lead\r", "\rtrail", 'q"\r', "plain", ""]
    columns = [cells[j:] + cells[:j] for j in range(width)]
    header = ["h", "a\rb", "c"][:width]
    path = tmp_path / "cr.csv"
    write_csv(path, header, columns)
    with open(path, encoding="ascii", newline="") as fh:
        text = fh.read()
    for cell in [*cells, *header]:
        if "\r" in cell:
            assert '"' + cell.replace('"', '""') + '"' in text
    assert read_rows(path) == [header, *map(list, zip(*columns))]


cell_values = st.one_of(
    st.floats(),
    st.integers(),
    st.text(alphabet=st.sampled_from('ab ,"\r\n.-'), max_size=6),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4).flatmap(
        lambda width: st.lists(
            st.lists(cell_values, min_size=width, max_size=width), max_size=2 * CSV_BLOCK_ROWS + 3
        )
    )
)
def test_write_csv_matches_csv_writer_on_random_tables(tmp_path_factory, rows):
    width = len(rows[0]) if rows else 2
    header = [f"c{j}" for j in range(width)]
    tmp_path = tmp_path_factory.mktemp("table")
    # csv.writer before Python 3.13 leaves a CR unquoted, so it is the
    # oracle of the table without CRs; the table with them is read back.
    plain = [[c.replace("\r", "") if isinstance(c, str) else c for c in row] for row in rows]
    assert_same_bytes(
        tmp_path,
        lambda path: write_csv(path, header, zip(*plain)),
        header,
        plain,
    )
    write_csv(tmp_path / "cr.csv", header, zip(*rows))
    assert read_rows(tmp_path / "cr.csv") == [header, *([str(c) for c in r] for r in rows)]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2 * CSV_BLOCK_ROWS + 3).flatmap(
        lambda n: st.tuples(arrays(np.int64, n), arrays(np.float64, (n, 3)))
    )
)
def test_write_csv_of_arrays_matches_their_lists(tmp_path_factory, table):
    # Array columns, strided views among them, become Python scalars block
    # by block; the bytes are those of the whole columns' lists.
    ints, floats = table
    columns = [ints, *floats.T]
    header = ["n", "a", "b", "c"]
    tmp_path = tmp_path_factory.mktemp("arrays")
    write_csv(tmp_path / "arrays.csv", header, columns)
    write_csv(tmp_path / "lists.csv", header, [c.tolist() for c in columns])
    assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "ragged.csv", ["a", "b"], [[1, 2], [3]])

"""Grid path planning and reference trajectory generation.

Pipeline: A* search on a binary occupancy grid, clamped cubic B-spline
smoothing of the cell path, then constant-arc-length sampling of the
smooth curve into a timestamped reference (pose, speed, yaw rate) table
that the tracking controllers consume.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from omnitrack.kinematics import wrap_angle

SPLINE_DEGREE = 3
MIN_CONTROL_POINTS = 4
ARC_LENGTH_TOL = 1e-8
DEGENERATE_LENGTH = 1e-9

TRAJECTORY_HEADER = ["n", "t", "x_ref", "y_ref", "theta_ref", "v_ref", "omega_ref"]

# Fixed expansion order keeps A* fully deterministic: east, west, north, south.
NEIGHBOR_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


class PlanningError(Exception):
    """Base class for planning failures."""


class InvalidCellError(PlanningError):
    """Start or goal cell is occupied or outside the grid."""


class NoPathError(PlanningError):
    """The occupancy grid admits no path between start and goal."""


class DegenerateCurveError(PlanningError):
    """Smoothed curve has (numerically) zero or non-finite arc length."""


@dataclass(eq=False)  # holds arrays, so == compares identity
class OccupancyGrid:
    """Binary occupancy grid; cells[row, col] == 1 marks an obstacle.

    Row index equals the y cell index, so cell (col, row) has world
    coordinates (col, row) * resolution at its centre.
    """

    cells: np.ndarray
    resolution: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.cells)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("cells must be a non-empty 2-D array")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("cells must contain only 0 and 1")
        if not 0.0 < self.resolution < math.inf:
            raise ValueError("resolution must be positive and finite")
        self.cells = arr.astype(np.uint8)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        col, row = cell
        return 0 <= col < self.width and 0 <= row < self.height

    def is_free(self, cell: tuple[int, int]) -> bool:
        col, row = cell
        return self.in_bounds(cell) and self.cells[row, col] == 0

    def cell_to_world(self, cell: tuple[int, int]) -> tuple[float, float]:
        col, row = cell
        return col * self.resolution, row * self.resolution


def load_grid(path) -> OccupancyGrid:
    """Read a grid map file.

    First line is ``width height resolution``; the following ``height``
    lines hold ``width`` characters from {0, 1} each, topmost row first.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh]
    lines = [line for line in lines if line.strip() != ""]
    if not lines:
        raise ValueError("empty map file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError("map header must be 'width height resolution'")
    width, height = int(header[0]), int(header[1])
    resolution = float(header[2])
    rows = lines[1:]
    if len(rows) != height:
        raise ValueError(f"expected {height} map rows, found {len(rows)}")
    cells = np.zeros((height, width), dtype=np.uint8)
    for j, line in enumerate(rows):
        if len(line) != width or set(line) - {"0", "1"}:
            raise ValueError(f"map row {j} must be {width} characters of 0/1")
        # File rows run top to bottom; internal rows run bottom to top.
        cells[height - 1 - j, :] = [int(ch) for ch in line]
    return OccupancyGrid(cells, resolution)


@dataclass
class GridPath:
    """Sequence of 4-connected free cells from start to goal, inclusive."""

    cells: list[tuple[int, int]]

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def cost(self) -> int:
        """Path cost under unit step cost."""
        return len(self.cells) - 1

    def world_points(self, grid: OccupancyGrid) -> np.ndarray:
        return np.array([grid.cell_to_world(c) for c in self.cells], dtype=float)


def astar(
    grid: OccupancyGrid,
    start: tuple[int, int],
    goal: tuple[int, int],
    count_expansions: bool = False,
):
    """A* over the 4-connected grid with unit step cost.

    The Manhattan heuristic is admissible and consistent for this move
    set, so the first goal expansion is optimal.  Ties on f are broken
    toward the lower heuristic, then first-in-first-out, which makes the
    returned path deterministic.

    Returns the path, or ``(path, expansions)`` when ``count_expansions``.
    """
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))
    for name, cell in (("start", start), ("goal", goal)):
        if not grid.in_bounds(cell):
            raise InvalidCellError(f"{name} cell {cell} outside grid")
        if not grid.is_free(cell):
            raise InvalidCellError(f"{name} cell {cell} is occupied")

    # Cells are flat row-major indices into the grid padded by one blocked
    # cell on every side, so a neighbour is an index offset and needs no
    # bounds check.  A blocked cell starts out closed.
    stride = grid.width + 2
    closed = bytearray(np.pad(grid.cells, 1, constant_values=1).tobytes())
    steps = [dc + dr * stride for dc, dr in NEIGHBOR_STEPS]
    g_score = [math.inf] * len(closed)
    parent = [0] * len(closed)
    goal_row, goal_col = goal[1] + 1, goal[0] + 1
    source = start[0] + 1 + (start[1] + 1) * stride
    target = goal_col + goal_row * stride
    g_score[source] = 0
    counter = 0
    h0 = abs(start[0] - goal[0]) + abs(start[1] - goal[1])
    heap = [(h0, h0, counter, source)]
    heappop, heappush = heapq.heappop, heapq.heappush
    expansions = 0

    while heap:
        cell = heappop(heap)[3]
        if closed[cell]:
            continue
        closed[cell] = 1
        expansions += 1
        if cell == target:
            cells = [cell]
            while cell != source:
                cell = parent[cell]
                cells.append(cell)
            cells.reverse()
            path = GridPath([(i % stride - 1, i // stride - 1) for i in cells])
            return (path, expansions) if count_expansions else path
        g_next = g_score[cell] + 1
        for step in steps:
            nxt = cell + step
            if not closed[nxt] and g_next < g_score[nxt]:
                g_score[nxt] = g_next
                parent[nxt] = cell
                row, col = divmod(nxt, stride)
                h = abs(col - goal_col) + abs(row - goal_row)
                counter += 1
                heappush(heap, (g_next + h, h, counter, nxt))

    raise NoPathError(f"no path from {start} to {goal}")


def _clamped_knots(n_points: int, degree: int) -> np.ndarray:
    """Endpoint-interpolating knot vector with uniform interior knots."""
    interior = np.linspace(0.0, 1.0, n_points - degree + 1)[1:-1]
    return np.concatenate(
        [np.zeros(degree + 1), interior, np.ones(degree + 1)]
    )


def _derivative_control_points(
    knots: np.ndarray, points: np.ndarray, degree: int, order: int
) -> np.ndarray:
    """Control points of the order-th derivative curve (Piegl & Tiller A3.3).

    The result is a spline of degree ``degree - order`` on
    ``knots[order:len(knots) - order]``.  The clamped knots repeat only
    the two ends, so no knot difference used here is zero.
    """
    for k in range(1, order + 1):
        p = degree - k + 1
        n = points.shape[0]
        den = knots[k + p : k + p + n - 1] - knots[k : k + n - 1]
        points = p * np.diff(points, axis=0) / den[:, None]
    return points


def _de_boor(
    knots: np.ndarray, points: np.ndarray, degree: int, span: np.ndarray, t: np.ndarray
) -> np.ndarray:
    """Curve value at each t in knot span ``span``: de Boor's triangular scheme."""
    d = points[span[:, None] + np.arange(-degree, 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = span + j - degree
            left = knots[i]
            alpha = ((t - left) / (knots[i + 1 + degree - r] - left))[:, None]
            d[:, j] = (1.0 - alpha) * d[:, j - 1] + alpha * d[:, j]
    return d[:, degree]


def _horner(coeffs: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Sum of coeffs[k] * dx**k by Horner's rule; coeffs[k] broadcasts with dx."""
    acc = np.empty(np.broadcast_shapes(coeffs.shape[1:], dx.shape))
    acc[...] = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= dx
        acc += c
    return acc


@dataclass(eq=False)  # holds arrays, so == compares identity
class SmoothPath:
    """Clamped cubic B-spline curve through a planned path's corridor.

    Construction converts the B-spline into one power-basis polynomial
    per knot span: coefficient k of a span is the exact k-th de Boor
    derivative at the span's left end over k!.  Evaluation then finds
    the span of each parameter and runs Horner's rule there.
    """

    control_points: np.ndarray
    degree: int = field(default=SPLINE_DEGREE, init=False)
    knots: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("control points must be an (n, 2) array")
        if pts.shape[0] < self.degree + 1:
            raise ValueError("need at least degree + 1 control points")
        self.control_points = pts
        self.knots = _clamped_knots(pts.shape[0], self.degree)
        p, n = self.degree, pts.shape[0]
        # Breakpoints of the domain [knots[p], knots[n]], all distinct;
        # knot span j is [breaks[j], breaks[j + 1]].
        self._breaks = self.knots[p : n + 1]
        left = self._breaks[:-1]
        # Index of the last knot equal to each span's left end.
        span = np.searchsorted(self.knots, left, side="right") - 1
        # _coeffs[k, axis, j]: power-basis coefficient of (t - breaks[j])**k.
        self._coeffs = np.empty((p + 1, 2, left.size))
        factorial = 1.0
        for k in range(p + 1):
            factorial *= max(k, 1)
            dpts = _derivative_control_points(self.knots, pts, p, k)
            sub = self.knots[k : self.knots.size - k]
            self._coeffs[k] = _de_boor(sub, dpts, p - k, span - k, left).T / factorial
        # Coefficients of the tangent, for the arc-length code.
        self._tangent = self._coeffs[1:] * np.arange(1, p + 1)[:, None, None]

    def _evaluate(self, coeffs: np.ndarray, t) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
        flat = t.reshape(-1)
        # The knot span holding each t; the end spans extrapolate.
        last = self._breaks.size - 2
        span = np.clip(np.searchsorted(self._breaks, flat, side="right") - 1, 0, last)
        values = _horner(coeffs[:, :, span], flat - self._breaks[span])
        return values.T.reshape(t.shape + (2,))

    def point(self, t) -> np.ndarray:
        """Evaluate the curve at parameter t in [0, 1]."""
        return self._evaluate(self._coeffs, t)

    def derivative(self, t, order: int = 1) -> np.ndarray:
        if not 0 <= order <= self.degree:
            raise ValueError(f"derivative order must lie in [0, {self.degree}]")
        # d^order/dx^order of x**k is k! / (k - order)! * x**(k - order).
        falling = np.ones(self.degree + 1 - order)
        for i in range(order):
            falling *= np.arange(order - i, self.degree + 1 - i)
        return self._evaluate(self._coeffs[order:] * falling[:, None, None], t)


def smooth(path: GridPath, grid: OccupancyGrid) -> SmoothPath:
    """Smooth a grid path into a clamped cubic B-spline.

    Every path cell centre becomes a control point (no decimation), so
    short hops stay close to the searched corridor.  Paths with fewer
    than four cells are padded by duplicating the endpoints.
    """
    pts = path.world_points(grid)
    while pts.shape[0] < MIN_CONTROL_POINTS:
        pts = np.vstack([pts[0], pts, pts[-1]])
    return SmoothPath(pts)


# The 10-point Gauss-Legendre rule on [-1, 1] (Abramowitz & Stegun 1964,
# Table 25.4), written out bit for bit as numpy's ``leggauss(10)`` gives it.
_GL_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
])
_GL_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814,
])


def _gl_arc(
    tangent: np.ndarray, base: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Gauss-Legendre (order 10) arc length over [a, b], vectorized.

    Each interval lies in one knot span with left end ``base``; its
    tangent coefficients ``tangent[k, axis]`` broadcast against the
    (..., 10) grid of quadrature nodes, so no span search is needed.
    """
    half = 0.5 * (b - a)
    dx = (0.5 * (a + b) - base)[..., None] + half[..., None] * _GL_NODES
    vx = _horner(tangent[:, 0], dx)
    vy = _horner(tangent[:, 1], dx)
    # The node speeds, formed in place: no more than three node arrays live.
    vx *= vx
    vy *= vy
    vx += vy
    np.sqrt(vx, out=vx)
    return half * (vx @ _GL_WEIGHTS)


def _arc_table(
    curve: SmoothPath, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adaptive cumulative arc length over the knot spans.

    Each interval is bisected until one more bisection changes its
    length estimate by less than its span's share of tol.  All pending
    intervals of every span are refined together, one array per level.
    Returns interval edges, the cumulative arc length at each edge and
    the knot span holding each interval.
    """
    breaks = curve._breaks
    budget = tol / (breaks.size - 1)
    span = np.arange(breaks.size - 1)
    lo, hi = breaks[:-1], breaks[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        coarse = _gl_arc(curve._tangent[..., None], lo, lo, hi)
    if not np.isfinite(coarse).all():
        raise DegenerateCurveError("curve arc length is not finite")
    starts, lengths, spans = [], [], []
    while lo.size:
        mid = 0.5 * (lo + hi)
        halves = _gl_arc(
            curve._tangent[:, :, span, None, None],
            breaks[span][:, None],
            np.column_stack([lo, mid]),
            np.column_stack([mid, hi]),
        )
        left, right = halves[:, 0], halves[:, 1]
        done = (np.abs(left + right - coarse) <= budget) | (hi - lo < 1e-12)
        starts += [lo[done], mid[done]]
        lengths += [left[done], right[done]]
        spans += [span[done], span[done]]
        todo = ~done
        lo, hi = np.concatenate([lo[todo], mid[todo]]), np.concatenate([mid[todo], hi[todo]])
        coarse = np.concatenate([left[todo], right[todo]])
        span = np.concatenate([span[todo], span[todo]])
    starts = np.concatenate(starts)
    order = np.argsort(starts)
    edges = np.append(starts[order], breaks[-1])
    cumulative = np.concatenate([[0.0], np.cumsum(np.concatenate(lengths)[order])])
    return edges, cumulative, np.concatenate(spans)[order]


def _invert_arc_length(
    curve: SmoothPath,
    edges: np.ndarray,
    cumulative: np.ndarray,
    spans: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Safeguarded Newton solve of arc_length(0, t) = target for each target.

    Each target is sought in its table interval [lo, hi], which lies in
    one knot span, so its tangent coefficients are gathered once.  The
    search starts at the interval's linear interpolate.  Each pass
    evaluates f, the arc length from the interval's start to t minus the
    target's share of the interval, shrinks [lo, hi] by the sign of f
    and steps to t - f / |c'(t)|.  The speed is the arc
    length's derivative, so this Newton step converges quadratically, in
    about 5 passes.  The bracket's midpoint replaces a step that leaves
    [lo, hi], that a zero or NaN speed spoils, or that is longer than half
    the step before last (rtsafe, Numerical Recipes 9.4): near a cusp the
    quadrature's slope is not the speed, and Newton alone would crawl.
    A target stops once its step is within 4 ulps of t or f is 0.  The
    loop ends when every target has stopped, or after the 52 passes a
    bisection would take.
    """
    total = cumulative[-1]
    targets = np.clip(targets, 0.0, total)
    idx = np.clip(np.searchsorted(cumulative, targets, side="right") - 1, 0, len(edges) - 2)
    lo = start = edges[idx]
    hi = edges[idx + 1]
    local = targets - cumulative[idx]
    span = spans[idx]
    base = curve._breaks[span]
    speed_coeffs = curve._tangent[:, :, span]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on a zero-length interval
        t = lo + (hi - lo) * np.nan_to_num(local / (cumulative[idx + 1] - cumulative[idx]))
    dx = dx_old = hi - lo
    moving = np.ones(t.shape, dtype=bool)
    for _ in range(52):
        f = _gl_arc(speed_coeffs[..., None], base, start, t) - local
        below = f < 0.0
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
        velocity = _horner(speed_coeffs, t - base)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero speed: bisect
            newton = t - f / np.hypot(velocity[0], velocity[1])
        fast = (lo <= newton) & (newton <= hi) & (np.abs(newton - t) <= 0.5 * dx_old)
        step = np.where(fast, newton, 0.5 * (lo + hi))
        moving &= f != 0.0
        stepped = np.where(moving, step, t)
        dx_old, dx = dx, np.abs(stepped - t)
        moving &= dx > 4.0 * np.spacing(t)
        t = stepped
        if not moving.any():
            break
    return t


@dataclass(eq=False)  # holds arrays, so == compares identity
class ReferenceTrajectory:
    """Uniformly timestamped reference: poses plus speed and yaw-rate rows."""

    ts: float
    poses: np.ndarray
    v_ref: np.ndarray
    omega_ref: np.ndarray

    def __post_init__(self):
        self.poses = np.asarray(self.poses, dtype=float)
        self.v_ref = np.asarray(self.v_ref, dtype=float)
        self.omega_ref = np.asarray(self.omega_ref, dtype=float)
        if not self.ts > 0.0:
            raise ValueError("ts must be positive")
        n = self.poses.shape[0]
        if self.poses.ndim != 2 or self.poses.shape[1] != 3 or n < 2:
            raise ValueError("poses must be an (N >= 2, 3) array")
        if self.v_ref.shape != (n,) or self.omega_ref.shape != (n,):
            raise ValueError("v_ref and omega_ref must match poses length")
        if np.any(self.v_ref < 0.0):
            raise ValueError("v_ref must be non-negative")
        self.poses[:, 2] = wrap_angle(self.poses[:, 2])

    def __len__(self) -> int:
        return self.poses.shape[0]

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) * self.ts

    @property
    def duration(self) -> float:
        return (len(self) - 1) * self.ts


def sample_count(duration: float, ts: float) -> int:
    """floor(duration / ts) + 1, or a ValueError if the quotient overflows."""
    quotient = duration / ts
    if not quotient < math.inf:
        raise ValueError(f"a duration of {duration} s at ts {ts} s is too many samples")
    return math.floor(quotient) + 1


def sample_reference(
    curve: SmoothPath, total_time: float, ts: float
) -> ReferenceTrajectory:
    """Sample a smooth curve into floor(total_time/ts) + 1 reference rows.

    Waypoints are equally spaced in arc length.  Headings point along the
    chord to the previous waypoint, speeds are chord length over ts and
    yaw rates are wrapped heading increments over ts; row 0 copies row 1
    with zero yaw rate so the reference starts aligned and at speed.
    """
    if not total_time > 0.0 or not ts > 0.0:
        raise ValueError("total_time and ts must be positive")
    n_points = sample_count(total_time, ts)
    if n_points < 2:
        raise ValueError("total_time must cover at least one step")

    edges, cumulative, spans = _arc_table(curve, ARC_LENGTH_TOL)
    total = cumulative[-1]
    if total < DEGENERATE_LENGTH:
        raise DegenerateCurveError("curve arc length is numerically zero")

    targets = np.linspace(0.0, total, n_points)
    params = _invert_arc_length(curve, edges, cumulative, spans, targets)
    params[0], params[-1] = 0.0, 1.0
    xy = curve.point(params)

    dx = np.diff(xy[:, 0])
    dy = np.diff(xy[:, 1])
    theta = np.empty(n_points)
    theta[1:] = np.arctan2(dy, dx)
    theta[0] = theta[1]

    v = np.empty(n_points)
    v[1:] = np.hypot(dx, dy) / ts
    v[0] = v[1]

    omega = np.empty(n_points)
    omega[1:] = wrap_angle(np.diff(theta)) / ts
    omega[0] = 0.0

    poses = np.column_stack([xy, theta])
    return ReferenceTrajectory(ts, poses, v, omega)


# Rows per write: a table is stringified, joined and written in blocks of
# this many rows, so its text never exists whole.
CSV_BLOCK_ROWS = 256

# A field holding the delimiter, the quote, the line terminator or a carriage
# return is quoted, as csv.QUOTE_MINIMAL does with lineterminator "\n" from
# Python 3.13 on.
_CSV_SPECIAL = (",", '"', "\n", "\r")


def _needs_quotes(text: str) -> bool:
    return any(ch in text for ch in _CSV_SPECIAL)


def _csv_cells(column, lone: bool) -> list[str]:
    """A column's fields as CSV text: str() of each value, quoted where needed.

    A numpy column is converted to Python scalars first, and str() of a
    float is its shortest round-trip form.  A table of one column writes
    an empty field as "", so its row is not a blank line.
    """
    if isinstance(column, np.ndarray):
        column = column.tolist()
    cells = list(map(str, column))
    if _needs_quotes("".join(cells)) or (lone and "" in cells):
        cells = [
            '"' + c.replace('"', '""') + '"' if _needs_quotes(c) or (lone and not c) else c
            for c in cells
        ]
    return cells


def write_csv(path, header, columns) -> None:
    """Write an ASCII CSV table given column by column.

    Each column is a sequence whose values print with str(), or a 1-D
    numpy array, and all have the same length.  An array becomes Python
    scalars one block of ``CSV_BLOCK_ROWS`` rows at a time.  The text is
    what ``csv.writer`` writes for the same rows with a line feed as its
    line terminator, and a field holding a carriage return is quoted, as
    Python 3.13's writer does, so that ``csv.reader`` does not end the
    row there.
    """
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError("CSV columns must all have the same length")
    lone = len(header) == 1
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(_csv_cells(header, lone)) + "\n")
        for first in range(0, n_rows, CSV_BLOCK_ROWS):
            block = [_csv_cells(c[first : first + CSV_BLOCK_ROWS], lone) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def write_trajectory_csv(trajectory: ReferenceTrajectory, path) -> None:
    """Write the reference table; floats keep full round-trip precision."""
    write_csv(
        path,
        TRAJECTORY_HEADER,
        [range(len(trajectory)), trajectory.times, *trajectory.poses.T,
         trajectory.v_ref, trajectory.omega_ref],
    )


def plan_reference(
    grid: OccupancyGrid,
    start: tuple[int, int],
    goal: tuple[int, int],
    total_time: float,
    ts: float,
) -> tuple[GridPath, SmoothPath, ReferenceTrajectory]:
    """Full pipeline: search, smooth, sample."""
    path = astar(grid, start, goal)
    curve = smooth(path, grid)
    return path, curve, sample_reference(curve, total_time, ts)

"""Mamdani fuzzy inference for self-tuning PID gain increments.

Two engines share one fixed design: seven uniform triangular sets on the
input universe ``ERROR_RANGE`` and on the increment universe
``DELTA_RANGE``, sampled on a 1001-point grid, and one 49-rule table per
gain.  The type-1 engine uses max-min composition and centroid
defuzzification.  The interval type-2 engine gives every set a footprint
of uncertainty and averages the Karnik-Mendel centroid interval of the
aggregated output set.  A degenerate footprint (lag 0, height 1) makes
the type-2 engine reproduce the type-1 engine up to rounding.

The type-1 engine sums its three centroids in one reduction over the
grid.  A type-2 engine writes the sums of its ``km_centroid`` calls into
one work array that it keeps, so a call allocates none of its own; that
engine is therefore not reentrant.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

LABELS = ("NB", "NM", "NS", "ZO", "PS", "PM", "PB")

ERROR_RANGE = (-1.0, 1.0)
DELTA_RANGE = (-0.1, 0.1)
_GRID_POINTS = 1001

# Gain-increment rule tables indexed [e, de] in label order NB..PB.
KP_RULES = (
    ("PB", "PB", "PM", "PM", "PS", "ZO", "ZO"),
    ("PB", "PB", "PM", "PS", "PS", "ZO", "NS"),
    ("PM", "PM", "PM", "PS", "ZO", "NS", "NS"),
    ("PM", "PM", "PS", "ZO", "NS", "NM", "NM"),
    ("PS", "PS", "ZO", "NS", "NS", "NM", "NM"),
    ("PS", "ZO", "NS", "NM", "NM", "NM", "NB"),
    ("ZO", "ZO", "NM", "NM", "NM", "NB", "NB"),
)
KI_RULES = (
    ("NB", "NB", "NM", "NM", "NS", "ZO", "ZO"),
    ("NB", "NB", "NM", "NS", "NS", "ZO", "ZO"),
    ("NB", "NM", "NS", "NS", "ZO", "PS", "PS"),
    ("NM", "NM", "NS", "ZO", "PS", "PM", "PM"),
    ("NM", "NS", "ZO", "PS", "PS", "PM", "PB"),
    ("ZO", "ZO", "PS", "PS", "PM", "PB", "PB"),
    ("ZO", "ZO", "PS", "PM", "PM", "PB", "PB"),
)
KD_RULES = (
    ("PS", "NS", "NB", "NB", "NB", "NM", "PS"),
    ("PS", "NS", "NB", "NM", "NM", "NS", "ZO"),
    ("ZO", "NM", "NM", "NM", "NS", "NS", "ZO"),
    ("ZO", "NS", "NS", "NS", "NS", "NS", "ZO"),
    ("ZO", "ZO", "ZO", "ZO", "ZO", "ZO", "ZO"),
    ("PB", "NS", "PS", "PS", "PS", "PS", "PB"),
    ("PB", "PM", "PM", "PM", "PS", "PS", "PB"),
)

# _RULE_LABELS[g, 0, l, r] is True when rule r (row-major over e, de) of
# gain g = kp, ki, kd fires output label l.
_RULE_LABELS = (
    np.array([KP_RULES, KI_RULES, KD_RULES]).reshape(3, 1, 1, -1) == np.array(LABELS)[:, None]
)


class EmptyAggregateError(Exception):
    """An interval-weighted point set has no upper weight to average."""


class GainDeltas(NamedTuple):
    """Crisp increments for the three PID gains."""

    dkp: float
    dki: float
    dkd: float


class _Triangles:
    """The seven uniform triangles on a universe, as (rows, 7, 1) arrays.

    Row 0 holds the upper sets: apexes spread evenly over the universe,
    feet on the neighbouring apexes, so adjacent sets cross at membership
    one half.  With a ``lag``, row 1 holds the lower sets of a type-2
    footprint: the same apexes, feet moved inward by ``lag`` times each
    half-support, and peak ``height``.  The trailing axis lets one call
    evaluate a scalar or a whole grid.
    """

    def __init__(self, universe, height=1.0, lag=None):
        apex = np.linspace(*universe, len(LABELS))
        h = apex[1] - apex[0]
        left, right = [apex - h], [apex + h]
        if lag is not None:
            left.append(left[0] + lag * (apex - left[0]))
            right.append(right[0] - lag * (right[0] - apex))
        self.left = np.array(left)[..., None]
        self.right = np.array(right)[..., None]
        self.rise = apex[:, None] - self.left
        self.fall = self.right - apex[:, None]
        self.height = height

    def __call__(self, x) -> np.ndarray:
        """Memberships of x, indexed [row, label, point].

        The lower sets lie inside the upper ones, but near a shared apex
        a lower membership can round one ulp above the upper one; it is
        capped there so that every interval stays well formed.
        """
        rise = (x - self.left) / self.rise
        fall = (self.right - x) / self.fall
        mu = np.clip(np.minimum(rise, fall), 0.0, 1.0)
        if len(mu) == 2:
            mu[1] = np.minimum(self.height * mu[1], mu[0])
        return mu


def check_footprint(height_scale: float, lag: float) -> None:
    """Raise ValueError unless ``(height_scale, lag)`` shape a type-2 footprint.

    The lower sets peak at ``height_scale`` in (0, 1], and their feet sit
    inward by a share ``lag`` in [0, 1) of each half-support.  A lag just
    below 1 can round a foot onto its apex on either universe, which
    leaves a lower set of zero width; such a lag is rejected too.  Each
    message starts with the name of the argument at fault.
    """
    if not 0.0 < height_scale <= 1.0:
        raise ValueError("height_scale must lie in (0, 1]")
    if not 0.0 <= lag < 1.0:
        raise ValueError("lag must lie in [0, 1)")
    for universe in (ERROR_RANGE, DELTA_RANGE):
        sets = _Triangles(universe, height_scale, lag)
        if not ((sets.rise > 0.0).all() and (sets.fall > 0.0).all()):
            raise ValueError(f"lag {lag!r} rounds a lower set's foot onto its apex")


def km_centroid(
    x: np.ndarray, f_lower: np.ndarray, f_upper: np.ndarray, work: np.ndarray | None = None
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Karnik-Mendel centroid bounds of an interval-weighted point set.

    Finds min and max of sum(x * theta) / sum(theta) over all weight
    vectors with f_lower <= theta <= f_upper.  Each bound is attained
    with upper weights on one side of a switch index and lower weights
    on the other (Karnik & Mendel 2001), so it is the extreme of that
    weighted mean over every switch index; no iteration is needed.

    ``x`` is one set of n points; the weights are (n,) for two floats,
    or (..., n) for a batch of weightings of those points, which gives
    two arrays of the batch shape.  Each row's bounds equal those of a
    call with that row alone, bit for bit.

    The sums are written into ``work``, a float array of shape (3, 2, 2,
    ..., n + 1) whose padding columns are zero: a zeroed array, or one an
    earlier call wrote, since no call writes them.  Without one, the call
    allocates its own.  ``work`` changes no result.
    """
    x = np.asarray(x, dtype=float)
    fl = np.asarray(f_lower, dtype=float)
    fu = np.asarray(f_upper, dtype=float)
    if x.ndim != 1 or fl.shape != fu.shape or fl.shape[-1:] != x.shape:
        raise ValueError("x must be 1-D, f_lower and f_upper of one shape (..., x.size)")
    if not (np.isfinite(x).all() and np.isfinite(fu).all()):
        raise ValueError("x and f_upper must be finite")
    # Written so that a NaN lower weight fails too.
    if not ((fl >= 0.0).all() and (fl <= fu).all()):
        raise ValueError("weights must satisfy 0 <= f_lower <= f_upper")
    peak = fu.max(axis=-1, initial=0.0)
    if not (peak > 0.0).all():
        raise EmptyAggregateError("no upper membership mass")

    # A stable sort leaves ascending points, such as an engine's grid, as
    # they are; skipping it then saves the gathers of every weight row.
    if (x[1:] < x[:-1]).any():
        order = np.argsort(x, kind="stable")
        x, fl, fu = x[order], fl[..., order], fu[..., order]
    n = x.size
    if work is None:
        work = np.zeros((3, 2, 2, *fu.shape[:-1], n + 1))
    elif work.shape != (3, 2, 2, *fu.shape[:-1], n + 1) or work.dtype != float:
        raise ValueError("work must be a float array of shape (3, 2, 2, ..., x.size + 1)")
    # A power-of-two scale per row is exact and changes no ratio.  It lifts
    # the row's peak weight as high as the sums below allow without
    # overflow, so that small weights and their products with x are normal
    # numbers: a subnormal product keeps only a few significant bits
    # (0.5 * 6.7e-322 is off by 0.7 %).  Even capped at 2**1023, the scale
    # lifts the smallest subnormal, 2**-1074, to 2**-51.  The points are
    # sorted, so the largest magnitude is at one end.
    top = 1021 - (n + 1).bit_length() - max(math.frexp(max(-x[0], x[-1]))[1], 0)
    scale = np.ldexp(1.0, np.minimum(top - np.frexp(peak)[1], 1023))[..., None]
    # Indexed [terms/prefix/suffix, x * weight/weight, lower/upper, ..., n + 1].
    terms, prefix, suffix = work
    np.multiply(fl, scale, out=terms[1, 0, ..., :n])
    np.multiply(fu, scale, out=terms[1, 1, ..., :n])
    np.multiply(terms[1, ..., :n], x, out=terms[0, ..., :n])

    # Column k of the padded sums splits the points at switch k: prefix
    # sums hold the k points before it, suffix sums the rest, and the
    # padding columns, prefix 0 and suffix n, stay zero.  Tails are
    # summed on their own rather than as total minus prefix, which would
    # cancel when a light tail follows a heavy head.  Reversing the
    # lower/upper axis of the suffixes pairs lower heads with upper tails.
    np.cumsum(terms[..., :n], axis=-1, out=prefix[..., 1:])
    np.cumsum(terms[:, ::-1, ..., n - 1 :: -1], axis=-1, out=suffix[..., n - 1 :: -1])
    num, den = np.add(prefix, suffix, out=terms)
    # Upper weights on the small-x side pull the centroid down, so row 1
    # holds the left bound and row 0 the right.  A switch with no mass is
    # infeasible; its 0/0 is NaN, which fmin and fmax skip.  The all-upper
    # switch always has mass.
    with np.errstate(invalid="ignore"):
        ratio = np.divide(num, den, out=num)
    y_left = np.fmin.reduce(ratio[1], axis=-1)
    y_right = np.fmax.reduce(ratio[0], axis=-1)
    if fu.ndim == 1:
        return float(y_left), float(y_right)
    return y_left, y_right


def _covering_labels(sets: np.ndarray) -> np.ndarray:
    """The output labels that can be nonzero at each grid point.

    ``sets`` holds output sets indexed [..., label, grid]; a label covers
    a point where any of its sets is nonzero there.  The result is
    (m, grid): m, the most labels covering one point, is read from the
    data (2 for a uniform partition).  A point covered by fewer labels
    repeats its first one, and a point no label covers gets label 0.
    """
    nonzero = (sets != 0.0).reshape(-1, *sets.shape[-2:]).any(axis=0)
    count = nonzero.sum(axis=0)
    m = max(int(count.max()), 1)
    # A stable sort of "is zero" puts the covering labels first, in order.
    first = np.argsort(~nonzero, axis=0, kind="stable")[:m]
    return np.where(np.arange(m)[:, None] < count, first, first[0])


class _EngineBase:
    """The fixed input sets, output grid and rule routing of both engines."""

    def __init__(self, height_scale, lag):
        self._inputs = _Triangles(ERROR_RANGE, height_scale, lag)
        self.grid = np.linspace(*DELTA_RANGE, _GRID_POINTS)
        dx = self.grid[1] - self.grid[0]
        self.weights = np.full(self.grid.size, dx)  # trapezoid rule
        self.weights[0] = self.weights[-1] = 0.5 * dx
        out_sets = _Triangles(DELTA_RANGE, height_scale, lag)(self.grid)
        self._cover = _covering_labels(out_sets)
        self._cover_sets = np.take_along_axis(out_sets, self._cover[None], axis=1)

    def _fuzzify(self, e: float, de: float) -> np.ndarray:
        """Rule firings indexed [row, e label, de label], inputs clamped."""
        if not (math.isfinite(e) and math.isfinite(de)):
            raise ValueError("e and de must be finite")
        lo, hi = ERROR_RANGE
        mu_e = self._inputs(min(max(float(e), lo), hi))
        mu_de = self._inputs(min(max(float(de), lo), hi))
        return np.minimum(mu_e, mu_de.swapaxes(-1, -2))

    def _aggregate(self, firing: np.ndarray) -> np.ndarray:
        """Max-min aggregate of each gain's fired output sets on the grid.

        ``firing`` is indexed [row, e, de] and the result [gain, row,
        grid].  A label's strength is its strongest rule firing.  Only
        the labels that cover a grid point enter its max; the others give
        min(strength, 0) = 0 there, which cannot raise a max of
        memberships, so the result equals the max over all labels bit for
        bit.
        """
        flat = firing.reshape(len(firing), 1, -1)
        strengths = np.where(_RULE_LABELS, flat, 0.0).max(axis=-1)  # [gain, row, label]
        covered = np.take(strengths, self._cover, axis=-1)
        return np.minimum(covered, self._cover_sets).max(axis=-2)


class Type1Engine(_EngineBase):
    """Max-min Mamdani engine with centroid defuzzification."""

    def __init__(self):
        super().__init__(1.0, None)

    def infer(self, e: float, de: float) -> GainDeltas:
        """Crisp gain increments for normalized error and error rate."""
        weighted = self.weights * self._aggregate(self._fuzzify(e, de))[:, 0]  # [gain, grid]
        num, den = np.add.reduce([weighted * self.grid, weighted], axis=-1)
        return GainDeltas(*(num / den).tolist())


class Type2Engine(_EngineBase):
    """Interval type-2 Mamdani engine.

    Rule firing intervals combine upper and lower memberships by min;
    the fired output sets aggregate (by max) into one output footprint
    whose Karnik-Mendel centroid interval is averaged into the crisp
    increment.  Lag 0 and height_scale 1 make the footprint degenerate
    and the output the type-1 engine's; ``FpidIt2Config`` holds the default.

    The engine owns the work array of its ``km_centroid`` calls, so an
    inference allocates no sums of its own; one engine therefore serves
    one caller at a time and is not reentrant.
    """

    def __init__(self, height_scale: float, lag: float):
        check_footprint(height_scale, lag)
        super().__init__(height_scale, lag)
        self._work = np.zeros((3, 2, 2, len(_RULE_LABELS), self.grid.size + 1))

    def infer(self, e: float, de: float) -> GainDeltas:
        """Crisp gain increments for normalized error and error rate."""
        aggregates = self._aggregate(self._fuzzify(e, de))  # [gain, upper/lower, grid]
        weighted = self.weights * aggregates
        y_left, y_right = km_centroid(self.grid, weighted[:, 1], weighted[:, 0], self._work)
        return GainDeltas(*(0.5 * (y_left + y_right)).tolist())

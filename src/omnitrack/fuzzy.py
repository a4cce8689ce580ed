"""Mamdani fuzzy inference for self-tuning PID gain increments.

Two engines share one rule base over seven triangular linguistic sets:
a type-1 engine (max-min composition, centroid defuzzification) and an
interval type-2 engine whose sets carry a footprint of uncertainty and
whose crisp output averages the Karnik-Mendel centroid interval of the
aggregated output set.  A degenerate footprint (lower set equal to the
upper set) makes the type-2 engine reproduce the type-1 engine exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LABELS = ("NB", "NM", "NS", "ZO", "PS", "PM", "PB")
LABEL_INDEX = {name: i for i, name in enumerate(LABELS)}

ERROR_RANGE = (-1.0, 1.0)
DELTA_RANGE = (-0.1, 0.1)
DEFAULT_RESOLUTION = 1001


class FuzzyError(Exception):
    """Base class for inference failures."""


class EmptyAggregateError(FuzzyError):
    """No rule produced output mass; the partition does not cover the input."""


class GainDeltas(NamedTuple):
    """Crisp increments for the three PID gains."""

    dkp: float
    dki: float
    dkd: float


@dataclass(frozen=True)
class TriMf:
    """Triangular membership function with unit peak at the apex."""

    left: float
    apex: float
    right: float

    def __post_init__(self):
        if not self.left <= self.apex <= self.right:
            raise ValueError("require left <= apex <= right")
        if self.right <= self.left:
            raise ValueError("support must have positive width")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.apex > self.left:
            rise = (x - self.left) / (self.apex - self.left)
        else:
            rise = (x >= self.apex).astype(float)
        if self.right > self.apex:
            fall = (self.right - x) / (self.right - self.apex)
        else:
            fall = (x <= self.apex).astype(float)
        mu = np.clip(np.minimum(rise, fall), 0.0, 1.0)
        return float(mu) if mu.ndim == 0 else mu


class _TriBank:
    """Several triangles evaluated at one scalar in one array expression.

    Does per set exactly the arithmetic of :meth:`TriMf.__call__`, so the
    memberships match a loop over the sets bit for bit.
    """

    def __init__(self, mfs):
        corners = np.array([(mf.left, mf.apex, mf.right) for mf in mfs])
        self.left, self.apex, self.right = corners.T
        self.rises = self.apex > self.left
        self.falls = self.right > self.apex
        # A shoulder side gets a unit width so that nothing divides by
        # zero; ``np.where`` in ``__call__`` discards that quotient.
        self.rise_width = np.where(self.rises, self.apex - self.left, 1.0)
        self.fall_width = np.where(self.falls, self.right - self.apex, 1.0)

    def __call__(self, x: float) -> np.ndarray:
        rise = np.where(self.rises, (x - self.left) / self.rise_width, x >= self.apex)
        fall = np.where(self.falls, (self.right - x) / self.fall_width, x <= self.apex)
        return np.clip(np.minimum(rise, fall), 0.0, 1.0)


@dataclass(frozen=True)
class FuzzyPartition:
    """Seven-set triangular partition of a closed universe.

    Apexes are the set peaks in label order NB..PB; adjacent sets cross
    at membership 0.5.  Inputs are clamped to the universe, which turns
    the outermost triangles into shoulders.
    """

    lo: float
    hi: float
    mfs: tuple[TriMf, ...]

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError("universe must have positive width")
        if len(self.mfs) != len(LABELS):
            raise ValueError(f"expected {len(LABELS)} membership functions")
        apexes = [mf.apex for mf in self.mfs]
        if any(b <= a for a, b in zip(apexes, apexes[1:])):
            raise ValueError("apexes must be strictly increasing")
        probe = np.linspace(self.lo, self.hi, 101)
        cover = np.max([mf(probe) for mf in self.mfs], axis=0)
        if np.any(cover <= 0.0):
            raise ValueError("partition leaves part of the universe uncovered")
        object.__setattr__(self, "_bank", _TriBank(self.mfs))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "FuzzyPartition":
        apexes = np.linspace(lo, hi, len(LABELS))
        h = apexes[1] - apexes[0]
        mfs = tuple(TriMf(a - h, a, a + h) for a in apexes)
        return cls(float(lo), float(hi), mfs)

    def clamp(self, x: float) -> float:
        return min(max(float(x), self.lo), self.hi)

    def fuzzify(self, x: float) -> np.ndarray:
        """Membership of x (clamped to the universe) in each of the 7 sets."""
        return self._bank(self.clamp(x))


@dataclass(frozen=True)
class FouMf:
    """Interval type-2 set: upper and lower triangles sharing one apex.

    The lower set is contained in the upper one: its feet sit inward by
    ``lag`` times the corresponding half-support and its peak membership
    is ``lmf_height``.
    """

    umf: TriMf
    lmf: TriMf
    lmf_height: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.lmf_height <= 1.0:
            raise ValueError("lmf_height must lie in (0, 1]")
        if self.lmf.left < self.umf.left or self.lmf.right > self.umf.right:
            raise ValueError("lower set must be contained in the upper set")
        if self.lmf.apex != self.umf.apex:
            raise ValueError("upper and lower sets must share the apex")

    @classmethod
    def from_umf(cls, umf: TriMf, height_scale: float = 1.0, lag: float = 0.3) -> "FouMf":
        if not 0.0 <= lag < 1.0:
            raise ValueError("lag must lie in [0, 1)")
        lmf = TriMf(
            umf.left + lag * (umf.apex - umf.left),
            umf.apex,
            umf.right - lag * (umf.right - umf.apex),
        )
        return cls(umf, lmf, height_scale)

    def upper(self, x):
        return self.umf(x)

    def lower(self, x):
        return self.lmf_height * self.lmf(x)


@dataclass(frozen=True)
class FouPartition:
    """Partition of interval type-2 sets built over a type-1 partition."""

    lo: float
    hi: float
    mfs: tuple[FouMf, ...]

    def __post_init__(self):
        sets = [mf.umf for mf in self.mfs] + [mf.lmf for mf in self.mfs]
        object.__setattr__(self, "_bank", _TriBank(sets))
        object.__setattr__(self, "_heights", np.array([mf.lmf_height for mf in self.mfs]))

    @classmethod
    def from_t1(
        cls, partition: FuzzyPartition, height_scale: float = 1.0, lag: float = 0.3
    ) -> "FouPartition":
        mfs = tuple(FouMf.from_umf(mf, height_scale, lag) for mf in partition.mfs)
        return cls(partition.lo, partition.hi, mfs)

    def fuzzify(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """Upper and lower memberships of x in each of the 7 sets.

        The lower set is contained in the upper one, but near a shared
        apex its membership can round one ulp above the upper one; the
        lower membership is capped so the interval stays well formed.
        """
        mu = self._bank(min(max(float(x), self.lo), self.hi))
        upper = mu[: len(self.mfs)]
        return upper, np.minimum(self._heights * mu[len(self.mfs) :], upper)


def _parse_label_table(rows: list[list[str]]) -> np.ndarray:
    table = np.array([[LABEL_INDEX[cell] for cell in row] for row in rows], dtype=np.int8)
    if table.shape != (7, 7):
        raise ValueError("rule table must be 7x7")
    return table


# Gain-increment rule tables indexed [e, de] in label order NB..PB.
_KP_RULES = [
    ["PB", "PB", "PM", "PM", "PS", "ZO", "ZO"],
    ["PB", "PB", "PM", "PS", "PS", "ZO", "NS"],
    ["PM", "PM", "PM", "PS", "ZO", "NS", "NS"],
    ["PM", "PM", "PS", "ZO", "NS", "NM", "NM"],
    ["PS", "PS", "ZO", "NS", "NS", "NM", "NM"],
    ["PS", "ZO", "NS", "NM", "NM", "NM", "NB"],
    ["ZO", "ZO", "NM", "NM", "NM", "NB", "NB"],
]
_KI_RULES = [
    ["NB", "NB", "NM", "NM", "NS", "ZO", "ZO"],
    ["NB", "NB", "NM", "NS", "NS", "ZO", "ZO"],
    ["NB", "NM", "NS", "NS", "ZO", "PS", "PS"],
    ["NM", "NM", "NS", "ZO", "PS", "PM", "PM"],
    ["NM", "NS", "ZO", "PS", "PS", "PM", "PB"],
    ["ZO", "ZO", "PS", "PS", "PM", "PB", "PB"],
    ["ZO", "ZO", "PS", "PM", "PM", "PB", "PB"],
]
_KD_RULES = [
    ["PS", "NS", "NB", "NB", "NB", "NM", "PS"],
    ["PS", "NS", "NB", "NM", "NM", "NS", "ZO"],
    ["ZO", "NM", "NM", "NM", "NS", "NS", "ZO"],
    ["ZO", "NS", "NS", "NS", "NS", "NS", "ZO"],
    ["ZO", "ZO", "ZO", "ZO", "ZO", "ZO", "ZO"],
    ["PB", "NS", "PS", "PS", "PS", "PS", "PB"],
    ["PB", "PM", "PM", "PM", "PS", "PS", "PB"],
]

RULES_HEADER = ["e", "de", "kp", "ki", "kd"]


@dataclass(frozen=True)
class RuleBase:
    """49 rules mapping (e, de) labels to gain-increment labels."""

    kp: np.ndarray
    ki: np.ndarray
    kd: np.ndarray

    def __post_init__(self):
        for name in ("kp", "ki", "kd"):
            table = np.asarray(getattr(self, name), dtype=np.int8)
            if table.shape != (7, 7):
                raise ValueError(f"{name} table must be 7x7")
            if table.min() < 0 or table.max() > 6:
                raise ValueError(f"{name} table holds invalid label indices")
            object.__setattr__(self, name, table)

    @classmethod
    def default(cls) -> "RuleBase":
        return cls(
            _parse_label_table(_KP_RULES),
            _parse_label_table(_KI_RULES),
            _parse_label_table(_KD_RULES),
        )

    def tables(self) -> dict[str, np.ndarray]:
        return {"kp": self.kp, "ki": self.ki, "kd": self.kd}

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RULES_HEADER)
            for i, e_label in enumerate(LABELS):
                for j, de_label in enumerate(LABELS):
                    writer.writerow(
                        [
                            e_label,
                            de_label,
                            LABELS[self.kp[i, j]],
                            LABELS[self.ki[i, j]],
                            LABELS[self.kd[i, j]],
                        ]
                    )

    @classmethod
    def from_csv(cls, path) -> "RuleBase":
        with open(path, "r", encoding="ascii", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != RULES_HEADER:
                raise ValueError("unexpected rule file header")
            rows = list(reader)
        if len(rows) != 49:
            raise ValueError(f"expected 49 rules, found {len(rows)}")
        tables = {g: np.full((7, 7), -1, dtype=np.int8) for g in ("kp", "ki", "kd")}
        for row in rows:
            e, de, kp, ki, kd = row
            i, j = LABEL_INDEX[e], LABEL_INDEX[de]
            if tables["kp"][i, j] != -1:
                raise ValueError(f"duplicate rule for ({e}, {de})")
            tables["kp"][i, j] = LABEL_INDEX[kp]
            tables["ki"][i, j] = LABEL_INDEX[ki]
            tables["kd"][i, j] = LABEL_INDEX[kd]
        if any(t.min() < 0 for t in tables.values()):
            raise ValueError("rule file does not cover all 49 label pairs")
        return cls(tables["kp"], tables["ki"], tables["kd"])


def km_centroid(
    x: np.ndarray, f_lower: np.ndarray, f_upper: np.ndarray
) -> tuple[float, float]:
    """Karnik-Mendel centroid bounds of an interval-weighted point set.

    Finds min and max of sum(x * theta) / sum(theta) over all weight
    vectors with f_lower <= theta <= f_upper.  Each bound is attained
    with upper weights on one side of a switch index and lower weights
    on the other (Karnik & Mendel 2001), so it is the extreme of that
    weighted mean over every switch index; no iteration is needed.
    """
    x = np.asarray(x, dtype=float)
    fl = np.asarray(f_lower, dtype=float)
    fu = np.asarray(f_upper, dtype=float)
    if x.shape != fl.shape or x.shape != fu.shape:
        raise ValueError("x, f_lower and f_upper must share one shape")
    if not (np.isfinite(x).all() and np.isfinite(fu).all()):
        raise ValueError("x and f_upper must be finite")
    # Written so that a NaN lower weight fails too.
    if not ((fl >= 0.0).all() and (fl <= fu).all()):
        raise ValueError("weights must satisfy 0 <= f_lower <= f_upper")
    if fu.sum() <= 0.0:
        raise EmptyAggregateError("no upper membership mass")

    order = np.argsort(x, kind="stable")
    x = x[order]
    n = x.size
    # A power-of-two scale is exact and changes no ratio; it keeps tiny
    # weights from underflowing in x * weight.  The exponent cap lifts
    # even the smallest subnormal into the normal range without overflow.
    scale = math.ldexp(1.0, min(-math.frexp(fu.max())[1], 1000))
    terms = np.empty((2, 2, n))  # [x * weight, weight] by [lower, upper]
    np.multiply([fl[order], fu[order]], scale, out=terms[1])
    np.multiply(terms[1], x, out=terms[0])

    # Column k of the padded sums splits the points at switch k: prefix
    # sums hold the k points before it, suffix sums the rest.  Tails are
    # summed on their own rather than as total minus prefix, which would
    # cancel when a light tail follows a heavy head.  Reversing the
    # lower/upper axis of the suffixes pairs lower heads with upper tails.
    prefix = np.zeros((2, 2, n + 1))
    suffix = np.zeros((2, 2, n + 1))
    np.cumsum(terms, axis=2, out=prefix[:, :, 1:])
    np.cumsum(terms[:, ::-1, ::-1], axis=2, out=suffix[:, :, n - 1 :: -1])
    num, den = prefix + suffix
    # Upper weights on the small-x side pull the centroid down, so row 1
    # holds the left bound and row 0 the right.  A switch with no mass is
    # infeasible; its 0/0 is NaN, which fmin and fmax skip.  The all-upper
    # switch always has mass.
    with np.errstate(invalid="ignore"):
        ratio = num / den
    return float(np.fmin.reduce(ratio[1])), float(np.fmax.reduce(ratio[0]))


def centroid_of_fou(
    fou: FouMf, lo: float, hi: float, resolution: int = DEFAULT_RESOLUTION
) -> tuple[float, float]:
    """Centroid interval of one interval type-2 set over [lo, hi]."""
    grid = np.linspace(lo, hi, resolution)
    weights = _trapezoid_weights(grid)
    return km_centroid(grid, weights * fou.lower(grid), weights * fou.upper(grid))


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    dx = grid[1] - grid[0]
    w = np.full(grid.size, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


class _EngineBase:
    """Shared discretization and rule routing for both engines."""

    def __init__(self, rules, error_partition, delta_partition, resolution):
        if resolution < 3:
            raise ValueError("resolution must be at least 3")
        self.rules = rules if rules is not None else RuleBase.default()
        self.error_partition = (
            error_partition
            if error_partition is not None
            else FuzzyPartition.uniform(*ERROR_RANGE)
        )
        self.delta_partition = (
            delta_partition
            if delta_partition is not None
            else FuzzyPartition.uniform(*DELTA_RANGE)
        )
        self.resolution = int(resolution)
        self.grid = np.linspace(
            self.delta_partition.lo, self.delta_partition.hi, self.resolution
        )
        self.weights = _trapezoid_weights(self.grid)
        # _rule_labels[g, 0, l, r] is True when rule r (row-major over e, de)
        # of gain g = kp, ki, kd fires output label l.
        tables = np.stack([self.rules.kp, self.rules.ki, self.rules.kd]).reshape(3, 1, 1, -1)
        self._rule_labels = tables == np.arange(len(LABELS))[:, None]

    @staticmethod
    def _check_inputs(e: float, de: float) -> None:
        if not (math.isfinite(e) and math.isfinite(de)):
            raise ValueError("e and de must be finite")

    def _label_strengths(self, firing: np.ndarray) -> np.ndarray:
        """Strongest firing per gain, firing table and output label.

        ``firing[m]`` is one 7x7 table of rule firings; the result is
        indexed [gain, m, label] and is zero for a label no rule fires.
        """
        flat = firing.reshape(len(firing), 1, -1)
        return np.where(self._rule_labels, flat, 0.0).max(axis=-1)


class Type1Engine(_EngineBase):
    """Max-min Mamdani engine with centroid defuzzification."""

    def __init__(
        self,
        rules: RuleBase | None = None,
        error_partition: FuzzyPartition | None = None,
        delta_partition: FuzzyPartition | None = None,
        resolution: int = DEFAULT_RESOLUTION,
    ):
        super().__init__(rules, error_partition, delta_partition, resolution)
        self._out_mfs = np.array([mf(self.grid) for mf in self.delta_partition.mfs])

    def infer(self, e: float, de: float) -> GainDeltas:
        """Crisp gain increments for normalized error and error rate."""
        self._check_inputs(e, de)
        mu_e = self.error_partition.fuzzify(e)
        mu_de = self.error_partition.fuzzify(de)
        firing = np.minimum(mu_e[:, None], mu_de[None, :])
        strengths = self._label_strengths(firing[None])[:, 0]
        aggregates = np.minimum(strengths[:, :, None], self._out_mfs).max(axis=1)
        deltas = []
        for aggregate in aggregates:
            mass = self.weights @ aggregate
            if mass <= 0.0:
                raise EmptyAggregateError("aggregated output set is empty")
            deltas.append(float((self.weights * aggregate) @ self.grid / mass))
        return GainDeltas(*deltas)


class Type2Engine(_EngineBase):
    """Interval type-2 Mamdani engine.

    Rule firing intervals combine upper and lower memberships by min;
    the fired output sets aggregate (by max) into one output footprint
    whose Karnik-Mendel centroid interval is averaged into the crisp
    increment.  With lag = 0 and height_scale = 1 the footprint is
    degenerate and the output equals the type-1 engine's.
    """

    def __init__(
        self,
        rules: RuleBase | None = None,
        error_partition: FuzzyPartition | None = None,
        delta_partition: FuzzyPartition | None = None,
        height_scale: float = 1.0,
        lag: float = 0.3,
        resolution: int = DEFAULT_RESOLUTION,
    ):
        super().__init__(rules, error_partition, delta_partition, resolution)
        self.height_scale = float(height_scale)
        self.lag = float(lag)
        self.error_fou = FouPartition.from_t1(self.error_partition, height_scale, lag)
        self.delta_fou = FouPartition.from_t1(self.delta_partition, height_scale, lag)
        self._out_sets = np.array(
            [
                [mf.upper(self.grid) for mf in self.delta_fou.mfs],
                [mf.lower(self.grid) for mf in self.delta_fou.mfs],
            ]
        )
        # Rounding can lift a lower membership above the upper one only
        # within a few ulps of an apex, where ``FouPartition.fuzzify`` caps
        # it; the output grid must not hit such a point.
        if np.any(self._out_sets[1] > self._out_sets[0]):
            raise ValueError("lower output set exceeds the upper set on the grid")

    def infer(self, e: float, de: float) -> GainDeltas:
        """Crisp gain increments for normalized error and error rate."""
        self._check_inputs(e, de)
        mu_e = np.stack(self.error_fou.fuzzify(e))
        mu_de = np.stack(self.error_fou.fuzzify(de))
        firing = np.minimum(mu_e[:, :, None], mu_de[:, None, :])  # [upper/lower, e, de]
        strengths = self._label_strengths(firing)  # [gain, upper/lower, label]
        aggregates = np.minimum(strengths[..., None], self._out_sets).max(axis=2)
        weighted = self.weights * aggregates
        deltas = []
        for upper, lower in weighted:
            y_left, y_right = km_centroid(self.grid, lower, upper)
            deltas.append(float(0.5 * (y_left + y_right)))
        return GainDeltas(*deltas)


def write_control_surface(engine, path, resolution: int = 41) -> None:
    """Dump the engine's gain-increment surface on a uniform input grid."""
    lo, hi = engine.error_partition.lo, engine.error_partition.hi
    axis = np.linspace(lo, hi, resolution)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["e", "de", "dkp", "dki", "dkd"])
        for e in axis:
            for de in axis:
                out = engine.infer(e, de)
                writer.writerow(
                    [repr(float(e)), repr(float(de)), repr(out.dkp), repr(out.dki), repr(out.dkd)]
                )

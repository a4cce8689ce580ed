import dataclasses
import itertools
import math
import platform
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omnitrack.fuzzy import (
    DELTA_RANGE,
    ERROR_RANGE,
    KD_RULES,
    KI_RULES,
    KP_RULES,
    LABELS,
    EmptyAggregateError,
    GainDeltas,
    Type1Engine,
    Type2Engine,
    _Triangles,
    km_centroid,
)
from omnitrack.fpid import FpidIt2Config

# The default type-2 footprint (height_scale, lag), as FpidIt2Config holds it.
FOOTPRINT = dataclasses.astuple(FpidIt2Config())

# Independent transcription of the 49-rule gain-scheduling table.  Each
# cell reads "kp\ki\kd"; rows are e = NB..PB, columns de = NB..PB.  Kept
# as one block string so the audit below compares cell for cell against
# the shipped tables (147 label comparisons).
RULE_TRIPLES = """
PB\\NB\\PS PB\\NB\\NS PM\\NM\\NB PM\\NM\\NB PS\\NS\\NB ZO\\ZO\\NM ZO\\ZO\\PS
PB\\NB\\PS PB\\NB\\NS PM\\NM\\NB PS\\NS\\NM PS\\NS\\NM ZO\\ZO\\NS NS\\ZO\\ZO
PM\\NB\\ZO PM\\NM\\NM PM\\NS\\NM PS\\NS\\NM ZO\\ZO\\NS NS\\PS\\NS NS\\PS\\ZO
PM\\NM\\ZO PM\\NM\\NS PS\\NS\\NS ZO\\ZO\\NS NS\\PS\\NS NM\\PM\\NS NM\\PM\\ZO
PS\\NM\\ZO PS\\NS\\ZO ZO\\ZO\\ZO NS\\PS\\ZO NS\\PS\\ZO NM\\PM\\ZO NM\\PB\\ZO
PS\\ZO\\PB ZO\\ZO\\NS NS\\PS\\PS NM\\PS\\PS NM\\PM\\PS NM\\PB\\PS NB\\PB\\PB
ZO\\ZO\\PB ZO\\ZO\\PM NM\\PS\\PM NM\\PM\\PM NM\\PM\\PS NB\\PB\\PS NB\\PB\\PB
"""


def audit_tables():
    kp = np.zeros((7, 7), dtype=np.int8)
    ki = np.zeros((7, 7), dtype=np.int8)
    kd = np.zeros((7, 7), dtype=np.int8)
    rows = [r.split() for r in RULE_TRIPLES.strip().splitlines()]
    assert len(rows) == 7 and all(len(r) == 7 for r in rows)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            p, i_, d = cell.split("\\")
            kp[i, j] = LABELS.index(p)
            ki[i, j] = LABELS.index(i_)
            kd[i, j] = LABELS.index(d)
    return kp, ki, kd


# --------------------------------------------------------------- oracle
# The tests' own sets: one triangle call per set, built from the design
# (seven uniform sets per universe, lower sets moved inward by the lag).


def trapezoid_weights(grid):
    dx = grid[1] - grid[0]
    w = np.full(grid.size, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def triangle(x, left, apex, right):
    """Membership in one triangle with unit peak at the apex."""
    x = np.asarray(x, dtype=float)
    rise = (x - left) / (apex - left)
    fall = (right - x) / (right - apex)
    return np.clip(np.minimum(rise, fall), 0.0, 1.0)


def oracle_corners(universe, lag=None):
    """(left, apex, right) of the seven uniform sets on a universe, one
    list per row: the upper sets, then with a lag the lower sets."""
    apexes = np.linspace(*universe, len(LABELS))
    h = apexes[1] - apexes[0]
    upper = [(a - h, a, a + h) for a in apexes]
    if lag is None:
        return [upper]
    return [upper, [(l + lag * (a - l), a, r - lag * (r - a)) for l, a, r in upper]]


def oracle_memberships(x, universe, footprint=None):
    """Memberships of x indexed [row, label] (and point, for an array x).

    ``footprint`` is type-2's (height_scale, lag): its lower row is the
    height times the lower triangle, capped at the upper row.
    """
    height, lag = footprint or (1.0, None)
    rows = [np.array([triangle(x, *c) for c in row]) for row in oracle_corners(universe, lag)]
    if lag is None:
        return np.stack(rows)
    upper, lower = rows
    return np.stack([upper, np.minimum(height * lower, upper)])


def clamp(x):
    lo, hi = ERROR_RANGE
    return min(max(float(x), lo), hi)


def oracle_firing(e, de, footprint=None):
    """Rule firings indexed [row, e label, de label]."""
    mu_e = oracle_memberships(clamp(e), ERROR_RANGE, footprint)
    mu_de = oracle_memberships(clamp(de), ERROR_RANGE, footprint)
    return np.minimum(mu_e[:, :, None], mu_de[:, None, :])


# ------------------------------------------------------------ rule base


def test_rule_tables_match_audit_copy():
    for table, audit in zip((KP_RULES, KI_RULES, KD_RULES), audit_tables()):
        assert np.array_equal([[LABELS.index(cell) for cell in row] for row in table], audit)


def test_rule_tables_are_not_centrally_symmetric():
    # A heading loop mirrors (e, de) -> (-e, -de) only if every gain cell
    # equals its 180-degree rotation.  The classic tables index signed
    # errors and break that in most cells, so fuzzy headings do not mirror
    # (tests/test_simlab.py).
    differing = [
        sum(table[i][j] != table[6 - i][6 - j] for i in range(7) for j in range(7))
        for table in (KP_RULES, KI_RULES, KD_RULES)
    ]
    assert differing == [40, 38, 36]


# ----------------------------------------------------------- partitions


def test_membership_triangle_shape():
    # The oracle's triangle, on an asymmetric set.
    assert triangle(0.0, -1.0, 0.0, 2.0) == 1.0
    assert triangle(-1.0, -1.0, 0.0, 2.0) == 0.0
    assert triangle(2.0, -1.0, 0.0, 2.0) == 0.0
    assert triangle(-0.5, -1.0, 0.0, 2.0) == pytest.approx(0.5)
    assert triangle(1.0, -1.0, 0.0, 2.0) == pytest.approx(0.5)
    assert triangle(3.0, -1.0, 0.0, 2.0) == 0.0


def test_uniform_partition_crosses_at_half():
    sets = _Triangles(ERROR_RANGE)
    apexes = np.linspace(*ERROR_RANGE, 7)
    assert np.array_equal(np.diag(sets(apexes)[0]), np.ones(7))
    # Adjacent sets overlap exactly at membership one half.
    mu = sets(0.5 * (apexes[2] + apexes[3]))[0, :, 0]
    assert mu[2] == pytest.approx(0.5)
    assert mu[3] == pytest.approx(0.5)
    assert mu.sum() == pytest.approx(1.0)


def test_fuzzify_clamps_out_of_range():
    for engine in (Type1Engine(), Type2Engine(*FOOTPRINT)):
        assert engine._fuzzify(5.0, -5.0).tobytes() == engine._fuzzify(1.0, -1.0).tobytes()
        assert engine._fuzzify(5.0, -5.0)[0, 6, 0] == 1.0  # PB error, NB rate


def test_fou_construction_and_containment():
    sets = _Triangles(ERROR_RANGE, height=0.8, lag=0.25)
    upper, lower = sets(np.linspace(-1.2, 1.2, 201))
    assert np.all(lower <= upper)
    # The ZO lower set peaks at the height, and its feet sit a quarter of
    # the half-support (1/3) inward of the upper set's.
    assert sets(np.array([-0.25, 0.0, 0.25]))[1, 3] == pytest.approx([0.0, 0.8, 0.0], abs=1e-12)
    with pytest.raises(ValueError, match="lag"):
        Type2Engine(height_scale=1.0, lag=1.0)
    with pytest.raises(ValueError, match="height_scale"):
        Type2Engine(height_scale=0.0, lag=0.0)


def membership_probes(universe, seed=0):
    """Every set corner, points just beside them, and seeded uniform draws."""
    corners = {float(c) for row in oracle_corners(universe) for mf in row for c in mf}
    probes = set(corners)
    for c in corners:
        probes.update((math.nextafter(c, -math.inf), math.nextafter(c, math.inf)))
    lo, hi = universe
    probes.update(np.random.default_rng(seed).uniform(1.3 * lo, 1.3 * hi, 300).tolist())
    return sorted(probes)


# The engines' sets on both universes: error (inputs) and delta (outputs).
universes = pytest.mark.parametrize(
    "universe", [ERROR_RANGE, DELTA_RANGE], ids=["uniform", "uniform-delta"]
)


@universes
def test_fuzzify_equals_one_membership_call_per_set(universe):
    sets = _Triangles(universe)
    lo, hi = universe
    for x in membership_probes(universe):
        clamped = min(max(x, lo), hi)
        assert sets(clamped).tobytes() == oracle_memberships(clamped, universe).tobytes(), x


@universes
@pytest.mark.parametrize("height_scale, lag", [(1.0, 0.3), (0.8, 0.45), (0.6, 0.0)])
def test_fou_fuzzify_equals_one_membership_call_per_set(universe, height_scale, lag):
    sets = _Triangles(universe, height_scale, lag)
    lo, hi = universe
    for x in membership_probes(universe, seed=1):
        clamped = min(max(x, lo), hi)
        expected = oracle_memberships(clamped, universe, (height_scale, lag))
        assert sets(clamped).tobytes() == expected.tobytes(), x


@settings(max_examples=300, deadline=None)
@given(
    x=st.one_of(
        st.floats(min_value=-1e-15, max_value=1e-15),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    height_scale=st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
    lag=st.one_of(st.just(0.3), st.floats(min_value=0.0, max_value=0.99)),
)
def test_fou_lower_never_exceeds_upper(x, height_scale, lag):
    upper, lower = _Triangles(ERROR_RANGE, height_scale, lag)(clamp(x))
    assert np.all(lower >= 0.0) and np.all(lower <= upper)


# ------------------------------------------------------- type reduction


def _exact_integers(values):
    """Integers m and one power-of-two scale s with values == m / s exactly."""
    exact = [Fraction(float(v)) for v in values]
    scale = max(f.denominator for f in exact)
    return [int(f * scale) for f in exact], scale


def brute_force_centroid_bounds(x, fl, fu):
    """Enumerate every lower/upper weight assignment (the oracle).

    The centroid is linear-fractional in each weight, so its extrema over
    the weight box sit at vertices; 2^n enumeration finds them exactly.
    Exact integer arithmetic keeps tiny weights from underflowing; the
    weights' common scale cancels in the ratio.
    """
    xs, x_scale = _exact_integers(x)
    weights, _ = _exact_integers([*fl, *fu])
    lower, upper = weights[: len(xs)], weights[len(xs) :]
    centroids = []
    for choice in itertools.product((0, 1), repeat=len(xs)):
        theta = [u if c else l for c, l, u in zip(choice, lower, upper)]
        mass = sum(theta)
        if mass > 0:
            num = sum(a * t for a, t in zip(xs, theta))
            centroids.append(Fraction(num, mass * x_scale))
    return float(min(centroids)), float(max(centroids))


def test_centroid_bounds_match_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = rng.integers(2, 11)
        x = np.sort(rng.uniform(-1.0, 1.0, n))
        fu = rng.uniform(0.05, 1.0, n)
        fl = fu * rng.uniform(0.0, 1.0, n)
        y_left, y_right = km_centroid(x, fl, fu)
        lo, hi = brute_force_centroid_bounds(x, fl, fu)
        assert y_left == pytest.approx(lo, abs=1e-6)
        assert y_right == pytest.approx(hi, abs=1e-6)
        assert y_left <= y_right + 1e-12


def test_centroid_bounds_with_zero_lower_weights_match_enumeration():
    # No lower mass: a switch is feasible only if its upper side has mass.
    x = np.array([-0.6, -0.1, 0.2, 0.9])
    fu = np.array([0.3, 1.0, 0.05, 0.6])
    y_left, y_right = km_centroid(x, np.zeros(4), fu)
    lo, hi = brute_force_centroid_bounds(x, np.zeros(4), fu)
    assert y_left == pytest.approx(lo, abs=1e-12)
    assert y_right == pytest.approx(hi, abs=1e-12)


def test_centroid_bounds_with_a_light_tail_after_a_heavy_head():
    # A tail taken as total minus prefix cancels here and misses by 4e-6.
    x = np.array([-1.0, 0.3])
    y_left, y_right = km_centroid(x, np.array([0.0, 3e-12]), np.array([1.0, 1e-11]))
    assert y_right == pytest.approx(0.3, abs=1e-15)
    assert y_left == pytest.approx((-1.0 + 0.3 * 3e-12) / (1.0 + 3e-12), abs=1e-15)


def test_centroid_bounds_of_subnormal_weights():
    # x * 5e-324 underflows to zero unless the weights are rescaled first.
    x = np.array([0.25, 0.5])
    assert km_centroid(x, np.zeros(2), np.array([0.0, 5e-324])) == (0.5, 0.5)
    # Scaled only to bring the peak near 1, the product 0.5 * 6.67e-322
    # stayed subnormal and rounded by 0.7 %: the right bound was 0.5037.
    x, fl, fu = np.array([0.0, 0.5]), np.array([0.0, 6.67e-322]), np.array([0.5, 2.6e-161])
    y_left, y_right = km_centroid(x, fl, fu)
    lo, hi = brute_force_centroid_bounds(x, fl, fu)
    assert y_right == hi == 0.5
    assert y_left == pytest.approx(lo, rel=1e-15)


weights = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def interval_point_sets(draw, max_size=8):
    """Points in [-1, 1] with interval weights; zeros allowed in both bounds."""
    n = draw(st.integers(1, max_size))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    fu = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    share = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    assume(fu.sum() > 0.0)
    return x, fu * share, fu


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(interval_point_sets())
def test_centroid_bounds_property_match_enumeration(points):
    x, fl, fu = points
    y_left, y_right = km_centroid(x, fl, fu)
    lo, hi = brute_force_centroid_bounds(x, fl, fu)
    assert abs(y_left - lo) <= 1e-12
    assert abs(y_right - hi) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(interval_point_sets(), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_centroid_bounds_property_bracket_every_feasible_centroid(points, mix):
    x, fl, fu = points
    theta = [Fraction(float(t)) for t in fl + np.array(mix[: x.size]) * (fu - fl)]
    assume(sum(theta) > 0)
    y_left, y_right = km_centroid(x, fl, fu)
    y = float(sum(Fraction(float(a)) * t for a, t in zip(x, theta)) / sum(theta))
    assert y_left - 1e-12 <= y <= y_right + 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(interval_point_sets(), st.randoms(use_true_random=False))
def test_centroid_bounds_property_ignore_point_order(points, random):
    x, fl, fu = points
    order = list(range(x.size))
    random.shuffle(order)
    before = km_centroid(x, fl, fu)
    after = km_centroid(x[order], fl[order], fu[order])
    # Tied points may sum in another order; distinct points sort alike.
    tol = 0.0 if np.unique(x).size == x.size else 1e-12
    assert abs(after[0] - before[0]) <= tol
    assert abs(after[1] - before[1]) <= tol


@st.composite
def weight_rows(draw, n):
    """One interval weighting of n points: plain, tiny or subnormal."""
    kind = draw(st.sampled_from(["plain", "tiny", "subnormal"]))
    if kind == "subnormal":
        fu = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))) * 5e-324
        return np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), fu, 0.0), fu
    fu = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    fl = fu * np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    scale = 1e-300 if kind == "tiny" else 1.0
    return fl * scale, fu * scale


@st.composite
def batched_point_sets(draw):
    """Points in [-1, 1] shared by a (rows, n) batch of weightings."""
    n = draw(st.integers(1, 8))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    rows = draw(st.lists(weight_rows(n), min_size=1, max_size=4))
    assume(all(fu.sum() > 0.0 for _, fu in rows))
    return x, np.array([fl for fl, _ in rows]), np.array([fu for _, fu in rows])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batched_point_sets())
def test_batched_centroid_bounds_equal_per_row_calls_bit_for_bit(points):
    x, fl, fu = points
    y_left, y_right = km_centroid(x, fl, fu)
    assert y_left.shape == y_right.shape == (len(fu),)
    for row, (lower, upper) in enumerate(zip(fl, fu)):
        single = km_centroid(x, lower, upper)
        assert all(type(y) is float for y in single)
        assert np.array(single).tobytes() == np.array([y_left[row], y_right[row]]).tobytes()
    stacked = km_centroid(x, np.stack([fl, fl]), np.stack([fu, fu]))
    assert np.array(stacked).tobytes() == np.array([[y_left] * 2, [y_right] * 2]).tobytes()


@st.composite
def weightings_of_one_point_set(draw):
    """Points in [-1, 1] and 2-4 (rows, n) weightings of them."""
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 3))
    x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    batch = st.lists(weight_rows(n), min_size=rows, max_size=rows)
    batches = draw(st.lists(batch, min_size=2, max_size=4))
    assume(all(fu.sum() > 0.0 for batch in batches for _, fu in batch))
    return x, [(np.array([r[0] for r in b]), np.array([r[1] for r in b])) for b in batches]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(weightings_of_one_point_set())
def test_centroid_bounds_on_a_reused_work_array_equal_a_fresh_call(points):
    x, batches = points
    rows, n = batches[0][0].shape
    batch_work = np.zeros((3, 2, 2, rows, n + 1))
    row_work = np.zeros((3, 2, 2, n + 1))
    for fl, fu in batches:
        fresh = np.array(km_centroid(x, fl, fu))
        assert np.array(km_centroid(x, fl, fu, batch_work)).tobytes() == fresh.tobytes()
        single = km_centroid(x, fl[-1], fu[-1], row_work)
        assert np.array(single).tobytes() == fresh[:, -1].tobytes()
    # The padding columns that every call relies on are still zero.
    for work in (batch_work, row_work):
        assert not work[1, ..., 0].any() and not work[2, ..., -1].any()
    with pytest.raises(ValueError, match="work"):
        km_centroid(x, fl, fu, row_work)
    with pytest.raises(ValueError, match="work"):
        km_centroid(x, fl[0], fu[0], np.zeros(row_work.shape, dtype=np.float32))


def test_batch_with_an_empty_row_raises():
    x = np.array([0.0, 0.5, 1.0])
    fu = np.array([[0.2, 1.0, 0.4], [0.0, 0.0, 0.0]])
    with pytest.raises(EmptyAggregateError):
        km_centroid(x, np.zeros_like(fu), fu)
    with pytest.raises(ValueError):
        km_centroid(np.stack([x, x]), np.zeros_like(fu), fu + 1.0)
    with pytest.raises(ValueError):
        km_centroid(x, np.zeros((2, 3)), np.ones((3, 3)))


def test_centroid_bounds_degenerate_interval():
    # Equal lower and upper weights collapse the interval to the plain
    # weighted mean.
    x = np.array([-0.5, 0.0, 0.25, 0.75])
    w = np.array([0.2, 0.9, 0.4, 0.1])
    y_left, y_right = km_centroid(x, w, w)
    expected = float((x * w).sum() / w.sum())
    assert y_left == pytest.approx(expected, abs=1e-12)
    assert y_right == pytest.approx(expected, abs=1e-12)


def test_centroid_bounds_validation():
    x = np.array([0.0, 1.0])
    with pytest.raises(EmptyAggregateError):
        km_centroid(x, np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        km_centroid(x, np.array([0.5, 0.5]), np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        km_centroid(x, np.array([-0.1, 0.5]), np.array([0.5, 0.5]))
    # Non-finite input must not vanish into a finite bound.
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            km_centroid(np.array([0.0, bad]), np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            km_centroid(x, np.array([0.0, bad]), np.ones(2))
        with pytest.raises(ValueError):
            km_centroid(x, np.zeros(2), np.array([1.0, bad]))


def centroid_of_fou(corners, height_scale, lag, lo, hi, resolution=1001):
    """Centroid interval of one interval type-2 triangle over [lo, hi]."""
    grid = np.linspace(lo, hi, resolution)
    weights = trapezoid_weights(grid)
    left, apex, right = corners
    upper = triangle(grid, left, apex, right)
    lower = height_scale * triangle(
        grid, left + lag * (apex - left), apex, right - lag * (right - apex)
    )
    return km_centroid(grid, weights * lower, weights * upper)


def test_fou_centroid_properties():
    corners = (-0.05, 0.0, 0.1)
    exact = sum(corners) / 3.0  # centroid of a triangle
    y_left, y_right = centroid_of_fou(corners, 1.0, 0.0, -0.1, 0.1)
    assert y_left == pytest.approx(y_right, abs=1e-12)
    assert y_left == pytest.approx(exact, abs=1e-4)  # grid discretization

    widths = []
    for lag in (0.1, 0.3, 0.6):
        lo, hi = centroid_of_fou(corners, 0.9, lag, -0.1, 0.1)
        assert lo <= y_left + 1e-9 and hi >= y_right - 1e-9
        widths.append(hi - lo)
    assert widths == sorted(widths)  # more uncertainty, wider interval


# --------------------------------------------------------------- engines


def test_type1_outputs_stay_in_range():
    engine = Type1Engine()
    lo, hi = DELTA_RANGE
    for e in np.linspace(-1.3, 1.3, 21):
        for de in np.linspace(-1.3, 1.3, 21):
            out = engine.infer(e, de)
            for value in out:
                assert lo - 1e-12 <= value <= hi + 1e-12


def test_type1_center_output():
    out = Type1Engine().infer(0.0, 0.0)
    # Only the (ZO, ZO) rule fires at the origin: kp and ki get the ZO
    # set (centroid zero) while kd gets NS, whose centroid sits one
    # partition step below zero (-0.1/3).
    assert out.dkp == pytest.approx(0.0, abs=1e-12)
    assert out.dki == pytest.approx(0.0, abs=1e-12)
    assert out.dkd == pytest.approx(-0.1 / 3.0, abs=1e-4)


def test_type1_saturated_corner_signs():
    out = Type1Engine().infer(-1.0, -1.0)
    # Large negative error with negative trend: raise kp, lower ki, raise kd.
    assert out.dkp > 0.05
    assert out.dki < -0.05
    assert out.dkd > 0.0


def test_type1_returns_plain_floats():
    out = Type1Engine().infer(0.3, -0.7)
    assert isinstance(out, GainDeltas)
    assert all(isinstance(v, float) for v in out)


def test_type2_degenerate_equals_type1():
    t1 = Type1Engine()
    t2 = Type2Engine(height_scale=1.0, lag=0.0)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        e, de = rng.uniform(-1.0, 1.0, 2)
        a = t1.infer(e, de)
        b = t2.infer(e, de)
        worst = max(worst, *(abs(x - y) for x, y in zip(a, b)))
    assert worst < 1e-9


def test_type2_outputs_stay_in_range():
    engine = Type2Engine(*FOOTPRINT)
    lo, hi = DELTA_RANGE
    for e in np.linspace(-1.0, 1.0, 11):
        for de in np.linspace(-1.0, 1.0, 11):
            out = engine.infer(e, de)
            for value in out:
                assert lo - 1e-12 <= value <= hi + 1e-12


@pytest.mark.parametrize("lag", [0.6, 0.7])
def test_type2_wide_lag_fires_no_lower_set_yet_stays_finite(lag):
    # With lag > 0.5 the lower triangles leave gaps: at e = 0.5 no lower
    # set fires, so the lower bound of every rule firing is zero.
    engine = Type2Engine(height_scale=1.0, lag=lag)
    assert not engine._fuzzify(0.5, 0.0)[1].any()
    lo, hi = DELTA_RANGE
    for value in engine.infer(0.5, 0.0):
        assert math.isfinite(value) and lo <= value <= hi


def test_type2_differs_from_type1_with_uncertainty():
    t1 = Type1Engine()
    t2 = Type2Engine(height_scale=1.0, lag=0.3)
    diffs = [
        abs(t1.infer(e, de).dkp - t2.infer(e, de).dkp)
        for e, de in ((0.4, -0.2), (0.8, 0.1), (-0.6, 0.5))
    ]
    assert max(diffs) > 1e-6  # the footprint genuinely changes the output


def test_resolution_insensitivity():
    # The engines' 1001-point grid against the oracle on a ten times finer one.
    width = DELTA_RANGE[1] - DELTA_RANGE[0]
    for engine, footprint in ((Type1Engine(), None), (Type2Engine(*FOOTPRINT), FOOTPRINT)):
        for e, de in ((0.0, 0.0), (0.35, -0.15), (-0.9, 0.7), (1.0, 1.0)):
            a, b = engine.infer(e, de), reference_infer(e, de, footprint, points=10001)
            for x, y in zip(a, b):
                assert abs(x - y) < 1e-4 * width


def test_engine_inputs_expect_normalized_scale():
    lo, hi = ERROR_RANGE
    for engine in (Type1Engine(), Type2Engine(*FOOTPRINT)):
        # Out-of-range inputs clamp rather than fail.
        assert engine.infer(50.0, -50.0) == engine.infer(hi, lo)


def test_type2_input_next_to_the_zero_apex_does_not_crash():
    # Here the ZO lower membership rounded one ulp above the upper one,
    # and km_centroid rejected the ill-formed interval.
    engine = Type2Engine(*FOOTPRINT)
    out = engine.infer(3.5381555418772973e-17, 9.792179086168456e-18)
    lo, hi = DELTA_RANGE
    assert all(lo <= value <= hi for value in out)
    # About one in a hundred inputs this close to the apex rounded so.
    for x in np.random.default_rng(3).uniform(-1e-15, 1e-15, 2000):
        upper, lower = engine._fuzzify(x, x)
        assert np.all(lower <= upper), x


@pytest.mark.parametrize(
    "engine", [Type1Engine(), Type2Engine(*FOOTPRINT)], ids=["Type1Engine", "Type2Engine"]
)
@pytest.mark.parametrize(
    "e, de", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
)
def test_engines_reject_non_finite_inputs(engine, e, de):
    with pytest.raises(ValueError, match="e and de must be finite"):
        engine.infer(e, de)


def reference_infer(e, de, footprint=None, points=1001):
    """The engines' inference as a loop over the oracle's sets: one
    ``np.maximum.at`` per gain table and firing bound, and the max over
    all seven labels.  ``footprint`` is type-2's (height_scale, lag)."""

    def aggregate(firing, table, out_sets):
        strengths = np.zeros(len(LABELS))
        np.maximum.at(strengths, table.ravel(), firing.ravel())
        return np.max(np.minimum(strengths[:, None], out_sets), axis=0)

    grid = np.linspace(*DELTA_RANGE, points)
    weights = trapezoid_weights(grid)
    firing = oracle_firing(e, de, footprint)
    out_sets = oracle_memberships(grid, DELTA_RANGE, footprint)
    deltas = []
    for table in audit_tables():
        upper, *lower = (aggregate(f, table, o) for f, o in zip(firing, out_sets))
        if footprint is None:
            weighted = weights * upper
            num, den = np.add.reduce([weighted * grid, weighted], axis=-1)
            deltas.append(float(num / den))
        else:
            y_left, y_right = km_centroid(grid, weights * lower[0], weights * upper)
            deltas.append(float(0.5 * (y_left + y_right)))
    return GainDeltas(*deltas)


@pytest.mark.parametrize(
    "engine, footprint",
    [
        (Type1Engine(), None),
        (Type2Engine(*FOOTPRINT), FOOTPRINT),
        (Type2Engine(height_scale=0.8, lag=0.6), (0.8, 0.6)),
    ],
    ids=["t1", "it2", "it2-wide-lag"],
)
def test_engines_equal_the_per_table_reference_loop(engine, footprint):
    rng = np.random.default_rng(47)
    inputs = rng.uniform(-1.3, 1.3, (500, 2)).tolist()
    inputs += [[0.0, 0.0], [1.0, -1.0], [1 / 3, -2 / 3], [0.05, 0.3]]
    for e, de in inputs:
        assert engine.infer(e, de) == reference_infer(e, de, footprint), (e, de)


_ENGINES = (Type1Engine(), Type2Engine(*FOOTPRINT))


@settings(max_examples=100, deadline=None)
@given(
    e=st.floats(allow_nan=False, allow_infinity=False),
    de=st.floats(allow_nan=False, allow_infinity=False),
)
def test_engine_deltas_stay_inside_the_increment_universe(e, de):
    lo, hi = DELTA_RANGE
    for engine in _ENGINES:
        assert all(lo <= value <= hi for value in engine.infer(e, de))


# ------------------------------------------------- covering-set aggregation


def full_label_aggregate(firing, out_sets):
    """Max over all seven labels of min(strength, output set), indexed
    [gain, row, grid]: the oracle of the covering-set aggregate."""
    strengths = np.zeros((3, len(firing), len(LABELS)))
    for gain, table in enumerate(audit_tables()):
        for row, f in enumerate(firing):
            np.maximum.at(strengths[gain, row], table.ravel(), f.ravel())
    return np.minimum(strengths[..., None], out_sets).max(axis=-2)


GRID = np.linspace(*DELTA_RANGE, 1001)
_AGGREGATION_ENGINES = {
    "t1": (Type1Engine(), None),
    "it2": (Type2Engine(*FOOTPRINT), FOOTPRINT),
    "it2-fou-0.8-0.45": (Type2Engine(height_scale=0.8, lag=0.45), (0.8, 0.45)),
    "it2-degenerate": (Type2Engine(height_scale=1.0, lag=0.0), (1.0, 0.0)),
    "it2-wide-lag": (Type2Engine(height_scale=0.6, lag=0.7), (0.6, 0.7)),
}
_OUTPUT_SETS = {
    name: oracle_memberships(GRID, DELTA_RANGE, footprint)
    for name, (_, footprint) in _AGGREGATION_ENGINES.items()
}


def test_covering_labels_are_read_from_the_output_sets():
    for name, (engine, _) in _AGGREGATION_ENGINES.items():
        # Uniform triangles overlap two at a time.
        assert engine._cover.shape == (2, GRID.size)
        covered = np.zeros((len(LABELS), GRID.size), dtype=bool)
        covered[engine._cover, np.arange(GRID.size)] = True
        # Every label nonzero at a point is among that point's slots.
        assert not ((_OUTPUT_SETS[name] != 0.0).any(axis=0) & ~covered).any()


# Set corners of the error universe, their neighbours, both signed zeros
# and inputs beyond the universe.
_EDGES = sorted(
    {0.0, 1.5, -1.5}
    | {
        x
        for mf in oracle_corners(ERROR_RANGE)[0]
        for c in map(float, mf)
        for x in (c, math.nextafter(c, -math.inf), math.nextafter(c, math.inf))
    }
)
inputs = st.one_of(
    st.sampled_from([*_EDGES, -0.0]), st.floats(-1.5, 1.5, allow_subnormal=False)
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(e=inputs, de=inputs)
def test_covering_set_aggregation_equals_all_labels_bit_for_bit(e, de):
    for name, (engine, footprint) in _AGGREGATION_ENGINES.items():
        firing = oracle_firing(e, de, footprint)
        aggregates = engine._aggregate(firing)
        expected = full_label_aggregate(firing, _OUTPUT_SETS[name])
        assert aggregates.tobytes() == expected.tobytes(), (name, e, de)
        got, want = engine.infer(e, de), reference_infer(e, de, footprint)
        assert np.array(got).tobytes() == np.array(want).tobytes(), (name, e, de)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc's trim policy")
def test_type2_inference_does_not_fault_its_temporaries_in_again(fresh_python):
    # A call that allocated its KM sums afresh (about 0.4 MB) could have
    # them returned to the system when it frees them and faulted in again
    # by the next call: about 70 minor faults per call under glibc's
    # default trim policy.  With the sums in the engine's work array, a
    # new engine faults its array in once per episode, well under one
    # fault per call.
    code = (
        "import resource\n"
        "from omnitrack import fuzzy, simlab\n"
        "from omnitrack.cli import standard_map_path\n"
        "from omnitrack.planning import load_grid, plan_reference\n"
        "_, _, ref = plan_reference(load_grid(standard_map_path()), (0, 0), (19, 19), 30.0, 0.1)\n"
        "calls = []\n"
        "infer = fuzzy.Type2Engine.infer\n"
        "def counted(engine, e, de):\n"
        "    calls.append(None)\n"
        "    return infer(engine, e, de)\n"
        "fuzzy.Type2Engine.infer = counted\n"
        "def episode(seed):\n"
        "    simlab.run_episode(simlab.Episode(\n"
        "        trajectory=ref, controller='fpid-it2', noise=simlab.NoiseModel(), seed=seed))\n"
        "episode(0)\n"
        "calls.clear()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for seed in (1, 2, 3):\n"
        "    episode(seed)\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(calls))\n"
    )
    assert float(fresh_python(code)) < 1.0

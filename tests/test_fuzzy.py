import itertools
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from omnitrack.fuzzy import (
    DELTA_RANGE,
    ERROR_RANGE,
    LABELS,
    EmptyAggregateError,
    FouMf,
    FouPartition,
    FuzzyPartition,
    GainDeltas,
    RuleBase,
    TriMf,
    Type1Engine,
    Type2Engine,
    centroid_of_fou,
    km_centroid,
    write_control_surface,
)

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


# ------------------------------------------------------------ rule base


def test_rule_tables_match_audit_copy():
    kp, ki, kd = audit_tables()
    rules = RuleBase.default()
    assert np.array_equal(rules.kp, kp)
    assert np.array_equal(rules.ki, ki)
    assert np.array_equal(rules.kd, kd)


def test_bundled_rule_file_matches_default():
    path = resources.files("omnitrack").joinpath("data", "pid_rules.csv")
    shipped = RuleBase.from_csv(str(path))
    rules = RuleBase.default()
    for name, table in rules.tables().items():
        assert np.array_equal(shipped.tables()[name], table)


def test_rule_csv_round_trip(tmp_path):
    rules = RuleBase.default()
    rules.to_csv(tmp_path / "rules.csv")
    back = RuleBase.from_csv(tmp_path / "rules.csv")
    assert np.array_equal(back.kp, rules.kp)
    assert np.array_equal(back.ki, rules.ki)
    assert np.array_equal(back.kd, rules.kd)


def test_rule_csv_rejects_incomplete(tmp_path):
    rules = RuleBase.default()
    rules.to_csv(tmp_path / "rules.csv")
    lines = (tmp_path / "rules.csv").read_text().splitlines()
    (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        RuleBase.from_csv(tmp_path / "short.csv")


# ----------------------------------------------------------- partitions


def test_membership_triangle_shape():
    mf = TriMf(-1.0, 0.0, 2.0)
    assert mf(0.0) == 1.0
    assert mf(-1.0) == 0.0
    assert mf(2.0) == 0.0
    assert mf(-0.5) == pytest.approx(0.5)
    assert mf(1.0) == pytest.approx(0.5)
    assert mf(3.0) == 0.0


def test_uniform_partition_crosses_at_half():
    part = FuzzyPartition.uniform(-1.0, 1.0)
    apexes = np.array([mf.apex for mf in part.mfs])
    assert apexes == pytest.approx(np.linspace(-1, 1, 7))
    # Adjacent sets overlap exactly at membership one half.
    mid = 0.5 * (apexes[2] + apexes[3])
    mu = part.fuzzify(mid)
    assert mu[2] == pytest.approx(0.5)
    assert mu[3] == pytest.approx(0.5)
    assert mu.sum() == pytest.approx(1.0)


def test_fuzzify_clamps_out_of_range():
    part = FuzzyPartition.uniform(-1.0, 1.0)
    assert np.array_equal(part.fuzzify(5.0), part.fuzzify(1.0))
    assert np.array_equal(part.fuzzify(-5.0), part.fuzzify(-1.0))
    assert part.fuzzify(1.0)[6] == 1.0


def test_fou_construction_and_containment():
    umf = TriMf(-1.0, 0.0, 1.0)
    fou = FouMf.from_umf(umf, height_scale=0.8, lag=0.25)
    xs = np.linspace(-1.2, 1.2, 201)
    assert np.all(fou.lower(xs) <= fou.upper(xs) + 1e-15)
    assert fou.lmf.left == pytest.approx(-0.75)
    assert fou.lmf.right == pytest.approx(0.75)
    assert fou.lower(0.0) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        FouMf.from_umf(umf, lag=1.0)
    with pytest.raises(ValueError):
        FouMf.from_umf(umf, height_scale=0.0)


def shouldered_partition():
    """Non-uniform partition whose end sets are shoulders (apex on a foot)."""
    apexes = (-1.0, -0.6, -0.25, 0.05, 0.3, 0.7, 1.0)
    mfs = [TriMf(-1.0, -1.0, -0.6)]
    mfs += [TriMf(a, b, c) for a, b, c in zip(apexes, apexes[1:], apexes[2:])]
    mfs += [TriMf(0.7, 1.0, 1.0)]
    return FuzzyPartition(-1.0, 1.0, tuple(mfs))


def membership_probes(partition, seed=0):
    """Every set corner, points just beside them, and seeded uniform draws."""
    corners = {c for mf in partition.mfs for c in (mf.left, mf.apex, mf.right)}
    probes = set(corners)
    for c in corners:
        probes.update((math.nextafter(c, -math.inf), math.nextafter(c, math.inf)))
    probes.update(np.random.default_rng(seed).uniform(-1.3, 1.3, 300).tolist())
    return sorted(probes)


@pytest.mark.parametrize(
    "partition",
    [FuzzyPartition.uniform(-1.0, 1.0), shouldered_partition()],
    ids=["uniform", "shouldered"],
)
def test_fuzzify_equals_one_membership_call_per_set(partition):
    for x in membership_probes(partition):
        clamped = min(max(x, partition.lo), partition.hi)
        expected = np.array([mf(clamped) for mf in partition.mfs])
        assert partition.fuzzify(x).tobytes() == expected.tobytes(), x


@pytest.mark.parametrize(
    "partition",
    [FuzzyPartition.uniform(-1.0, 1.0), shouldered_partition()],
    ids=["uniform", "shouldered"],
)
@pytest.mark.parametrize("height_scale, lag", [(1.0, 0.3), (0.8, 0.45), (0.6, 0.0)])
def test_fou_fuzzify_equals_one_membership_call_per_set(partition, height_scale, lag):
    fou = FouPartition.from_t1(partition, height_scale, lag)
    for x in membership_probes(partition, seed=1):
        clamped = min(max(x, fou.lo), fou.hi)
        upper = np.array([mf.upper(clamped) for mf in fou.mfs])
        lower = np.array([mf.lower(clamped) for mf in fou.mfs])
        got_upper, got_lower = fou.fuzzify(x)
        assert got_upper.tobytes() == upper.tobytes(), x
        assert got_lower.tobytes() == np.minimum(lower, upper).tobytes(), x


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
    fou = FouPartition.from_t1(FuzzyPartition.uniform(-1.0, 1.0), height_scale, lag)
    upper, lower = fou.fuzzify(x)
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


def test_fou_centroid_properties():
    umf = TriMf(-0.05, 0.0, 0.1)
    exact = (-0.05 + 0.0 + 0.1) / 3.0  # centroid of a triangle
    tight = FouMf.from_umf(umf, height_scale=1.0, lag=0.0)
    y_left, y_right = centroid_of_fou(tight, -0.1, 0.1)
    assert y_left == pytest.approx(y_right, abs=1e-12)
    assert y_left == pytest.approx(exact, abs=1e-4)  # grid discretization

    widths = []
    for lag in (0.1, 0.3, 0.6):
        fou = FouMf.from_umf(umf, height_scale=0.9, lag=lag)
        lo, hi = centroid_of_fou(fou, -0.1, 0.1)
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
    engine = Type2Engine()
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
    engine = Type2Engine(lag=lag)
    _, lower = engine.error_fou.fuzzify(0.5)
    assert not lower.any()
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
    width = DELTA_RANGE[1] - DELTA_RANGE[0]
    coarse = Type1Engine(resolution=1001)
    fine = Type1Engine(resolution=10001)
    for e, de in ((0.0, 0.0), (0.35, -0.15), (-0.9, 0.7), (1.0, 1.0)):
        a, b = coarse.infer(e, de), fine.infer(e, de)
        for x, y in zip(a, b):
            assert abs(x - y) < 1e-4 * width


def test_engine_inputs_expect_normalized_scale():
    engine = Type1Engine()
    lo, hi = ERROR_RANGE
    assert engine.error_partition.lo == lo
    assert engine.error_partition.hi == hi
    # Out-of-range inputs clamp rather than fail.
    assert engine.infer(50.0, -50.0) == engine.infer(hi, lo)


def test_type2_input_next_to_the_zero_apex_does_not_crash():
    # Here the ZO lower membership rounded one ulp above the upper one,
    # and km_centroid rejected the ill-formed interval.
    engine = Type2Engine()
    out = engine.infer(3.5381555418772973e-17, 9.792179086168456e-18)
    lo, hi = DELTA_RANGE
    assert all(lo <= value <= hi for value in out)
    # About one in a hundred inputs this close to the apex rounded so.
    for x in np.random.default_rng(3).uniform(-1e-15, 1e-15, 2000):
        upper, lower = engine.error_fou.fuzzify(x)
        assert np.all(lower <= upper), x


@pytest.mark.parametrize("engine_class", [Type1Engine, Type2Engine])
@pytest.mark.parametrize(
    "e, de", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
)
def test_engines_reject_non_finite_inputs(engine_class, e, de):
    with pytest.raises(ValueError, match="e and de must be finite"):
        engine_class().infer(e, de)


def reference_infer(engine, e, de):
    """The engines' inference as a loop: one membership call per set and
    one ``np.maximum.at`` per gain table and firing bound."""

    def clamp(x):
        return min(max(float(x), engine.error_partition.lo), engine.error_partition.hi)

    def strengths(firing, table):
        out = np.zeros(len(LABELS))
        np.maximum.at(out, table.ravel(), firing.ravel())
        return out

    def aggregate(firing, table, out_sets):
        s = strengths(firing, table)
        return np.max(np.minimum(s[:, None], out_sets), axis=0)

    tables = (engine.rules.kp, engine.rules.ki, engine.rules.kd)
    grid, weights = engine.grid, engine.weights
    if isinstance(engine, Type1Engine):
        mu_e = np.array([mf(clamp(e)) for mf in engine.error_partition.mfs])
        mu_de = np.array([mf(clamp(de)) for mf in engine.error_partition.mfs])
        firing = np.minimum(mu_e[:, None], mu_de[None, :])
        out_sets = np.array([mf(grid) for mf in engine.delta_partition.mfs])
        deltas = []
        for table in tables:
            agg = aggregate(firing, table, out_sets)
            deltas.append(float((weights * agg) @ grid / (weights @ agg)))
        return GainDeltas(*deltas)

    def fou(x):
        upper = np.array([mf.upper(clamp(x)) for mf in engine.error_fou.mfs])
        lower = np.array([mf.lower(clamp(x)) for mf in engine.error_fou.mfs])
        return upper, np.minimum(lower, upper)

    (ue, le), (ud, ld) = fou(e), fou(de)
    firing_upper = np.minimum(ue[:, None], ud[None, :])
    firing_lower = np.minimum(le[:, None], ld[None, :])
    out_upper = np.array([mf.upper(grid) for mf in engine.delta_fou.mfs])
    out_lower = np.array([mf.lower(grid) for mf in engine.delta_fou.mfs])
    deltas = []
    for table in tables:
        y_left, y_right = km_centroid(
            grid,
            weights * aggregate(firing_lower, table, out_lower),
            weights * aggregate(firing_upper, table, out_upper),
        )
        deltas.append(float(0.5 * (y_left + y_right)))
    return GainDeltas(*deltas)


@pytest.mark.parametrize(
    "engine",
    [
        Type1Engine(),
        Type1Engine(error_partition=shouldered_partition()),
        Type2Engine(),
        Type2Engine(error_partition=shouldered_partition(), height_scale=0.8, lag=0.6),
    ],
    ids=["t1", "t1-shouldered", "it2", "it2-shouldered-wide-lag"],
)
def test_engines_equal_the_per_table_reference_loop(engine):
    rng = np.random.default_rng(47)
    inputs = rng.uniform(-1.3, 1.3, (500, 2)).tolist()
    inputs += [[0.0, 0.0], [1.0, -1.0], [1 / 3, -2 / 3], [0.05, 0.3]]
    for e, de in inputs:
        assert engine.infer(e, de) == reference_infer(engine, e, de), (e, de)


_ENGINES = (Type1Engine(), Type2Engine())


@settings(max_examples=100, deadline=None)
@given(
    e=st.floats(allow_nan=False, allow_infinity=False),
    de=st.floats(allow_nan=False, allow_infinity=False),
)
def test_engine_deltas_stay_inside_the_increment_universe(e, de):
    lo, hi = DELTA_RANGE
    for engine in _ENGINES:
        assert all(lo <= value <= hi for value in engine.infer(e, de))


def test_control_surface_dump(tmp_path):
    engine = Type1Engine()
    path = tmp_path / "surface.csv"
    write_control_surface(engine, path, resolution=5)
    lines = path.read_text().splitlines()
    assert lines[0] == "e,de,dkp,dki,dkd"
    assert len(lines) == 1 + 25
    e, de, dkp, dki, dkd = (float(v) for v in lines[13].split(","))
    out = engine.infer(e, de)
    assert out.dkp == pytest.approx(dkp, abs=1e-12)
    assert out.dki == pytest.approx(dki, abs=1e-12)
    assert out.dkd == pytest.approx(dkd, abs=1e-12)

import math
import re
import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

from intervalagg import (
    Interval,
    MonotoneMap,
    Profile,
    apply_map_interval,
    apply_map_profile,
    map_from_data,
    map_to_data,
    random_increasing_map,
)

from intervalagg.core import _check_number
from intervalagg.transforms import _points

from .strategies import intervals


def doubling_map():
    return MonotoneMap.through([(0.0, 0.0), (1.0, 2.0)])


def reflection():
    return MonotoneMap.affine_map(-1.0)


class TestEvaluation:
    def test_identity(self):
        assert MonotoneMap.affine_map(1.0)(3.7) == 3.7

    def test_doubling_beyond_breakpoints(self):
        # x=3 sits past the last breakpoint; the tail slope defaults to
        # the final segment slope, so the map stays x -> 2x everywhere.
        assert doubling_map()(3.0) == 6.0

    def test_reflection(self):
        assert reflection()(2.0) == -2.0

    def test_exact_at_breakpoints(self):
        mapping = MonotoneMap.through([(0.0, 0.3), (7.0, 0.9), (8.0, 2.0)])
        assert mapping(0.0) == 0.3
        assert mapping(7.0) == 0.9
        assert mapping(8.0) == 2.0

    def test_interval_images(self):
        assert apply_map_interval(doubling_map(), Interval(1, 6)) == Interval(2, 12)
        assert apply_map_interval(reflection(), Interval(1, 4)) == Interval(-4, -1)
        assert apply_map_interval(MonotoneMap.affine_map(1.0), Interval(2, 4)) == Interval(2, 4)

    def test_profile_image(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        assert apply_map_profile(doubling_map(), profile) == Profile(
            (Interval(0, 2), Interval(4, 6))
        )


class TestValidation:
    def test_too_few_breakpoints(self):
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0),), 1.0, 1.0)

    def test_x_must_strictly_increase(self):
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0), (0.0, 1.0)), 1.0, 1.0)

    # The first segment decides the direction; a flat one decides no
    # direction, so it is the same error as a turn further on.
    @pytest.mark.parametrize("build,a,b", [
        (lambda: MonotoneMap(((0.0, 0.0), (1.0, 1.0), (2.0, 0.5)), 1.0, 1.0), 1.0, 0.5),
        (lambda: MonotoneMap(((0.0, 0.0), (1.0, -1.0), (2.0, 0.0)), 1.0, 1.0), -1.0, 0.0),
        (lambda: MonotoneMap(((0, 0), (1, 0), (2, 1)), 1, 1), 0.0, 0.0),
        (lambda: MonotoneMap.through([(0, 0), (1, 0)]), 0.0, 0.0),
    ], ids=["rise-then-fall", "fall-then-rise", "flat-first", "through-flat"])
    def test_y_must_be_strictly_monotone(self, build, a, b):
        message = f"breakpoint y values must be strictly monotone, got {a} then {b}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    @pytest.mark.parametrize("slope", [0.0, -1.0, float("inf"), float("nan")])
    def test_tail_slopes_must_be_positive_finite(self, slope):
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0), (1.0, 1.0)), slope, 1.0)

    # A map the API accepts must write a witness that replay accepts.
    @pytest.mark.parametrize("points", [
        ((0.0, 0.0), (1.0, float("inf"))),
        ((float("-inf"), 0.0), (1.0, 1.0)),
    ])
    def test_breakpoints_must_be_finite(self, points):
        with pytest.raises(ValueError, match="breakpoint must be a finite number"):
            MonotoneMap(points, 1.0, 1.0)

    # Each built a map from a value float() coerced, one a witness could
    # not replay: a bool slope, a string slope, string and bool breakpoints.
    @pytest.mark.parametrize("build", [
        lambda: MonotoneMap.affine_map(True),
        lambda: MonotoneMap.affine_map("2"),
        lambda: MonotoneMap((("0", 0), (True, "1")), 1, 1),
        lambda: MonotoneMap.through([(0, 0), ("1", 1)]),
    ], ids=["bool-slope", "string-slope", "breakpoints", "through"])
    def test_non_numbers_are_not_coerced(self, build):
        with pytest.raises(ValueError, match="must be a finite number"):
            build()

    def test_affine_flag_must_be_a_bool(self):
        with pytest.raises(ValueError, match="affine must be a bool, got 1"):
            MonotoneMap(((0.0, 0.0), (1.0, 1.0)), 1.0, 1.0, affine=1)

    def test_scaling_rejects_degenerate_factors(self):
        for factor in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MonotoneMap.affine_map(factor)

    def test_affine_flag_requires_canonical_shape(self):
        with pytest.raises(ValueError):
            MonotoneMap(
                ((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)), 1.0, 1.0,
                affine=True,
            )


class Float(float):
    pass


# Any value a caller may pass as a breakpoint coordinate.
coordinates = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([10**400, -(10**400), True, False, "1", None, -0.0, Float(2.5)]),
)


# The breakpoint check must accept, convert and name exactly what
# checking every coordinate does.
@given(st.lists(st.tuples(coordinates, coordinates), max_size=4))
def test_breakpoint_check_matches_per_coordinate_check(pairs):
    def outcome(check):
        try:
            return repr(check(pairs))
        except ValueError as error:
            return f"ValueError: {error}"

    def reference(points):
        return tuple(
            (float(_check_number("breakpoint", x)), float(_check_number("breakpoint", y)))
            for x, y in points
        )

    assert outcome(_points) == outcome(reference)


class TestInverse:
    def test_reflection_is_an_involution(self):
        for x in (-3.5, 0.0, 2.0, 11.25):
            assert reflection()(reflection()(x)) == x


class TestAffineMap:
    # The slope is stored verbatim, at every magnitude, and the map
    # evaluates as one product.
    @pytest.mark.parametrize("slope", [1.0, -1.0, 2.5, 0.1, 1e300, -5e-324])
    def test_breakpoints_and_evaluation(self, slope):
        mapping = MonotoneMap.affine_map(slope)
        assert mapping.breakpoints == ((0.0, 0.0), (1.0, slope))
        assert mapping.increasing == (slope > 0)
        for x in (-3.0, 0.0, 0.5, 2.0, 1e6):
            assert mapping(x) == x * slope
        assert map_from_data(map_to_data(mapping)) == mapping

    # A decoded two-point affine witness keeps point-slope evaluation:
    # (1.0 + 1.3) - 1.3 rounds below 1, so interpolation between these
    # breakpoints drifts by an ulp on interior points.
    @pytest.mark.parametrize("affine", [True, False])
    def test_decoded_affine_witness_evaluates_point_slope(self, affine):
        mapping = map_from_data({
            "breakpoints": [[0.0, 1.3], [1.0, 1.0 + 1.3]],
            "direction": "increasing", "left_slope": 1.0, "right_slope": 1.0,
            "affine": affine,
        })
        exact = [mapping(x) == x + 1.3 for x in (0.1, 0.5, 0.9)]
        assert exact == [affine] * 3

    # Point-slope evaluation from the first breakpoint must reproduce the
    # second, or the map would not be exact at its breakpoints.
    def test_decoded_affine_map_off_its_breakpoint_rejected(self):
        message = "affine map misses its second breakpoint (3.0, 1.0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            map_from_data({
                "breakpoints": [[0.0, 0.0], [3.0, 1.0]],
                "direction": "increasing", "left_slope": 1.0, "right_slope": 1.0,
                "affine": True,
            })


class TestThrough:
    def test_one_point_is_too_few(self):
        with pytest.raises(ValueError, match="at least two breakpoints"):
            MonotoneMap.through([(0.0, 0.0)])

    def test_tails_continue_the_end_segments(self):
        mapping = MonotoneMap.through([(0.0, 0.0), (1.0, -2.0), (3.0, -3.0)])
        assert not mapping.increasing
        assert (mapping.left_slope, mapping.right_slope) == (2.0, 0.5)

    # The differences of these points overflow; the slope does not.
    def test_overflowing_differences_give_a_finite_slope(self):
        mapping = MonotoneMap.through([(-1e308, -1e308), (1e308, 1e308)])
        assert (mapping.left_slope, mapping.right_slope) == (1.0, 1.0)
        assert mapping(1.5e308) == 1.5e308 and mapping(-1.5e308) == -1.5e308

    # Between its breakpoints such a map interpolates at half scale; the
    # differences at full scale are infinite and gave nan.
    @pytest.mark.parametrize("mapping,x,y", [
        (MonotoneMap.through([(-1e308, -1e308), (1e308, 1e308)]), 0.0, 0.0),
        (MonotoneMap.through([(-1e308, -1e308), (1e308, 1e308)]), 5e307, 5e307),
        (MonotoneMap.through([(-1e308, 1e308), (1e308, -1e308)]), -2.5e307, 2.5e307),
        (MonotoneMap(((0.0, -1e308), (1.0, 1e308)), 1.0, 1.0), 0.5, 0.0),
        (MonotoneMap(((-1e308, 0.0), (1e308, 1.0)), 1.0, 1.0), 0.0, 0.5),
    ])
    def test_overflowing_segment_interpolates(self, mapping, x, y):
        assert math.isclose(mapping(x), y, rel_tol=1e-15, abs_tol=0.0)

    # A tail whose distance x - x0 overflows extrapolates at half scale,
    # where it gave +-inf: exactly what the map through the halved points
    # gives at x / 2, doubled.  A finite distance keeps the one formula.
    @pytest.mark.parametrize("points,x", [
        ([(-1e308, -1e308), (-9e307, -9e307)], 1.5e308),
        ([(9e307, 9e307), (1e308, 1e308)], -1.5e308),
        ([(-1e308, -1e308), (-9e307, -9e307)], 5e307),
        ([(9e307, 9e307), (1e308, 1e308)], -5e307),
    ], ids=["right-overflows", "left-overflows", "right-finite", "left-finite"])
    def test_far_tail_extrapolates_at_half_scale(self, points, x):
        mapping = MonotoneMap.through(points)
        halved = MonotoneMap.through([(a / 2.0, b / 2.0) for a, b in points])
        assert mapping(x) == 2.0 * halved(x / 2.0)
        assert math.isclose(mapping(x), x, rel_tol=1e-15, abs_tol=0.0)

    def test_finite_tail_distance_keeps_the_formula(self):
        mapping = MonotoneMap.through([(0.0, 1.0), (1.0, 4.0), (2.0, 5.0)])
        for x in (2.5, 1e300, 1.7e308):
            assert mapping(x) == 5.0 + (x - 2.0) * 1.0
        for x in (-0.1, -1e300, -5e307):
            assert mapping(x) == 1.0 + (x - 0.0) * 3.0

    def test_tail_stays_monotone_where_the_distance_overflows(self):
        mapping = MonotoneMap.through([(-1e308, -1e308), (-9e307, -9e307)])
        x = math.nextafter(sys.float_info.max + -9e307, 0.0)
        xs = []
        for _ in range(64):
            xs.append(x)
            x = math.nextafter(x, math.inf)
        assert any(math.isinf(x - -9e307) for x in xs)
        assert not all(math.isinf(x - -9e307) for x in xs)
        ys = [mapping(x) for x in xs]
        assert ys == sorted(ys) and all(math.isfinite(y) for y in ys)

    @pytest.mark.parametrize("points,end,detail", [
        ([(0.0, 0.0), (1e300, 1e-300)], "first", "underflows to 0"),
        ([(0.0, 0.0), (1e-300, 1e300)], "first", "overflows"),
        ([(0.0, -1e308), (5e-324, 1e308)], "first", "overflows"),
        ([(0.0, 0.0), (1.0, 1e-300), (1e300, 2e-300)], "last", "underflows to 0"),
    ])
    def test_slope_outside_the_floats_names_the_segment(self, points, end, detail):
        with pytest.raises(ValueError, match=f"the {end} segment, .* {detail}"):
            MonotoneMap.through(points)


class TestRandomMaps:
    def test_breakpoints_cover_anchors(self):
        mapping = random_increasing_map(1, [0.0, 1.0])
        xs = [x for x, _ in mapping.breakpoints]
        assert 0.0 in xs and 1.0 in xs
        assert mapping.increasing

    def test_same_seed_same_map(self):
        first = random_increasing_map(1, [0.0, 1.0])
        second = random_increasing_map(1, [0.0, 1.0])
        assert first == second

    @pytest.mark.parametrize("seed", [True, 1.5, "1"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an int, got {seed!r}"):
            random_increasing_map(seed, [0.0, 1.0])

    # Each anchor is checked like every other map input, not coerced.
    @pytest.mark.parametrize("anchors,position", [
        (["1", 2.5], 0),
        ([1.0, True], 1),
        ([0.0, math.nan], 1),
        ([10**400], 0),
    ])
    def test_anchors_must_be_numbers(self, anchors, position):
        message = f"anchors entry {position} must be a finite number"
        with pytest.raises(ValueError, match=message):
            random_increasing_map(0, anchors)

    def test_no_anchor_and_one_anchor(self):
        # No anchor anchors at 0; one anchor x adds x - 1 and x + 1.
        for anchors, inner in (([], [-1.0, 0.0, 1.0]), ([3.0], [2.0, 3.0, 4.0])):
            mapping = random_increasing_map(1, anchors)
            xs = [x for x, _ in mapping.breakpoints]
            assert len(xs) == 5 and xs[1:4] == inner
            assert mapping.increasing

    def test_seeds_give_distinct_maps(self):
        maps = {random_increasing_map(seed, [0.0, 1.0]) for seed in range(100)}
        assert len(maps) == 100

    @given(st.integers(0, 2**32 - 1), st.data())
    def test_sampled_maps_strictly_increase(self, seed, data):
        mapping = random_increasing_map(seed, [-1.0, 0.5, 2.0])
        x = data.draw(st.floats(-30.0, 30.0), label="x")
        y = data.draw(st.floats(-30.0, 30.0), label="y")
        if abs(x - y) < 1e-6:
            return
        lo, hi = min(x, y), max(x, y)
        assert mapping(lo) < mapping(hi)

    @given(st.integers(0, 2**32 - 1), intervals())
    def test_interval_images_stay_valid(self, seed, iv):
        mapping = random_increasing_map(seed, [iv.lo, iv.hi])
        image = apply_map_interval(mapping, iv)
        assert image.lo < image.hi

    def test_decreasing_map_reverses_order(self):
        mapping = MonotoneMap.through([(0.0, 1.0), (2.0, -3.0)])
        assert not mapping.increasing
        assert mapping(-1.0) > mapping(0.0) > mapping(1.0) > mapping(2.0)


class TestSerialization:
    def test_roundtrip_general_map(self):
        mapping = random_increasing_map(11, [0.0, 3.0])
        data = map_to_data(mapping)
        assert data["direction"] == "increasing"
        assert map_from_data(data) == mapping

    def test_roundtrip_preserves_affine_evaluation(self):
        mapping = MonotoneMap.affine_map(0.1)
        clone = map_from_data(map_to_data(mapping))
        assert clone == mapping and clone.affine
        assert clone(3.0) == 3.0 * 0.1

    def test_direction_string_validated(self):
        data = map_to_data(reflection())
        assert data["direction"] == "decreasing"
        data["direction"] = "sideways"
        with pytest.raises(ValueError):
            map_from_data(data)

    @pytest.mark.parametrize("mapping", [reflection(), random_increasing_map(3, [0.0])],
                             ids=["decreasing", "increasing"])
    def test_direction_must_agree_with_breakpoints(self, mapping):
        data = map_to_data(mapping)
        data["direction"] = "decreasing" if mapping.increasing else "increasing"
        with pytest.raises(ValueError, match="disagrees with its breakpoints"):
            map_from_data(data)

import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from intervalagg import (
    Interval,
    MonotoneMap,
    Profile,
    apply_map_interval,
    apply_map_profile,
    identity_map,
    invert_map,
    map_from_data,
    map_to_data,
    random_increasing_map,
    reflection_map,
    scaling_map,
    translation_map,
)

from .strategies import intervals


def doubling_map():
    return MonotoneMap.through([(0.0, 0.0), (1.0, 2.0)])


class TestEvaluation:
    def test_identity(self):
        assert identity_map()(3.7) == 3.7

    def test_doubling_beyond_breakpoints(self):
        # x=3 sits past the last breakpoint; the tail slope defaults to
        # the final segment slope, so the map stays x -> 2x everywhere.
        assert doubling_map()(3.0) == 6.0

    def test_reflection(self):
        assert reflection_map()(2.0) == -2.0

    def test_exact_at_breakpoints(self):
        mapping = MonotoneMap.through([(0.0, 0.3), (7.0, 0.9), (8.0, 2.0)])
        assert mapping(0.0) == 0.3
        assert mapping(7.0) == 0.9
        assert mapping(8.0) == 2.0

    def test_interval_images(self):
        assert apply_map_interval(doubling_map(), Interval(1, 6)) == Interval(2, 12)
        assert apply_map_interval(reflection_map(), Interval(1, 4)) == Interval(-4, -1)
        assert apply_map_interval(identity_map(), Interval(2, 4)) == Interval(2, 4)

    def test_profile_image(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        assert apply_map_profile(doubling_map(), profile) == Profile(
            (Interval(0, 2), Interval(4, 6))
        )


class TestValidation:
    def test_too_few_breakpoints(self):
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0),), True, 1.0, 1.0)

    def test_x_must_strictly_increase(self):
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0), (0.0, 1.0)), True, 1.0, 1.0)

    def test_y_direction_enforced(self):
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0), (1.0, -1.0)), True, 1.0, 1.0)
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0), (1.0, 1.0)), False, 1.0, 1.0)

    @pytest.mark.parametrize("slope", [0.0, -1.0, float("inf"), float("nan")])
    def test_tail_slopes_must_be_positive_finite(self, slope):
        with pytest.raises(ValueError):
            MonotoneMap(((0.0, 0.0), (1.0, 1.0)), True, slope, 1.0)

    def test_scaling_rejects_degenerate_factors(self):
        for factor in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                scaling_map(factor)

    def test_translation_rejects_nonfinite_offsets(self):
        for offset in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                translation_map(offset)

    def test_affine_flag_requires_canonical_shape(self):
        with pytest.raises(ValueError):
            MonotoneMap(
                ((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)), True, 1.0, 1.0,
                affine=True,
            )


class TestInverse:
    def test_doubling_inverts_to_halving(self):
        halving = invert_map(doubling_map())
        assert halving(6.0) == 3.0

    def test_reflection_is_an_involution(self):
        inverse = invert_map(reflection_map())
        for x in (-3.5, 0.0, 2.0, 11.25):
            assert inverse(reflection_map()(x)) == x

    def test_identity_inverts_to_identity(self):
        inverse = invert_map(identity_map())
        for x in (-1.5, 0.0, 9.75):
            assert inverse(x) == x

    def test_decreasing_general_map_roundtrip(self):
        mapping = MonotoneMap.through([(0.0, 5.0), (1.0, 2.0), (3.0, -4.0)])
        assert not mapping.increasing
        inverse = invert_map(mapping)
        rng = random.Random(1)
        for _ in range(200):
            x = rng.uniform(-10.0, 10.0)
            assert abs(inverse(mapping(x)) - x) < 1e-9

    def test_thousand_point_roundtrip_within_tolerance(self):
        rng = random.Random(7)
        mapping = random_increasing_map(7, [-2.0, 0.0, 1.5])
        inverse = invert_map(mapping)
        for _ in range(1000):
            x = rng.uniform(-20.0, 20.0)
            assert abs(inverse(mapping(x)) - x) < 1e-9


class TestTranslationExactness:
    @given(
        intervals(),
        st.floats(
            min_value=-100.0, max_value=100.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    def test_translation_map_matches_shift_bitwise(self, iv, offset):
        mapped = apply_map_interval(translation_map(offset), iv)
        assert mapped == iv.shift(offset)

    def test_awkward_offsets_interior_points(self):
        # 0.1 has no exact binary representation; interpolation through
        # breakpoints would drift by an ulp on interior points, the
        # point-slope affine path must not.
        mapping = translation_map(0.1)
        for x in (0.5, -2.25, 3.14159, 0.1):
            assert mapping(x) == x + 0.1

    def test_inverse_of_translation_is_exact_back_shift(self):
        inverse = invert_map(translation_map(0.1))
        assert inverse.affine
        for x in (0.6, -1.4, 12.0):
            assert inverse(x) == x + (-0.1)


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
        negated = invert_map(mapping)
        back = apply_map_interval(negated, image)
        assert abs(back.lo - iv.lo) < 1e-9
        assert abs(back.hi - iv.hi) < 1e-9

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
        mapping = translation_map(0.1)
        clone = map_from_data(map_to_data(mapping))
        assert clone == mapping
        assert clone(0.5) == 0.6

    def test_direction_string_validated(self):
        data = map_to_data(reflection_map())
        assert data["direction"] == "decreasing"
        data["direction"] = "sideways"
        with pytest.raises(ValueError):
            map_from_data(data)

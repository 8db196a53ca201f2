import math

import pytest
from hypothesis import given

from intervalagg import (
    NEG_INF,
    POS_INF,
    ExtendedInterval,
    Interval,
    Profile,
    between,
    endpoint_distance,
    ext_precedes,
    scalar_between,
    subset,
)

from .strategies import intervals, profiles


class TestInterval:
    def test_plain_construction(self):
        iv = Interval(2, 4)
        assert iv.lo == 2.0 and iv.hi == 4.0
        assert Interval(2, 4) == iv

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(0, 0)

    def test_inverted_endpoints_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 3)

    @pytest.mark.parametrize("lo,hi", [
        (float("nan"), 1.0),
        (0.0, float("nan")),
        (float("-inf"), 1.0),
        (0.0, float("inf")),
    ])
    def test_nonfinite_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)

    def test_negative_zero_normalised(self):
        iv = Interval(-0.0, 1.0)
        assert math.copysign(1.0, iv.lo) == 1.0

    def test_width_and_shift(self):
        iv = Interval(1, 5)
        assert iv.width == 4.0
        assert iv.shift(2.5) == Interval(3.5, 7.5)

    def test_equality_is_exact(self):
        assert Interval(1, 2) == Interval(1.0, 2.0)
        assert Interval(1, 2) != Interval(1, 2 + 1e-15)


class TestExtendedOrder:
    @pytest.mark.parametrize("a,b,expected", [
        (1.0, 2.0, True),
        (2.0, 1.0, False),
        (2.0, 2.0, False),
        (NEG_INF, NEG_INF, True),
        (NEG_INF, 5.0, True),
        (5.0, POS_INF, True),
        (POS_INF, POS_INF, True),
        (NEG_INF, POS_INF, True),
        (POS_INF, 5.0, False),
        (5.0, NEG_INF, False),
        (POS_INF, NEG_INF, False),
    ])
    def test_ext_precedes_table(self, a, b, expected):
        assert ext_precedes(a, b) is expected

    def test_degenerate_extended_intervals_construct(self):
        for lo, hi in [
            (NEG_INF, NEG_INF),
            (NEG_INF, POS_INF),
            (POS_INF, POS_INF),
            (NEG_INF, 5.0),
            (5.0, POS_INF),
            (1.0, 2.0),
        ]:
            ExtendedInterval(lo, hi)

    @pytest.mark.parametrize("lo,hi", [
        (5.0, 3.0),
        (5.0, 5.0),
        (POS_INF, 3.0),
        (3.0, NEG_INF),
        (POS_INF, NEG_INF),
        (float("nan"), 1.0),
    ])
    def test_invalid_extended_intervals_rejected(self, lo, hi):
        with pytest.raises(ValueError):
            ExtendedInterval(lo, hi)

    # The open interval meets the closed lower ray (-inf, x] iff
    # ext_precedes(lo, x), and the closed upper ray [x, +inf) iff
    # ext_precedes(x, hi).
    def test_ray_membership_finite(self):
        iv = Interval(1, 4)
        assert ext_precedes(iv.lo, 2.0)
        assert not ext_precedes(iv.lo, 1.0)
        assert ext_precedes(2.0, iv.hi)
        assert not ext_precedes(4.0, iv.hi)

    def test_ray_membership_degenerate(self):
        bottom = ExtendedInterval(NEG_INF, NEG_INF)
        top = ExtendedInterval(POS_INF, POS_INF)
        whole = ExtendedInterval(NEG_INF, POS_INF)
        for x in (-7.0, 0.0, 7.0):
            assert ext_precedes(bottom.lo, x) and not ext_precedes(x, bottom.hi)
            assert ext_precedes(x, top.hi) and not ext_precedes(top.lo, x)
            assert ext_precedes(whole.lo, x) and ext_precedes(x, whole.hi)


class TestProfile:
    def test_basic(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        assert len(profile) == 2
        assert profile[1] == Interval(2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Profile(())

    def test_non_interval_entry_rejected(self):
        with pytest.raises(TypeError):
            Profile((Interval(0, 1), (2, 3)))

    def test_replace_agent(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        swapped = profile.replace_agent(0, Interval(-1, 1))
        assert swapped == Profile((Interval(-1, 1), Interval(2, 3)))
        assert profile[0] == Interval(0, 1)

    def test_replace_agent_rejects_bad_index(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        with pytest.raises(IndexError):
            profile.replace_agent(2, Interval(0, 1))
        with pytest.raises(IndexError):
            profile.replace_agent(-1, Interval(0, 1))

    def test_shift(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        assert profile.shift(10.0) == Profile(
            (Interval(10, 11), Interval(12, 13))
        )


class TestPredicates:
    def test_subset_examples(self):
        assert subset(Interval(2, 4), Interval(1, 5))
        assert not subset(Interval(1, 5), Interval(2, 4))
        assert subset(Interval(2, 4), Interval(2, 4))

    def test_between_examples(self):
        assert between(Interval(1, 2), Interval(3, 4), Interval(5, 6))
        assert not between(Interval(1, 2), Interval(0, 4), Interval(5, 6))
        assert between(Interval(0, 3), Interval(0, 3), Interval(7, 9))

    def test_scalar_between_examples(self):
        assert scalar_between(1, 2, 3)
        assert scalar_between(3, 2, 1)
        assert not scalar_between(1, 5, 3)

    def test_scalar_between_extended(self):
        assert scalar_between(NEG_INF, 0.0, POS_INF)
        assert scalar_between(NEG_INF, NEG_INF, 3.0)
        assert not scalar_between(0.0, NEG_INF, 3.0)

    def test_endpoint_distance_examples(self):
        assert endpoint_distance(Interval(2, 4), Interval(2, 4)) == 0.0
        assert endpoint_distance(Interval(0, 1), Interval(1, 3)) == 3.0
        assert endpoint_distance(Interval(2, 4), Interval(1, 6)) == 3.0

    @given(intervals(), intervals(), intervals())
    def test_between_symmetric_in_outer_pair(self, r, s, t):
        assert between(r, s, t) == between(t, s, r)

    @given(intervals(), intervals())
    def test_between_reflexive_forms(self, r, t):
        assert between(r, r, t)
        assert between(r, t, t)

    @given(intervals(), intervals(), intervals())
    def test_distance_triangle_inequality(self, a, b, c):
        direct = endpoint_distance(a, c)
        detour = endpoint_distance(a, b) + endpoint_distance(b, c)
        assert direct <= detour + 1e-9

    @given(intervals(), intervals())
    def test_distance_symmetric_and_definite(self, a, b):
        assert endpoint_distance(a, b) == endpoint_distance(b, a)
        assert (endpoint_distance(a, b) == 0.0) == (a == b)

    @given(intervals(), intervals())
    def test_mutual_subset_is_equality(self, a, b):
        assert (subset(a, b) and subset(b, a)) == (a == b)

    @given(profiles())
    def test_profile_shift_roundtrip(self, profile):
        returned = profile.shift(3.0).shift(-3.0)
        for before, after in zip(profile, returned):
            assert abs(after.lo - before.lo) < 1e-9
            assert abs(after.hi - before.hi) < 1e-9

import copy
import math
import pickle
import re

import hypothesis.strategies as st
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
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    ext_precedes,
    maximal_rule_handle,
    median_rule_handle,
    phantom_rule_handle,
    scalar_between,
    subset,
)
from intervalagg import core, rules

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

    def test_negative_zero_upper_bound_normalised(self):
        iv = Interval(-1.0, -0.0)
        assert math.copysign(1.0, iv.hi) == 1.0
        assert math.copysign(1.0, Profile([iv])[0].hi) == 1.0

    # The CLI prints these messages and its benchmark hashes stderr, so the
    # check that runs first on each bad pair is pinned, not just the type.
    @pytest.mark.parametrize("lo,hi,message", [
        (float("nan"), float("inf"), "interval bounds must not be NaN"),
        (float("inf"), float("nan"), "interval bounds must not be NaN"),
        (float("inf"), 0, "interval bounds must be finite, got (inf, 0.0)"),
        (float("-inf"), float("inf"), "interval bounds must be finite, got (-inf, inf)"),
        (5, 3, "interval needs lo < hi, got (5.0, 3.0)"),
        (2, 2, "interval needs lo < hi, got (2.0, 2.0)"),
        (-0.0, 0.0, "interval needs lo < hi, got (-0.0, 0.0)"),
    ])
    def test_construction_error_messages(self, lo, hi, message):
        with pytest.raises(ValueError) as error:
            Interval(lo, hi)
        assert str(error.value) == message

    def test_width_and_shift(self):
        iv = Interval(1, 5)
        assert iv.width == 4.0
        assert iv.shift(2.5) == Interval(3.5, 7.5)

    def test_equality_is_exact(self):
        assert Interval(1, 2) == Interval(1.0, 2.0)
        assert Interval(1, 2) != Interval(1, 2 + 1e-15)

    # The named-tuple helpers build through the checking constructor.
    @pytest.mark.parametrize("build", [
        lambda: Interval(0, 1)._replace(hi=-1.0),
        lambda: Interval._make([3, 2]),
        lambda: ExtendedInterval(0, 1)._replace(lo=math.nan),
        lambda: ExtendedInterval._make([POS_INF, 3.0]),
    ])
    def test_replace_and_make_check_their_bounds(self, build):
        with pytest.raises(ValueError):
            build()

    def test_make_converts_like_the_constructor(self):
        made = Interval._make([-0.0, 1])
        assert made == Interval(0.0, 1.0)
        assert type(made.hi) is float and math.copysign(1.0, made.lo) == 1.0


class Real(float):
    """A float subclass, which the constructors convert to plain float."""


def bits(value):
    """``value``'s float as hex, which tells -0.0 from +0.0."""
    return float.hex(value)


class TestConstructorPaths:
    """``Interval`` takes two exact floats without ``float()``; any other
    bound type goes through the converting path, which also rejects
    bools, text and ints past the float range."""

    @pytest.mark.parametrize("lo,hi", [
        (1.5, 2.5),
        (Real(1.5), Real(2.5)),
        (Real(1.5), 2.5),
        (1.5, Real(2.5)),
        (1, 2.5),
        (1.5, 3),
    ])
    def test_every_path_stores_exact_floats(self, lo, hi):
        built = Interval(lo, hi)
        assert type(built.lo) is float and type(built.hi) is float
        assert built == (float(lo), float(hi))

    @pytest.mark.parametrize("lo,hi", [
        (-0.0, 1.0),
        (-1.0, -0.0),
        (Real(-0.0), 1),
        (-1, Real(-0.0)),
    ])
    def test_negative_zero_normalised_on_each_path(self, lo, hi):
        built = Interval(lo, hi)
        assert 0.0 in built and bits(-0.0) not in (bits(built.lo), bits(built.hi))
        assert type(built.lo) is float and type(built.hi) is float

    @pytest.mark.parametrize("lo,hi,message", [
        (Real("nan"), 1, "interval bounds must not be NaN"),
        (1, Real("nan"), "interval bounds must not be NaN"),
        (Real("inf"), 0, "interval bounds must be finite, got (inf, 0.0)"),
        (0, Real("inf"), "interval bounds must be finite, got (0.0, inf)"),
        (Real(5), 3, "interval needs lo < hi, got (5.0, 3.0)"),
        (Real(-0.0), 0, "interval needs lo < hi, got (-0.0, 0.0)"),
    ])
    def test_converted_bounds_keep_the_messages(self, lo, hi, message):
        with pytest.raises(ValueError) as error:
            Interval(lo, hi)
        assert str(error.value) == message

    @pytest.mark.parametrize("lo,hi", [
        (True, 2),
        (0, True),
        (False, 1.0),
        ("1", "2"),
        ("1", 2.0),
        (1.0, "2"),
        (b"1", 2),
        (0, bytearray(b"1")),
        (memoryview(b"0"), 1),
    ])
    @pytest.mark.parametrize("cls", [Interval, ExtendedInterval])
    def test_bools_and_text_rejected(self, cls, lo, hi):
        with pytest.raises(ValueError) as error:
            cls(lo, hi)
        assert str(error.value) == f"interval bounds must be numbers, got ({lo!r}, {hi!r})"

    @pytest.mark.parametrize(
        "lo,hi", [(10**400, 1), (1, 10**400), (-10**400, 1.0), (10**5000, 1)],
        ids=["huge-lo", "huge-hi", "huge-negative-lo", "past-the-repr-limit"],
    )
    @pytest.mark.parametrize("cls", [Interval, ExtendedInterval])
    def test_ints_past_the_float_range_rejected(self, cls, lo, hi):
        with pytest.raises(ValueError) as error:
            cls(lo, hi)
        assert str(error.value) == "interval bounds must lie in the float range"

    def test_extended_intervals_convert_ints_and_subclasses(self):
        built = ExtendedInterval(Real(NEG_INF), 3)
        assert built == (NEG_INF, 3.0)
        assert type(built.lo) is float and type(built.hi) is float
        assert bits(ExtendedInterval(-0.0, POS_INF).lo) == bits(0.0)

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_float_subclasses_build_what_floats_build(self, lo, hi):
        try:
            expected = Interval(lo, hi)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                Interval(Real(lo), Real(hi))
        else:
            built = Interval(Real(lo), Real(hi))
            assert (bits(built.lo), bits(built.hi)) == (
                bits(expected.lo), bits(expected.hi)
            )


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

    def test_first_bad_entry_named(self):
        with pytest.raises(TypeError) as error:
            Profile((Interval(0, 1), (2, 3), "x"))
        assert str(error.value) == "profile entry 1 is not an Interval: (2, 3)"

    def test_interval_subclass_accepted(self):
        class Judgment(Interval):
            __slots__ = ()

        profile = Profile((Judgment(0, 1), Interval(2, 3)))
        assert type(profile[0]) is Judgment
        assert Profile([Judgment(4, 5)]) == Profile([Interval(4, 5)])
        swapped = profile.replace_agent(1, Judgment(6, 7))
        assert swapped == Profile((Interval(0, 1), Interval(6, 7)))
        assert type(swapped[1]) is Judgment

    def test_replace_agent_rejects_non_interval(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        with pytest.raises(TypeError) as error:
            profile.replace_agent(1, (2, 3))
        assert str(error.value) == "replacement is not an Interval: (2, 3)"

    def test_replace_agent(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        swapped = profile.replace_agent(0, Interval(-1, 1))
        assert swapped == Profile((Interval(-1, 1), Interval(2, 3)))
        assert profile[0] == Interval(0, 1)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_replace_agent_keeps_the_others_in_order(self, index):
        profile = Profile((Interval(0, 1), Interval(2, 3), Interval(4, 5)))
        swapped = profile.replace_agent(index, Interval(8, 9))
        assert type(swapped) is Profile
        assert list(swapped) == [
            Interval(8, 9) if pos == index else entry
            for pos, entry in enumerate(profile)
        ]

    def test_replace_agent_rejects_bad_index(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        with pytest.raises(IndexError):
            profile.replace_agent(2, Interval(0, 1))
        with pytest.raises(IndexError):
            profile.replace_agent(-1, Interval(0, 1))

    @pytest.mark.parametrize("index", [True, 1.0])
    def test_replace_agent_rejects_non_int_index(self, index):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        with pytest.raises(ValueError, match=f"index must be an int, got {index!r}"):
            profile.replace_agent(index, Interval(0, 1))

    def test_shift(self):
        profile = Profile((Interval(0, 1), Interval(2, 3)))
        assert profile.shift(10.0) == Profile(
            (Interval(10, 11), Interval(12, 13))
        )


class Judgment(Interval):
    """An :class:`Interval` subclass, which profiles keep as it is."""

    __slots__ = ()


def fresh_ranks(entries):
    lows, highs = zip(*entries)
    return sorted(lows), sorted(highs)


judgments = st.builds(
    lambda iv, sub: Judgment(*iv) if sub else iv, intervals(), st.booleans()
)
not_intervals = st.one_of(
    st.none(), st.integers(), st.text(max_size=3),
    st.tuples(st.integers(), st.integers()),
)
# Ways to hand the constructor a list of entries.  The last is a Profile
# built without the constructor's checks, so it can hold any entry.
INPUT_FORMS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda entries: (entry for entry in entries),
    "Profile": lambda entries: tuple.__new__(Profile, entries),
}


class TestProfileProperties:
    """A revision equals a fresh build of the same entries, and the
    constructor fails alike whatever form its input takes."""

    @given(st.lists(judgments, min_size=1, max_size=8), st.data(), judgments,
           st.booleans())
    def test_replace_agent_equals_a_fresh_build(self, entries, data, interval, ranked):
        profile = Profile(entries)
        if ranked:
            profile._ranked()
        parent_ranks = copy.deepcopy(profile._ranks)
        index = data.draw(st.integers(0, len(entries) - 1))
        child = profile.replace_agent(index, interval)
        entries[index] = interval
        assert type(child) is Profile and child == Profile(entries)
        assert list(map(type, child)) == list(map(type, entries))
        assert child._ranks == (fresh_ranks(entries) if ranked else None)
        assert profile._ranks == parent_ranks

    @pytest.mark.parametrize("form", list(INPUT_FORMS))
    def test_empty_input_is_rejected(self, form):
        with pytest.raises(ValueError, match="profile needs at least one agent"):
            Profile(INPUT_FORMS[form]([]))

    @pytest.mark.parametrize("value", [None, 5, 2.5, object()])
    def test_non_iterable_is_rejected(self, value):
        with pytest.raises(TypeError, match="not iterable"):
            Profile(value)


# Module-level: as methods, each parameter would get a new ``self``, which
# hypothesis rejects as differing executors when its pytest plugin is absent.
@pytest.mark.parametrize("form", list(INPUT_FORMS))
@given(st.lists(judgments, max_size=5), st.data(), not_intervals)
def test_first_bad_entry_is_named(form, entries, data, bad):
    tail = data.draw(st.lists(st.one_of(judgments, not_intervals), max_size=3))
    message = f"profile entry {len(entries)} is not an Interval: {bad!r}"
    with pytest.raises(TypeError) as error:
        Profile(INPUT_FORMS[form](entries + [bad] + tail))
    assert str(error.value) == message


@pytest.mark.parametrize("form", list(INPUT_FORMS))
@given(st.lists(judgments, min_size=1, max_size=5))
def test_good_input_builds_the_same_profile(form, entries):
    profile = Profile(INPUT_FORMS[form](entries))
    assert type(profile) is Profile and list(profile) == entries
    assert profile._ranks is None
    assert list(map(type, profile)) == list(map(type, entries))


RANKED_N = 11


def crowd_handles():
    """The four order-statistic handles one crowd round evaluates."""
    return [
        endpoint_rule_handle(3, 4),
        median_rule_handle(),
        maximal_rule_handle(),
        phantom_rule_handle(endpoint_rule_phantoms(2, 5, RANKED_N)),
    ]


def spread_profile():
    return Profile(Interval(k % 4 - k, k % 3 + 2) for k in range(RANKED_N))


@pytest.fixture
def sort_calls(monkeypatch):
    """Length of every list sorted by the core and rules modules."""
    calls = []

    def counting_sorted(values, *args, **kwargs):
        values = list(values)
        calls.append(len(values))
        return sorted(values, *args, **kwargs)

    for module in (core, rules):
        monkeypatch.setattr(module, "sorted", counting_sorted, raising=False)
    return calls


class TestRankedEndpoints:
    """A profile sorts its endpoints once and shares them; the ranks are
    invisible to equality, hashing, pickling and copying."""

    def test_ranked_profile_equals_unranked(self):
        ranked, plain = spread_profile(), spread_profile()
        median_rule_handle()(ranked)
        assert ranked == plain and plain == ranked
        assert hash(ranked) == hash(plain)
        assert {plain: "found"}[ranked] == "found"
        assert repr(ranked) == repr(plain)

    def test_crowd_handles_sort_the_profile_once(self, sort_calls):
        handles = crowd_handles()
        sort_calls.clear()
        profile = spread_profile()
        first = [handle(profile) for handle in handles]
        assert sort_calls == [RANKED_N, RANKED_N]
        assert [handle(profile) for handle in handles] == first
        assert sort_calls == [RANKED_N, RANKED_N]

    def test_replace_agent_passes_ranks_without_a_sort(self, sort_calls):
        handles = crowd_handles()
        profile = spread_profile()
        handles[0](profile)
        sort_calls.clear()
        child = profile.replace_agent(4, Interval(-20, 30))
        grandchild = child.replace_agent(0, Interval(5, 6))
        outcomes = [handle(p) for p in (child, grandchild) for handle in handles]
        assert sort_calls == []
        fresh = [Profile(tuple(p)) for p in (child, grandchild)]
        assert outcomes == [handle(p) for p in fresh for handle in handles]

    def test_unranked_parent_sorts_nothing_on_replace(self, sort_calls):
        handles = crowd_handles()
        sort_calls.clear()
        child = spread_profile().replace_agent(4, Interval(-20, 30))
        assert sort_calls == []
        handles[1](child)
        assert sort_calls == [RANKED_N, RANKED_N]

    def test_pickle_carries_no_ranks(self, sort_calls):
        handles = crowd_handles()
        ranked = spread_profile()
        outcomes = [handle(ranked) for handle in handles]
        assert pickle.dumps(ranked) == pickle.dumps(spread_profile())
        clone = pickle.loads(pickle.dumps(ranked))
        assert type(clone) is Profile and clone == ranked
        assert hash(clone) == hash(ranked)
        sort_calls.clear()
        assert [handle(clone) for handle in handles] == outcomes
        assert sort_calls == [RANKED_N, RANKED_N]

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copies_are_equal_and_evaluate_alike(self, clone):
        handles = crowd_handles()
        ranked = spread_profile()
        outcomes = [handle(ranked) for handle in handles]
        copied = clone(ranked)
        assert type(copied) is Profile and copied == ranked
        assert hash(copied) == hash(ranked)
        assert [handle(copied) for handle in handles] == outcomes
        revised = copied.replace_agent(2, Interval(7, 8))
        assert revised == ranked.replace_agent(2, Interval(7, 8))
        assert [handle(revised) for handle in handles] == [
            handle(ranked.replace_agent(2, Interval(7, 8))) for handle in handles
        ]


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

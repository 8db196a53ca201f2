"""Interval judgments and the orderings used to compare them.

An individual judgment is a bounded nonempty open interval ``(lo, hi)`` of
the real line, modelled by :class:`Interval`.  Aggregation rules built on
top of these judgments also need *extended* intervals whose bounds may be
infinite, including three degenerate shapes ``(-inf, -inf)``,
``(-inf, +inf)`` and ``(+inf, +inf)``; those are modelled by
:class:`ExtendedInterval` together with the validity relation
:func:`ext_precedes`.

Everything in this module is an immutable value type with exact float
equality.  ``-0.0`` is normalised to ``+0.0`` at construction time so that
structurally equal intervals are bit-identical.

:func:`sample_profile` draws random profiles from a caller's seeded
stream; audit campaigns and the identification probe both sample with it.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_left, insort
from collections import namedtuple
from functools import partial
from typing import Iterable, Optional, Sequence

from . import _EXPORTS, _record

NEG_INF = float("-inf")
POS_INF = float("inf")
_FLOAT_MAX = sys.float_info.max
# The least positive float: least=_LEAST_POSITIVE asks for a number > 0.
_LEAST_POSITIVE = math.ulp(0.0)

__all__ = [name for name, home in _EXPORTS.items() if home == "core"]


# The one input checker: every size, seed, index, weight, slope, offset and
# epsilon from an API caller or a replayed witness goes through these three.


def _check_int(name: str, value, least: Optional[int] = None) -> int:
    """``value`` unchanged if it is an int (bools excluded) >= ``least``;
    else a ValueError naming the field."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _check_number(name: str, value, least: Optional[float] = None):
    """``value`` unchanged if it is a finite int or float >= ``least``, bools
    and ints past the float range excluded; else a ValueError naming it."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, float)) and -_FLOAT_MAX <= value <= _FLOAT_MAX
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return value


def _check_agent(profile: Sequence, index, name: str = "index") -> int:
    """``index`` unchanged if it is an int naming an agent of ``profile``; a
    negative one is an IndexError, as a silent wraparound corrupts searches."""
    _check_int(name, index)
    if not 0 <= index < len(profile):
        raise IndexError(
            f"agent index {index} out of range for {len(profile)} agents"
        )
    return index


class _Record:
    """Base of the ``__slots__`` value classes, which spare every process the
    import and class set-up of ``dataclasses``.  ``_fields`` names the
    constructor's arguments and ``__match_args__`` those it takes by
    position.  Equality (within one class) and pickling, which rebuilds
    through the checking constructor, read the ``_fields``; the repr, as a
    dataclass writes it, shows each slot not named with a leading ``_``."""

    __slots__ = ()

    def _set(self, *values: object) -> None:
        """Store ``values`` into the slots, in order, frozen or not."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = [f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_"]
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __reduce__(self):
        cls, values, given = self.__class__, self._values(), len(self.__match_args__)
        if given < len(values):
            cls = partial(cls, **dict(zip(self._fields[given:], values[given:])))
        return cls, values[:given]


class _Frozen(_Record):
    """A :class:`_Record` hashed by its fields, which cannot change."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__


_tuple_new = tuple.__new__
# float() reads these as text or as 0 and 1; as bounds they are mistakes.
_NOT_BOUNDS = (bool, str, bytes, bytearray, memoryview)


def _float_bounds(lo, hi) -> tuple[float, float]:
    """Both interval bounds as floats; a bool, text, or a number past the
    float range is a ValueError."""
    if isinstance(lo, _NOT_BOUNDS) or isinstance(hi, _NOT_BOUNDS):
        raise ValueError(f"interval bounds must be numbers, got ({lo!r}, {hi!r})")
    try:
        return float(lo), float(hi)
    except OverflowError:  # no repr: an int past 4300 digits has none
        raise ValueError("interval bounds must lie in the float range") from None


def ext_precedes(a: float, b: float) -> bool:
    """Validity order on extended bounds.

    ``ext_precedes(a, b)`` holds iff one of:

    * ``a`` and ``b`` are both finite and ``a < b``,
    * ``a == -inf``,
    * ``b == +inf``.

    Under this relation the degenerate pairs ``(-inf, -inf)``,
    ``(-inf, +inf)`` and ``(+inf, +inf)`` are all valid
    lower/upper-bound pairs, while for finite bounds the relation
    coincides with ``<``.  NaN bounds are rejected by the interval
    constructors before this function ever sees them.
    """
    if a == NEG_INF or b == POS_INF:
        return True
    return not math.isinf(a) and not math.isinf(b) and a < b


class Interval(namedtuple("Interval", ["lo", "hi"])):
    """Bounded nonempty open interval ``(lo, hi)``, ``lo < hi`` finite.

    Bounds are ints, floats or other numbers ``float()`` takes, stored as
    floats; a bool, a str or bytes-like bound, or an int past the float
    range is a ValueError.  Construction also checks finiteness and ``lo <
    hi`` and normalises ``-0.0`` to ``+0.0``.  Instances compare exactly
    (no tolerance) and order lexicographically by ``(lo, hi)``, which is
    the tie-break order used throughout the package.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        # Exact floats, as search candidates and outcomes are, skip float().
        if type(lo) is not float or type(hi) is not float:
            lo, hi = _float_bounds(lo, hi)
        # False exactly when a bound is NaN or infinite, or lo >= hi.
        if not NEG_INF < lo < hi < POS_INF:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval bounds must not be NaN")
            if math.isinf(lo) or math.isinf(hi):
                raise ValueError(
                    f"interval bounds must be finite, got ({lo!r}, {hi!r})"
                )
            raise ValueError(f"interval needs lo < hi, got ({lo!r}, {hi!r})")
        # +0.0 forces -0.0 to +0.0; exact equality then matches bit equality.
        return _tuple_new(cls, (lo + 0.0, hi + 0.0))

    # namedtuple's own _make, which _replace calls, bypasses __new__.
    @classmethod
    def _make(cls, iterable) -> "Interval":
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def shift(self, offset: float) -> "Interval":
        """Translate both endpoints by ``offset``."""
        return Interval(self.lo + offset, self.hi + offset)

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


class ExtendedInterval(namedtuple("ExtendedInterval", ["lo", "hi"])):
    """Interval with possibly infinite bounds, valid iff ``ext_precedes(lo, hi)``.

    Permits the three degenerate shapes ``(-inf, -inf)``, ``(-inf, +inf)``
    and ``(+inf, +inf)`` used as phantom votes by generalized median
    rules.  Invalid pairs such as ``(5, 3)``, ``(5, 5)`` or
    ``(+inf, 3)`` are rejected at construction.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "ExtendedInterval":
        lo, hi = _float_bounds(lo, hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("extended interval bounds must not be NaN")
        if not ext_precedes(lo, hi):
            raise ValueError(
                f"invalid extended interval ({lo!r}, {hi!r}): "
                "needs lo < hi for finite bounds, lo == -inf, or hi == +inf"
            )
        return super().__new__(cls, lo + 0.0, hi + 0.0)

    @classmethod
    def _make(cls, iterable) -> "ExtendedInterval":  # see Interval._make
        return cls(*iterable)

    def __repr__(self) -> str:
        return f"ExtendedInterval({self.lo!r}, {self.hi!r})"


class Profile(tuple):
    """Ordered tuple of individual :class:`Interval` judgments, length >= 1.

    Agent positions are 0-based in the Python API.  Profiles are plain
    tuples, so slicing, iteration and equality behave as expected; the
    constructor builds one tuple from its input and only adds validation.
    Every entry is an :class:`Interval`: the constructor checks each one,
    :meth:`replace_agent` checks the one it brings in, and unpickling
    goes back through the constructor (``__reduce__``).

    A profile also keeps its lower and upper endpoints sorted, built on
    the first order-statistic evaluation and kept for the profile's life,
    so every later evaluation reads ranks instead of sorting again.  The
    ranked lists live in the instance ``__dict__`` (a tuple subclass
    cannot take non-empty ``__slots__``); they take no part in equality,
    hashing or pickling, and nothing outside the package sees them.
    """

    # Class default for a profile not yet ranked: reading it raises nothing.
    _ranks: Optional[tuple[list[float], list[float]]] = None

    def __new__(cls, agents: Iterable[Interval]) -> "Profile":
        entries = tuple.__new__(cls, agents)
        if not entries:
            raise ValueError("profile needs at least one agent")
        # Subclasses and bad entries fall through to the isinstance loop.
        if set(map(type, entries)) != {Interval}:
            for pos, entry in enumerate(entries):
                if not isinstance(entry, Interval):
                    raise TypeError(
                        f"profile entry {pos} is not an Interval: {entry!r}"
                    )
        return entries

    def __reduce__(self):
        # Rebuild through the validating constructor, without the ranks.
        return Profile, (tuple(self),)

    def _ranked(self) -> tuple[list[float], list[float]]:
        """The lower and the upper endpoints, each sorted ascending.

        Callers only read the lists; they are shared by every evaluation.
        """
        ranks = self._ranks
        if ranks is None:
            lows, highs = zip(*self)
            ranks = self._ranks = (sorted(lows), sorted(highs))
        return ranks

    def _ranked_without(self, index: int) -> tuple[list[float], list[float]]:
        """Fresh sorted lower and upper endpoints of every agent but
        ``index``: the profile's ranks with that agent's slot removed."""
        lows, highs = self._ranked()
        own = self[index]
        lows = lows.copy()
        del lows[bisect_left(lows, own.lo)]
        highs = highs.copy()
        del highs[bisect_left(highs, own.hi)]
        return lows, highs

    def replace_agent(self, index: int, interval: Interval) -> "Profile":
        """Copy of the profile with one agent's judgment swapped out.

        ``index`` goes through :func:`_check_agent`.  The copy is built
        from slices of this profile, and only ``interval`` is checked: the
        other entries were checked when this profile was built.  A ranked profile hands
        its ranks to the copy with one slot moved, in O(n) instead of a
        fresh sort.
        """
        _check_agent(self, index)
        if not isinstance(interval, Interval):
            raise TypeError(f"replacement is not an Interval: {interval!r}")
        child = tuple.__new__(Profile, self[:index] + (interval,) + self[index + 1 :])
        if self._ranks is not None:
            lows, highs = self._ranked_without(index)
            insort(lows, interval.lo)
            insort(highs, interval.hi)
            child._ranks = (lows, highs)
        return child

    def shift(self, offset: float) -> "Profile":
        """Translate every judgment by ``offset``."""
        return Profile(entry.shift(offset) for entry in self)

    def __repr__(self) -> str:
        inner = ", ".join(f"({iv.lo!r}, {iv.hi!r})" for iv in self)
        return f"Profile([{inner}])"


def scalar_between(x: float, z: float, y: float) -> bool:
    """Weak betweenness of ``z`` relative to the unordered pair ``x, y``.

    True iff ``x <= z <= y`` or ``y <= z <= x``.  Works on extended
    bounds too because IEEE infinities order correctly under ``<=``.
    """
    return x <= z <= y or y <= z <= x


def between(outer_a: Interval, middle: Interval, outer_b: Interval) -> bool:
    """Interval betweenness: both endpoints of ``middle`` lie weakly
    between the corresponding endpoints of the outer pair.

    Symmetric in the outer arguments and reflexive in the sense
    ``between(a, a, b)`` and ``between(a, b, b)`` always hold.
    """
    return scalar_between(outer_a.lo, middle.lo, outer_b.lo) and scalar_between(
        outer_a.hi, middle.hi, outer_b.hi
    )


def subset(inner: Interval, outer: Interval) -> bool:
    """Set containment ``inner`` within ``outer`` for open intervals.

    For open intervals with these bound conventions this reduces to
    ``outer.lo <= inner.lo and inner.hi <= outer.hi``.
    """
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def endpoint_distance(a: Interval, b: Interval) -> float:
    """L1 distance on endpoint pairs: ``|a.lo - b.lo| + |a.hi - b.hi|``.

    A metric on intervals; zero iff the intervals are equal.
    """
    return abs(a.lo - b.lo) + abs(a.hi - b.hi)


# The samplers write out random.py's draws, alike in Python 3.10 to 3.13,
# so a seed samples the same on each: uniform(a, b) is a + (b - a) *
# random(); randint and randrange are at the _randbelow use below.  What
# they build is valid by construction and skips the checking constructors.


def _sample_interval(rng: random.Random) -> Interval:
    draw = rng.random
    while True:
        # uniform(-10.0, 10.0): finite, and never -0.0, as -10.0 + 10.0 is +0.0.
        a = -10.0 + 20.0 * draw()
        b = -10.0 + 20.0 * draw()
        if a != b:
            return _tuple_new(Interval, (a, b) if a < b else (b, a))


def sample_profile(rng: random.Random, n_agents: int) -> Profile:
    """Mixture sampler used by audits and the identification probe.

    Three regimes: plain uniform endpoints in [-10, 10]; clustered
    profiles drawing endpoints from a small shared pool (forcing exact
    ties across agents, the likeliest quantile bug site); and
    integer-valued profiles.  The regime is chosen per profile from the
    provided stream, so campaigns see all three.  ``rng`` must be a
    :class:`random.Random` (a subclass such as :class:`random.SystemRandom`
    will do) and ``n_agents`` an int (not a bool) >= 1.

    The draws are exactly those of the stream's ``uniform``, ``randint``
    and ``randrange``, so a seed gives the same profiles, and the same
    audit reports, on every supported Python.  Each sampled interval is
    valid by construction and built without re-checking.
    """
    if not isinstance(rng, random.Random):
        raise TypeError(f"rng must be a random.Random, got {rng!r}")
    _check_int("n_agents", n_agents, 1)
    return _sample_profile(rng, n_agents)


def _sample_profile(rng: random.Random, n_agents: int) -> Profile:
    # Campaigns and identification call this per sample, with a size they
    # have checked.
    draw = rng.random
    roll = draw()
    if roll < 0.4:
        return _tuple_new(Profile, [_sample_interval(rng) for _ in range(n_agents)])
    # random.py: randrange(a, b) is a + _randbelow(b - a), randint(a, b) is
    # randrange(a, b + 1), and randrange(k) is _randbelow(k).
    below = rng._randbelow
    agents = []
    if roll < 0.7:
        pool_size = 2 + below(max(2, min(4, n_agents + 1)) - 1)  # randint(2, ...)
        pool = set()
        while len(pool) < pool_size + 1:
            if draw() < 0.5:
                pool.add(float(below(17) - 8))  # randint(-8, 8)
            else:
                # round() gives -0.0 for a small negative draw; + 0.0 makes it +0.0.
                pool.add(round(-10.0 + 20.0 * draw(), 2) + 0.0)
        values = sorted(pool)
        top = len(values)
        for _ in range(n_agents):
            i = below(top - 1)
            j = i + 1 + below(top - i - 1)  # randrange(i + 1, top)
            agents.append(_tuple_new(Interval, (values[i], values[j])))
        return _tuple_new(Profile, agents)
    for _ in range(n_agents):
        lo = below(20) - 10  # randint(-10, 9)
        hi = lo + 1 + below(10 - lo)  # randint(lo + 1, 10)
        agents.append(_tuple_new(Interval, (float(lo), float(hi))))
    return _tuple_new(Profile, agents)


_record(globals())

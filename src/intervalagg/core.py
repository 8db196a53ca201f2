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
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

NEG_INF = float("-inf")
POS_INF = float("inf")

__all__ = [
    "NEG_INF",
    "POS_INF",
    "Interval",
    "ExtendedInterval",
    "Profile",
    "ext_precedes",
    "scalar_between",
    "between",
    "subset",
    "endpoint_distance",
]


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

    Construction validates finiteness and ``lo < hi`` and normalises
    ``-0.0`` to ``+0.0``.  Instances compare exactly (no tolerance) and
    order lexicographically by ``(lo, hi)``, which is the tie-break order
    used throughout the package.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval bounds must not be NaN")
        if math.isinf(lo) or math.isinf(hi):
            raise ValueError(
                f"interval bounds must be finite, got ({lo!r}, {hi!r})"
            )
        if not lo < hi:
            raise ValueError(f"interval needs lo < hi, got ({lo!r}, {hi!r})")
        # +0.0 forces -0.0 to +0.0; exact equality then matches bit equality.
        return super().__new__(cls, lo + 0.0, hi + 0.0)

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
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("extended interval bounds must not be NaN")
        if not ext_precedes(lo, hi):
            raise ValueError(
                f"invalid extended interval ({lo!r}, {hi!r}): "
                "needs lo < hi for finite bounds, lo == -inf, or hi == +inf"
            )
        return super().__new__(cls, lo + 0.0, hi + 0.0)

    def __repr__(self) -> str:
        return f"ExtendedInterval({self.lo!r}, {self.hi!r})"


class Profile(tuple):
    """Ordered tuple of individual :class:`Interval` judgments, length >= 1.

    Agent positions are 0-based in the Python API.  Profiles are plain
    tuples, so slicing, iteration and equality behave as expected; the
    constructor only adds validation.
    """

    __slots__ = ()

    def __new__(cls, agents: Iterable[Interval]) -> "Profile":
        entries = tuple(agents)
        if not entries:
            raise ValueError("profile needs at least one agent")
        for pos, entry in enumerate(entries):
            if not isinstance(entry, Interval):
                raise TypeError(
                    f"profile entry {pos} is not an Interval: {entry!r}"
                )
        return super().__new__(cls, entries)

    def replace_agent(self, index: int, interval: Interval) -> "Profile":
        """Copy of the profile with one agent's judgment swapped out.

        Negative indices are rejected rather than wrapped; a silent
        wraparound in a misreport loop would corrupt search results.
        """
        if not 0 <= index < len(self):
            raise IndexError(
                f"agent index {index} out of range for {len(self)} agents"
            )
        if not isinstance(interval, Interval):
            raise TypeError(f"replacement is not an Interval: {interval!r}")
        return Profile(
            interval if pos == index else entry
            for pos, entry in enumerate(self)
        )

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

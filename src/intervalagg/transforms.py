"""Strictly monotone piecewise-linear maps of the real line.

Neutrality checks need strictly monotone continuous bijections that can be
applied to interval endpoints, serialised into audit witnesses and
replayed bit-for-bit.  Piecewise-linear maps with finitely many
breakpoints and positive tail slopes are dense enough in the monotone
maps to expose every neutrality failure a sampled audit can expose.

Evaluation returns the stored ``y`` exactly when ``x`` hits a breakpoint,
so a map anchored at a profile's endpoints transforms that profile with no
rounding at all.  Between breakpoints standard linear interpolation is
used, and beyond the first or last breakpoint the map continues with the
configured tail slopes.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from . import _EXPORTS, _record
from .core import (
    _LEAST_POSITIVE,
    Interval,
    Profile,
    _check_int,
    _check_number,
    _Frozen,
)

__all__ = [name for name, home in _EXPORTS.items() if home == "transforms"]


def _points(points: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """``points`` as float pairs; each coordinate must be a finite number."""
    return tuple(
        (float(_check_number("breakpoint", x)), float(_check_number("breakpoint", y)))
        for x, y in points
    )


class MonotoneMap(_Frozen):
    """Piecewise-linear strictly monotone bijection of the real line.

    ``breakpoints`` is a tuple of ``(x, y)`` pairs with strictly
    increasing ``x`` and strictly monotone ``y``; the first two ``y``
    values decide the direction, read back as ``increasing``.
    ``left_slope`` and ``right_slope`` are positive slope *magnitudes*
    for the tails beyond the first and last breakpoint; the sign is
    determined by the direction.  Use :meth:`through` to build a map
    from points alone; it infers both tail slopes from the end segments.
    """

    # Affine maps evaluate in point-slope form everywhere, one rounding per
    # call; general maps interpolate between breakpoints.  ``affine`` is set
    # by the affine factory, or by a decoded two-point affine witness.
    _fields = __match_args__ = ("breakpoints", "left_slope", "right_slope", "affine")
    __slots__ = (*_fields, "increasing", "_xs")

    def __init__(
        self, breakpoints: Iterable[tuple[float, float]], left_slope: float,
        right_slope: float, affine: bool = False,
    ) -> None:
        points = _points(breakpoints)
        if len(points) < 2:
            raise ValueError("a monotone map needs at least two breakpoints")
        xs = tuple(x for x, _ in points)
        ys = tuple(y for _, y in points)
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(
                    f"breakpoint x values must strictly increase, got {a} then {b}"
                )
        increasing = ys[0] < ys[1]
        for a, b in zip(ys, ys[1:]):
            if not (a < b if increasing else a > b):
                raise ValueError(
                    f"breakpoint y values must be strictly monotone, got {a} then {b}"
                )
        _check_number("left_slope", left_slope, _LEAST_POSITIVE)
        _check_number("right_slope", right_slope, _LEAST_POSITIVE)
        if not isinstance(affine, bool):
            raise ValueError(f"affine must be a bool, got {affine!r}")
        if affine:
            if len(points) != 2 or left_slope != right_slope:
                raise ValueError(
                    "affine maps need exactly two breakpoints and equal"
                    " tail slopes; use MonotoneMap.affine_map to build one"
                )
        self._set(points, float(left_slope), float(right_slope), affine, increasing, xs)
        if affine and self(points[1][0]) != points[1][1]:
            raise ValueError(f"affine map misses its second breakpoint {points[1]}")

    @classmethod
    def through(cls, points: Iterable[tuple[float, float]]) -> "MonotoneMap":
        """Build a map through ``points``, inferring both tails.

        The tail slopes are the magnitudes of the first and last segment
        slopes, so e.g. the doubling map through (0, 0) and (1, 2)
        doubles everywhere, not just between its breakpoints.
        """
        pts = _points(points)
        if len(pts) < 2:
            raise ValueError("a monotone map needs at least two breakpoints")
        return cls(pts, _end_slope("first", *pts[:2]), _end_slope("last", *pts[-2:]))

    @classmethod
    def affine_map(cls, slope: float) -> "MonotoneMap":
        """The map x -> slope * x through (0, 0) and (1, slope); the slope
        is stored verbatim and a call rounds once."""
        slope = float(_check_number("affine slope", slope))
        if slope == 0:
            raise ValueError(f"affine slope must be nonzero, got {slope!r}")
        return cls(((0.0, 0.0), (1.0, slope)), abs(slope), abs(slope), affine=True)

    def __call__(self, x: float) -> float:
        """Evaluate the map; exact at breakpoints."""
        points = self.breakpoints
        end = 0  # an affine map is its left tail everywhere
        if not self.affine:
            xs = self._xs
            pos = bisect_left(xs, x)
            if pos < len(xs) and xs[pos] == x:
                return points[pos][1]
            if pos == len(xs):
                end = -1
            elif pos:
                x0, y0 = points[pos - 1]
                x1, y1 = points[pos]
                dx, dy = x1 - x0, y1 - y0
                if math.isinf(dx) or math.isinf(dy):
                    # A difference overflowed: interpolate at half scale.
                    t = (x / 2.0 - x0 / 2.0) / (x1 / 2.0 - x0 / 2.0)
                    return 2.0 * (y0 / 2.0 + t * (y1 / 2.0 - y0 / 2.0))
                return y0 + (x - x0) / dx * dy
        slope = self.right_slope if end else self.left_slope
        if not self.increasing:
            slope = -slope
        x0, y0 = points[end]
        dx = x - x0
        if math.isinf(dx):
            # The distance overflowed: extrapolate at half scale.
            return 2.0 * (y0 / 2.0 + (x / 2.0 - x0 / 2.0) * slope)
        return y0 + dx * slope


def _end_slope(end: str, p: tuple[float, float], q: tuple[float, float]) -> float:
    """Slope magnitude of the end segment ``p`` to ``q``; differences that
    overflow are taken at half scale, so finite points give a finite slope."""
    (x0, y0), (x1, y1) = p, q
    if not x0 < x1 or y0 == y1:
        return 1.0  # not strictly monotone: the constructor names the defect
    dx, dy = x1 - x0, y1 - y0
    if math.isinf(dx) or math.isinf(dy):
        dx, dy = x1 / 2.0 - x0 / 2.0, y1 / 2.0 - y0 / 2.0
    slope = abs(dy / dx) if dx else math.inf
    if slope == 0.0 or slope == math.inf:
        raise ValueError(
            f"the {end} segment, {p} to {q}, has a slope that "
            f"{'underflows to 0' if slope == 0.0 else 'overflows'}"
        )
    return slope


def apply_map_interval(mapping: MonotoneMap, interval: Interval) -> Interval:
    """Image of an open interval; endpoints swap under a decreasing map."""
    a = mapping(interval.lo)
    b = mapping(interval.hi)
    if mapping.increasing:
        return Interval(a, b)
    return Interval(b, a)


def apply_map_profile(mapping: MonotoneMap, profile: Profile) -> Profile:
    """Apply the map to every judgment in a profile."""
    return Profile(apply_map_interval(mapping, entry) for entry in profile)


def _random_increasing_from_rng(
    rng: random.Random, anchors: Sequence[float]
) -> MonotoneMap:
    # Breakpoints sit exactly at the anchors so anchored inputs transform
    # without rounding; a few surrounding points add extra kinks.
    xs = sorted(set(float(a) for a in anchors))
    if not xs:
        xs = [0.0]
    if len(xs) == 1:
        xs = [xs[0] - 1.0, xs[0], xs[0] + 1.0]
    extra_lo = xs[0] - rng.uniform(0.5, 2.0)
    extra_hi = xs[-1] + rng.uniform(0.5, 2.0)
    xs = [extra_lo] + xs + [extra_hi]
    y = rng.uniform(-12.0, 12.0)
    points = []
    for x in xs:
        points.append((x, y))
        y += rng.uniform(0.1, 3.0)
    left = rng.uniform(0.25, 4.0)
    right = rng.uniform(0.25, 4.0)
    return MonotoneMap(tuple(points), left, right)


def random_increasing_map(seed: int, anchors: Sequence[float]) -> MonotoneMap:
    """Seeded random increasing map with breakpoints at every anchor.

    Same seed and anchors give the identical map on every platform; the
    y gaps, extra outer kinks and tail slopes all come from the seeded
    stream, so distinct seeds give genuinely different nonlinear maps.
    Each anchor must be a finite number, as every other map input.
    """
    rng = random.Random(_check_int("seed", seed))
    anchors = [_check_number(f"anchors entry {pos}", a) for pos, a in enumerate(anchors)]
    return _random_increasing_from_rng(rng, anchors)


def map_to_data(mapping: MonotoneMap) -> dict:
    """Plain-dict form used inside JSON audit witnesses."""
    return {
        "breakpoints": [[x, y] for x, y in mapping.breakpoints],
        "direction": "increasing" if mapping.increasing else "decreasing",
        "left_slope": mapping.left_slope,
        "right_slope": mapping.right_slope,
        "affine": mapping.affine,
    }


def map_from_data(data: Mapping) -> MonotoneMap:
    """Inverse of :func:`map_to_data`; no value is coerced, so a breakpoint
    must be a JSON number and ``affine`` a JSON bool, and ``direction``
    must agree with the breakpoints."""
    direction = data["direction"]
    mapping = MonotoneMap(
        data["breakpoints"],
        data["left_slope"],
        data["right_slope"],
        data.get("affine", False),
    )
    if direction != ("increasing" if mapping.increasing else "decreasing"):
        raise ValueError(
            f"map direction {direction!r} disagrees with its breakpoints"
        )
    return mapping


_record(globals())

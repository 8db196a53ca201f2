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

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .core import Interval, Profile

__all__ = [
    "MonotoneMap",
    "apply_map_interval",
    "apply_map_profile",
    "random_increasing_map",
    "map_to_data",
    "map_from_data",
]


@dataclass(frozen=True)
class MonotoneMap:
    """Piecewise-linear strictly monotone bijection of the real line.

    ``breakpoints`` is a tuple of ``(x, y)`` pairs with strictly
    increasing ``x`` and strictly monotone ``y`` (direction given by
    ``increasing``).  ``left_slope`` and ``right_slope`` are positive
    slope *magnitudes* for the tails beyond the first and last
    breakpoint; the sign is determined by the direction.  Use
    :meth:`through` to build a map from points alone, with tail slopes
    defaulting to the adjacent segment slopes.
    """

    breakpoints: tuple[tuple[float, float], ...]
    increasing: bool
    left_slope: float
    right_slope: float
    # Affine maps (x -> slope * x + intercept) evaluate in point-slope
    # form everywhere, one rounding per call, so translation by b agrees
    # bit-exactly with adding b to each endpoint.  Set by the affine
    # factory only; general maps interpolate between breakpoints.
    affine: bool = False
    _xs: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        points = tuple(
            (float(x), float(y)) for x, y in self.breakpoints
        )
        if len(points) < 2:
            raise ValueError("a monotone map needs at least two breakpoints")
        xs = tuple(x for x, _ in points)
        ys = tuple(y for _, y in points)
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(
                    f"breakpoint x values must strictly increase, got {a} then {b}"
                )
        for a, b in zip(ys, ys[1:]):
            if self.increasing and not a < b:
                raise ValueError(
                    f"increasing map needs strictly increasing y, got {a} then {b}"
                )
            if not self.increasing and not a > b:
                raise ValueError(
                    f"decreasing map needs strictly decreasing y, got {a} then {b}"
                )
        for name, slope in (
            ("left_slope", self.left_slope),
            ("right_slope", self.right_slope),
        ):
            if not slope > 0 or slope != slope or slope == float("inf"):
                raise ValueError(
                    f"{name} must be a positive finite magnitude, got {slope!r}"
                )
        if self.affine:
            if len(points) != 2 or self.left_slope != self.right_slope:
                raise ValueError(
                    "affine maps need exactly two breakpoints and equal"
                    " tail slopes; use MonotoneMap.affine_map to build one"
                )
        object.__setattr__(self, "breakpoints", points)
        object.__setattr__(self, "left_slope", float(self.left_slope))
        object.__setattr__(self, "right_slope", float(self.right_slope))
        object.__setattr__(self, "_xs", xs)

    @classmethod
    def through(
        cls,
        points: Iterable[tuple[float, float]],
        left_slope: Optional[float] = None,
        right_slope: Optional[float] = None,
    ) -> "MonotoneMap":
        """Build a map through ``points``, inferring direction.

        Tail slopes default to the magnitudes of the first and last
        segment slopes, so e.g. the doubling map through (0, 0) and
        (1, 2) doubles everywhere, not just between its breakpoints.
        """
        pts = tuple((float(x), float(y)) for x, y in points)
        if len(pts) < 2:
            raise ValueError("a monotone map needs at least two breakpoints")
        increasing = pts[1][1] > pts[0][1]
        if left_slope is None:
            (x0, y0), (x1, y1) = pts[0], pts[1]
            left_slope = abs((y1 - y0) / (x1 - x0))
        if right_slope is None:
            (x0, y0), (x1, y1) = pts[-2], pts[-1]
            right_slope = abs((y1 - y0) / (x1 - x0))
        return cls(pts, increasing, left_slope, right_slope)

    @classmethod
    def affine_map(cls, slope: float, intercept: float = 0.0) -> "MonotoneMap":
        """The map x -> slope * x + intercept, one rounding per call.

        Unlike a map built from breakpoints, the slope here is stored
        verbatim, so affine_map(1.0, b) adds b bit-for-bit the way a
        direct endpoint shift would.
        """
        slope = float(slope)
        intercept = float(intercept)
        if not slope == slope or slope == 0 or abs(slope) == float("inf"):
            raise ValueError(
                f"affine slope must be finite and nonzero, got {slope!r}"
            )
        points = ((0.0, intercept), (1.0, intercept + slope))
        return cls(points, slope > 0, abs(slope), abs(slope), affine=True)

    def __call__(self, x: float) -> float:
        """Evaluate the map; exact at breakpoints."""
        if self.affine:
            slope = self.left_slope if self.increasing else -self.left_slope
            x0, y0 = self.breakpoints[0]
            return y0 + (x - x0) * slope
        xs = self._xs
        points = self.breakpoints
        pos = bisect_left(xs, x)
        if pos < len(xs) and xs[pos] == x:
            return points[pos][1]
        if pos == 0:
            slope = self.left_slope if self.increasing else -self.left_slope
            x0, y0 = points[0]
            return y0 + (x - x0) * slope
        if pos == len(xs):
            slope = self.right_slope if self.increasing else -self.right_slope
            x0, y0 = points[-1]
            return y0 + (x - x0) * slope
        x0, y0 = points[pos - 1]
        x1, y1 = points[pos]
        t = (x - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)


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
    return MonotoneMap(tuple(points), True, left, right)


def random_increasing_map(seed: int, anchors: Sequence[float]) -> MonotoneMap:
    """Seeded random increasing map with breakpoints at every anchor.

    Same seed and anchors give the identical map on every platform; the
    y gaps, extra outer kinks and tail slopes all come from the seeded
    stream, so distinct seeds give genuinely different nonlinear maps.
    """
    return _random_increasing_from_rng(random.Random(seed), anchors)


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
    """Inverse of :func:`map_to_data`; validates the direction string."""
    direction = data["direction"]
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"unknown map direction: {direction!r}")
    return MonotoneMap(
        tuple((float(x), float(y)) for x, y in data["breakpoints"]),
        direction == "increasing",
        float(data["left_slope"]),
        float(data["right_slope"]),
        bool(data.get("affine", False)),
    )

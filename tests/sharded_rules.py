"""Rules and a range function of the caller's own, at module level, for
the sharding tests.

The sample worker takes only handles built from the modules it was
started with; the tests start it with this module added, from a path
that also holds the checkout, so these rules shard too.  Kept out of
the test modules, whose assertions pytest rewrites: the worker imports
this file plainly, and both processes must hold the same code.
"""

from functools import partial

from intervalagg import Interval, RuleEvaluationError, RuleHandle, median_rule_handle

MEDIAN = median_rule_handle()


def refusing(profile):
    raise RuleEvaluationError(f"no outcome for {profile[0]!r}")


def _flaky(threshold, profile, ceiling=None):
    """Median, or an evaluation error when the first lower endpoint is
    below ``threshold`` (never at -20, always at 20), or a ValueError
    when the first upper endpoint is above ``ceiling``."""
    if profile[0].lo < threshold:
        raise RuleEvaluationError(f"refused {profile[0].lo!r}")
    if ceiling is not None and profile[0].hi > ceiling:
        raise ValueError(f"too high: {profile[0].hi!r}")
    return MEDIAN(profile)


def flaky_rule(threshold, ceiling=None):
    return RuleHandle(f"flaky<{threshold}", partial(_flaky, threshold, ceiling=ceiling))


def bounded(profile):
    """Median on endpoints within 50 of 0, else a ValueError.  Only
    translated profiles reach that far."""
    if any(abs(entry.lo) > 50 or abs(entry.hi) > 50 for entry in profile):
        raise ValueError(f"endpoint beyond 50 in {profile!r}")
    return MEDIAN(profile)


def _median_except(mismatches, failures, profile):
    """Median, but one lower on the profiles in ``mismatches`` and a
    ValueError on those in ``failures``, each a set of tuples of pairs."""
    key = tuple(map(tuple, profile))
    if key in failures:
        raise ValueError(f"refused {key!r}")
    outcome = MEDIAN(profile)
    return Interval(outcome.lo - 1, outcome.hi) if key in mismatches else outcome


def median_except(mismatches=(), failures=()):
    return RuleHandle(
        "median-except", partial(_median_except, frozenset(mismatches), frozenset(failures))
    )


def first_agent(profile):
    return profile[0]


def squares(fail_at, start, stop):
    """A range function that is not an audit: the square of each position
    from ``start`` to ``stop - 1``, and a ValueError at ``fail_at``."""
    for position in range(start, stop):
        if position == fail_at:
            raise ValueError(f"no square at {position}")
        yield position * position

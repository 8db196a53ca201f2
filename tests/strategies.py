"""Shared hypothesis strategies for interval and profile generation.

Endpoints are kept in a moderate range so arithmetic in properties stays
well away from overflow, while still exercising negative values, ties
between agents, and very thin intervals.
"""

import hypothesis.strategies as st

from intervalagg import Interval, Profile

finite_values = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)

widths = st.floats(
    min_value=1e-3, max_value=60.0, allow_nan=False, allow_infinity=False
)


@st.composite
def intervals(draw):
    lo = draw(finite_values)
    hi = lo + draw(widths)
    if not hi > lo:
        hi = lo + 1.0
    return Interval(lo, hi)


@st.composite
def profiles(draw, min_agents=1, max_agents=6):
    n = draw(st.integers(min_value=min_agents, max_value=max_agents))
    return Profile(draw(intervals()) for _ in range(n))


@st.composite
def profiles_with_quotas(draw, min_agents=1, max_agents=6):
    """A profile together with a valid (lower, upper) quota pair for it."""
    profile = draw(profiles(min_agents=min_agents, max_agents=max_agents))
    n = len(profile)
    p = draw(st.integers(min_value=1, max_value=n))
    q = draw(st.integers(min_value=1, max_value=n + 1 - p))
    return profile, p, q


@st.composite
def profile_pairs_one_agent_apart(draw, min_agents=1, max_agents=6):
    """Two profiles differing in at most one agent's judgment."""
    profile = draw(profiles(min_agents=min_agents, max_agents=max_agents))
    agent = draw(st.integers(min_value=0, max_value=len(profile) - 1))
    other = profile.replace_agent(agent, draw(intervals()))
    return profile, other, agent

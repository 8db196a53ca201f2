"""
Quota rules as medians with phantom voters
==========================================

Every quota rule can be rewritten as a plain coordinate-wise median
after padding the profile with n + 1 fixed phantom intervals.  The
phantoms use extended-real endpoints: a phantom at (+inf, +inf) pulls
both aggregate bounds upward, one at (-inf, -inf) pulls them downward,
and a whole-line phantom (-inf, +inf) is neutral.  This script builds
the padding for a few quota pairs and checks the equivalence on random
profiles.
"""

import random

from intervalagg import (
    Interval,
    Profile,
    PhantomVector,
    endpoint_rule_handle,
    endpoint_rule_phantoms,
    phantom_rule_handle,
    validate_phantoms,
)

profile = Profile((Interval(2, 4), Interval(3, 6), Interval(1, 5)))
n = len(profile)

############################################################
# For quotas (p, q) over n agents the recipe is: p phantoms at
# (+inf, +inf), q phantoms at (-inf, -inf), and whole-line phantoms
# for the remaining n + 1 - p - q slots.

for lower_quota, upper_quota in ((1, 1), (2, 2), (1, 3)):
    vector = endpoint_rule_phantoms(lower_quota, upper_quota, n)
    print(f"phantoms for ({lower_quota},{upper_quota}):", list(vector))

############################################################
# The generalized median pools the 3 judgments with the 4 phantoms and
# takes the middle order statistic of the 7 lower endpoints and of the
# 7 upper endpoints.  The result matches the direct quota computation.

print()
for lower_quota, upper_quota in ((1, 1), (2, 2), (1, 3)):
    vector = endpoint_rule_phantoms(lower_quota, upper_quota, n)
    pooled = phantom_rule_handle(vector)(profile)
    direct = endpoint_rule_handle(lower_quota, upper_quota)(profile)
    print(f"({lower_quota},{upper_quota}) pooled={pooled} direct={direct}")
    assert pooled == direct

############################################################
# The match is not approximate.  Both paths copy endpoint values out of
# the input, so equality holds bit for bit.  A quick fuzz run over
# random profiles with deliberately tied endpoints confirms it.

pairs = [
    (
        phantom_rule_handle(endpoint_rule_phantoms(lower_quota, upper_quota, n)),
        endpoint_rule_handle(lower_quota, upper_quota),
    )
    for lower_quota, upper_quota in ((1, 1), (2, 2), (3, 1))
]
rng = random.Random(7)
for trial in range(2000):
    entries = []
    for _ in range(n):
        lo = float(rng.randint(-5, 5))
        entries.append(Interval(lo, lo + rng.randint(1, 6)))
    sample = Profile(entries)
    for pooled_rule, direct_rule in pairs:
        assert pooled_rule(sample) == direct_rule(sample)
print()
print("2000 tie-heavy random profiles: pooled and direct outputs identical")

############################################################
# Custom phantom vectors are allowed, but they must pass a validity
# check: at most n phantoms may have lower bound -inf, and at most n
# may have upper bound +inf.  A violating vector could push an aggregate
# bound to infinity, so validate_phantoms names the reason and a handle
# over it refuses to evaluate.

from intervalagg import ExtendedInterval

bad = PhantomVector(
    tuple(
        ExtendedInterval(float("-inf"), float("-inf")) for _ in range(n + 1)
    )
)
print()
print("validate_phantoms:", validate_phantoms(bad, n))
try:
    phantom_rule_handle(bad)(profile)
except ValueError as error:
    print("rejected phantom vector:", error)

"""
A tour of quota rules on interval judgments
===========================================

Three committee members each name an interval of acceptable values,
say for a budget band or a tolerated noise level.  A quota rule builds
the aggregate interval from two order statistics: the lower endpoint is
the p-th smallest of the individual lower endpoints, and the upper
endpoint is the q-th largest of the individual upper endpoints.  This
script walks through the standard members of that family on one small
profile and then sweeps every admissible quota pair.  Each rule is a
handle: a named callable built once and applied to any profile.
"""

from intervalagg import (
    Interval,
    Profile,
    endpoint_rule_handle,
    maximal_rule_handle,
    median_rule_handle,
    valid_quota_pairs,
)

# The running example: three agents with overlapping but distinct views.
profile = Profile((Interval(2, 4), Interval(3, 6), Interval(1, 5)))
print("profile:", profile)

############################################################
# The maximal rule is the most permissive member of the family.  It
# takes the smallest lower endpoint and the largest upper endpoint, so
# anything acceptable to at least one agent is in the aggregate.

print("maximal  f^{1,1}:", maximal_rule_handle()(profile))

############################################################
# The median rule takes the middle lower endpoint and the middle upper
# endpoint.  Each aggregate bound is backed by a majority: at least two
# of the three agents accept values just inside it.

print("median   f^{2,2}:", median_rule_handle()(profile))

############################################################
# Quotas need not match.  With p = 1 and q = 3 the lower bound is
# generous while the upper bound is the strictest one on the table.

skewed = endpoint_rule_handle(lower_quota=1, upper_quota=3)
print(f"skewed   f^{{1,3}} ({skewed.name}):", skewed(profile))

############################################################
# Not every pair (p, q) is admissible.  The constraint p + q <= n + 1
# guarantees the chosen lower endpoint stays strictly below the chosen
# upper endpoint on every profile.  Here is the full sweep for n = 3.

print()
print("  p   q   aggregate")
for lower_quota, upper_quota in valid_quota_pairs(len(profile)):
    output = endpoint_rule_handle(lower_quota, upper_quota)(profile)
    print(f"  {lower_quota}   {upper_quota}   {output}")

############################################################
# Two monotonicity patterns are visible in the table.  Raising p can
# only move the lower bound up, and raising q can only move the upper
# bound down.  The pair (1, 1) therefore gives the widest aggregate and
# the symmetric pairs sit in the middle of the family.

############################################################
# When everyone reports the same interval, every quota rule returns
# exactly that interval.  Order statistics of constant lists are the
# constant, so unanimity costs nothing.

agreed = Profile((Interval(2, 4),) * 3)
for lower_quota, upper_quota in valid_quota_pairs(3):
    output = endpoint_rule_handle(lower_quota, upper_quota)(agreed)
    assert output == Interval(2, 4)
print()
print("unanimous profile (2, 4) x3 reproduced by all",
      len(valid_quota_pairs(3)), "quota pairs")

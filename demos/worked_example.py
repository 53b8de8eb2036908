"""Five matched pairs, worked end to end.

Builds a small censored sample, shows how the time-indexed scores behave
at two analysis times, and runs the time-specific test at each.  The
interesting feature of this dataset: pair 5's score difference changes
sign between the two times, which is exactly the situation where a
max-type combined test earns its keep.
"""

import numpy as np

from pairedsurv import build_sample, pair_differences, score_test

records = [
    ("p1", 1, 1, 8.3, 1), ("p1", 2, 0, 1.8, 1),
    ("p2", 1, 1, 4.8, 1), ("p2", 2, 0, 9.8, 1),
    ("p3", 1, 1, 4.5, 1), ("p3", 2, 0, 11.4, 0),
    ("p4", 1, 1, 5.8, 0), ("p4", 2, 0, 9.4, 1),
    ("p5", 1, 1, 5.9, 1), ("p5", 2, 0, 1.3, 1),
]
sample = build_sample(records)
print(f"{sample.n_pairs} pairs, first position treated in every pair\n")

for tau in (1.3, 5.9):
    d = pair_differences(sample, "pseudo", tau)
    print(f"analysis time tau = {tau}")
    print("  pair differences d_i:", np.round(d, 3))
    res = score_test(sample, "pseudo", tau, gamma=1.0)
    print(f"  statistic {res.statistic:+.3f}, p-value {res.p_value:.3f} "
          f"(benefit = {res.direction} tail)\n")

print("Pair 5 flips sign between the two times: the censored unit in pair 4")
print("leaves the risk set before 5.9, which reshuffles everyone's")
print("contribution to survival at the later time.")

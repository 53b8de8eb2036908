"""Max-type overall test vs the paired Prentice-Wilcoxon statistic.

Simulates matched pairs whose survival curves cross mid-follow-up.  The
PPW statistic aggregates over the whole period, so the early benefit and
late harm cancel; the max over time-specific statistics keeps the early
signal.  The PPW-appended max test is run on a difference matrix built
once, which any number of max tests (other gammas, the other direction)
could share.
"""

from pairedsurv import (ScenarioSpec, diff_matrix, generate_pairs, max_test,
                        overall_test, score_test)

GRID = (1.0, 2.0, 3.0, 4.0, 5.0)

sample = generate_pairs(500, ScenarioSpec("crossing"), seed=7)

overall = overall_test(sample, GRID, gamma=1.0)
ppw = score_test(sample, "pw", gamma=1.0, direction="benefit")

print("crossing-curves sample, I = 500 pairs")
print(f"  max-type statistic {overall.statistic:.3f}  p = {overall.p_value:.4f}")
print(f"  PPW statistic      {ppw.statistic:.3f}  p = {ppw.p_value:.4f}")
print()

diff = diff_matrix(sample, GRID, include_ppw=True)
combined = max_test(diff, gamma=1.0)
print(f"  max-type with a standardized PPW column appended: p = {combined.p_value:.4f}")
print()
print("The max-type test sees the early divergence even though the")
print("whole-period rank statistic has little to say.")

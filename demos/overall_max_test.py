"""Max-type overall test vs the paired Prentice-Wilcoxon statistic.

Simulates matched pairs whose survival curves cross mid-follow-up.  The
PPW statistic aggregates over the whole period, so the early benefit and
late harm cancel; the max over time-specific statistics keeps the early
signal.
"""

from pairedsurv import generate_pairs, overall_test, ppw_test, scenario_spec

GRID = (1.0, 2.0, 3.0, 4.0, 5.0)

sample = generate_pairs(500, scenario_spec("crossing"), seed=7)

overall = overall_test(sample, GRID, gamma=1.0)
ppw = ppw_test(sample, gamma=1.0, direction="benefit")

print("crossing-curves sample, I = 500 pairs")
print(f"  max-type statistic {overall.statistic:.3f}  p = {overall.p_value:.4f}")
print(f"  PPW statistic      {ppw.statistic:.3f}  p = {ppw.p_value:.4f}")
print()

combined = overall_test(sample, GRID, gamma=1.0, include_ppw=True)
print(f"  max-type with a standardized PPW column appended: p = {combined.p_value:.4f}")
print()
print("The max-type test sees the early divergence even though the")
print("whole-period rank statistic has little to say.")

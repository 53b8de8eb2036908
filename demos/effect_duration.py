"""Identifying how long an effect lasts via closed testing.

An early-divergence sample has a strong effect at the start of follow-up
that fades later.  Closed testing adjusts each time-specific p-value to
the maximum over every intersection hypothesis containing it, so the set
of rejected times controls the family-wise error rate.  One difference
matrix serves the closed tests at every gamma.
"""

from pairedsurv import ScenarioSpec, closed_test, diff_matrix, generate_pairs, score_test

GRID = (1.0, 2.0, 3.0, 4.0, 5.0)
sample = generate_pairs(700, ScenarioSpec("early_div"), seed=23)
diff = diff_matrix(sample, GRID)

print("early-divergence sample, I = 700\n")
for gamma in (1.0, 1.2):
    report = closed_test(diff, alpha=0.05, gamma=gamma)
    print(f"gamma = {gamma}")
    print("  tau   single-test p   adjusted p   rejected")
    for tau in GRID:
        single = score_test(sample, "pseudo", tau, gamma).p_value
        print(f"  {tau:3.0f}   {single:13.4f}   {report.adjusted_p[tau]:10.4f}   "
              f"{'yes' if report.rejected[tau] else 'no'}")
    print()
print("Adjusted p-values are never smaller than the single-test ones, and")
print("rejections shrink as gamma grows: duration claims that survive a")
print("larger gamma are the more robust ones.")

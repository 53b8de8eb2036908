"""Worst-case inference under limited departures from randomization.

For each gamma (the cap on the within-pair treatment-odds ratio an
unmeasured confounder could produce), the worst-case p-value is the
largest p over all confounder allocations consistent with that cap.  The
sensitivity value is the gamma where it first clears alpha; its search
runs on the one-column difference matrix at tau.
"""

import numpy as np

from pairedsurv import (ScenarioSpec, diff_matrix, generate_pairs, score_test,
                        sensitivity_value)

sample = generate_pairs(500, ScenarioSpec("ph"), seed=11)
TAU = 4.0

print(f"proportional-hazards benefit sample, I = 500, tau = {TAU}\n")
print("gamma   worst-case p")
for gamma in np.arange(1.0, 1.7, 0.1):
    res = score_test(sample, "pseudo", TAU, gamma=float(gamma))
    print(f"{gamma:5.2f}   {res.p_value:.4f}")

sv = sensitivity_value(diff_matrix(sample, [TAU]), alpha=0.05, tol=1e-3)
print(f"\nsensitivity value at alpha = 0.05: gamma* = {sv.value:.3f}")
print("Below gamma*, no allowed confounder allocation can explain the")
print("association away; above it, some allocation can.")

"""Design sensitivities: how much hidden bias a design can out-grow.

In a favorable situation (a real effect, no hidden bias), the power of a
sensitivity analysis at level gamma tends to 1 or 0 as the sample grows,
depending on whether gamma sits below or above a threshold.  The
threshold is estimated from one large simulated sample per scenario.
Values below 1 mean the effect at that time runs against treatment.
"""

from pairedsurv import ScenarioSpec, StudyConfig, design_sensitivity_study

GRID = (1.0, 2.0, 3.0, 4.0, 5.0)
config = StudyConfig(
    scenarios=tuple(
        ScenarioSpec(sid, censoring_form="covariate_free")
        for sid in ("ph", "early_div", "crossing", "late_div")
    ),
    pairs=100_000,
    replications=1,
    grid=GRID,
    seed=20260808,
)

print("design sensitivities from one sample of 100,000 pairs per scenario\n")
header = "scenario    " + "".join(f"tau={t:<7g}" for t in GRID) + "overall"
print(header)
for res in design_sensitivity_study(config):
    cells = "".join(f"{res.per_tau[t]:<11.3f}" for t in GRID)
    print(f"{res.scenario.id:11s} {cells}{res.overall:.3f}")

print()
print("Crossing curves push the late-time thresholds below 1: at those")
print("times the treatment looks harmful, so no amount of sample size")
print("makes the benefit-direction analysis insensitive.")

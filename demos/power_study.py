"""A small power study across the five effect shapes.

Scaled-down version of the bundled table1.cfg study (fewer replications
so it runs in seconds).  Shows the pattern that motivates the max-type
test: time-specific tests track where the effect lives, the max-type test
stays strong across shapes, and the whole-period rank test collapses when
curves cross or diverge late.
"""

from pairedsurv import ScenarioSpec, StudyConfig, power_study

SCENARIOS = ("no_effect", "ph", "early_div", "crossing", "late_div")
config = StudyConfig(
    scenarios=tuple(ScenarioSpec(sid) for sid in SCENARIOS),
    pairs=500,
    replications=100,
    alpha=0.05,
    grid=(1.0, 2.0, 3.0, 4.0, 5.0),
    seed=99,
)

result = power_study(config)
tests = ["t_tau=1", "t_tau=2", "t_tau=3", "t_tau=4", "t_tau=5", "max", "ppw"]
print(f"rejection rates at alpha = 0.05 ({config.replications} replications, "
      f"I = {config.pairs})\n")
print("scenario    " + "".join(f"{t:>9s}" for t in tests))
for sid in SCENARIOS:
    row = "".join(f"{result.rate(sid, t):9.2f}" for t in tests)
    print(f"{sid:11s} {row}")
print("\nFor the full-scale run: pairedsurv simulate src/pairedsurv/configs/table1.cfg")

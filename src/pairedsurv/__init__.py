"""Randomization inference for matched-pair right-censored outcomes.

Time-specific tests built on jackknife pseudo-observations, a max-type
overall test with multivariate-normal calibration, worst-case sensitivity
analysis under a bounded odds-ratio assignment model, closed testing for
effect duration, design-sensitivity estimation, and a reproducible
simulation engine.
"""

__version__ = "0.1.0"

from .closed import ClosedTestReport, closed_test
from .data import PairedSample, build_sample, load_csv, write_csv
from .design import (
    DesignSensitivityResult,
    MomentEstimates,
    design_sensitivity_overall,
    design_sensitivity_time,
    estimate_moments,
)
from .km import SurvivalCurve, event_table, km_at, km_estimate
from .mvnorm import mvn_cdf
from .overall import (
    DiffMatrix,
    correlations,
    diff_matrix,
    overall_test,
    ppw_test,
)
from .scores import (
    logrank_scores,
    pair_differences,
    pseudo_observations,
    pw_scores,
)
from .sensitivity import (
    SensitivityValue,
    TestResult,
    null_moments,
    pvalue_exact,
    pvalue_montecarlo,
    pvalue_normal,
    sensitivity_value,
    t_statistic,
    time_specific_test,
)
from .simulate import (
    ScenarioSpec,
    StudyConfig,
    calibrate_b,
    design_sensitivity_study,
    generate_pairs,
    nonadmin_censoring_rate,
    power_study,
    sample_censoring_time,
    sample_survival_time,
    scenario_spec,
)

__all__ = [name for name in dir() if not name.startswith("_")]

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
from .design import DesignSensitivityResult
from .km import SurvivalCurve, km_estimate
from .mvnorm import mvn_cdf
from .overall import DiffMatrix, diff_matrix, max_test, overall_test
from .scores import pair_differences
from .sensitivity import (
    SensitivityValue,
    TestResult,
    correlations,
    pvalue_montecarlo,
    score_test,
    sensitivity_value,
)
from .simulate import (
    ScenarioSpec,
    StudyConfig,
    design_sensitivity_study,
    generate_pairs,
    power_study,
)

from types import ModuleType as _ModuleType

__all__ = [name for name, value in globals().items()
           if not (name.startswith("_") or isinstance(value, _ModuleType))]

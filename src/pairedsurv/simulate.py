"""Simulation engine: paired censored outcomes under five effect shapes.

Survival hazards are ``LAM * exp(x + eta(t, z))`` with a pair-level
standard normal frailty ``x`` shared by both units; ``eta`` is linear in
time so cumulative hazards invert in closed form (Gompertz-type draws).
Censoring is exponential with rate ``LAM / b``, optionally multiplied by
``exp(x)``; everything is administratively truncated at ``ADMIN_CUTOFF``.
``b`` is calibrated per scenario so that about 25% of units are censored
before the cutoff.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import PairedSample
from .design import (
    DesignSensitivityResult,
    MomentEstimates,
    design_sensitivity_overall,
    design_sensitivity_time,
    estimate_moments,
)
from .overall import _max_diff, _max_test_from_columns, as_grid, diff_matrix
from .scores import _sign
from .sensitivity import check_gamma, null_moments, pvalue_normal

CENSORING_FORMS = ("covariate_dependent", "covariate_free")
LAM = 0.2  # baseline hazard rate
ADMIN_CUTOFF = 5.0  # administrative end of follow-up

# eta(t, z) = (slope_z * t + intercept_z) * z + slope_common * t
ETA = {
    "no_effect": (0.0, 0.0, 0.0),
    "ph": (0.0, -0.4, 0.0),
    "early_div": (0.1, -0.5, 0.0),
    "crossing": (0.3, -0.6, 0.0),
    "late_div": (-0.14, 0.0, 0.15),
}
SCENARIO_IDS = tuple(ETA)
_SCENARIO_CODE = {sid: i for i, sid in enumerate(SCENARIO_IDS)}

# Frozen calibrate_b output (target 0.25, tol 0.005, probe_i=200000,
# seed 20260808): roughly 25% of units censored before the cutoff.
DEFAULT_B = {
    ("no_effect", "covariate_dependent"): 1.925435,
    ("ph", "covariate_dependent"): 2.078007,
    ("early_div", "covariate_dependent"): 2.078007,
    ("crossing", "covariate_dependent"): 2.001721,
    ("late_div", "covariate_dependent"): 1.772862,
    ("no_effect", "covariate_free"): 1.925435,
    ("ph", "covariate_free"): 2.078007,
    ("early_div", "covariate_free"): 2.078007,
    ("crossing", "covariate_free"): 2.001721,
    ("late_div", "covariate_free"): 1.849149,
}


@dataclass(frozen=True)
class ScenarioSpec:
    """One data-generating process: hazard ``ETA[id]`` plus censoring model.

    Every check on a scenario lives here; ``b`` defaults to ``DEFAULT_B``.
    """

    id: str
    b: float | None = None
    censoring_form: str = "covariate_dependent"

    def __post_init__(self):
        if self.id not in ETA:
            raise ValueError(f"unknown scenario {self.id!r}; know {SCENARIO_IDS}")
        if self.censoring_form not in CENSORING_FORMS:
            raise ValueError(f"censoring_form must be one of {CENSORING_FORMS}")
        if self.b is None:
            object.__setattr__(self, "b", DEFAULT_B[(self.id, self.censoring_form)])
        try:
            ok = _is_real(self.b) and 1.0 < float(self.b) < math.inf
        except OverflowError:  # an int too large for a float
            ok = False
        if not ok:
            raise ValueError(f"'b' of {self.id!r} must be a number > 1 and finite, "
                             f"got {self.b!r}")


scenario_spec = ScenarioSpec


def sample_survival_time(x, z, spec: ScenarioSpec, uniform_draw):
    """Invert the cumulative hazard at ``-log(u)``.

    With time slope k and base rate r = LAM * exp(x + intercept) the
    cumulative hazard is r (e^{kt} - 1)/k (or r t when k = 0); draws whose
    cumulative hazard never reaches -log(u) come back as +inf (they are
    administratively censored downstream).
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(uniform_draw, dtype=float)
    target = -np.log(u)
    slope_z, intercept_z, slope_common = ETA[spec.id]
    k = slope_z * z + slope_common
    r = LAM * np.exp(x + intercept_z * z)
    if k == 0.0:
        out = target / r
    else:
        arg = 1.0 + k * target / r
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(arg > 0.0, np.log(np.maximum(arg, 1e-300)) / k, np.inf)
    return float(out) if out.ndim == 0 else out


def sample_censoring_time(x, spec: ScenarioSpec, uniform_draw):
    """Exponential censoring draw at rate LAM/b (times exp(x) if covariate-dependent)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(uniform_draw, dtype=float)
    rate = LAM / spec.b
    if spec.censoring_form == "covariate_dependent":
        rate = rate * np.exp(x)
    out = -np.log(u) / rate
    return float(out) if out.ndim == 0 else out


def generate_pairs(n_pairs: int, spec: ScenarioSpec, seed) -> PairedSample:
    """Simulate a matched-pair sample, fully determined by the seed.

    Each unit draws one uniform that is inverted under both arms (the
    realized arm follows the random within-pair label) and one censoring
    uniform shared across arms; observed times are truncated at the
    administrative cutoff.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_pairs)[:, None]
    u_surv = 1.0 - rng.random((n_pairs, 2))
    u_cens = 1.0 - rng.random((n_pairs, 2))
    treat_first = rng.random(n_pairs) < 0.5

    s1 = sample_survival_time(x, 1, spec, u_surv)
    s0 = sample_survival_time(x, 0, spec, u_surv)
    cens = sample_censoring_time(x, spec, u_cens)

    treated = np.column_stack((treat_first, ~treat_first))
    surv = np.where(treated, s1, s0)
    cap = np.minimum(cens, ADMIN_CUTOFF)
    times = np.minimum(surv, cap)
    events = surv <= cap
    assignment = np.where(treat_first, 1, -1)
    return PairedSample(times, events, assignment)


def nonadmin_censoring_rate(sample: PairedSample) -> float:
    """Fraction of units censored strictly before the administrative cutoff."""
    return float(np.mean(~sample.unit_events & (sample.unit_times < ADMIN_CUTOFF)))


def calibrate_b(spec: ScenarioSpec, target_rate=0.25, tol=0.005, seed=0,
                probe_i=200_000):
    """Bisect the censoring divisor to a target non-administrative rate.

    The probe sample is regenerated from the same seed at each candidate
    b, so the rate is exactly non-increasing in b and bisection is clean.
    Returns ``(b, achieved_rate)``.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError("target rate must lie strictly between 0 and 1")

    def rate(b):
        probe = generate_pairs(probe_i, replace(spec, b=b), seed)
        return nonadmin_censoring_rate(probe)

    lo, hi = 1.01, 1e4
    r_lo, r_hi = rate(lo), rate(hi)
    if not (r_lo >= target_rate >= r_hi):
        raise ValueError(
            f"target {target_rate} outside achievable range [{r_hi:.4f}, {r_lo:.4f}]"
        )
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        r_mid = rate(mid)
        if abs(r_mid - target_rate) <= tol:
            return mid, r_mid
        if r_mid > target_rate:
            lo = mid
        else:
            hi = mid
    return mid, r_mid


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value):
    if not _is_real(value):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _whole(value):
    """A number with no fractional part, as int; booleans are refused."""
    if _is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer()):
        return int(value)
    raise ValueError(f"must be a whole number, got {value!r}")


def _floats(values):
    if not (isinstance(values, (list, tuple)) and all(map(_is_real, values))):
        raise ValueError(f"must be a list of numbers, got {values!r}")
    return tuple(map(float, values))


_FIELD_TYPES = {"pairs": _whole, "replications": _whole, "alpha": _real, "grid": _floats,
                "seed": _whole, "gammas": _floats, "mvn_tol": _real}


@dataclass(frozen=True)
class StudyConfig:
    """Dimensions of a simulation study.

    Every check on a study value lives here, so a config read from JSON,
    built directly or changed by ``dataclasses.replace`` passes the same
    ones; ``from_dict`` only maps a document onto this class and ScenarioSpec.
    """

    scenarios: tuple
    pairs: int = 500
    replications: int = 2000
    alpha: float = 0.05
    grid: tuple = (1.0, 2.0, 3.0, 4.0, 5.0)
    seed: int = 0
    gammas: tuple = (1.0,)
    mvn_tol: float = 5e-4

    def __post_init__(self):
        for key, convert in _FIELD_TYPES.items():
            try:
                object.__setattr__(self, key, convert(getattr(self, key)))
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"{key!r} {exc}") from None
        if not self.scenarios:
            raise ValueError("'scenarios' must list at least one scenario")
        if not self.gammas:
            raise ValueError("'gammas' must list at least one gamma")
        if self.replications < 1 or self.pairs < 2 or self.seed < 0:
            raise ValueError("need replications >= 1, pairs >= 2 and seed >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        for g in self.gammas:
            check_gamma(g)
        as_grid(self.grid)
        if not self.mvn_tol > 0:
            raise ValueError("mvn_tol must be > 0")

    @classmethod
    def from_dict(cls, doc: dict) -> "StudyConfig":
        """Config from a document; a field it leaves out keeps its default."""
        if not isinstance(doc, dict):
            raise ValueError(f"a config must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"scenarios", "b", "censoring_form", *_FIELD_TYPES}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        b = doc.get("b", {})
        if not isinstance(b, dict):
            raise ValueError(f"'b' must be an object of scenario: divisor, got {type(b).__name__}")
        names = doc.get("scenarios")
        if not (isinstance(names, list) and all(isinstance(sid, str) for sid in names)):
            raise ValueError(f"'scenarios' must be a list of scenario names, got {names!r}")
        unlisted = set(b) - set(names)
        if unlisted:
            raise ValueError(f"'b' names scenarios the config does not list: {sorted(unlisted)}")
        form = doc.get("censoring_form", "covariate_dependent")
        return cls(scenarios=tuple(ScenarioSpec(sid, b.get(sid), form) for sid in names),
                   **{k: doc[k] for k in _FIELD_TYPES if k in doc})

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {"scenarios": [s.id for s in self.scenarios],
                "b": {s.id: s.b for s in self.scenarios},
                "censoring_form": self.scenarios[0].censoring_form,
                **{k: getattr(self, k) for k in _FIELD_TYPES},
                "grid": list(self.grid), "gammas": list(self.gammas)}


def _rep_seed(master, scenario_id, rep, salt=0):
    return np.random.SeedSequence((int(master), _SCENARIO_CODE[scenario_id], int(rep), int(salt)))


@dataclass(frozen=True)
class PowerRow:
    scenario: str
    gamma: float
    test: str
    rejections: int
    replications: int

    @property
    def rate(self) -> float:
        return self.rejections / self.replications

    @property
    def mc_se(self) -> float:
        p = self.rate
        return math.sqrt(p * (1.0 - p) / self.replications)


@dataclass(frozen=True)
class PowerStudyResult:
    config: StudyConfig
    rows: tuple

    def rate(self, scenario, test, gamma=1.0) -> float:
        for row in self.rows:
            if row.scenario == scenario and row.test == test and row.gamma == gamma:
                return row.rate
        raise KeyError((scenario, test, gamma))


def power_study(config: StudyConfig) -> PowerStudyResult:
    """Empirical rejection rates of the time-specific, max, and PPW tests.

    Every test is run in the benefit direction.  Replications use derived
    seeds keyed by (master seed, scenario, replication), so results do not
    depend on evaluation order or worker count.  A max test is decided from
    its column-tail bounds when one of them settles ``p <= alpha``, and
    integrated only otherwise; the counts equal those of the integrated p.
    """
    grid = as_grid(config.grid)
    n_taus = len(grid)
    names = [f"t_tau={tau:g}" for tau in grid] + ["ppw", "max"]
    benefit = _sign("pseudo", "benefit")
    counts = {}
    for spec in config.scenarios:
        for rep in range(config.replications):
            sample = generate_pairs(config.pairs, spec, _rep_seed(config.seed, spec.id, rep))
            diff = diff_matrix(sample, grid, include_ppw=True)
            # every column, the negated PW one included, is pseudo-oriented
            t_cols = benefit * (diff.D.T @ sample.assignment)
            mvn_seed = int(_rep_seed(config.seed, spec.id, rep, salt=7).generate_state(1)[0])
            for gamma in config.gammas:
                mean, variance = null_moments(diff.D, gamma)
                p_cols = pvalue_normal(t_cols, mean, variance)
                _, p_max = _max_test_from_columns(
                    diff.D[:, :n_taus], diff.sigma[:n_taus], sample.assignment,
                    gamma, "normal", orient=benefit, tol=config.mvn_tol,
                    seed=mvn_seed, alpha=config.alpha)
                for name, p in zip(names, [*p_cols, p_max]):
                    key = (spec.id, gamma, name)
                    counts[key] = counts.get(key, 0) + (p <= config.alpha)
    rows = tuple(
        PowerRow(scenario=sid, gamma=g, test=name, rejections=int(c),
                 replications=config.replications)
        for (sid, g, name), c in sorted(counts.items(), key=lambda kv: str(kv[0]))
    )
    return PowerStudyResult(config=config, rows=rows)


def design_sensitivity_study(config: StudyConfig):
    """Design sensitivities from one large sample per scenario.

    Moments are taken on benefit-oriented differences so a beneficial
    effect yields thresholds above 1.  Unless overridden in the scenario
    specs, covariate-free censoring should be used here; the threshold
    formulas assume censoring independent of survival.  A grid time whose
    differences all vanish (before any event) is reported as nan with a
    ``DegenerateColumnWarning``, and the overall value uses the other times.
    """
    grid = as_grid(config.grid)
    results = []
    for spec in config.scenarios:
        if spec.censoring_form != "covariate_free":
            warnings.warn(
                f"scenario {spec.id}: covariate-dependent censoring violates the "
                "random-censoring assumption behind design sensitivities",
                UserWarning,
                stacklevel=2,
            )
        sample = generate_pairs(config.pairs, spec, _rep_seed(config.seed, spec.id, 0))
        diff = _max_diff(sample, grid, False)
        moments = estimate_moments(_sign("pseudo", "benefit") * diff.D, sample.assignment)
        live = diff.sigma > 0.0
        per_tau = {
            float(tau): design_sensitivity_time(moments, l) if live[l] else math.nan
            for l, tau in enumerate(grid)
        }
        overall = math.nan
        if np.any(live):
            overall = design_sensitivity_overall(MomentEstimates(
                moments.e_abs[live], moments.e_dv[live], moments.e_sq[live]))
        results.append(
            DesignSensitivityResult(
                per_tau=per_tau,
                overall=overall,
                sample_size=config.pairs,
                scenario=spec,
            )
        )
    return results

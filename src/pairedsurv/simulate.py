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
import warnings
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from .data import PairedSample
from .design import DesignSensitivityResult, design_sensitivities
from .errors import (_check_real, as_grid, check_alpha, check_gamma, check_reals, check_seed,
                     check_times, check_tol, check_whole)
from .overall import _warn_degenerate
from .scores import _difference_stack, _sign, pair_difference_matrix
from .sensitivity import _column_sums, _column_tests, _max_test_from_columns

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
# the fewest pairs and replications a study takes, from a config or a flag
MIN_PAIRS, MIN_REPLICATIONS = 2, 1
# The most units power_study stacks in one block of samples: 32 samples of
# 500 pairs.  Measured on table1.cfg (single BLAS thread), blocks of 2^12 to
# 2^17 units took 0.74, 0.61, 0.62, 0.59, 0.58 and 0.58 s, and traced a
# peak of 0.5, 1.0, 1.8, 3.5, 6.7 and 13.5 MiB at 64 replications.
_BLOCK_UNITS = 1 << 15
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

    Every rule on a scenario runs here; ``b`` defaults to ``DEFAULT_B``.
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
        _check_real(self.b, lambda b: 1.0 < b < math.inf,
                    f"'b' of {self.id!r} must be a number > 1 and finite")


def _sample_survival_time(x, z, eta, uniform_draw):
    """Invert the cumulative hazard at ``-log(u)``.

    ``eta`` is an ``ETA`` triple and ``z`` is 1 for a treated unit; both
    and ``x`` broadcast against ``uniform_draw``, the result's shape.  With
    time slope k and base rate r = LAM * exp(x + intercept) the cumulative
    hazard is r (e^{kt} - 1)/k (or r t where k = 0); draws whose cumulative
    hazard never reaches -log(u) come back as +inf (they are
    administratively censored downstream).
    """
    target = -np.log(uniform_draw)
    slope_z, intercept_z, slope_common = eta
    k = slope_z * z + slope_common
    r = LAM * np.exp(x + intercept_z * z)
    arg = 1.0 + k * target / r
    # in place, with r freed and arg rebound: a lower peak at large I
    target /= r
    del r
    with np.errstate(invalid="ignore", divide="ignore"):
        arg = np.where(arg > 0.0, np.log(np.maximum(arg, 1e-300)) / k, np.inf)
    return np.where(k == 0.0, target, arg)


def _sample_censoring_time(x, b, covariate_dependent, uniform_draw):
    """Exponential censoring draw at rate LAM/b, times exp(x) where covariate_dependent."""
    rate = LAM / b
    return -np.log(uniform_draw) / np.where(covariate_dependent, rate * np.exp(x), rate)


def _simulate(n_pairs, specs, seeds):
    """Observed times and event flags (R, I, 2) and assignments (R, I) of R
    samples, sample r drawn from scenario ``specs[r]`` and ``seeds[r]``
    (SeedSequence entropy) exactly as ``generate_pairs`` draws one.

    Each sample makes the same four draws, in the same order, from its own
    stream; its scenario enters as (R, 1, 1) arrays, so the survival,
    censoring and cap transforms run once over the stack.
    """
    shape = (len(seeds), n_pairs)
    x = np.empty(shape + (1,))
    u_surv, u_cens = np.empty(shape + (2,)), np.empty(shape + (2,))
    treat_first = np.empty(shape, dtype=bool)
    for r, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.standard_normal(out=x[r, :, 0])
        rng.random(out=u_surv[r])
        rng.random(out=u_cens[r])
        np.less(rng.random(n_pairs), 0.5, out=treat_first[r])
    np.subtract(1.0, u_surv, out=u_surv)
    np.subtract(1.0, u_cens, out=u_cens)

    per_sample = lambda values: np.array(values).T[..., None, None]  # each value as (R, 1, 1)
    treated = np.stack((treat_first, ~treat_first), axis=-1)
    surv = _sample_survival_time(x, treated, per_sample([ETA[s.id] for s in specs]), u_surv)
    cens = _sample_censoring_time(x, per_sample([s.b for s in specs]), per_sample(
        [s.censoring_form == "covariate_dependent" for s in specs]), u_cens)
    cap = np.minimum(cens, ADMIN_CUTOFF)
    return np.minimum(surv, cap), surv <= cap, np.where(treat_first, 1, -1)


def generate_pairs(n_pairs: int, spec: ScenarioSpec, seed) -> PairedSample:
    """Simulate a matched-pair sample, fully determined by the seed.

    Each unit draws one survival uniform, shared by both potential outcomes
    and inverted under the realized arm only (the random within-pair label),
    and one censoring uniform; observed times are truncated at the
    administrative cutoff.  ``seed`` is SeedSequence entropy.
    """
    n_pairs = check_whole(n_pairs, 1, "n_pairs")
    times, events, assignment = _simulate(n_pairs, [spec], [seed])
    return PairedSample(times[0], events[0], assignment[0])


def _nonadmin_censoring_rate(sample: PairedSample) -> float:
    """Fraction of units censored strictly before the administrative cutoff."""
    return float(np.mean(~sample.unit_events & (sample.unit_times < ADMIN_CUTOFF)))


def calibrate_b(spec: ScenarioSpec, target_rate=0.25, tol=0.005, seed=0,
                probe_i=200_000):
    """Bisect the censoring divisor to a target non-administrative rate.

    The probe sample is regenerated from the same seed at each candidate
    b, so the rate is exactly non-increasing in b and bisection is clean.
    Returns ``(b, achieved_rate)``.
    """
    target_rate = _check_real(target_rate, lambda r: 0.0 < r < 1.0,
                              "target rate must lie strictly between 0 and 1")
    tol = check_tol(tol, "tol")

    def rate(b):
        probe = generate_pairs(probe_i, replace(spec, b=b), seed)
        return _nonadmin_censoring_rate(probe)

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


def _real(value, name):
    return _check_real(value, lambda v: True, f"{name} must be a number")


def _floats(values, name):
    rule = f"{name} must be a list of numbers"
    if isinstance(values, (list, tuple)) and np.asarray(values, dtype=object).ndim == 1:
        return tuple(check_reals(values, rule).tolist())
    raise ValueError(f"{rule}, got {values!r}")


# each field's conversion and check, called with the value and name='<field>'
_FIELD_TYPES = {
    "pairs": partial(check_whole, least=MIN_PAIRS),
    "replications": partial(check_whole, least=MIN_REPLICATIONS),
    "alpha": lambda v, name: check_alpha(_real(v, name)),
    "grid": _floats,
    "seed": check_seed,
    "gammas": lambda v, name: tuple(map(check_gamma, _floats(v, name))),
    "mvn_tol": lambda v, name: check_tol(_real(v, name), "mvn_tol"),
}


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
            object.__setattr__(self, key, convert(getattr(self, key), name=repr(key)))
        if not self.scenarios:
            raise ValueError("'scenarios' must list at least one scenario")
        if len({s.censoring_form for s in self.scenarios}) > 1:  # a document names one
            raise ValueError("'scenarios' must share one censoring_form, got "
                             f"{[s.censoring_form for s in self.scenarios]}")
        if not self.gammas:
            raise ValueError("'gammas' must list at least one gamma")
        for key, values in (("scenarios", [s.id for s in self.scenarios]),
                            ("gammas", self.gammas)):
            if len(set(values)) < len(values):
                raise ValueError(f"{key!r} lists an entry more than once: {list(values)}")
        as_grid(self.grid)

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
        with open(path, encoding="utf-8-sig") as fh:
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
    depend on evaluation order, block size or worker count.  Rows follow the
    config: scenario, then gamma, then the grid's tests, ppw and max.  A max
    test is decided from its first-order (column-tail) or second-order
    (pair-tail) bounds when one of them settles ``p <= alpha``, and
    otherwise integrated only until its error bar settles it (``mvn_tol``
    bounds the integrations the bar leaves open);
    a count can differ from that of the fully integrated p only through a
    p within a few error estimates of alpha.

    The samples, taken in scenario order and cut into blocks of at most
    ``_BLOCK_UNITS`` units (a block may span scenarios), run block by
    block, so memory stays bounded whatever the number of replications.
    Each block is drawn in one ``_simulate`` call, sorted once for all of
    its difference matrices, and tested for every gamma in one call per
    test; every count equals that of the sample-by-sample public tests.  A
    degenerate column (a grid time before any event) gives one
    ``DegenerateColumnWarning`` per scenario, naming its replications.
    """
    grid = as_grid(config.grid)
    labels = grid.tolist() + ["ppw"]
    names = [f"t_tau={tau:g}" for tau in grid] + ["ppw", "max"]
    hits = np.zeros((len(config.scenarios), len(config.gammas), len(names)), dtype=np.int64)
    dropped = {}  # (scenario, dropped column indices) -> its replications
    samples = ((s, rep) for s in range(len(config.scenarios))
               for rep in range(config.replications))
    per_block = max(1, _BLOCK_UNITS // (2 * config.pairs))
    while block := list(islice(samples, per_block)):
        rejected, degenerate = _test_block(config, grid, block)
        np.add.at(hits, [s for s, _ in block], rejected)
        for (s, rep), mask in zip(block, degenerate):
            if mask.any():
                dropped.setdefault((s, tuple(np.flatnonzero(mask))), []).append(rep)
    for (s, columns), reps in dropped.items():
        shown = ", ".join(map(str, reps[:5])) + (f" and {len(reps) - 5} more" if reps[5:] else "")
        _warn_degenerate([labels[j] for j in columns],
                         f"scenario {config.scenarios[s].id}, replications {shown}: ")
    rows = tuple(
        PowerRow(scenario=spec.id, gamma=gamma, test=name, rejections=int(hits[s, g, k]),
                 replications=config.replications)
        for s, spec in enumerate(config.scenarios) for g, gamma in enumerate(config.gammas)
        for k, name in enumerate(names)
    )
    return PowerStudyResult(config=config, rows=rows)


def _test_block(config, grid, block):
    """Every test of the samples ``block`` lists as (scenario index,
    replication): ``p <= alpha`` as (R, gammas, tests), in ``power_study``'s
    test order, and the (R, L + 1) mask of each sample's degenerate columns."""
    scenarios = config.scenarios
    times, events, assignment = _simulate(
        config.pairs, [scenarios[s] for s, _ in block],
        [_rep_seed(config.seed, scenarios[s].id, rep) for s, rep in block])
    # every column, the negated PW one included, is pseudo-oriented
    D = _difference_stack(check_times(times.reshape(len(block), -1)),
                          events.reshape(len(block), -1), grid, include_pw=True)
    sums = _column_sums(D, assignment)  # no gamma in them: one set serves every gamma
    sigma = np.sqrt(sums[2])
    mvn_seeds = [int(_rep_seed(config.seed, scenarios[s].id, rep, salt=7).generate_state(1)[0])
                 for s, rep in block]
    benefit, n_taus = _sign("pseudo", "benefit"), len(grid)
    rejected = np.empty((len(block), len(config.gammas), n_taus + 2), dtype=bool)
    for g, gamma in enumerate(config.gammas):
        rejected[:, g, :-1] = _column_tests(sums, gamma, benefit)[3] <= config.alpha
        rejected[:, g, -1] = _max_test_from_columns(
            D[..., :n_taus], sigma[..., :n_taus], assignment, gamma, "normal",
            orient=benefit, tol=config.mvn_tol, seed=mvn_seeds, alpha=config.alpha)[1] \
            <= config.alpha
    return rejected, sigma == 0.0


def design_sensitivity_study(config: StudyConfig) -> list[DesignSensitivityResult]:
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
        per_column, overall = design_sensitivities(
            _sign("pseudo", "benefit") * pair_difference_matrix(sample, grid), sample.assignment)
        _warn_degenerate(grid[np.isnan(per_column)].tolist(), f"scenario {spec.id}: ")
        results.append(
            DesignSensitivityResult(
                per_tau=dict(zip(grid.tolist(), per_column.tolist())),
                overall=overall,
                sample_size=config.pairs,
                scenario=spec,
            )
        )
    return results

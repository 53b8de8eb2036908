import numpy as np
import pytest

from pairedsurv import PairedSample, km_estimate, pair_differences, score_test
from pairedsurv.km import _event_index, km_at
from pairedsurv.scores import (SCORE_KINDS, _difference_stack, _logrank, _pseudo_tables, _pw,
                               _sign, pair_difference_matrix, pseudo_observations)

from conftest import (
    pseudo_blocks_oracle,
    pseudo_observations_naive,
    pw_scores_naive,
    random_units,
    unit_scores,
)


# -- pseudo-observations --------------------------------------------------

def test_two_unit_worked_example_exact():
    tau = 4.0
    q = pseudo_observations([tau + 5, tau - 1], [True, True], tau)
    assert q.tolist() == [1.0, 0.0]


def test_all_events_past_tau_zero():
    # tau beyond every observed time in a fully uncensored sample
    t = np.array([1.0, 2.0, 3.0, 4.0])
    q = pseudo_observations(t, np.ones(4, bool), 10.0)
    np.testing.assert_allclose(q, 0.0, atol=1e-12)


def test_tau_zero_all_ones():
    rng = np.random.default_rng(3)
    t, e = random_units(rng, n=40, round_digits=2)
    t = t + 0.01  # keep times strictly positive
    q = pseudo_observations(t, e, 0.0)
    np.testing.assert_allclose(q, 1.0)


def test_uncensored_pseudo_is_indicator():
    rng = np.random.default_rng(11)
    t = rng.exponential(3.0, 30)
    tau = 2.5
    q = pseudo_observations(t, np.ones(30, bool), tau)
    np.testing.assert_allclose(q, (t > tau).astype(float), atol=1e-12)


def test_fast_equals_naive_on_random_censored_samples():
    rng = np.random.default_rng(0)
    for _ in range(40):
        t, e = random_units(rng)
        tau = float(rng.uniform(0, np.quantile(t, 0.95) + 1))
        fast = pseudo_observations(t, e, tau)
        naive = pseudo_observations_naive(t, e, tau)
        np.testing.assert_allclose(fast, naive, atol=1e-10)


EDGE_CASES = [
    ([1, 2, 3, 4], [0, 0, 0, 0], 2.5),           # no events
    ([1, 2, 3, 3], [1, 0, 1, 1], 5.0),           # all at risk fail at the last time <= tau
    ([1, 2, 3, 4], [0, 1, 0, 1], 4.0),           # the last unit fails alone
    ([1, 2, 2, 2, 5], [1, 1, 1, 1, 0], 3.0),     # all but one fail at a tied time
    ([1, 2, 2, 2], [1, 1, 1, 0], 2.0),           # ... the survivor censored there
    ([1, 2, 3], [1, 1, 0], 0.5),                 # tau before the first event
    ([1, 2, 2, 3, 4], [1, 1, 0, 1, 1], 2.0),     # tau at a tied event time
    ([2, 2], [1, 1], 3.0),                       # two units failing together
    ([1, 1, 1], [1, 0, 0], 1.0),                 # censored ties at an event time = tau
]


@pytest.mark.parametrize("times, events, tau", EDGE_CASES)
def test_fast_equals_naive_on_zero_factors_and_edges(times, events, tau):
    np.testing.assert_allclose(pseudo_observations(times, events, tau),
                               pseudo_observations_naive(times, events, tau), atol=1e-12)


def test_multi_tau_build_equals_naive_on_edges():
    # one build per case over a grid through, between and past every time
    for times, events, tau in EDGE_CASES:
        t = np.asarray(times, dtype=float)
        taus = np.unique(np.concatenate(([0.0, 0.5, tau, t.max() + 3.0], t, t + 0.5)))
        e = np.asarray(events, dtype=bool)
        code, table = _pseudo_tables(e, _event_index(t, e), taus)
        for l, tau in enumerate(taus):
            np.testing.assert_allclose(table(l)[code], pseudo_observations_naive(t, events, tau),
                                       atol=1e-12)


_RNG_ORACLE = np.random.default_rng(29)
ORACLE_CASES = {
    "times rounded to 0.1": (_RNG_ORACLE.exponential(1.0, 300).round(1),
                             _RNG_ORACLE.random(300) < 0.6),
    "events and censorings tied at one time": ([1, 2, 2, 2, 2, 3, 3, 4],
                                               [1, 1, 0, 1, 0, 0, 1, 0]),
    "one pair": ([1.5, 2.5], [1, 0]),
    "all censored": ([1, 2, 2, 4], [0, 0, 0, 0]),
}


@pytest.mark.parametrize("times, events", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_tables_equal_block_oracle_bytes(times, events):
    # tau = 0, at every (tied) observed time, between times and past the last
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    taus = np.unique(np.concatenate(([0.0], t, t + 0.05, [t.max() + 1.0])))
    expected = np.empty((t.size // 2, taus.size + 1))
    pseudo = {}
    for l, units, q in pseudo_blocks_oracle(t, e, _event_index(t, e), taus, block=4):
        pseudo.setdefault(l, []).append(q)
        q = 1.0 - q
        expected[units.start // 2:units.stop // 2, l] = q[0::2] - q[1::2]
    q = unit_scores(_pw, t, e)
    expected[:, -1] = -(q[0::2] - q[1::2])
    sample = PairedSample(t.reshape(-1, 2), e.reshape(-1, 2), np.ones(t.size // 2))
    for include_pw, want in ((False, expected[:, :-1]), (True, expected)):
        D = pair_difference_matrix(sample, taus, include_pw=include_pw)
        assert D.dtype == want.dtype and D.shape == want.shape
        assert D.tobytes(order="F") == want.tobytes(order="F")
    for l, tau in enumerate(taus):
        q = pseudo_observations(t, e, tau)
        assert q.tobytes() == np.concatenate(pseudo[l]).tobytes()


def _stacked_rows():
    """(R, 40) times and events whose rows differ in their event times."""
    rng = np.random.default_rng(37)
    base = rng.exponential(2.0, 40).round(1)
    rows = [
        (base, rng.random(40) < 0.7),                    # ties within the row
        (rng.permutation(base), rng.random(40) < 0.3),  # the same times: ties across rows
        (base, np.zeros(40, dtype=bool)),                # no events
        (base + 1.0, rng.random(40) < 0.7),             # first event after tau = 0.5
        (base, np.arange(40) < 3),                       # three events
    ]
    return tuple(np.array(a) for a in zip(*rows))


def test_stack_equals_one_sample_matrices_bytes():
    t, e = _stacked_rows()
    taus = np.array([0.5, 1.0, 2.0, 3.0, 20.0])
    counts = [_event_index(row_t, row_e)[0].size for row_t, row_e in zip(t, e)]
    assert len(set(counts)) == len(counts) and counts[2] == 0
    for include_pw in (False, True):
        stack = _difference_stack(t, e, taus, include_pw)
        assert stack.shape == (len(t), 20, taus.size + include_pw)
        for r, (row_t, row_e) in enumerate(zip(t, e)):
            one = pair_difference_matrix(
                PairedSample(row_t.reshape(-1, 2), row_e.reshape(-1, 2), np.ones(20)), taus,
                include_pw)
            assert stack[r].strides == one.strides
            assert stack[r].tobytes(order="F") == one.tobytes(order="F")
        sigma = np.sqrt(np.sum(stack ** 2, axis=1))
        # the tau = 0.5 column is degenerate in the late row (and the eventless one) only
        assert np.flatnonzero(sigma[:, 0] == 0.0).tolist() == [2, 3]
        assert (sigma[2] == 0.0).all()


def test_stack_event_index_pads_short_rows_with_unit_factors():
    t, e = _stacked_rows()
    tk, mk, nk, cut = _event_index(t, e)
    for r, (row_t, row_e) in enumerate(zip(t, e)):
        want = _event_index(row_t, row_e)
        k = want[0].size
        for got, one, fill in zip((tk[r], mk[r], nk[r]), want, (np.inf, 0, 2)):
            assert got.dtype == one.dtype and got[:k].tobytes() == one.tobytes()
            assert (got[k:] == fill).all()
        assert cut[r].tobytes() == want[3].tobytes()


def test_naive_two_units():
    # removing one unit leaves the single-unit estimate
    q = pseudo_observations_naive([1.0, 2.0], [True, True], 1.5)
    assert q.tolist() == [0.0, 1.0]


def test_mean_identity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        t, e = random_units(rng)
        tau = float(rng.uniform(0, t.max() + 1))
        q = pseudo_observations(t, e, tau)
        assert np.mean(q) == pytest.approx(km_at(km_estimate(t, e), tau), abs=1e-12)


def test_locality_above_tau_and_censoring():
    # moving a survival time strictly above max(tau, its value) changes nothing
    rng = np.random.default_rng(9)
    t, e = random_units(rng, n=50, round_digits=3)
    tau = float(np.quantile(t, 0.5))
    q = pseudo_observations(t, e, tau)
    movable = np.flatnonzero(t > tau)
    for u in movable[:10]:
        t2 = t.copy()
        t2[u] = t[u] + 37.0
        q2 = pseudo_observations(t2, e, tau)
        keep = np.arange(t.size) != u
        np.testing.assert_allclose(q2[keep], q[keep], atol=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(21)
    t, e = random_units(rng, n=60)
    tau = float(np.median(t))
    q = pseudo_observations(t, e, tau)
    order = rng.permutation(60)
    q2 = pseudo_observations(t[order], e[order], tau)
    np.testing.assert_allclose(q2, q[order], atol=1e-12)


def test_single_unit_rejected():
    with pytest.raises(ValueError, match="at least two units"):
        pseudo_observations([1.0], [True], 0.5)


@pytest.mark.parametrize("tau", [-1.0, np.nan])
def test_bad_tau_rejected(tau):
    with pytest.raises(ValueError, match="tau must be >= 0"):
        pseudo_observations([1.0, 2.0], [True, False], tau)


# -- log-rank and Prentice-Wilcoxon scores --------------------------------

def test_logrank_single_uncensored_zero():
    assert unit_scores(_logrank, [3.0], [True]).tolist() == [0.0]


def test_logrank_hand_example():
    q = unit_scores(_logrank, [1.0, 2.0], [True, False])
    np.testing.assert_allclose(q, [-0.5, 0.5])


def test_logrank_zero_sum_all_events():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 80))
        t = rng.exponential(2.0, n).round(int(rng.integers(0, 2)))
        assert unit_scores(_logrank, t, np.ones(n, bool)).sum() == pytest.approx(0.0, abs=1e-10)


def test_pw_single_uncensored_zero():
    assert unit_scores(_pw, [3.0], [True]).tolist() == [0.0]


def test_pw_hand_example():
    q = unit_scores(_pw, [1.0, 2.0], [True, True])
    np.testing.assert_allclose(q, [-1 / 3, 1 / 3])


_RNG = np.random.default_rng(23)
PW_CASES = {
    "times rounded to 0.1": (_RNG.exponential(1.0, 90).round(1), _RNG.random(90) < 0.6),
    "events and censorings tied at one time": ([1, 2, 2, 2, 2, 3, 3], [1, 1, 0, 1, 0, 0, 1]),
    "all censored": ([1, 2, 2, 4], [0, 0, 0, 0]),
    "one unit, an event": ([3.0], [1]),
    "one unit, censored": ([3.0], [0]),
}


@pytest.mark.parametrize("times, events", PW_CASES.values(), ids=PW_CASES.keys())
def test_pw_scores_match_naive(times, events):
    np.testing.assert_allclose(unit_scores(_pw, times, events), pw_scores_naive(times, events),
                               rtol=0, atol=1e-12)


def test_pw_scores_bounded():
    rng = np.random.default_rng(17)
    for _ in range(30):
        t, e = random_units(rng)
        q = unit_scores(_pw, t, e)
        assert np.all(q >= -1.0) and np.all(q <= 1.0)


def test_scores_grow_with_survival_time():
    # uncensored: both classical scores order units by time
    t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    e = np.ones(5, bool)
    assert np.all(np.diff(unit_scores(_logrank, t, e)) > 0)
    assert np.all(np.diff(unit_scores(_pw, t, e)) > 0)


# -- pair differences ------------------------------------------------------

def test_five_pair_worked_example(five_pairs):
    d13 = pair_differences(five_pairs, "pseudo", 1.3)
    d59 = pair_differences(five_pairs, "pseudo", 5.9)
    assert d13[4] == pytest.approx(-1.0, abs=1e-12)
    assert d59[4] == pytest.approx(0.2, abs=1e-12)


def test_pseudo_differences_oriented_to_event_probability(five_pairs):
    # a pair whose first unit fails earlier gets a positive difference
    d = pair_differences(five_pairs, "pseudo", 5.0)
    # pair p2: first unit failed at 4.8 < 5.0, second alive at 9.8
    assert d[1] > 0


def test_identical_pair_difference_zero():
    from pairedsurv import build_sample

    sample = build_sample([
        ("a", 1, True, 2.0, True), ("a", 2, False, 2.0, True),
        ("b", 1, True, 5.0, False), ("b", 2, False, 1.0, True),
    ])
    for kind, tau in (("pseudo", 3.0), ("logrank", None), ("pw", None)):
        assert pair_differences(sample, kind, tau)[0] == 0.0


def test_pair_differences_are_unit_score_differences(five_pairs):
    t, e = five_pairs.unit_times, five_pairs.unit_events
    for kind, tau, q in (("pseudo", 2.0, 1.0 - pseudo_observations(t, e, 2.0)),
                         ("logrank", None, unit_scores(_logrank, t, e)),
                         ("pw", None, unit_scores(_pw, t, e))):
        np.testing.assert_array_equal(pair_differences(five_pairs, kind, tau),
                                      q[0::2] - q[1::2])


def test_pseudo_requires_tau(five_pairs):
    with pytest.raises(ValueError, match="pseudo scores require tau"):
        pair_differences(five_pairs, "pseudo")
    with pytest.raises(ValueError, match="pseudo scores require tau"):
        score_test(five_pairs, "pseudo", None)


@pytest.mark.parametrize("kind, tau", [("pw", 3.0), ("logrank", -5), ("logrank", 0.0)])
def test_tau_refused_by_tau_free_scores(five_pairs, kind, tau):
    with pytest.raises(ValueError, match=f"{kind} scores take no tau"):
        pair_differences(five_pairs, kind, tau)


def test_sign_mapping():
    # benefit is the lower tail of pseudo differences, the upper of the rest
    assert [_sign(k, "benefit") for k in SCORE_KINDS] == [-1.0, 1.0, 1.0]
    assert [_sign(k, "harm") for k in SCORE_KINDS] == [1.0, -1.0, -1.0]
    for kind, direction in (("pseudo", "lower"), ("pw", "upper"), ("km", "benefit")):
        with pytest.raises(ValueError):
            _sign(kind, direction)

"""Predictor queries are exact against the uncached, loop-based originals.

``HazardPredictor.expected_remaining`` is memoized per observation epoch,
``StaticTablePredictor.expected_remaining`` computes ``S(age)`` once per
query and ``WaveLifetimeModel.cdf`` reads a prefix array of survival
products. None of that may change a single bit of any answer: the
functions below are the straightforward implementations, kept verbatim
as oracles, and every comparison is exact ``==``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predict import HazardPredictor, StaticTablePredictor
from repro.predict.base import INTEGRATION_CAP
from repro.trace.models import (ExponentialLifetimeModel, NoEvictionModel,
                                PercentileLifetimeModel, WaveLifetimeModel)

# ----------------------------------------------------------------------
# oracles: the uncached, loop-based implementations


def oracle_wave_cdf(model, t_seconds):
    survive = 1.0
    for t, severity in model.waves:
        if t <= t_seconds:
            survive *= 1.0 - severity
    return 1.0 - survive


def oracle_cdf(model, t_seconds):
    if isinstance(model, WaveLifetimeModel):
        return oracle_wave_cdf(model, t_seconds)
    return model.cdf(t_seconds)


def oracle_static_survival(self, age, horizon):
    age = max(0.0, age)
    s_age = 1.0 - oracle_cdf(self.model, age)
    if s_age <= 0.0:
        return 0.0
    s_later = 1.0 - oracle_cdf(self.model, age + max(0.0, horizon))
    return min(1.0, max(0.0, s_later / s_age))


def oracle_static_expected_remaining(self, age):
    age = max(0.0, age)
    cap = max(self.horizon, 60.0)
    while (oracle_static_survival(self, age, cap) > 0.01
           and cap < INTEGRATION_CAP):
        cap *= 2.0
    if oracle_static_survival(self, age, cap) > 0.5:
        return math.inf
    steps = 256
    dt = cap / steps
    total = 0.0
    prev = 1.0
    for i in range(1, steps + 1):
        cur = oracle_static_survival(self, age, i * dt)
        total += 0.5 * (prev + cur) * dt
        prev = cur
    return total


def oracle_hazard_expected_remaining(self, age):
    if not self.fitted:
        if self.prior is not None:
            return oracle_static_expected_remaining(self.prior, age)
        return math.inf
    if self._dirty:
        self._refit()
    age = max(0.0, age)
    width = self.bin_seconds
    total = 0.0
    prev = 1.0
    t = age
    while t < self.max_age:
        step = min(width, self.max_age - t)
        t += step
        cur = self.survival(age, t - age)
        total += 0.5 * (prev + cur) * step
        prev = cur
    tail_s = self.survival(age, max(0.0, self.max_age - age)) \
        if age < self.max_age else 1.0
    if age >= self.max_age:
        if self._tail_hazard <= 0.0:
            return math.inf
        return 1.0 / self._tail_hazard
    if tail_s > 0.0:
        if self._tail_hazard <= 0.0:
            return math.inf
        total += tail_s / self._tail_hazard
    return total


# ----------------------------------------------------------------------
# strategies

OFFSETS = [0.0, 30.0, 60.0, 60.0, 240.0, 480.0, 1000.5]

waves_strategy = st.lists(
    st.tuples(st.sampled_from(OFFSETS)
              | st.floats(0.0, 2000.0, allow_nan=False),
              st.sampled_from([1.0, 0.6, 0.5, 0.1])
              | st.floats(1e-6, 1.0, allow_nan=False)),
    max_size=12)

PERCENTILE = PercentileLifetimeModel(
    [(0.10, 60.0), (0.50, 120.0), (0.90, 19 * 60.0)])

prior_models = st.one_of(
    st.just(PERCENTILE),
    st.just(ExponentialLifetimeModel(300.0)),
    st.just(NoEvictionModel()),
    waves_strategy.map(WaveLifetimeModel),
)


def query_times(offsets):
    special = st.sampled_from([0.0, -0.0, -1.0, math.inf, -math.inf,
                               math.nan])
    plain = st.floats(-100.0, 4000.0, allow_nan=False)
    if offsets:
        return st.one_of(special, plain, st.sampled_from(offsets))
    return st.one_of(special, plain)


# ----------------------------------------------------------------------
# WaveLifetimeModel.cdf


@settings(max_examples=200, deadline=None)
@given(data=st.data(), waves=waves_strategy)
def test_wave_cdf_matches_loop(data, waves):
    model = WaveLifetimeModel(waves)
    offsets = [t for t, _ in model.waves]
    for t in data.draw(st.lists(query_times(offsets), min_size=1,
                                max_size=20)):
        assert model.cdf(t) == oracle_wave_cdf(model, t)


def test_wave_cdf_edges():
    model = WaveLifetimeModel([(60.0, 0.5), (60.0, 0.5), (120.0, 1.0)])
    assert model.cdf(math.nan) == 0.0
    assert model.cdf(-math.inf) == 0.0
    assert model.cdf(59.999) == 0.0
    assert model.cdf(60.0) == oracle_wave_cdf(model, 60.0) == 0.75
    assert model.cdf(120.0) == model.cdf(math.inf) == 1.0
    assert WaveLifetimeModel([]).cdf(math.inf) == 0.0


def test_wave_offsets_reject_nan():
    with pytest.raises(ValueError):
        WaveLifetimeModel([(math.nan, 0.5)])


# ----------------------------------------------------------------------
# StaticTablePredictor.expected_remaining


@settings(max_examples=60, deadline=None)
@given(data=st.data(), model=prior_models,
       horizon=st.sampled_from([120.0, 30.0, 600.0]))
def test_static_expected_remaining_matches_loop(data, model, horizon):
    predictor = StaticTablePredictor(model, horizon=horizon)
    offsets = [t for t, _ in getattr(model, "waves", ())]
    for age in data.draw(st.lists(query_times(offsets), min_size=1,
                                  max_size=4)):
        assert predictor.expected_remaining(age) == \
            oracle_static_expected_remaining(predictor, age)
        assert predictor.survival(age, horizon) == \
            oracle_static_survival(predictor, age, horizon)


@pytest.mark.parametrize("model,age", [
    (PERCENTILE, 19 * 60.0 * 3),           # past the table's last lifetime
    (PERCENTILE, 1e6),
    (WaveLifetimeModel([(60.0, 1.0)]), 60.0),   # a wave that kills all
])
def test_static_dead_branch(model, age):
    predictor = StaticTablePredictor(model)
    assert 1.0 - model.cdf(age) <= 0.0
    assert predictor.survival(age, 10.0) == 0.0
    value = predictor.expected_remaining(age)
    assert value == oracle_static_expected_remaining(predictor, age)
    assert value == 0.5 * max(predictor.horizon, 60.0) / 256


# ----------------------------------------------------------------------
# HazardPredictor.expected_remaining under interleaved observations


@st.composite
def hazard_scripts(draw):
    width = draw(st.sampled_from([30.0, 7.5, 60.0]))
    max_age = width * draw(st.integers(1, 40))
    edges = [k * width for k in range(0, 42)]
    lifetime = st.one_of(
        st.sampled_from(edges),
        st.floats(0.0, max_age * 1.5, allow_nan=False),
        st.just(max_age), st.just(max_age * 3.0))
    pool = draw(st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, -5.0, math.nan, max_age,
                                   max_age + 1.0, max_age * 10.0]),
                  st.sampled_from(edges),
                  st.floats(-50.0, max_age * 2.0, allow_nan=False)),
        min_size=1, max_size=6))
    query = st.sampled_from(pool)
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("observe"), lifetime, st.booleans()),
            st.tuples(st.just("query"), query),
            st.tuples(st.just("query"), query)),
        min_size=1, max_size=30))
    return width, max_age, ops


@settings(max_examples=150, deadline=None)
@given(script=hazard_scripts(),
       prior_model=st.one_of(st.none(), prior_models),
       min_observations=st.integers(0, 5))
def test_hazard_expected_remaining_matches_loop(script, prior_model,
                                                min_observations):
    width, max_age, ops = script
    prior = (None if prior_model is None
             else StaticTablePredictor(prior_model))
    predictor = HazardPredictor(bin_seconds=width, max_age=max_age,
                                min_observations=min_observations,
                                prior=prior)
    for op in ops:
        if op[0] == "observe":
            predictor.observe(op[1], censored=op[2])
        else:
            # Close but distinct ages must never share an answer.
            for age in (op[1], op[1] + math.ulp(op[1]), op[1] + 1e-3,
                        op[1] + 0.25, op[1]):
                assert predictor.expected_remaining(age) == \
                    oracle_hazard_expected_remaining(predictor, age)


# ----------------------------------------------------------------------
# the memo is engaged: counted underlying computations


class CountingPrior(StaticTablePredictor):
    def __init__(self, model):
        super().__init__(model)
        self.calls = 0

    def expected_remaining(self, age):
        self.calls += 1
        return super().expected_remaining(age)


class CountingHazard(HazardPredictor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.survival_calls = 0

    def survival(self, age, horizon):
        self.survival_calls += 1
        return super().survival(age, horizon)


def test_cold_start_queries_hit_the_prior_once_per_age_and_epoch():
    prior = CountingPrior(PERCENTILE)
    predictor = HazardPredictor(prior=prior, min_observations=3)
    first = predictor.expected_remaining(100.0)
    assert predictor.expected_remaining(100.0) == first
    assert prior.calls == 1
    # Negative and NaN ages clamp to 0: one more distinct question.
    for age in (0.0, -5.0, math.nan, -0.0):
        predictor.expected_remaining(age)
    assert prior.calls == 2
    predictor.observe(50.0, censored=True)      # censored still clears
    assert predictor.expected_remaining(100.0) == first
    assert prior.calls == 3


def test_fitted_queries_compute_once_per_age_and_epoch():
    predictor = CountingHazard(min_observations=2)
    for lifetime in (90.0, 300.0, 600.0):
        predictor.observe(lifetime)
    value = predictor.expected_remaining(45.0)
    computed = predictor.survival_calls
    assert computed > 0
    for _ in range(5):
        assert predictor.expected_remaining(45.0) == value
    assert predictor.survival_calls == computed
    predictor.observe(120.0)
    again = predictor.expected_remaining(45.0)
    assert predictor.survival_calls > computed
    assert again == oracle_hazard_expected_remaining(predictor, 45.0)


def test_memo_respects_the_fitted_transition():
    prior = CountingPrior(PERCENTILE)
    predictor = HazardPredictor(prior=prior, min_observations=3)
    cold = predictor.expected_remaining(10.0)
    for lifetime in (200.0, 400.0):
        predictor.observe(lifetime)
        assert predictor.expected_remaining(10.0) == cold
    assert prior.calls == 3
    predictor.observe(800.0)                     # crosses min_observations
    assert predictor.fitted
    fitted = predictor.expected_remaining(10.0)
    assert prior.calls == 3
    assert fitted == oracle_hazard_expected_remaining(predictor, 10.0)
    assert fitted != cold

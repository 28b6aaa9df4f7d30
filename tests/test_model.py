import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popctrl import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                     RateFunction, beta_eval, lambda_eval, survival_ratio,
                     validate_hypotheses)
from popctrl.errors import ConfigurationError, DomainError

from conftest import reference_geometry, reference_model


def _check(report, name):
    matches = [c for c in report.checks if name in c.name]
    assert matches, f"no check matching {name!r}"
    return matches[0]


class TestValidation:
    def test_clean_model_passes_everything(self):
        model = DemographicModel(
            male_mortality=RateFunction.constant(0.2),
            female_mortality=RateFunction.constant(0.2),
            fertility=Fertility.separable_pair(
                RateFunction.expression("step(a - 0.15)", "a"),
                RateFunction.expression("p / (1 + p)", "p"), 1.0),
            male_fertility_weight=RateFunction.expression("4 * a * (1 - a)", "a"),
            female_fraction=0.5, fertility_onset=0.15, max_age=1.0)
        geom = ControlGeometry(male_window=(0.05, 0.9), female_window=(0.02, 0.95),
                               horizon=0.5, mode=ControlMode.BOTH)
        report = validate_hypotheses(model, geom)
        assert report.ok

    def test_fertility_without_male_response_fails(self):
        # beta(a, 0) must vanish; a constant response violates it
        model = reference_model()
        broken = DemographicModel(
            male_mortality=model.male_mortality,
            female_mortality=model.female_mortality,
            fertility=Fertility.separable_pair(
                RateFunction.expression("step(a - 0.15)", "a"),
                RateFunction.constant(0.3), 1.0),
            male_fertility_weight=model.male_fertility_weight,
            female_fraction=0.5, fertility_onset=0.15, max_age=1.0)
        report = validate_hypotheses(broken, reference_geometry())
        check = _check(report, "vanishes at zero male population")
        assert not check.passed
        assert "beta" in check.detail  # witness reported

    def test_exact_threshold_is_not_admissible(self):
        geom = reference_geometry(horizon=0.2 + 1.0 - 0.9)  # equality, not strict
        model = reference_model()
        report = validate_hypotheses(model, geom)
        assert report.admissible_time["BOTH"] is False
        assert report.admissible_time["FEMALE_ONLY"] is False
        assert report.admissible_time["MALE_ONLY"] is True  # 0.3 > 0.1

    def test_onset_before_male_window_flagged(self):
        report = validate_hypotheses(reference_model(), reference_geometry())
        check = _check(report, "starts before fertility onset")
        assert not check.passed  # a1=0.2 > onset=0.15 on the reference geometry

    def test_non_evaluable_rate_raises(self):
        model = reference_model()
        bad = DemographicModel(
            male_mortality=RateFunction("broken", lambda a: 1.0 / 0.0, "broken"),
            female_mortality=model.female_mortality,
            fertility=model.fertility,
            male_fertility_weight=model.male_fertility_weight,
            female_fraction=0.5, fertility_onset=0.15, max_age=1.0)
        with pytest.raises(ConfigurationError, match="male_mortality"):
            validate_hypotheses(bad, reference_geometry())


class TestSurvivalRatio:
    def test_zero_mortality(self):
        assert survival_ratio(lambda a: 0.0 * a, 0.1, 0.9) == pytest.approx(1.0)

    def test_empty_interval(self):
        assert survival_ratio(lambda a: 5.0 + 0.0 * a, 0.4, 0.4) == 1.0

    def test_constant_rate_closed_form(self):
        # mu = 0.5 over (0, 2): exp(-1), checked against a fine quadrature
        value = survival_ratio(lambda a: 0.5 + 0.0 * a, 0.0, 2.0)
        assert value == pytest.approx(np.exp(-1.0), abs=1e-10)

    def test_inverted_interval_rejected(self):
        with pytest.raises(DomainError):
            survival_ratio(lambda a: 0.0 * a, 0.5, 0.4)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lo=st.floats(0.0, 1.0), mid=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
    def test_multiplicative_on_model_table(self, lo, mid, hi):
        a, b, c = sorted((lo, mid, hi))
        model = reference_model()
        left = model.survival_ratio("male", a, b)
        right = model.survival_ratio("male", b, c)
        both = model.survival_ratio("male", a, c)
        assert both == pytest.approx(left * right, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lo=st.floats(0.0, 0.5), hi1=st.floats(0.5, 0.75), hi2=st.floats(0.75, 1.0))
    def test_non_increasing_in_upper_limit(self, lo, hi1, hi2):
        model = reference_model()
        assert model.survival_ratio("male", lo, hi2) <= \
            model.survival_ratio("male", lo, hi1) + 1e-12


def test_concurrent_first_use_builds_each_mortality_table_once():
    calls = {"male": 0, "female": 0}

    def slow_rate(which, value):
        def fn(ages):
            calls[which] += 1
            time.sleep(0.05)  # keep the first thread inside the fill
            return np.full_like(ages, value)
        return RateFunction("constant", fn, f"slow constant {which}")

    base = reference_model()
    model = DemographicModel(
        male_mortality=slow_rate("male", 0.2), female_mortality=slow_rate("female", 0.3),
        fertility=base.fertility, male_fertility_weight=base.male_fertility_weight,
        female_fraction=0.6, fertility_onset=0.15, max_age=1.0)
    workers = 4
    start = threading.Barrier(workers, timeout=10)
    errors = []

    def first_use():
        try:
            start.wait()
            model.survival_ratio("male", 0.1, 0.5)
            model.survival_ratio("female", 0.1, 0.5)
        except Exception as exc:  # reported below; a thread must not die silently
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert calls == {"male": 1, "female": 1}


class TestRateEvaluation:
    def test_beta_cutoff_below_onset(self, model):
        assert beta_eval(model, 0.1, 3.0) == 0.0

    def test_beta_zero_population(self, model):
        assert beta_eval(model, 0.5, 0.0) == 0.0

    def test_separable_value(self):
        model = reference_model(beta_amp=1.0)
        assert beta_eval(model, 0.5, 1.0) == pytest.approx(0.5)

    def test_domain_errors(self, model):
        with pytest.raises(DomainError):
            beta_eval(model, 1.5, 1.0)
        with pytest.raises(DomainError):
            lambda_eval(model, -0.1)

    def test_lipschitz_probe_matches_configuration(self, model):
        # response p/(1+p) has Lipschitz constant 1 near zero
        ps = np.linspace(0.0, 10.0, 2001)
        vals = model.fertility.response(ps)
        estimate = np.max(np.abs(np.diff(vals)) / np.diff(ps))
        assert estimate <= model.fertility.response_lipschitz
        assert estimate == pytest.approx(model.fertility.response_lipschitz, rel=0.1)


def test_geometry_invariants():
    with pytest.raises(ConfigurationError):
        ControlGeometry(male_window=(0.5, 0.2), female_window=(0.1, 0.9), horizon=1.0)
    with pytest.raises(ConfigurationError):
        ControlGeometry(male_window=(0.2, 0.5), female_window=(0.1, 0.9), horizon=-1.0)
    geom = ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=0.35)
    assert geom.time_margin(1.0) == pytest.approx(0.05)
    assert geom.time_margin(1.0, ControlMode.MALE_ONLY) == pytest.approx(0.25)

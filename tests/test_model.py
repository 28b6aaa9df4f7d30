import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popctrl import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                     RateFunction, validate_hypotheses)
from popctrl.errors import ConfigurationError
from popctrl.model import _RateSamples, check_rate_samples

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
            male_mortality=RateFunction(lambda a: 1.0 / 0.0),
            female_mortality=model.female_mortality,
            fertility=model.fertility,
            male_fertility_weight=model.male_fertility_weight,
            female_fraction=0.5, fertility_onset=0.15, max_age=1.0)
        with pytest.raises(ConfigurationError, match="male_mortality"):
            validate_hypotheses(bad, reference_geometry())


def _survival(model, lo, hi):
    """pi(hi) / pi(lo) from the model's cumulative male mortality table."""
    return float(np.exp(model.mortality_integral("male", lo)
                        - model.mortality_integral("male", hi)))


@pytest.mark.parametrize("rates, check, detail, message", [
    ({"male_mortality": RateFunction.expression("a - 0.25", "a")},
     "H1: male mortality nonnegative", "mu_m=-0.25 at a=0",
     "male_mortality: negative mortality -0.25 at age 0 violates (H1)"),
    # a pole between the levels p in {0, 1, 10} that the loader once sampled
    ({"fertility": Fertility.separable_pair(
        RateFunction.expression("step(a - 0.15)", "a"),
        RateFunction.expression("p / (1 + p) / (p - 0.5)**2", "p"))},
     "H3: fertility bounded on samples", "non-finite fertility sample",
     "fertility: non-finite value at p=0.5"),
], ids=["negative-mortality", "fertility-pole"])
def test_load_time_checks_read_the_validation_samples(rates, check, detail, message):
    # a model built in the library may fail the checks that reject a scenario
    # file; validate_hypotheses reports them, without numpy warnings, and
    # check_rate_samples raises on the same samples
    model = dataclasses.replace(reference_model(), **rates)
    result = _check(validate_hypotheses(model, reference_geometry()), check)
    assert (result.passed, result.detail) == (False, detail)
    with pytest.raises(ConfigurationError) as error:
        check_rate_samples(model)
    assert str(error.value) == message


def test_fertility_witnesses_name_the_level_and_the_age():
    model = dataclasses.replace(reference_model(), fertility=Fertility.expression("p - 1"))
    report = validate_hypotheses(model, reference_geometry())
    assert [(c.passed, c.detail) for c in report.checks[2:6]] == [
        (False, "beta=-1 at (a=0, p=0)"), (True, ""), (False, "beta=0.25 at (a=0, p=1.25)"),
        (False, "beta(.,0)=-1 at a=0")]


@pytest.mark.parametrize("response", ["p / (1 + p)", "1 - exp(-p) + 0.1 * sin(p)**2"])
def test_separable_samples_equal_the_per_level_calls(response):
    # the samples take one call of each factor, not one call per level
    model = dataclasses.replace(reference_model(), fertility=Fertility.separable_pair(
        RateFunction.expression("step(a - 0.15)", "a"), RateFunction.expression(response, "p")))
    samples = _RateSamples.of(model)
    assert np.array_equal(samples.fertility,
                          [model.fertility(samples.ages, p) for p in samples.levels])


def test_replaced_model_builds_its_own_mortality_table():
    # the filled table of the first model used to be shared by the copy
    model = reference_model()
    assert model.mortality_integral("male", 1.0) == pytest.approx(0.2, rel=1e-12)
    faster = dataclasses.replace(model, male_mortality=RateFunction.constant(1.0))
    assert faster.mortality_integral("male", 1.0) == pytest.approx(1.0, rel=1e-12)


class TestSurvivalRatio:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lo=st.floats(0.0, 1.0), mid=st.floats(0.0, 1.0), hi=st.floats(0.0, 1.0))
    def test_multiplicative_on_model_table(self, lo, mid, hi):
        a, b, c = sorted((lo, mid, hi))
        model = reference_model()
        left = _survival(model, a, b)
        right = _survival(model, b, c)
        both = _survival(model, a, c)
        assert both == pytest.approx(left * right, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(lo=st.floats(0.0, 0.5), hi1=st.floats(0.5, 0.75), hi2=st.floats(0.75, 1.0))
    def test_non_increasing_in_upper_limit(self, lo, hi1, hi2):
        model = reference_model()
        assert _survival(model, lo, hi2) <= _survival(model, lo, hi1) + 1e-12


class TestRateEvaluation:
    def test_beta_cutoff_below_onset(self, model):
        assert model.fertility(0.1, 3.0) == 0.0

    def test_beta_zero_population(self, model):
        assert model.fertility(0.5, 0.0) == 0.0

    def test_separable_value(self):
        model = reference_model(beta_amp=1.0)
        assert model.fertility(0.5, 1.0) == pytest.approx(0.5)

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
    with pytest.raises(ConfigurationError, match="mode: expected a ControlMode"):
        ControlGeometry(male_window=(0.2, 0.5), female_window=(0.1, 0.9), horizon=1.0,
                        mode="BOTH")
    geom = ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=0.35)
    assert geom.time_margin(1.0) == pytest.approx(0.05)
    assert geom.time_margin(1.0, ControlMode.MALE_ONLY) == pytest.approx(0.25)


_ONE = RateFunction.constant(1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: RateFunction.constant(float("nan")), "value: must be finite"),
    (lambda: RateFunction.constant(float("-inf")), "value: must be finite"),
    (lambda: RateFunction.constant(True), "value: expected a number"),
    (lambda: RateFunction.constant(None), "value: expected a number"),
    (lambda: RateFunction.table([0.0, 0.5, 1.0], [0.1, float("inf"), 0.2]),
     "values[1]: must be finite"),
    (lambda: RateFunction.table([0.0, True, 1.0], [0.1, 0.2, 0.3]),
     "points[1]: expected a number"),
    (lambda: RateFunction.table([0.0, 1.0], [0.1, "x"]), "values[1]: expected a number"),
    (lambda: RateFunction.table("x", [0.1, 0.2]), "points: expected a list"),
    (lambda: RateFunction.table([0.0, 1.0], [0.1]),
     "values: expected as many entries as points, at least 2"),
    (lambda: RateFunction.table([1.0, 0.0], [0.1, 0.2]), "points: must be strictly increasing"),
    (lambda: RateFunction.expression(None, "a"),
     "expr: expression must be a non-empty string"),
    (lambda: RateFunction.expression("a + p", "a"), "expr: unknown variable 'p'"),
    (lambda: Fertility.expression("a * q"), "expr: unknown variable 'q'"),
    (lambda: Fertility.separable_pair(_ONE, _ONE, 0.0), "response_lipschitz: must be > 0"),
    (lambda: Fertility.separable_pair(_ONE, _ONE, float("nan")),
     "response_lipschitz: must be finite"),
    (lambda: Fertility.separable_pair(_ONE, _ONE, True),
     "response_lipschitz: expected a number"),
])
def test_rate_constructors_name_the_bad_field(build, message):
    # the scenario parser puts the JSON path before these messages
    with pytest.raises(ConfigurationError) as error:
        build()
    assert str(error.value).startswith(message)


def test_rate_constructors_store_floats():
    assert RateFunction.constant(2)(np.array([0.0, 1.0])).tolist() == [2.0, 2.0]
    table = RateFunction.table(np.array([0, 1]), [np.float32(0.5), 1])
    assert table(0.5) == 0.75
    assert Fertility.separable_pair(_ONE, _ONE, 2).response_lipschitz == 2.0
    assert Fertility.separable_pair(_ONE, _ONE).response_lipschitz is None
    assert Fertility.expression("a * p")(np.array([0.5]), 2.0).tolist() == [1.0]

import dataclasses
import json
import math
import os
import re

import pytest

from popctrl import (ContractionConfig, ControlMode, EpsilonSchedule, FixedPointConfig,
                     ObservabilityConfig, PenaltyProblem, load_scenario, parse_scenario)
from popctrl.errors import ConfigurationError

MINIMAL = {
    "model": {
        "male_mortality": 0.2,
        "female_mortality": 0.3,
        "fertility": {
            "kind": "separable",
            "age_profile": {"kind": "expr", "expr": "step(a - 0.15)"},
            "response": {"kind": "expr", "expr": "p / (1 + p)"},
        },
        "male_fertility_weight": {"kind": "expr", "expr": "4 * a * (1 - a)"},
        "female_fraction": 0.5,
        "fertility_onset": 0.15,
        "max_age": 1.0,
    },
    "geometry": {
        "male_window": [0.2, 0.9],
        "female_window": [0.1, 0.95],
        "horizon": 0.35,
    },
    "grid": {"target_h": 0.05},
    "initial": {"m0": 1.0, "f0": 0.5},
}


PENALTY_RETIRED = ("a stage's penalty weight comes from penalty.schedule.start "
                   "and its ratio")


def _copy():
    return json.loads(json.dumps(MINIMAL))


def test_minimal_scenario_fills_defaults():
    # the echo of a config section is its class's fields, defaults included
    scn = parse_scenario(_copy())
    assert scn.penalty.schedule.stages == 4
    assert scn.fixed_point.fp_tol == 1e-4
    assert scn.geometry.mode is ControlMode.BOTH
    assert scn.output_dir == "."
    assert scn.resolved["geometry"] == {
        "male_window": [0.2, 0.9], "female_window": [0.1, 0.95], "horizon": 0.35,
        "target_min_age": 0.0, "mode": "BOTH"}
    assert scn.resolved["penalty"] == {
        "target_norm": 0.001, "max_cg_iters": 800, "cg_tol": 1e-9,
        "schedule": {"start": 0.01, "ratio": 10.0, "stages": 4}}
    assert scn.resolved["fixed_point"] == {"fp_tol": 1e-4, "max_outer_iters": 40}


def test_absent_analysis_sections_take_the_defaults_and_stay_unresolved():
    # the numbers of the observability and contraction commands take the
    # defaults of their config classes, the sweep lists the geometry's; an
    # absent section must not move the scenario hash
    scn = parse_scenario(_copy())
    assert scn.observability_sweep == {"horizons": [0.35], "male_lo": [0.2], "male_hi": [0.9]}
    assert scn.observability == ObservabilityConfig(power_iters=20, num_traces=3)
    assert scn.contraction == ContractionConfig(trials=50, amplitude=1.0)
    assert "observability" not in scn.resolved and "contraction" not in scn.resolved
    raw = _copy()
    raw["observability"], raw["contraction"] = {}, {}
    explicit = parse_scenario(raw)
    assert (explicit.observability, explicit.observability_sweep, explicit.contraction) == \
        (scn.observability, scn.observability_sweep, scn.contraction)
    assert explicit.resolved["observability"] == {
        "horizons": [0.35], "male_lo": [0.2], "male_hi": [0.9],
        "power_iters": 20, "num_traces": 3}
    assert explicit.resolved["contraction"] == {"trials": 50, "amplitude": 1.0}
    assert explicit.scenario_hash != scn.scenario_hash


def test_unknown_top_level_key_named():
    raw = _copy()
    raw["modle"] = {}
    with pytest.raises(ConfigurationError, match="modle"):
        parse_scenario(raw)


def test_unknown_nested_key_named():
    raw = _copy()
    raw["penalty"] = {"epsilom": 1e-3}
    with pytest.raises(ConfigurationError, match=r"penalty.*epsilom"):
        parse_scenario(raw)


def test_missing_required_key_named():
    raw = _copy()
    del raw["model"]["max_age"]
    with pytest.raises(ConfigurationError, match=r"model.*max_age"):
        parse_scenario(raw)


def test_negative_mortality_table_cites_hypothesis():
    raw = _copy()
    raw["model"]["male_mortality"] = {"kind": "table",
                                      "points": [0.0, 0.5, 1.0],
                                      "values": [0.1, -0.2, 0.3]}
    with pytest.raises(ConfigurationError, match=r"male_mortality.*H1"):
        parse_scenario(raw)


# file errors, each with the JSON path of its field.  The rates are checked
# at load on the samples of `validate`: each message names the sample that
# fails and, for a sign, the hypothesis it violates
FILE_ERRORS = {
    "mortality-nan": ("model.female_mortality", {"kind": "expr", "expr": "0.2 + 0 / a"},
                      "model.female_mortality: non-finite mortality sample"),
    "mortality-negative": ("model.male_mortality", -0.1, "model.male_mortality: negative "
                           "mortality -0.1 at age 0 violates (H1)"),
    "weight-negative": ("model.male_fertility_weight", {"kind": "expr", "expr": "a - 0.5"},
                        "model.male_fertility_weight: negative value -0.5 at age 0 "
                        "violates (H4)"),
    "fertility-nan": ("model.fertility", {"kind": "expr", "expr": "step(a - 0.15) * p / p"},
                      "model.fertility: non-finite value at p=0.0"),
    "fertility-negative": ("model.fertility", {"kind": "expr", "expr": "p - 1"},
                           "model.fertility: negative value -1 at (age 0, p=0.0) "
                           "violates (H2)"),
    "expr-syntax": ("model.male_mortality", {"kind": "expr", "expr": "0.2 *"},
                    "model.male_mortality.expr: cannot parse expression '0.2 *': "),
    "fertility-not-a-kind": ("model.fertility", 0.5, "model.fertility: expected an object "
                             "with a 'kind' in ['expr', 'separable']"),
    "rate-unknown-kind": ("initial.m0", {"kind": "spline", "value": 1.0},
                          "initial.m0: expected an object with a 'kind' in "
                          "['constant', 'expr', 'table']"),
    "window-beyond-max-age": ("geometry.female_window", [0.1, 1.5],
                              "geometry: control windows must lie inside [0, max_age]"),
    "directory-not-a-string": ("output", {"directory": 3},
                               "output.directory: expected a string"),
}


@pytest.mark.parametrize("case", FILE_ERRORS)
def test_file_errors_name_the_field(case):
    slot, value, message = FILE_ERRORS[case]
    raw = _copy()
    *parents, key = slot.split(".")
    node = raw
    for name in parents:
        node = node[name]
    node[key] = value
    with pytest.raises(ConfigurationError) as error:
        parse_scenario(raw)
    assert str(error.value).startswith(message)  # a syntax error adds Python's message


def test_bad_mode_rejected():
    raw = _copy()
    raw["geometry"]["mode"] = "BOTHH"
    with pytest.raises(ConfigurationError, match="geometry.mode"):
        parse_scenario(raw)


def test_fraction_bounds_enforced():
    raw = _copy()
    raw["model"]["female_fraction"] = 1.0
    with pytest.raises(ConfigurationError, match="female_fraction"):
        parse_scenario(raw)


@pytest.mark.parametrize("section, key", [
    ("penalty", "target_norm"),
    ("fixed_point", "fp_tol"), ("geometry", "horizon"), ("model", "max_age"),
    # a NaN constant used to be accepted and flag every contraction probe
    ("model.fertility", "response_lipschitz"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, 10 ** 400],
                         ids=["nan", "inf", "beyond-float"])
def test_non_finite_numbers_rejected(section, key, value):
    # every bound check is False for NaN, so finiteness is checked first; a
    # JSON integer beyond the float range used to end in an OverflowError
    raw = _copy()
    _node(raw, section)[key] = value
    with pytest.raises(ConfigurationError, match=re.escape(f"{section}.{key}: must be finite")):
        parse_scenario(raw)


# every numeric field of the seven configs: (JSON section, field, integer,
# out-of-range value and its message, an integral value in range or None);
# a window entry is a field of the form "<window>[<index>]"
CONFIG_FIELDS = [
    ("model", "female_fraction", False, 1.0, "must be < 1", None),
    ("model", "fertility_onset", False, 1.0, "must be < 1.0", None),
    ("model", "max_age", False, 0.0, "must be > 0", 1),
    ("model", "last_cell_survival", False, 1.5, "must be <= 1", 1),
    ("geometry", "male_window[0]", False, -0.1, "must be >= 0", 0),
    ("geometry", "male_window[1]", False, 0.2, "must be > 0.2", 1),
    ("geometry", "female_window[0]", False, -1.0, "must be >= 0", 0),
    ("geometry", "female_window[1]", False, 0.05, "must be > 0.1", 1),
    ("geometry", "horizon", False, 0.0, "must be > 0", 1),
    ("geometry", "target_min_age", False, -0.5, "must be >= 0", 0),
    ("penalty.schedule", "start", False, 0.0, "must be > 0", 1),
    ("penalty.schedule", "ratio", False, 1.0, "must be > 1", 2),
    ("penalty.schedule", "stages", True, 0, "must be >= 1", None),
    ("penalty", "target_norm", False, -1.0, "must be > 0", 1),
    ("penalty", "max_cg_iters", True, 0, "must be >= 1", None),
    ("penalty", "cg_tol", False, 0.0, "must be > 0", 1),
    ("fixed_point", "fp_tol", False, 0.0, "must be > 0", 1),
    ("fixed_point", "max_outer_iters", True, 0, "must be >= 1", None),
    ("observability", "power_iters", True, 0, "must be >= 1", None),
    ("observability", "num_traces", True, 0, "must be >= 1", None),
    ("contraction", "trials", True, 0, "must be >= 1", None),
    ("contraction", "amplitude", False, 0.0, "must be > 0", 1),
]


def _config_cases():
    for section, field, integer, bad, message, integral in CONFIG_FIELDS:
        kind = "expected an integer" if integer else "expected a number"
        cases = {"range": (bad, message), "nan": (math.nan, "must be finite"),
                 "inf": (math.inf, "must be finite"), "bool": (True, kind),
                 "string": ("1", kind), "null": (None, None)}
        if integer:
            cases.update(nan=(math.nan, kind), inf=(math.inf, kind), fraction=(2.5, kind))
        elif integral is not None:
            cases["integral"] = (integral, None)
        for name, (value, expected) in cases.items():
            yield pytest.param(section, field, value, expected,
                               id=f"{section}.{field}-{name}")


def _node(raw, section):
    for key in section.split("."):
        raw = raw.setdefault(key, {})
    return raw


def _set_field(section, field, value):
    """The MINIMAL document with ``field`` of ``section`` set to ``value``
    (a null window entry nulls the window), the parsed config of that
    section, the field's name and the value the class takes for it."""
    raw, scn = _copy(), parse_scenario(_copy())
    config = {"model": scn.model, "geometry": scn.geometry, "penalty": scn.penalty,
              "penalty.schedule": scn.penalty.schedule,
              "fixed_point": scn.fixed_point, "observability": scn.observability,
              "contraction": scn.contraction}[section]
    name, _, index = field.partition("[")
    if index and value is not None:
        pair = list(getattr(config, name))
        pair[int(index[0])] = value
        _node(raw, section)[name] = pair
        return raw, config, name, tuple(pair)
    _node(raw, section)[name] = value
    return raw, config, name, value


@pytest.mark.parametrize("section, field, value, expected", _config_cases())
def test_config_rules_live_in_the_classes_and_the_file_adds_its_path(
        section, field, value, expected):
    # one rule per field: the class raises "<field>: ..." and the file the
    # same text after its JSON path; among the cases are the values the
    # classes used to accept, such as ControlGeometry(target_min_age=nan),
    # horizon=inf, male_window=(0.2, inf), DemographicModel(max_age=inf),
    # EpsilonSchedule(stages=2.5), PenaltyProblem(max_cg_iters=True) and
    # FixedPointConfig(max_outer_iters=1.5); estimate_observability_constant
    # took power_iters=-3 as 0, and contraction_test trials=True as 1 trial
    # and amplitude=inf
    raw, config, name, library_value = _set_field(section, field, value)
    if expected is not None:
        with pytest.raises(ConfigurationError) as from_library:
            dataclasses.replace(config, **{name: library_value})
        assert str(from_library.value) == f"{field}: {expected}"
        with pytest.raises(ConfigurationError) as from_file:
            parse_scenario(raw)
        assert str(from_file.value) == f"{section}.{field}: {expected}"
    elif value is None:
        # JSON null means the key is absent: the class default, or a missing key
        default = {f.name: f.default for f in dataclasses.fields(config)}[name]
        if default is dataclasses.MISSING:
            with pytest.raises(ConfigurationError,
                               match=rf"^{section}: missing required key\(s\) \['{name}'\]$"):
                parse_scenario(raw)
        else:
            absent = _copy()
            _node(absent, section)
            assert parse_scenario(raw).scenario_hash == parse_scenario(absent).scenario_hash
    else:
        # an integral number is stored as a float, so "max_age": 1 hashes as 1.0
        as_float = _set_field(section, field, float(value))[0]
        assert parse_scenario(raw).scenario_hash == parse_scenario(as_float).scenario_hash
        stored = getattr(dataclasses.replace(config, **{name: library_value}), name)
        assert {type(x) for x in (stored if isinstance(stored, tuple) else [stored])} \
            == {float}


@pytest.mark.parametrize("value", [None, 0.01, 0.0, math.nan],
                         ids=["null", "old-value", "zero", "nan"])
@pytest.mark.parametrize("section, keys, reason", [
    ("penalty", ["epsilon"], PENALTY_RETIRED), ("penalty", ["theta"], PENALTY_RETIRED),
    ("penalty", ["epsilon", "theta"], PENALTY_RETIRED),
    ("fixed_point", ["omega"], "the outer iteration takes the undamped step p <- y")],
    ids=["epsilon", "theta", "both", "omega"])
def test_retired_keys_name_their_replacement(section, keys, reason, value):
    # no stage read penalty.epsilon or penalty.theta, yet both moved the
    # scenario hash, and the outer iteration no longer damps its step: a
    # file that still has any of them is an error whatever the value, one
    # the old bounds took, one they rejected, or null; the retired keys are
    # named before any range or finiteness check
    # (tests/test_cli.py runs them through the CLI)
    raw = _copy()
    raw[section] = dict.fromkeys(keys, value)
    with pytest.raises(ConfigurationError) as info:
        parse_scenario(raw)
    assert str(info.value) == f"{section}: {keys} no longer exist: {reason}"


@pytest.mark.parametrize("value, expected", [
    (0, "must be >= 1"), (2.5, "expected an integer"), (True, "expected an integer"),
    ("8", "expected an integer"), (math.nan, "expected an integer"),
    (math.inf, "expected an integer")],
    ids=["zero", "fraction", "bool", "string", "nan", "inf"])
def test_retired_probes_key_is_still_checked(value, expected):
    # observability.probes counted the random probes that the estimate no
    # longer draws; files in use still carry it, so it loads as long as it
    # is an integer >= 1, and is named when it is not
    raw = _copy()
    raw["observability"] = {"probes": value}
    with pytest.raises(ConfigurationError) as info:
        parse_scenario(raw)
    assert str(info.value) == f"observability.probes: {expected}"


def test_retired_probes_key_has_no_effect():
    # neither the config, nor the echo, nor the hash sees it
    # (tests/test_cli.py checks the command's bytes)
    raw = _copy()
    raw["observability"] = {"power_iters": 20}
    plain = parse_scenario(raw)
    for value in (8, None):
        raw["observability"]["probes"] = value
        legacy = parse_scenario(raw)
        assert "probes" not in legacy.resolved["observability"]
        assert legacy.resolved == plain.resolved
        assert legacy.scenario_hash == plain.scenario_hash
        assert legacy.observability == plain.observability


def test_rate_function_kinds():
    raw = _copy()
    raw["initial"]["m0"] = {"kind": "table", "points": [0.0, 1.0], "values": [1.0, 0.0]}
    raw["initial"]["f0"] = {"kind": "constant", "value": 0.25}
    scn = parse_scenario(raw)
    assert scn.m0(0.5) == pytest.approx(0.5)
    assert scn.f0(0.9) == 0.25


def test_rate_specs_echo_as_written():
    # a spec object echoes its entries as written, so an int value stays an
    # int, and a fertility object echoes raw, null response_lipschitz
    # included; a bare number echoes as a float constant.  The hash last
    # moved when fixed_point.omega left the file format and the echo
    raw = _copy()
    raw["model"]["male_mortality"] = {"kind": "constant", "value": 0}
    raw["model"]["fertility"]["response_lipschitz"] = None
    raw["initial"]["m0"] = 1
    scn = parse_scenario(raw)
    assert scn.resolved["model"]["male_mortality"] == {"kind": "constant", "value": 0}
    assert scn.resolved["initial"]["m0"] == {"kind": "constant", "value": 1.0}
    assert scn.model.fertility.response_lipschitz is None
    assert scn.scenario_hash == \
        "ce2224988665c5ee77e6bb414fc7208b5fb05192f374bb22aaf0bf81958aa5d1"


def test_hash_stable_under_key_order():
    a = parse_scenario(_copy())
    reordered = json.loads(json.dumps(_copy(), sort_keys=True))
    b = parse_scenario(reordered)
    assert a.scenario_hash == b.scenario_hash


def test_example_scenario_loads():
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "example.json")
    scn = load_scenario(path)
    assert scn.model.max_age == 1.0
    assert scn.observability.power_iters == 20
    # plain JSON and sha256: the same on every platform and BLAS.  It last
    # moved when fixed_point.omega left the file format and the echo
    assert scn.scenario_hash == \
        "1e4d8a6bc096f46ca35daaf44a57d34010442654f65d5c19c2f9da5fb9bb537e"


def test_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_scenario("/nonexistent/path.json")

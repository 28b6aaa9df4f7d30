import json
import math
import os

import pytest

from popctrl import (ControlMode, EpsilonSchedule, FixedPointConfig, PenaltyProblem,
                     load_scenario, parse_scenario)
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


def _copy():
    return json.loads(json.dumps(MINIMAL))


def test_minimal_scenario_fills_defaults():
    scn = parse_scenario(_copy())
    assert scn.resolved["penalty"]["epsilon"] == scn.resolved["penalty"]["theta"] == 0.01
    assert scn.penalty.schedule.stages == 4
    assert scn.fixed_point.omega == 0.5
    assert scn.geometry.mode is ControlMode.BOTH
    assert scn.output_dir == "."
    assert scn.resolved["penalty"]["target_norm"] == 0.001


def test_absent_analysis_sections_take_the_defaults_and_stay_unresolved():
    # the defaults of the observability and contraction commands come from
    # the parser alone; an absent section must not move the scenario hash
    scn = parse_scenario(_copy())
    assert scn.observability == {"horizons": [0.35], "male_lo": [0.2], "male_hi": [0.9],
                                 "probes": 16, "power_iters": 0, "num_traces": 3}
    assert scn.contraction == {"trials": 50, "amplitude": 1.0}
    assert "observability" not in scn.resolved and "contraction" not in scn.resolved
    raw = _copy()
    raw["observability"], raw["contraction"] = {}, {}
    explicit = parse_scenario(raw)
    assert (explicit.observability, explicit.contraction) == \
        (scn.observability, scn.contraction)
    assert explicit.resolved["contraction"] == scn.contraction
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


# the library reads every stage's penalty weight off the schedule, so the
# schedule stands in for the file's penalty.epsilon and penalty.theta
@pytest.mark.parametrize("section, key, library", [
    ("penalty", "epsilon", lambda v: EpsilonSchedule(start=v)),
    ("penalty", "theta", lambda v: EpsilonSchedule(start=v)),
    ("penalty", "target_norm", lambda v: PenaltyProblem(target_norm=v)),
    ("fixed_point", "fp_tol", lambda v: FixedPointConfig(fp_tol=v)),
    ("geometry", "horizon", None),
    ("model", "max_age", None),
])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_numbers_rejected(section, key, library, value):
    # every bound check is False for NaN, so finiteness is checked first
    raw = _copy()
    raw.setdefault(section, {})[key] = value
    with pytest.raises(ConfigurationError, match=rf"{section}\.{key}: must be finite"):
        parse_scenario(raw)
    if library is not None:
        with pytest.raises(ConfigurationError, match="finite"):
            library(value)


@pytest.mark.parametrize("key", ["epsilon", "theta"])
def test_unread_penalty_weights_are_still_checked_and_hashed(key):
    # no stage reads penalty.epsilon or penalty.theta, but the file format
    # keeps both: a zero is rejected and a change moves the scenario hash
    raw = _copy()
    raw["penalty"] = {key: 0.0}
    with pytest.raises(ConfigurationError, match=rf"penalty\.{key}: must be > 0"):
        parse_scenario(raw)
    raw["penalty"] = {key: 1e-3}
    scn = parse_scenario(raw)
    assert scn.resolved["penalty"][key] == 1e-3
    assert scn.scenario_hash != parse_scenario(_copy()).scenario_hash


def test_rate_function_kinds():
    raw = _copy()
    raw["initial"]["m0"] = {"kind": "table", "points": [0.0, 1.0], "values": [1.0, 0.0]}
    raw["initial"]["f0"] = {"kind": "constant", "value": 0.25}
    scn = parse_scenario(raw)
    assert scn.m0(0.5) == pytest.approx(0.5)
    assert scn.f0(0.9) == 0.25


def test_hash_stable_under_key_order():
    a = parse_scenario(_copy())
    reordered = json.loads(json.dumps(_copy(), sort_keys=True))
    b = parse_scenario(reordered)
    assert a.scenario_hash == b.scenario_hash


def test_example_scenario_loads():
    path = os.path.join(os.path.dirname(__file__), "..", "scenarios", "example.json")
    scn = load_scenario(path)
    assert scn.model.max_age == 1.0
    assert scn.observability["probes"] == 8
    # plain JSON and sha256: the same on every platform and BLAS
    assert scn.scenario_hash == \
        "bbf7fc62c662923c69534c4b355ddbe239bec42ec78f53d9e3d6b16fdf0cfe6f"


def test_missing_file():
    with pytest.raises(ConfigurationError, match="not found"):
        load_scenario("/nonexistent/path.json")

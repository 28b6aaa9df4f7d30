"""Scenario files: a single JSON document describing one experiment.

Top-level keys: "model", "geometry", "grid", "initial" (required) and
"terminal", "penalty", "fixed_point", "observability", "contraction",
"output" (optional).  Unknown keys anywhere are an error, and error
messages name the offending JSON path.  docs/scenario_schema.md lists
every field; rate functions are {"kind": "constant"|"table"|"expr", ...}
objects or bare numbers.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .control import EpsilonSchedule, PenaltyProblem
from .errors import ConfigurationError
from .fixed_point import FixedPointConfig
from .model import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                    RateFunction)
from .util import canonical_json, sha256_hex

_RATE_KEYS = {"kind", "value", "points", "values", "expr"}


def _require_dict(obj, path):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    return obj


def _check_keys(obj, path, required, optional=()):
    allowed = set(required) | set(optional)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigurationError(f"{path}: missing required key(s) {missing}")


def _number(obj, path, *, default=None, minimum=None, maximum=None,
            strict_min=None, strict_max=None):
    if obj is None:
        if default is None:
            raise ConfigurationError(f"{path}: missing number")
        obj = default
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigurationError(f"{path}: expected a number")
    value = float(obj)
    # NaN passes every comparison below, since each of them is False for it
    if not math.isfinite(value):
        raise ConfigurationError(f"{path}: must be finite")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{path}: must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ConfigurationError(f"{path}: must be <= {maximum}")
    if strict_min is not None and value <= strict_min:
        raise ConfigurationError(f"{path}: must be > {strict_min}")
    if strict_max is not None and value >= strict_max:
        raise ConfigurationError(f"{path}: must be < {strict_max}")
    return value


def _integer(obj, path, *, default=None, minimum=None):
    if obj is None:
        obj = default
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigurationError(f"{path}: expected an integer")
    if minimum is not None and obj < minimum:
        raise ConfigurationError(f"{path}: must be >= {minimum}")
    return obj


def _pair(obj, path):
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise ConfigurationError(f"{path}: expected [lo, hi]")
    return (_number(obj[0], f"{path}[0]"), _number(obj[1], f"{path}[1]"))


def _sanity_check_rates(model):
    """Cheap load-time checks of the demographic hypotheses on samples."""
    ages = np.linspace(0.0, model.max_age, 257)
    for name, rate in (("model.male_mortality", model.male_mortality),
                       ("model.female_mortality", model.female_mortality)):
        values = np.asarray(rate(ages), dtype=float)
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(f"{name}: non-finite mortality sample")
        if np.any(values < 0):
            idx = int(np.argmax(values < 0))
            raise ConfigurationError(
                f"{name}: negative mortality {values[idx]:.6g} at age "
                f"{ages[idx]:.6g} violates (H1)")
    lam = np.asarray(model.male_fertility_weight(ages), dtype=float)
    if np.any(lam < 0):
        idx = int(np.argmax(lam < 0))
        raise ConfigurationError(
            f"model.male_fertility_weight: negative value {lam[idx]:.6g} at age "
            f"{ages[idx]:.6g} violates (H4)")
    for p in (0.0, 1.0, 10.0):
        beta = np.asarray(model.fertility(ages, p), dtype=float)
        if not np.all(np.isfinite(beta)):
            raise ConfigurationError(f"model.fertility: non-finite value at p={p}")
        if np.any(beta < 0):
            idx = int(np.argmax(beta < 0))
            raise ConfigurationError(
                f"model.fertility: negative value {beta[idx]:.6g} at (age "
                f"{ages[idx]:.6g}, p={p}) violates (H2)")


@dataclass
class Scenario:
    model: DemographicModel
    geometry: ControlGeometry
    target_h: float
    m0: RateFunction
    f0: RateFunction
    penalty: PenaltyProblem
    fixed_point: FixedPointConfig
    n_T: RateFunction = None
    l_T: RateFunction = None
    observability: dict = None
    contraction: dict = None
    output_dir: str = "."
    quiet: bool = False
    resolved: dict = None

    @property
    def scenario_hash(self):
        return sha256_hex(canonical_json(self.resolved))

    def sample_initial(self, grid):
        ages = grid.ages()
        return (np.asarray(self.m0(ages), dtype=float),
                np.asarray(self.f0(ages), dtype=float))

    def sample_terminal(self, grid):
        ages = grid.ages()
        zero = np.zeros(ages.size)
        n = zero if self.n_T is None else np.asarray(self.n_T(ages), dtype=float)
        l = zero if self.l_T is None else np.asarray(self.l_T(ages), dtype=float)
        return n, l


def _rate_spec_resolved(spec, path):
    """Echo a validated rate-function spec back in canonical primitive form."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return {"kind": "constant", "value": float(spec)}
    _require_dict(spec, path)
    unknown = sorted(set(spec) - _RATE_KEYS)
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {unknown}")
    return {k: spec[k] for k in sorted(spec)}


def parse_scenario(raw, *, source="scenario"):
    """Validate a parsed JSON document and build the typed scenario."""
    _require_dict(raw, source)
    _check_keys(raw, source,
                required=("model", "geometry", "grid", "initial"),
                optional=("terminal", "penalty", "fixed_point", "observability",
                          "contraction", "output"))
    resolved = {}

    mraw = _require_dict(raw["model"], "model")
    _check_keys(mraw, "model",
                required=("male_mortality", "female_mortality", "fertility",
                          "male_fertility_weight", "female_fraction",
                          "fertility_onset", "max_age"),
                optional=("last_cell_survival",))
    max_age = _number(mraw["max_age"], "model.max_age", strict_min=0.0)
    model = DemographicModel(
        male_mortality=RateFunction.from_spec(mraw["male_mortality"], "a",
                                              "model.male_mortality"),
        female_mortality=RateFunction.from_spec(mraw["female_mortality"], "a",
                                                "model.female_mortality"),
        fertility=Fertility.from_spec(mraw["fertility"], "model.fertility"),
        male_fertility_weight=RateFunction.from_spec(mraw["male_fertility_weight"], "a",
                                                     "model.male_fertility_weight"),
        female_fraction=_number(mraw["female_fraction"], "model.female_fraction",
                                strict_min=0.0, strict_max=1.0),
        fertility_onset=_number(mraw["fertility_onset"], "model.fertility_onset",
                                strict_min=0.0, strict_max=max_age),
        max_age=max_age,
        last_cell_survival=_number(mraw.get("last_cell_survival"),
                                   "model.last_cell_survival",
                                   default=0.0, minimum=0.0, maximum=1.0),
    )
    _sanity_check_rates(model)
    resolved["model"] = {
        "male_mortality": _rate_spec_resolved(mraw["male_mortality"], "model.male_mortality"),
        "female_mortality": _rate_spec_resolved(mraw["female_mortality"],
                                                "model.female_mortality"),
        "fertility": mraw["fertility"],
        "male_fertility_weight": _rate_spec_resolved(mraw["male_fertility_weight"],
                                                     "model.male_fertility_weight"),
        "female_fraction": model.female_fraction,
        "fertility_onset": model.fertility_onset,
        "max_age": model.max_age,
        "last_cell_survival": model.last_cell_survival,
    }

    graw = _require_dict(raw["geometry"], "geometry")
    _check_keys(graw, "geometry",
                required=("male_window", "female_window", "horizon"),
                optional=("target_min_age", "mode"))
    mode_text = graw.get("mode", "BOTH")
    try:
        mode = ControlMode(mode_text)
    except ValueError:
        raise ConfigurationError(
            f"geometry.mode: {mode_text!r} is not one of "
            f"{[m.value for m in ControlMode]}") from None
    geometry = ControlGeometry(
        male_window=_pair(graw["male_window"], "geometry.male_window"),
        female_window=_pair(graw["female_window"], "geometry.female_window"),
        horizon=_number(graw["horizon"], "geometry.horizon", strict_min=0.0),
        target_min_age=_number(graw.get("target_min_age"), "geometry.target_min_age",
                               default=0.0, minimum=0.0),
        mode=mode,
    )
    a1, a2 = geometry.male_window
    b1, b2 = geometry.female_window
    if a2 > max_age or b2 > max_age:
        raise ConfigurationError("geometry: control windows must lie inside [0, max_age]")
    resolved["geometry"] = {
        "male_window": [a1, a2], "female_window": [b1, b2],
        "horizon": geometry.horizon, "target_min_age": geometry.target_min_age,
        "mode": mode.value,
    }

    grraw = _require_dict(raw["grid"], "grid")
    _check_keys(grraw, "grid", required=("target_h",))
    target_h = _number(grraw["target_h"], "grid.target_h", strict_min=0.0)
    resolved["grid"] = {"target_h": target_h}

    iraw = _require_dict(raw["initial"], "initial")
    _check_keys(iraw, "initial", required=("m0", "f0"))
    m0 = RateFunction.from_spec(iraw["m0"], "a", "initial.m0")
    f0 = RateFunction.from_spec(iraw["f0"], "a", "initial.f0")
    resolved["initial"] = {"m0": _rate_spec_resolved(iraw["m0"], "initial.m0"),
                           "f0": _rate_spec_resolved(iraw["f0"], "initial.f0")}

    n_T = l_T = None
    if "terminal" in raw:
        traw = _require_dict(raw["terminal"], "terminal")
        _check_keys(traw, "terminal", required=(), optional=("n_T", "l_T"))
        if "n_T" in traw:
            n_T = RateFunction.from_spec(traw["n_T"], "a", "terminal.n_T")
        if "l_T" in traw:
            l_T = RateFunction.from_spec(traw["l_T"], "a", "terminal.l_T")
        resolved["terminal"] = {k: _rate_spec_resolved(traw[k], f"terminal.{k}")
                                for k in sorted(traw)}

    praw = _require_dict(raw.get("penalty", {}), "penalty")
    _check_keys(praw, "penalty", required=(),
                optional=("epsilon", "theta", "target_norm", "max_cg_iters",
                          "cg_tol", "schedule"))
    sraw = _require_dict(praw.get("schedule", {}), "penalty.schedule")
    _check_keys(sraw, "penalty.schedule", required=(), optional=("start", "ratio", "stages"))
    schedule = EpsilonSchedule(
        start=_number(sraw.get("start"), "penalty.schedule.start",
                      default=1e-2, strict_min=0.0),
        ratio=_number(sraw.get("ratio"), "penalty.schedule.ratio",
                      default=10.0, strict_min=1.0),
        stages=_integer(sraw.get("stages"), "penalty.schedule.stages",
                        default=4, minimum=1),
    )
    # epsilon and theta are checked and hashed, and read by nothing: every
    # stage's penalty weight comes from the schedule
    epsilon = _number(praw.get("epsilon"), "penalty.epsilon", default=1e-2, strict_min=0.0)
    theta = _number(praw.get("theta"), "penalty.theta", default=1e-2, strict_min=0.0)
    penalty = PenaltyProblem(
        target_norm=_number(praw.get("target_norm"), "penalty.target_norm",
                            default=1e-3, strict_min=0.0),
        max_cg_iters=_integer(praw.get("max_cg_iters"), "penalty.max_cg_iters",
                              default=800, minimum=1),
        cg_tol=_number(praw.get("cg_tol"), "penalty.cg_tol", default=1e-9,
                       strict_min=0.0),
        schedule=schedule,
    )
    resolved["penalty"] = {
        "epsilon": epsilon, "theta": theta,
        "target_norm": penalty.target_norm, "max_cg_iters": penalty.max_cg_iters,
        "cg_tol": penalty.cg_tol,
        "schedule": {"start": schedule.start, "ratio": schedule.ratio,
                     "stages": schedule.stages},
    }

    fraw = _require_dict(raw.get("fixed_point", {}), "fixed_point")
    _check_keys(fraw, "fixed_point", required=(),
                optional=("omega", "fp_tol", "max_outer_iters"))
    fixed_point = FixedPointConfig(
        omega=_number(fraw.get("omega"), "fixed_point.omega", default=0.5,
                      strict_min=0.0, maximum=1.0),
        fp_tol=_number(fraw.get("fp_tol"), "fixed_point.fp_tol", default=1e-4,
                       strict_min=0.0),
        max_outer_iters=_integer(fraw.get("max_outer_iters"),
                                 "fixed_point.max_outer_iters", default=40, minimum=1),
    )
    resolved["fixed_point"] = {"omega": fixed_point.omega, "fp_tol": fixed_point.fp_tol,
                               "max_outer_iters": fixed_point.max_outer_iters}

    # an absent section takes the defaults, and stays out of ``resolved`` so
    # that the scenario hash does not move
    oraw = _require_dict(raw.get("observability", {}), "observability")
    _check_keys(oraw, "observability", required=(),
                optional=("horizons", "male_lo", "male_hi", "probes",
                          "power_iters", "num_traces"))
    observability = {
        "horizons": [_number(v, "observability.horizons[]", strict_min=0.0)
                     for v in oraw.get("horizons", [geometry.horizon])],
        "male_lo": [_number(v, "observability.male_lo[]", minimum=0.0)
                    for v in oraw.get("male_lo", [a1])],
        "male_hi": [_number(v, "observability.male_hi[]", strict_min=0.0)
                    for v in oraw.get("male_hi", [a2])],
        "probes": _integer(oraw.get("probes"), "observability.probes",
                           default=16, minimum=1),
        "power_iters": _integer(oraw.get("power_iters"), "observability.power_iters",
                                default=0, minimum=0),
        "num_traces": _integer(oraw.get("num_traces"), "observability.num_traces",
                               default=3, minimum=1),
    }
    craw = _require_dict(raw.get("contraction", {}), "contraction")
    _check_keys(craw, "contraction", required=(), optional=("trials", "amplitude"))
    contraction = {
        "trials": _integer(craw.get("trials"), "contraction.trials", default=50, minimum=1),
        "amplitude": _number(craw.get("amplitude"), "contraction.amplitude",
                             default=1.0, strict_min=0.0),
    }
    for section, config in (("observability", observability), ("contraction", contraction)):
        if section in raw:
            resolved[section] = config

    output_dir = "."
    quiet = False
    if "output" in raw:
        oraw = _require_dict(raw["output"], "output")
        _check_keys(oraw, "output", required=(), optional=("directory", "quiet"))
        directory = oraw.get("directory", ".")
        if not isinstance(directory, str):
            raise ConfigurationError("output.directory: expected a string")
        output_dir = directory
        quiet = bool(oraw.get("quiet", False))
    resolved["output"] = {"directory": output_dir, "quiet": quiet}

    return Scenario(model=model, geometry=geometry, target_h=target_h,
                    m0=m0, f0=f0, penalty=penalty, fixed_point=fixed_point,
                    n_T=n_T, l_T=l_T, observability=observability,
                    contraction=contraction, output_dir=output_dir, quiet=quiet,
                    resolved=resolved)


def load_scenario(path):
    """Read, schema-check and resolve a scenario file."""
    if not os.path.exists(path):
        raise ConfigurationError(f"scenario file not found: {path}")
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    return parse_scenario(raw, source=os.path.basename(path))

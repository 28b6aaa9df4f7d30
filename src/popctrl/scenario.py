"""Scenario files, each a single JSON document describing one experiment,
and sweep files, which run the control pipeline over the values of some of
a scenario's numbers.

Top-level keys: "model", "geometry", "grid", "initial" (required) and
"terminal", "penalty", "fixed_point", "observability", "contraction",
"output" (optional).  Unknown keys anywhere are an error, and a null value
means the key is absent.  docs/scenario_schema.md lists every field.

The parser keeps the file format: a spec's "kind", a bare number as a
constant rate, the mode string, grid.target_h, the observability sweep
lists, the output section, the control windows inside [0, max_age], the
retired keys penalty.epsilon, penalty.theta and fixed_point.omega, which
are an error, and the retired key observability.probes, an integer >= 1
that has no effect and no echo in ``resolved``.
The fields of DemographicModel, ControlGeometry, PenaltyProblem,
EpsilonSchedule, FixedPointConfig, ObservabilityConfig and
ContractionConfig, which hold the defaults and bounds, are the keys of
their sections and, all but the model's, their echo in ``resolved``; a
rate spec's keys are the arguments of a RateFunction or Fertility
constructor.  A library error names the field ("values[1]: must be
finite"), and a file error puts the JSON path before it.  The model's rates
are then checked on the samples that the ``validate`` command reads, by
``model.check_rate_samples``: a non-finite sample of any rate, or a
negative mortality (H1), fertility (H2) or male weight (H4), rejects the
file.
"""

import itertools
import json
import os
from dataclasses import MISSING, asdict, dataclass, fields
from enum import Enum

import numpy as np

from .control import EpsilonSchedule, PenaltyProblem
from .errors import ConfigurationError, checked, checked_list
from .fixed_point import ContractionConfig, FixedPointConfig
from .model import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                    RateFunction, check_rate_samples)
from .observability import ObservabilityConfig
from .util import canonical_json, sha256_hex


def _section(obj, path, required=(), optional=()):
    """The non-null entries of the JSON object ``obj`` at ``path``: every key
    must be in ``required`` or ``optional``, and every required one non-null,
    since a null value means the key is absent."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    unknown = obj.keys() - {*required, *optional}
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {sorted(unknown)}")
    present = {key: value for key, value in obj.items() if value is not None}
    missing = [key for key in required if key not in present]
    if missing:
        raise ConfigurationError(f"{path}: missing required key(s) {sorted(missing)}")
    return present


def _built(path, constructor, **kwargs):
    """``constructor(**kwargs)``; the constructor names the field in its
    error, and the JSON ``path`` goes before it."""
    try:
        return constructor(**kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}.{exc}") from None


def _keys(cls):
    """The required and the optional keys of the section of the config class
    ``cls``: its public fields, required where the class has no default."""
    public = [f for f in fields(cls) if not f.name.startswith("_")]
    required = [f.name for f in public if f.default is MISSING and f.default_factory is MISSING]
    return required, [f.name for f in public if f.name not in required]


def _config(cls, path, section, **built):
    """``cls`` from ``built`` and the entries of ``section`` that name its
    other fields, so an absent entry takes the class default."""
    names = {f.name for f in fields(cls)} - set(built)
    return _built(path, cls, **built, **{k: v for k, v in section.items() if k in names})


def _echo(config):
    """The echo of ``config`` in ``resolved``: its fields by name, an enum as
    its value, a window as a list and a nested config as an object."""
    return asdict(config, dict_factory=lambda items: {
        name: value.value if isinstance(value, Enum) else
        list(value) if isinstance(value, tuple) else value for name, value in items})


def _spec(spec, path, kinds):
    """The "kind" of the spec object at ``path`` and its other non-null
    entries: ``kinds`` maps each kind to its ``_section`` keys."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigurationError(f"{path}: expected an object with a 'kind' in {sorted(kinds)}")
    entries = _section(spec, path, *kinds[kind])
    return entries.pop("kind"), entries


# the required and optional keys of each kind; but for "kind", they are the
# arguments of the kind's constructor
_RATES = {"constant": (("kind", "value"), ()), "table": (("kind", "points", "values"), ()),
          "expr": (("kind", "expr"), ())}
_FERTILITIES = {"separable": (("kind", "age_profile", "response"), ("response_lipschitz",)),
                "expr": (("kind", "expr"), ())}


def _rate(spec, path, variable="a"):
    """The rate function of ``variable`` given by the spec at ``path``, and
    its echo in ``resolved``: a bare number is a float constant."""
    if not isinstance(spec, dict):
        value = checked(path, spec)
        return RateFunction.constant(value), {"kind": "constant", "value": value}
    kind, entries = _spec(spec, path, _RATES)
    if kind == "expr":
        return _built(path, RateFunction.expression, variable=variable, **entries), spec
    return _built(path, getattr(RateFunction, kind), **entries), spec


def _fertility(spec, path):
    kind, entries = _spec(spec, path, _FERTILITIES)
    if kind == "expr":
        return _built(path, Fertility.expression, **entries)
    entries["age_profile"] = _rate(entries["age_profile"], f"{path}.age_profile")[0]
    entries["response"] = _rate(entries["response"], f"{path}.response", "p")[0]
    return _built(path, Fertility.separable_pair, **entries)


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
    observability: ObservabilityConfig = None
    observability_sweep: dict = None
    contraction: ContractionConfig = None
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


def _document(raw, source):
    return _section(raw, source, required=("model", "geometry", "grid", "initial"),
                    optional=("terminal", "penalty", "fixed_point", "observability",
                              "contraction", "output"))


# the keys that left the file format, per section, and what took their place
_RETIRED = {
    "penalty": (("epsilon", "theta"), "a stage's penalty weight comes from "
                "penalty.schedule.start and its ratio"),
    "fixed_point": (("omega",), "the outer iteration takes the undamped step p <- y"),
}


def parse_scenario(raw, *, source="scenario"):
    """Validate a parsed JSON document and build the typed scenario."""
    raw = _document(raw, source)
    for section, (keys, reason) in _RETIRED.items():
        retired = [key for key in keys if isinstance(raw.get(section), dict)
                   and key in raw[section]]
        if retired:
            raise ConfigurationError(f"{section}: {retired} no longer exist: {reason}")
    resolved = {}

    mraw = _section(raw["model"], "model", *_keys(DemographicModel))
    rates = {name: _rate(mraw[name], f"model.{name}")
             for name in ("male_mortality", "female_mortality", "male_fertility_weight")}
    model = _config(DemographicModel, "model", mraw,
                    **{name: rate for name, (rate, _) in rates.items()},
                    fertility=_fertility(mraw["fertility"], "model.fertility"))
    _built("model", check_rate_samples, model=model)
    resolved["model"] = {
        **{name: echo for name, (_, echo) in rates.items()},
        "fertility": mraw["fertility"],
        "female_fraction": model.female_fraction,
        "fertility_onset": model.fertility_onset,
        "max_age": model.max_age,
        "last_cell_survival": model.last_cell_survival,
    }

    graw = _section(raw["geometry"], "geometry", *_keys(ControlGeometry))
    mode = {}
    if "mode" in graw:
        try:
            mode["mode"] = ControlMode(graw["mode"])
        except ValueError:
            raise ConfigurationError(
                f"geometry.mode: {graw['mode']!r} is not one of "
                f"{[m.value for m in ControlMode]}") from None
    geometry = _config(ControlGeometry, "geometry", graw, **mode)
    a1, a2 = geometry.male_window
    if max(a2, geometry.female_window[1]) > model.max_age:
        raise ConfigurationError("geometry: control windows must lie inside [0, max_age]")
    resolved["geometry"] = _echo(geometry)

    grraw = _section(raw["grid"], "grid", required=("target_h",))
    target_h = checked("grid.target_h", grraw["target_h"], gt=0)
    resolved["grid"] = {"target_h": target_h}

    iraw = _section(raw["initial"], "initial", required=("m0", "f0"))
    (m0, m0_echo), (f0, f0_echo) = (_rate(iraw[k], f"initial.{k}") for k in ("m0", "f0"))
    resolved["initial"] = {"m0": m0_echo, "f0": f0_echo}

    terminal = {}
    if "terminal" in raw:
        traw = _section(raw["terminal"], "terminal", optional=("n_T", "l_T"))
        terminal = {k: _rate(spec, f"terminal.{k}") for k, spec in traw.items()}
        resolved["terminal"] = {k: echo for k, (_, echo) in terminal.items()}
    n_T, l_T = (terminal[k][0] if k in terminal else None for k in ("n_T", "l_T"))

    praw = _section(raw.get("penalty", {}), "penalty", *_keys(PenaltyProblem))
    schedule = _config(EpsilonSchedule, "penalty.schedule",
                       _section(praw.get("schedule", {}), "penalty.schedule",
                                *_keys(EpsilonSchedule)))
    penalty = _config(PenaltyProblem, "penalty", praw, schedule=schedule)
    resolved["penalty"] = _echo(penalty)

    fixed_point = _config(FixedPointConfig, "fixed_point",
                          _section(raw.get("fixed_point", {}), "fixed_point",
                                   *_keys(FixedPointConfig)))
    resolved["fixed_point"] = _echo(fixed_point)

    # an absent section takes the defaults, and stays out of ``resolved`` so
    # that the scenario hash does not move
    oraw = _section(raw.get("observability", {}), "observability", optional=(
        "horizons", "male_lo", "male_hi", "probes", *_keys(ObservabilityConfig)[1]))
    if "probes" in oraw:
        # the retired random-probe count: still checked, then ignored
        checked("observability.probes", oraw["probes"], ge=1, integer=True)
    # the swept male windows lie inside [0, max_age], as the geometry's do
    observability_sweep = {
        key: checked_list(f"observability.{key}", oraw.get(key, [default]), **rule)
        for key, default, rule in (
            ("horizons", geometry.horizon, {"gt": 0}),
            ("male_lo", a1, {"ge": 0, "le": model.max_age}),
            ("male_hi", a2, {"gt": 0, "le": model.max_age}))}
    observability = _config(ObservabilityConfig, "observability", oraw)
    contraction = _config(ContractionConfig, "contraction",
                          _section(raw.get("contraction", {}), "contraction",
                                   *_keys(ContractionConfig)))
    if "observability" in raw:
        resolved["observability"] = {**observability_sweep, **_echo(observability)}
    if "contraction" in raw:
        resolved["contraction"] = _echo(contraction)

    outraw = _section(raw.get("output", {}), "output", optional=("directory", "quiet"))
    output_dir = outraw.get("directory", ".")
    if not isinstance(output_dir, str):
        raise ConfigurationError("output.directory: expected a string")
    quiet = outraw.get("quiet", False)
    if not isinstance(quiet, bool):
        raise ConfigurationError("output.quiet: expected true or false")
    resolved["output"] = {"directory": output_dir, "quiet": quiet}

    return Scenario(model=model, geometry=geometry, target_h=target_h,
                    m0=m0, f0=f0, penalty=penalty, fixed_point=fixed_point,
                    n_T=n_T, l_T=l_T, observability=observability,
                    observability_sweep=observability_sweep, contraction=contraction,
                    output_dir=output_dir, quiet=quiet, resolved=resolved)


def _read_json(path):
    if not os.path.exists(path):
        raise ConfigurationError(f"scenario file not found: {path}")
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc


def load_scenario(path):
    """Read, schema-check and resolve a scenario file."""
    return parse_scenario(_read_json(path), source=os.path.basename(path))


@dataclass
class Sweep:
    """A parsed sweep file: the swept JSON paths of the base scenario and one
    (values, scenario) run per combination of their values, in
    ``itertools.product`` order."""

    paths: list
    runs: list
    # a sweep file has no output section: the command-line defaults hold
    output_dir = "."
    quiet = False


def _set_path(raw, dotted, value, where):
    *parents, last = dotted.split(".")
    node = raw
    for key in parents:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise ConfigurationError(f"{where}: {dotted!r} is not in the base scenario")
    node[last] = value


def _with_grid_h(raw, grid_h):
    """``raw`` with grid.target_h replaced by ``grid_h``, when given; a
    document without a grid object is left for the parser to report."""
    if grid_h is not None and isinstance(raw, dict) and isinstance(raw.get("grid"), dict):
        raw = dict(raw, grid=dict(raw["grid"], target_h=grid_h))
    return raw


def _parse_sweep(raw, source, directory, grid_h):
    """Every run of a sweep file, each parsed before any of them is run.

    ``base`` is a scenario object or a file name relative to ``directory``;
    each ``parameters`` entry names a ``path`` present in it and the list of
    ``values`` swept there.  An error in a run's scenario names its path
    under ``base``."""
    sweep = _section(raw, source, required=("base", "parameters"))
    base = sweep["base"]
    if isinstance(base, str):
        base = _read_json(os.path.join(directory, base))
    if not isinstance(base, dict):
        raise ConfigurationError("base: expected an object")
    base = _with_grid_h(base, grid_h)
    parameters = sweep["parameters"]
    if not isinstance(parameters, list) or not parameters:
        raise ConfigurationError("parameters: expected a non-empty list")
    items = [_section(item, f"parameters[{k}]", required=("path", "values"))
             for k, item in enumerate(parameters)]
    for k, item in enumerate(items):
        if not isinstance(item["path"], str):
            raise ConfigurationError(f"parameters[{k}].path: expected a string")
        if not isinstance(item["values"], list):
            raise ConfigurationError(f"parameters[{k}].values: expected a list")
    runs = []
    for values in itertools.product(*(item["values"] for item in items)):
        run = json.loads(json.dumps(base))
        for k, (item, value) in enumerate(zip(items, values)):
            _set_path(run, item["path"], value, f"parameters[{k}].path")
        try:
            runs.append((list(values), parse_scenario(run, source="base")))
        except ConfigurationError as exc:
            message = str(exc)  # a document-level error already starts with "base:"
            raise ConfigurationError(
                message if message.startswith("base:") else f"base.{message}") from None
    return Sweep(paths=[item["path"] for item in items], runs=runs)


def load_input(path, command, grid_h=None):
    """The parsed input file of the CLI command ``command``: a Sweep for
    "sweep", a Scenario for any other.  ``grid_h``, when given, replaces
    grid.target_h (the base scenario's, in a sweep file) before any check."""
    raw = _read_json(path)
    if command == "sweep":
        return _parse_sweep(raw, os.path.basename(path), os.path.dirname(path), grid_h)
    return parse_scenario(_with_grid_h(raw, grid_h), source=os.path.basename(path))

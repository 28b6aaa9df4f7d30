"""Demographic model data: mortality, fertility, control geometry, validation.

Rate functions come in three flavours (constant, tabulated with linear
interpolation, closed-form expression) so that scenario files are fully
self-contained.  Mortality integrals are accumulated once on a fine age
grid; survival ratios are then exact ratios pi(hi)/pi(lo) of the same
cumulative table, which makes them exactly multiplicative.
"""

import enum
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .expressions import compile_expression

DEFAULT_QUAD_INTERVALS = 8192


# ---------------------------------------------------------------------------
# rate functions


class RateFunction:
    """Scalar function of one variable, vectorized over numpy arrays."""

    def __init__(self, kind, fn, describe):
        self.kind = kind
        self._fn = fn
        self.describe = describe

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._fn(arr)
        out = np.asarray(out, dtype=float)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape).copy()
        return out if arr.ndim else float(out)

    @staticmethod
    def constant(value):
        value = float(value)
        return RateFunction("constant", lambda x: np.full_like(x, value, dtype=float),
                            f"constant {value}")

    @staticmethod
    def table(points, values):
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.ndim != 1 or points.shape != values.shape or points.size < 2:
            raise ConfigurationError("table needs matching 1-d point/value arrays, length >= 2")
        if np.any(np.diff(points) <= 0):
            raise ConfigurationError("table points must be strictly increasing")
        return RateFunction("table", lambda x: np.interp(x, points, values),
                            f"table with {points.size} samples")

    @staticmethod
    def expression(text, variable):
        fn = compile_expression(text, [variable])
        return RateFunction("expr", lambda x: fn(**{variable: x}), f"expr {text!r}")

    @staticmethod
    def from_spec(spec, variable, where):
        """Build from a scenario JSON fragment; ``where`` names the field in errors."""
        if isinstance(spec, (int, float)):
            return RateFunction.constant(spec)
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigurationError(f"{where}: expected a rate function object with 'kind'")
        kind = spec["kind"]
        keys = set(spec)
        if kind == "constant":
            if keys - {"kind", "value"}:
                raise ConfigurationError(f"{where}: unknown keys {sorted(keys - {'kind', 'value'})}")
            if "value" not in spec:
                raise ConfigurationError(f"{where}: constant needs 'value'")
            return RateFunction.constant(spec["value"])
        if kind == "table":
            if keys - {"kind", "points", "values"}:
                raise ConfigurationError(
                    f"{where}: unknown keys {sorted(keys - {'kind', 'points', 'values'})}")
            try:
                return RateFunction.table(spec["points"], spec["values"])
            except KeyError as exc:
                raise ConfigurationError(f"{where}: table needs 'points' and 'values'") from exc
        if kind == "expr":
            if keys - {"kind", "expr"}:
                raise ConfigurationError(f"{where}: unknown keys {sorted(keys - {'kind', 'expr'})}")
            if "expr" not in spec:
                raise ConfigurationError(f"{where}: expr needs 'expr'")
            return RateFunction.expression(spec["expr"], variable)
        raise ConfigurationError(f"{where}: unknown rate function kind {kind!r}")


class Fertility:
    """Fertility rate beta(a, p); separable form carries its own factors."""

    def __init__(self, fn, *, age_profile=None, response=None, response_lipschitz=None,
                 describe=""):
        self._fn = fn
        self.age_profile = age_profile
        self.response = response
        self.response_lipschitz = response_lipschitz
        self.describe = describe

    @property
    def separable(self):
        return self.age_profile is not None

    def __call__(self, ages, p):
        ages = np.asarray(ages, dtype=float)
        out = np.asarray(self._fn(ages, float(p)), dtype=float)
        if out.shape != ages.shape:
            out = np.broadcast_to(out, ages.shape).copy()
        return out if ages.ndim else float(out)

    @staticmethod
    def separable_pair(age_profile, response, response_lipschitz=None):
        fn = lambda ages, p: age_profile(ages) * response(np.asarray(p, dtype=float))
        return Fertility(fn, age_profile=age_profile, response=response,
                         response_lipschitz=response_lipschitz,
                         describe="separable")

    @staticmethod
    def from_spec(spec, where):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigurationError(f"{where}: expected a fertility object with 'kind'")
        kind = spec["kind"]
        keys = set(spec)
        if kind == "separable":
            allowed = {"kind", "age_profile", "response", "response_lipschitz"}
            if keys - allowed:
                raise ConfigurationError(f"{where}: unknown keys {sorted(keys - allowed)}")
            for need in ("age_profile", "response"):
                if need not in spec:
                    raise ConfigurationError(f"{where}: separable fertility needs {need!r}")
            profile = RateFunction.from_spec(spec["age_profile"], "a", f"{where}.age_profile")
            response = RateFunction.from_spec(spec["response"], "p", f"{where}.response")
            lip = spec.get("response_lipschitz")
            if lip is not None:
                lip = float(lip)
                if lip <= 0:
                    raise ConfigurationError(f"{where}.response_lipschitz: must be positive")
            return Fertility.separable_pair(profile, response, lip)
        if kind == "expr":
            if keys - {"kind", "expr"}:
                raise ConfigurationError(f"{where}: unknown keys {sorted(keys - {'kind', 'expr'})}")
            fn = compile_expression(spec["expr"], ["a", "p"])
            return Fertility(lambda ages, p: fn(a=ages, p=p), describe=f"expr {spec['expr']!r}")
        raise ConfigurationError(f"{where}: unknown fertility kind {kind!r}")


# ---------------------------------------------------------------------------
# model


class ControlMode(enum.Enum):
    BOTH = "BOTH"
    MALE_ONLY = "MALE_ONLY"
    FEMALE_ONLY = "FEMALE_ONLY"


@dataclass(frozen=True)
class DemographicModel:
    """Immutable demographic data of the two-sex system.

    last_cell_survival is the survival ratio assigned to the final age cell;
    the default 0 reproduces "nobody outlives the maximal age" without a
    singular mortality rate.  quad_intervals sets the cumulative mortality
    table resolution; the default keeps survival quadrature at least four
    times finer than any solver grid with up to 2048 age cells.
    """

    male_mortality: RateFunction
    female_mortality: RateFunction
    fertility: Fertility
    male_fertility_weight: RateFunction
    female_fraction: float
    fertility_onset: float
    max_age: float
    last_cell_survival: float = 0.0
    quad_intervals: int = DEFAULT_QUAD_INTERVALS
    _mortality_tables: dict = field(default_factory=dict, repr=False, compare=False)
    _mortality_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                            repr=False, compare=False)

    def __post_init__(self):
        if not (self.max_age > 0):
            raise ConfigurationError("max_age must be positive")
        if not (0.0 < self.female_fraction < 1.0):
            raise ConfigurationError("female_fraction must lie strictly between 0 and 1")
        if not (0.0 < self.fertility_onset < self.max_age):
            raise ConfigurationError("fertility_onset must lie strictly inside (0, max_age)")
        if not (0.0 <= self.last_cell_survival <= 1.0):
            raise ConfigurationError("last_cell_survival must lie in [0, 1]")
        if self.quad_intervals < 4:
            raise ConfigurationError("quad_intervals must be at least 4")

    def _cumulative_mortality(self, which):
        table = self._mortality_tables.get(which)
        if table is not None:
            return table
        # filled under the lock so concurrent first users evaluate the rate once
        with self._mortality_lock:
            table = self._mortality_tables.get(which)
            if table is None:
                table = self._mortality_table(which)
                self._mortality_tables[which] = table
        return table

    def _mortality_table(self, which):
        rate = self.male_mortality if which == "male" else self.female_mortality
        ages = np.linspace(0.0, self.max_age, self.quad_intervals + 1)
        try:
            values = rate(ages)
        except Exception as exc:
            raise ConfigurationError(
                f"{which}_mortality is not evaluable on [0, max_age]: {exc}") from exc
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(f"{which}_mortality produced non-finite values")
        h = ages[1] - ages[0]
        cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (values[1:] + values[:-1]))))
        return ages, cum

    def mortality_integral(self, which, age):
        """Trapezoid value of the cumulative mortality integral up to ``age``."""
        ages, cum = self._cumulative_mortality(which)
        return np.interp(age, ages, cum)

    def survival_ratio(self, which, a_lo, a_hi):
        """exp(-integral of mortality over (a_lo, a_hi)) = pi(a_hi)/pi(a_lo)."""
        if a_lo > a_hi:
            raise DomainError(f"survival_ratio: a_lo={a_lo} exceeds a_hi={a_hi}")
        if a_lo < 0 or a_hi > self.max_age + 1e-12 * self.max_age:
            raise DomainError("survival_ratio: interval outside [0, max_age]")
        return float(np.exp(self.mortality_integral(which, a_lo)
                            - self.mortality_integral(which, a_hi)))


def survival_ratio(mu, a_lo, a_hi, intervals=None):
    """Standalone survival ratio for an arbitrary rate callable.

    Composite trapezoid over (a_lo, a_hi); the resolution defaults to a
    fixed fine subdivision so nested intervals compose to within quadrature
    tolerance.
    """
    if a_lo > a_hi:
        raise DomainError(f"survival_ratio: a_lo={a_lo} exceeds a_hi={a_hi}")
    if a_lo == a_hi:
        return 1.0
    if intervals is None:
        intervals = max(64, int(np.ceil((a_hi - a_lo) * 4096)))
    ages = np.linspace(a_lo, a_hi, intervals + 1)
    values = np.asarray(mu(ages), dtype=float)
    h = ages[1] - ages[0]
    integral = float(np.sum(0.5 * h * (values[1:] + values[:-1])))
    return float(np.exp(-integral))


def beta_eval(model, a, p):
    """Fertility rate at (a, p); domain error outside [0, max_age]."""
    arr = np.asarray(a, dtype=float)
    if np.any(arr < 0) or np.any(arr > model.max_age):
        raise DomainError(f"beta_eval: age outside [0, {model.max_age}]")
    return model.fertility(a, p)


def lambda_eval(model, a):
    """Male fertility weight at age a; domain error outside [0, max_age]."""
    arr = np.asarray(a, dtype=float)
    if np.any(arr < 0) or np.any(arr > model.max_age):
        raise DomainError(f"lambda_eval: age outside [0, {model.max_age}]")
    return model.male_fertility_weight(a)


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class ControlGeometry:
    """Control windows, horizon and target tail for the three control modes."""

    male_window: tuple
    female_window: tuple
    horizon: float
    target_min_age: float = 0.0
    mode: ControlMode = ControlMode.BOTH

    def __post_init__(self):
        a1, a2 = self.male_window
        b1, b2 = self.female_window
        if not (0.0 <= a1 < a2):
            raise ConfigurationError("male_window must satisfy 0 <= lo < hi")
        if not (0.0 <= b1 < b2):
            raise ConfigurationError("female_window must satisfy 0 <= lo < hi")
        if not (self.horizon > 0):
            raise ConfigurationError("horizon must be positive")
        if self.target_min_age < 0:
            raise ConfigurationError("target_min_age must be nonnegative")
        if not isinstance(self.mode, ControlMode):
            raise ConfigurationError("mode must be a ControlMode")

    def time_margin(self, max_age, mode=None):
        """Slack of the controllability time condition for the given mode."""
        mode = mode or self.mode
        a1, a2 = self.male_window
        if mode is ControlMode.MALE_ONLY:
            return self.horizon - (max_age - a2)
        return self.horizon - (a1 + max_age - a2)

    def admissible_time(self, max_age, mode=None):
        return self.time_margin(max_age, mode) > 0.0


# ---------------------------------------------------------------------------
# validation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list
    admissible_time: dict

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failed(self):
        return [c for c in self.checks if not c.passed]

    def summary_lines(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            tail = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status:4s}  {c.name}{tail}")
        for mode, flag in self.admissible_time.items():
            lines.append(f"time  {mode}: {'admissible' if flag else 'not admissible'}")
        return lines


def validate_hypotheses(model, geom, *, age_samples=513, p_max=10.0, p_samples=41,
                        fixed_point_driver=True):
    """Check the demographic hypotheses and geometry conditions by sampling.

    Returns a report with one entry per condition and the witnessing sample
    point for failures; never raises for a failed hypothesis, only for
    non-evaluable rate functions.
    """
    A = model.max_age
    ages = np.linspace(0.0, A, age_samples)
    ps = np.linspace(0.0, p_max, p_samples)
    checks = []

    def eval_or_raise(name, fn, *args):
        try:
            return np.asarray(fn(*args), dtype=float)
        except Exception as exc:
            raise ConfigurationError(f"{name} is not evaluable: {exc}") from exc

    mu_m = eval_or_raise("male_mortality", model.male_mortality, ages)
    mu_f = eval_or_raise("female_mortality", model.female_mortality, ages)
    lam = eval_or_raise("male_fertility_weight", model.male_fertility_weight, ages)

    def witness(mask, values, label):
        idx = int(np.argmax(mask))
        return f"{label}={values[idx]:.6g} at a={ages[idx]:.6g}"

    bad = mu_m < 0
    checks.append(CheckResult("H1: male mortality nonnegative", not bad.any(),
                              witness(bad, mu_m, "mu_m") if bad.any() else ""))
    bad = mu_f < 0
    checks.append(CheckResult("H1: female mortality nonnegative", not bad.any(),
                              witness(bad, mu_f, "mu_f") if bad.any() else ""))

    beta_all = np.empty((p_samples, age_samples))
    for k, p in enumerate(ps):
        beta_all[k] = eval_or_raise("fertility", model.fertility, ages, p)
    bad = beta_all < 0
    if bad.any():
        k, i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        detail = f"beta={beta_all[k, i]:.6g} at (a={ages[i]:.6g}, p={ps[k]:.6g})"
    else:
        detail = ""
    checks.append(CheckResult("H2: fertility nonnegative", not bad.any(), detail))

    finite = np.isfinite(beta_all).all()
    checks.append(CheckResult("H3: fertility bounded on samples", bool(finite),
                              "" if finite else "non-finite fertility sample"))

    before_onset = ages < model.fertility_onset
    bad = beta_all[:, before_onset] > 1e-12
    if bad.any():
        k, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        a_bad = ages[before_onset][j]
        detail = f"beta={beta_all[k, before_onset][j]:.6g} at (a={a_bad:.6g}, p={ps[k]:.6g})"
    else:
        detail = ""
    checks.append(CheckResult("H3: fertility vanishes below onset age", not bad.any(), detail))

    beta_zero = eval_or_raise("fertility", model.fertility, ages, 0.0)
    bad = np.abs(beta_zero) > 1e-12
    checks.append(CheckResult("H3: fertility vanishes at zero male population",
                              not bad.any(),
                              witness(bad, beta_zero, "beta(.,0)") if bad.any() else ""))

    bad = lam < 0
    checks.append(CheckResult("H4: male fertility weight nonnegative", not bad.any(),
                              witness(bad, lam, "weight") if bad.any() else ""))
    lam_mu = lam * mu_m
    integral = float(np.sum(0.5 * (lam_mu[1:] + lam_mu[:-1]) * np.diff(ages)))
    finite = np.isfinite(integral)
    checks.append(CheckResult("H4: weight*mortality integrable (finite quadrature)",
                              bool(finite), "" if finite else "non-finite integral"))

    if fixed_point_driver:
        ends_ok = abs(float(model.male_fertility_weight(0.0))) <= 1e-12 and \
            abs(float(model.male_fertility_weight(A))) <= 1e-12
        checks.append(CheckResult("fixed point driver: weight vanishes at ages 0 and A",
                                  ends_ok,
                                  "" if ends_ok else
                                  f"weight(0)={model.male_fertility_weight(0.0):.6g}, "
                                  f"weight(A)={model.male_fertility_weight(A):.6g}"))

    if model.fertility.separable and model.fertility.response_lipschitz is not None:
        resp = model.fertility.response
        vals = np.asarray(resp(ps), dtype=float)
        est = float(np.max(np.abs(np.diff(vals)) / np.diff(ps)))
        ok = est <= model.fertility.response_lipschitz * (1 + 1e-9)
        checks.append(CheckResult("H5: response within configured Lipschitz constant", ok,
                                  f"sampled slope {est:.6g} vs configured "
                                  f"{model.fertility.response_lipschitz:.6g}"))

    checks.append(CheckResult("female fraction strictly inside (0, 1)",
                              0.0 < model.female_fraction < 1.0,
                              f"gamma={model.female_fraction}"))

    a1, a2 = geom.male_window
    b1, b2 = geom.female_window
    checks.append(CheckResult("geometry: male window inside [0, A]",
                              a2 <= A, f"a2={a2} vs A={A}" if a2 > A else ""))
    checks.append(CheckResult("geometry: female window inside [0, A]",
                              b2 <= A, f"b2={b2} vs A={A}" if b2 > A else ""))
    if geom.mode is ControlMode.BOTH:
        nested = b1 <= a1 and a2 <= b2
        checks.append(CheckResult("geometry: male window nested in female window",
                                  nested, f"({a1},{a2}) vs ({b1},{b2})" if not nested else ""))
        onset_ok = a1 < model.fertility_onset
        checks.append(CheckResult("geometry: male window starts before fertility onset",
                                  onset_ok,
                                  f"a1={a1} vs onset={model.fertility_onset}"
                                  if not onset_ok else ""))

    admissible = {mode.value: geom.admissible_time(A, mode) for mode in ControlMode}
    return ValidationReport(checks=checks, admissible_time=admissible)

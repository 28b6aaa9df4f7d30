"""Demographic model data: mortality, fertility, control geometry, validation.

Rate functions come in three flavours (constant, tabulated with linear
interpolation, closed-form expression) so that scenario files are fully
self-contained.  Their constructors own the values: a constant or table
entry is a finite number, an expression compiles, and an error names the
field ("values[1]: must be finite").  Mortality integrals are accumulated
once on a fine age grid, filled on a model's first use; a survival ratio
is exp of the difference of two values of that one table, so ratios
multiply exactly.

The demographic hypotheses are sampled in one place, ``_RateSamples``: 513
ages of [0, max_age] and, for the fertility, 41 male levels of [0, 10].
``validate_hypotheses`` reports every check on those samples, and
``check_rate_samples``, which the scenario parser runs, raises on the first
of a subset: a non-finite sample of any rate, or a negative mortality
(H1), fertility (H2) or male weight (H4).  It then fills the mortality
tables, which raise on a non-finite value of their 8193 points.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, checked, checked_list, set_checked
from .expressions import compile_expression

DEFAULT_QUAD_INTERVALS = 8192


# ---------------------------------------------------------------------------
# rate functions


class RateFunction:
    """Scalar function of one variable, vectorized over numpy arrays."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        out = self._fn(arr)
        out = np.asarray(out, dtype=float)
        if out.shape != arr.shape:
            out = np.broadcast_to(out, arr.shape).copy()
        return out if arr.ndim else float(out)

    @staticmethod
    def constant(value):
        value = checked("value", value)
        return RateFunction(lambda x: np.full_like(x, value, dtype=float))

    @staticmethod
    def table(points, values):
        points, values = (np.array(checked_list(name, samples), dtype=float)
                          for name, samples in (("points", points), ("values", values)))
        if points.size < 2 or points.shape != values.shape:
            raise ConfigurationError("values: expected as many entries as points, at least 2")
        if np.any(np.diff(points) <= 0):
            raise ConfigurationError("points: must be strictly increasing")
        return RateFunction(lambda x: np.interp(x, points, values))

    @staticmethod
    def expression(expr, variable):
        fn = _compiled(expr, [variable])
        return RateFunction(lambda x: fn(**{variable: x}))


def _compiled(expr, variables):
    """``compile_expression``, its error naming the field "expr"."""
    try:
        return compile_expression(expr, variables)
    except ConfigurationError as exc:
        raise ConfigurationError(f"expr: {exc}") from None


class Fertility:
    """Fertility rate beta(a, p); separable form carries its own factors."""

    def __init__(self, fn, *, age_profile=None, response=None, response_lipschitz=None):
        self._fn = fn
        self.age_profile = age_profile
        self.response = response
        self.response_lipschitz = response_lipschitz

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
        if response_lipschitz is not None:
            response_lipschitz = checked("response_lipschitz", response_lipschitz, gt=0)
        fn = lambda ages, p: age_profile(ages) * response(np.asarray(p, dtype=float))
        return Fertility(fn, age_profile=age_profile, response=response,
                         response_lipschitz=response_lipschitz)

    @staticmethod
    def expression(expr):
        """A general fertility: one expression of the age ``a`` and the male level ``p``."""
        fn = _compiled(expr, ["a", "p"])
        return Fertility(lambda ages, p: fn(a=ages, p=p))


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
    singular mortality rate.  The cumulative mortality table has
    ``DEFAULT_QUAD_INTERVALS`` cells, so survival quadrature is at least four
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
    # not an __init__ field, so dataclasses.replace starts a new model's cache
    _mortality_tables: dict = field(default_factory=dict, init=False, repr=False,
                                    compare=False)

    def __post_init__(self):
        set_checked(self, "female_fraction", gt=0, lt=1)
        set_checked(self, "max_age", gt=0)
        set_checked(self, "fertility_onset", gt=0, lt=self.max_age)
        set_checked(self, "last_cell_survival", ge=0, le=1)

    def _cumulative_mortality(self, which):
        table = self._mortality_tables.get(which)
        if table is None:
            table = self._mortality_tables[which] = self._mortality_table(which)
        return table

    def _mortality_table(self, which):
        rate = self.male_mortality if which == "male" else self.female_mortality
        ages = np.linspace(0.0, self.max_age, DEFAULT_QUAD_INTERVALS + 1)
        try:
            with np.errstate(all="ignore"):  # a non-finite value is a finding
                values = rate(ages)
        except Exception as exc:
            raise ConfigurationError(
                f"{which}_mortality is not evaluable on [0, max_age]: {exc}") from exc
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ConfigurationError(f"{which}_mortality: non-finite value on the "
                                     f"{ages.size}-point table")
        h = ages[1] - ages[0]
        cum = np.concatenate(([0.0], np.cumsum(0.5 * h * (values[1:] + values[:-1]))))
        return ages, cum

    def mortality_integral(self, which, age):
        """Trapezoid value of the cumulative mortality integral up to ``age``."""
        ages, cum = self._cumulative_mortality(which)
        return np.interp(age, ages, cum)


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
        for name in ("male_window", "female_window"):
            window = getattr(self, name)
            if not isinstance(window, (list, tuple)) or len(window) != 2:
                raise ConfigurationError(f"{name}: expected [lo, hi]")
            lo = checked(f"{name}[0]", window[0], ge=0)
            object.__setattr__(self, name, (lo, checked(f"{name}[1]", window[1], gt=lo)))
        set_checked(self, "horizon", gt=0)
        set_checked(self, "target_min_age", ge=0)
        if not isinstance(self.mode, ControlMode):
            raise ConfigurationError("mode: expected a ControlMode")

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

    def summary_lines(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            tail = f" ({c.detail})" if c.detail else ""
            lines.append(f"{status:4s}  {c.name}{tail}")
        for mode, flag in self.admissible_time.items():
            lines.append(f"time  {mode}: {'admissible' if flag else 'not admissible'}")
        return lines


@dataclass(frozen=True)
class _RateSamples:
    """Every rate of a model on the hypothesis samples: 513 ``ages`` of
    [0, max_age] and, for the fertility, one row per male level of
    ``levels``, 41 points of [0, 10].  Numpy's warnings are off while the
    rates are evaluated, since a non-finite sample is a finding."""

    ages: np.ndarray
    levels: np.ndarray
    male_mortality: np.ndarray
    female_mortality: np.ndarray
    male_fertility_weight: np.ndarray
    fertility: np.ndarray

    @staticmethod
    def of(model):
        ages = np.linspace(0.0, model.max_age, 513)
        levels = np.linspace(0.0, 10.0, 41)

        def sampled(name, rate, *args):
            try:
                return np.asarray(rate(*args), dtype=float)
            except Exception as exc:
                raise ConfigurationError(f"{name} is not evaluable: {exc}") from exc

        fertility = model.fertility
        with np.errstate(all="ignore"):
            rates = [sampled(name, getattr(model, name), ages) for name in
                     ("male_mortality", "female_mortality", "male_fertility_weight")]
            if fertility.separable:
                # the products phi(a) r(p) of the per-level calls, from one call each
                beta = (sampled("fertility", fertility.age_profile, ages)[None, :]
                        * sampled("fertility", fertility.response, levels)[:, None])
            else:
                beta = np.array([sampled("fertility", fertility, ages, p) for p in levels])
        return _RateSamples(ages, levels, *rates, beta)


def _first(mask):
    """The index of the first True entry of ``mask`` in row-major order, a
    (level, age) pair for the fertility samples, or None."""
    return np.unravel_index(int(np.argmax(mask)), mask.shape) if mask.any() else None


def check_rate_samples(model):
    """Raise a ConfigurationError naming the field on the first failing
    load-time check of the rate samples.  Each rate in turn, the mortalities,
    the male weight and the fertility, must be finite, then nonnegative:
    (H1), (H4) and (H2).  Then the model's mortality tables are filled, so a
    mortality that is non-finite only between the samples fails here, and
    the solvers reuse the tables."""
    samples = _RateSamples.of(model)
    ages, levels = samples.ages, samples.levels
    for name, noun, hypothesis in (("male_mortality", "mortality", "H1"),
                                   ("female_mortality", "mortality", "H1"),
                                   ("male_fertility_weight", "value", "H4")):
        values = getattr(samples, name)
        bad = _first(~np.isfinite(values))
        if bad is not None:
            where = "mortality sample" if noun == "mortality" else f"value at age {ages[bad]:.6g}"
            raise ConfigurationError(f"{name}: non-finite {where}")
        bad = _first(values < 0)
        if bad is not None:
            raise ConfigurationError(f"{name}: negative {noun} {values[bad]:.6g} at age "
                                     f"{ages[bad]:.6g} violates ({hypothesis})")
    beta = samples.fertility
    bad = _first(~np.isfinite(beta))
    if bad is not None:
        raise ConfigurationError(f"fertility: non-finite value at p={levels[bad[0]]}")
    bad = _first(beta < 0)
    if bad is not None:
        raise ConfigurationError(f"fertility: negative value {beta[bad]:.6g} at (age "
                                 f"{ages[bad[1]]:.6g}, p={levels[bad[0]]}) violates (H2)")
    for which in ("male", "female"):
        model._cumulative_mortality(which)


def validate_hypotheses(model, geom):
    """Check the demographic hypotheses and geometry conditions by sampling.

    The rates are sampled once, by ``_RateSamples``.  Returns a report with
    one entry per condition and the witnessing sample point for failures;
    never raises for a failed hypothesis, only for non-evaluable rate
    functions.
    """
    A = model.max_age
    samples = _RateSamples.of(model)
    ages, ps = samples.ages, samples.levels
    mu_m, mu_f = samples.male_mortality, samples.female_mortality
    lam, beta_all = samples.male_fertility_weight, samples.fertility
    checks = []

    def witness(mask, values, label):
        i = _first(mask)
        return "" if i is None else f"{label}={values[i]:.6g} at a={ages[i]:.6g}"

    bad = mu_m < 0
    checks.append(CheckResult("H1: male mortality nonnegative", not bad.any(),
                              witness(bad, mu_m, "mu_m")))
    bad = mu_f < 0
    checks.append(CheckResult("H1: female mortality nonnegative", not bad.any(),
                              witness(bad, mu_f, "mu_f")))

    def level_witness(mask):
        # ``mask`` has beta_all's levels and a prefix of its ages, so its index is beta_all's
        bad = _first(mask)
        return "" if bad is None else \
            f"beta={beta_all[bad]:.6g} at (a={ages[bad[1]]:.6g}, p={ps[bad[0]]:.6g})"

    bad = beta_all < 0
    checks.append(CheckResult("H2: fertility nonnegative", not bad.any(), level_witness(bad)))

    finite = np.isfinite(beta_all).all()
    checks.append(CheckResult("H3: fertility bounded on samples", bool(finite),
                              "" if finite else "non-finite fertility sample"))

    bad = beta_all[:, ages < model.fertility_onset] > 1e-12
    checks.append(CheckResult("H3: fertility vanishes below onset age", not bad.any(),
                              level_witness(bad)))

    beta_zero = beta_all[0]  # the level p = 0
    bad = np.abs(beta_zero) > 1e-12
    checks.append(CheckResult("H3: fertility vanishes at zero male population",
                              not bad.any(), witness(bad, beta_zero, "beta(.,0)")))

    bad = lam < 0
    checks.append(CheckResult("H4: male fertility weight nonnegative", not bad.any(),
                              witness(bad, lam, "weight")))
    with np.errstate(all="ignore"):
        lam_mu = lam * mu_m
        integral = float(np.sum(0.5 * (lam_mu[1:] + lam_mu[:-1]) * np.diff(ages)))
    finite = np.isfinite(integral)
    checks.append(CheckResult("H4: weight*mortality integrable (finite quadrature)",
                              bool(finite), "" if finite else "non-finite integral"))

    ends_ok = bool(abs(lam[0]) <= 1e-12 and abs(lam[-1]) <= 1e-12)
    checks.append(CheckResult("fixed point driver: weight vanishes at ages 0 and A",
                              ends_ok,
                              "" if ends_ok else
                              f"weight(0)={lam[0]:.6g}, weight(A)={lam[-1]:.6g}"))

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

"""Outer nonlinear loops.

`iterate_to_fixed_point` restores the nonlinear birth coupling around the
frozen-trace control synthesis: damped Picard iteration on the fertile-male
trace, walked along the penalty schedule until the true nonlinear terminal
norms meet the target.  The map has a unique value per penalty stage
(strictly convex objective), so Picard iteration is well defined; the
underlying existence proof is non-constructive, hence non-convergence is a
reportable outcome, not an error.

`contraction_test` probes the well-posedness contraction map: the
uncontrolled frozen-field solve, measured in the exponentially weighted
metric whose rate is reconstructed from the model constants.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .control import (FLAG_FIXED_POINT_NOT_REACHED, FLAG_TARGET_NOT_REACHED,
                      minimize_penalty, stage_entry, target_reached, terminal_norms)
from .errors import ConfigurationError, set_checked
from .forward import FrozenOperator, _as_profile, solve_forward
from .model import ControlGeometry, ControlMode


@dataclass(frozen=True)
class FixedPointConfig:
    omega: float = 0.5
    fp_tol: float = 1e-4
    max_outer_iters: int = 40

    def __post_init__(self):
        set_checked(self, "omega", gt=0, le=1)
        set_checked(self, "fp_tol", gt=0)
        set_checked(self, "max_outer_iters", ge=1, integer=True)


@dataclass(frozen=True)
class ContractionConfig:
    """The random field pairs of `contraction_test` and their amplitude."""

    trials: int = 50
    amplitude: float = 1.0

    def __post_init__(self):
        set_checked(self, "trials", ge=1, integer=True)
        set_checked(self, "amplitude", gt=0)


@dataclass
class FixedPointState:
    trace: np.ndarray
    history: list
    converged: bool
    flags: list = dc_field(default_factory=list)


def trace_norm(grid, values):
    """L2(0,T) norm of a time trace with trapezoid weights."""
    return float(np.sqrt(np.dot(grid.time_weights(), np.asarray(values) ** 2)))


def _trace_derivative_norm(grid, values):
    diffs = np.diff(np.asarray(values, dtype=float)) / grid.step
    return float(np.sqrt(grid.step * np.sum(diffs**2)))


def trace_map(operator, problem, m0, f0, epsilon):
    """One application of the controlled-trace map.

    Minimizes the penalty functional of weight ``epsilon`` for the frozen
    trace of ``operator``, from scratch, and returns the fertile-male trace
    of the controlled frozen-trace system, as the penalty stage computed it
    (in closed form for separable fertility), along with the control result.
    """
    result = minimize_penalty(problem, operator, m0, f0, epsilon)
    return result.fertile_male_trace.copy(), result


def iterate_to_fixed_point(model, grid, geom, problem, fp_config, m0, f0):
    """Damped Picard iteration on the fertile-male trace, per penalty stage.

    Starts from the uncontrolled nonlinear trace.  Each schedule stage is
    iterated to self-consistency, then verified on the true nonlinear
    system; the schedule advances until the nonlinear terminal norms meet
    the target or the stages run out.

    Every outer iteration's operator is the previous one retraced, so they
    all share one set of trace-independent tables.

    Returns (FixedPointState, ControlResult, nonlinear StateSolution).
    """
    uncontrolled = solve_forward(model, grid, geom, None, None, m0, f0)
    p = uncontrolled.fertile_male_trace.copy()
    operator = None
    omega = fp_config.omega
    history = []
    stages = []
    flags = []
    result = None
    nonlinear = uncontrolled
    converged_all = False

    for eps in problem.schedule.values():
        stage_converged = False
        prev_delta = None
        for k in range(fp_config.max_outer_iters):
            operator = (FrozenOperator(model, grid, geom, p) if operator is None
                        else operator.retrace(p))
            y, result = trace_map(operator, problem, m0, f0, eps)
            p_new = (1.0 - omega) * p + omega * y
            delta = trace_norm(grid, p_new - p)
            norm_p = trace_norm(grid, p)
            entry = {
                "epsilon": eps,
                "iteration": k + 1,
                "delta": delta,
                "delta_ratio": (delta / prev_delta) if prev_delta and prev_delta > 0 else None,
                "trace_sup": float(np.max(np.abs(y))),
                "trace_derivative_l2": _trace_derivative_norm(grid, y),
                "terminal_m_norm": result.terminal_m_norm,
                "terminal_f_norm": result.terminal_f_norm,
            }
            history.append(entry)
            prev_delta = delta
            p = p_new
            if delta <= fp_config.fp_tol * norm_p:
                stage_converged = True
                break
        stages.append(stage_entry(result))
        if not stage_converged:
            flags.append(FLAG_FIXED_POINT_NOT_REACHED)
            break
        nonlinear = solve_forward(model, grid, geom, result.v_m, result.v_f, m0, f0)
        m_norm, f_norm = terminal_norms(grid, geom, nonlinear.m.values[:, -1],
                                        nonlinear.f.values[:, -1])
        history[-1]["nonlinear_m_norm"] = m_norm
        history[-1]["nonlinear_f_norm"] = f_norm
        converged_all = True
        if target_reached(grid, geom, problem.target_norm, m_norm, f_norm):
            break
    else:
        if converged_all:
            flags.append(FLAG_TARGET_NOT_REACHED)

    if result is not None:
        result.stage_history = stages
        for flag in flags:
            if flag not in result.flags:
                result.flags.append(flag)
    state = FixedPointState(
        trace=p, history=history,
        converged=converged_all and FLAG_FIXED_POINT_NOT_REACHED not in flags, flags=flags)
    return state, result, nonlinear


@dataclass
class ContractionReport:
    sigma_hat: float
    max_ratio: float
    ratios: list
    bound: float
    trials: int


def contraction_test(model, grid, m0, f0, *, config=ContractionConfig(), seed=0):
    """Measure the weighted-metric contraction factor of the uncontrolled map.

    For random pairs of nonnegative frozen fields the map sends a field to
    the male solution computed with the field's fertile-male trace; the
    metric weight exp(-2 sigma t) uses a rate reconstructed from the
    measured sup norms, the domain length and the configured response
    Lipschitz constant.  Requires separable fertility.
    """
    fert = model.fertility
    if not fert.separable:
        raise ConfigurationError("contraction_test requires separable fertility")
    if fert.response_lipschitz is None:
        raise ConfigurationError(
            "contraction_test requires the configured response Lipschitz constant")
    # uncontrolled solves: the geometry only supplies (unused) control masks
    geom = ControlGeometry(male_window=(0.0, grid.max_age),
                           female_window=(0.0, grid.max_age),
                           horizon=grid.horizon, mode=ControlMode.BOTH)
    m0, f0 = _as_profile(m0, grid, "m0"), _as_profile(f0, grid, "f0")
    shape = (grid.num_age_cells + 1, grid.num_time_cells + 1)
    # one operator, at the trace of no males, holds the weights and the age
    # profile; every trial retraces it
    op = FrozenOperator(model, grid, geom, np.zeros(shape[1]))
    wa, lam, beta1 = op.wa, op.lam, op.age_profile

    # the metric weights need sigma_hat, known only after every trial, so each
    # trial keeps the age-integrated squared differences per time node
    profiles = []
    y_sup = p_max = -np.inf
    for k in range(config.trials):
        r = np.random.default_rng(seed + 7919 * k)
        p_field = config.amplitude * r.random(shape)
        q_field = config.amplitude * r.random(shape)
        trace_p = wa @ (lam[:, None] * p_field)
        trace_q = wa @ (lam[:, None] * q_field)
        males = []
        for trace in (trace_p, trace_q):
            m, f, _, _ = op.retrace(trace).forward(m0, f0)
            males.append(m)
            y_sup = max(y_sup, float(np.max(wa @ (beta1[:, None] * f))))
        p_max = max(p_max, float(np.max(trace_p)), float(np.max(trace_q)))
        profiles.append((wa @ (p_field - q_field)**2, wa @ (males[0] - males[1])**2))

    beta2_sup = float(np.max(np.abs(np.asarray(
        fert.response(np.linspace(0.0, max(p_max, 1e-12), 1025)), dtype=float))))
    a_len = grid.max_age
    lip = fert.response_lipschitz
    sigma_hat = max(2.0 * lip**2 * a_len * float(np.max(lam))**2 * max(y_sup, 1e-300)**2,
                    2.0 * float(np.max(beta1))**2 * beta2_sup**2 * a_len)
    sigma_hat = max(sigma_hat, 1e-12)

    weights = grid.time_weights() * np.exp(-2.0 * sigma_hat * grid.times())

    def metric(profile):
        return float(np.sqrt(np.sum(weights * profile)))

    ratios = []
    for dp, dm in profiles:
        denom = metric(dp)
        if denom == 0.0:
            continue  # identical inputs carry no information
        ratios.append(metric(dm) / denom)
    return ContractionReport(
        sigma_hat=sigma_hat, max_ratio=max(ratios) if ratios else 0.0,
        ratios=ratios, bound=1.0 / np.sqrt(2.0) + 0.1, trials=config.trials)

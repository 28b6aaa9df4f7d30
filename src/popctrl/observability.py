"""Numerical estimates of the observability inequalities.

The observability constant of the adjoint of the frozen-trace system is
the top eigenvalue of the pencil of two quadratic forms on the targeted
terminal entries: the initial-energy and control Gramians of the
frozen-trace operator (`FrozenOperator.gramians`, built together and
cached), in the block form of `popctrl.gramian`, which also owns the power
iteration on their pencil (``gramian.pencil_maximum``).  A terminal datum
(n_T, l_T) has the work vector theta * (n_T, l_T), theta = wa / h > 0, and
the pencil's eigenvalues do not change under that diagonal congruence, so
the Gramians of the work vectors serve as they are.
``estimate_observability_constant`` reports the iteration's value per
frozen trace, so the estimate and the control synthesis share one matrix,
the control Gramian.  The operators of one call are retraced from the
first, so they share its trace-independent tables.  A terminal direction
that carries initial energy but is invisible from the control regions is
reported as math.inf: violated observability is a first-class outcome that
certifies the time condition in the discrete model, not a numerical
overflow.

The geometry's mode reaches this module only through ``forward``'s rules:
the targeted entries are the nonzero ``stacked_terminal_weights`` (the
node at a male-only ``target_min_age`` included), and they give the
forms' basis.  The measure of a ``forced_terminal_mask`` is
``grid.integrate_age`` of the mask.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, set_checked
from .forward import FrozenOperator, control_masks, control_windows
from .gramian import pencil_maximum


@dataclass(frozen=True)
class ObservabilityConfig:
    """Power steps of one estimate; the observability command's trace count."""

    power_iters: int = 20
    num_traces: int = 3

    def __post_init__(self):
        set_checked(self, "power_iters", ge=1, integer=True)
        set_checked(self, "num_traces", ge=1, integer=True)


@dataclass
class ObservabilityReport:
    estimated_constant: float
    threshold_margin: float
    diverged: bool
    trace_spread: float = 0.0


def _power_iteration(op, iters):
    """``gramian.pencil_maximum`` of the operator's (initial, control)
    Gramians: math.inf when a terminal direction invisible from the control
    regions carries initial energy, else ``iters`` power steps' estimate."""
    control, initial = op.gramians()
    return pencil_maximum(initial, control, iters)


def estimate_observability_constant(model, grid, geom, traces, *,
                                    config=ObservabilityConfig()):
    """The observability constant, estimated per frozen trace.

    Each trace's estimate is ``_power_iteration`` with ``config.power_iters``
    steps; the report carries the largest, and the spread of the others
    below it isolates the trace dependence.  A direction invisible from the
    control regions (math.inf) is flagged as ``diverged``
    instead of chased.
    """
    traces = [np.asarray(t, dtype=float) for t in traces]
    if not traces:
        raise DomainError("estimate_observability_constant needs at least one trace")

    estimates = []
    op = None
    for trace in traces:
        # the traces share the operator's trace-independent tables
        op = FrozenOperator(model, grid, geom, trace) if op is None else op.retrace(trace)
        estimates.append(_power_iteration(op, config.power_iters))

    low, high = min(estimates), max(estimates)
    spread = 0.0
    if math.isfinite(high) and high > low:
        # equal estimates, zero ones included, have no spread
        spread = high / low - 1.0 if low > 0 else math.inf
    return ObservabilityReport(
        estimated_constant=high,
        threshold_margin=geom.time_margin(grid.max_age),
        diverged=math.isinf(high),
        trace_spread=spread,
    )


def forced_terminal_mask(model, grid, geom):
    """Age nodes where the terminal male profile is control-independent.

    Computed from the discrete scheme itself: a terminal node is forced
    when every arrival node on its backward characteristic carries zero
    male-control mask weight, and it is not fed by the birth boundary (age
    at least the horizon, or fertility zero at the male levels 0.5, 1 and
    5, or no female control window to shape the female population).  On
    the returned nodes the controlled solve equals the uncontrolled one
    exactly, for every admissible control.
    """
    ages = grid.ages()
    mask_m, _ = control_masks(grid, geom)
    nt = grid.num_time_cells

    births_shapeable = control_windows(geom)[1] is not None and any(
        float(np.max(np.abs(model.fertility(ages, p)))) > 0 for p in (0.5, 1.0, 5.0))

    forced = np.zeros(ages.size, dtype=bool)
    for i in range(ages.size):
        j_lo = max(1, i - nt + 1)
        direct_dead = not np.any(mask_m[j_lo:i + 1] > 0)
        birth_fed = (i <= nt - 1) and births_shapeable
        forced[i] = direct_dead and not birth_fed
    return forced

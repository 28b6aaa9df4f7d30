"""Numerical probes of the observability inequalities.

The observability constant is estimated from below: the maximum over
random terminal data of the quotient (initial adjoint energy) / (adjoint
energy on the control regions), optionally sharpened by power iteration on
the pair of quadratic forms.  The forms are the initial-energy and control
Gramians of the frozen-trace operator on the targeted terminal entries
(`FrozenOperator.gramians`, built together), scaled by the operator's
work weights theta = wa / h, in the block form of `popctrl.gramian`,
which also owns the power iteration on their pencil
(``gramian.pencil_maximum``); this module passes them stacked terminal
vectors only.  The probe quotients are read off the same forms, for
every fertility and every number of power steps, so the probes and the
control synthesis share one matrix, the control Gramian; only
``observability_ratio`` solves its one datum's adjoint.  The operators of
one call are retraced from the first, so they share its
trace-independent tables.  A zero denominator with nonzero
numerator is reported as the infinity sentinel: violated observability is
a first-class outcome that certifies the time condition in the discrete
model, not a numerical overflow.

The geometry's mode reaches this module only through ``forward``'s rules:
the targeted entries are the nonzero ``stacked_terminal_weights`` (the
node at a male-only ``target_min_age`` included), and they give the forms'
basis, the probes' support and the cone probe's tail, once per estimate;
the cone probe's male window is that of ``control_windows``.  The measure
of a ``forced_terminal_mask`` is ``grid.integrate_age`` of the mask.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adjoint import _terminal_data
from .errors import DomainError, set_checked
from .forward import FrozenOperator, control_masks, control_windows, stacked_terminal_weights
from .gramian import pencil_maximum
from .grid import lattice_inner

INFINITE_QUOTIENT = math.inf


@dataclass(frozen=True)
class ObservabilityConfig:
    """Probes and power steps of one estimate; the observability command's trace count."""

    probes: int = 16
    power_iters: int = 0
    num_traces: int = 3

    def __post_init__(self):
        set_checked(self, "probes", ge=1, integer=True)
        set_checked(self, "power_iters", ge=0, integer=True)
        set_checked(self, "num_traces", ge=1, integer=True)


@dataclass
class ObservabilityReport:
    estimated_constant: float
    threshold_margin: float
    diverged: bool
    trace_spread: float = 0.0


def _gramian_quotients(op, n_T, l_T):
    """Energy quotient of each column of (N+1) x k terminal blocks, read off
    the operator's Gramians.

    With w = theta * (n_T, l_T) stacked, a column's quotient is
    w . E0 w / w . G w for the initial and control Gramians, applied in
    block form, so no adjoint is solved.  The Gramians live on the targeted
    entries, where the probe data are supported.  A column invisible from
    the control regions but carrying initial energy gets the infinity
    sentinel.
    """
    theta = op.theta[:, None]
    work = np.concatenate([theta * n_T, theta * l_T])
    control, initial = op.gramians()
    return [_quotient(float(a), float(b))
            for a, b in zip(initial.energy(work), control.energy(work))]


def _quotient(num, den):
    """num / den, or the infinity sentinel for a datum that carries initial
    energy but is invisible from the control regions."""
    if den <= 1e-300 * max(num, 1.0):
        return INFINITE_QUOTIENT if num > 0 else 0.0
    return num / den


def observability_ratio(model, grid, geom, n_T, l_T, trace):
    """Quotient of initial adjoint energy over control-region energy.

    Returns the infinity sentinel when the terminal datum is invisible from
    the control region but carries initial energy.
    """
    q_m, q_f = _terminal_data(grid, geom, n_T, l_T)
    if not (q_m.any() or q_f.any()):
        raise DomainError("observability_ratio: terminal data must not vanish")
    op = FrozenOperator(model, grid, geom, trace)
    n_eff, l_eff = op.adjoint_images(op.theta * q_m, op.theta * q_f)
    weights_m, weights_f = op.geometry_tables()[0]
    # level 0 of (n_eff, l_eff) is (n, l); the dead slot of a mode adds exact
    # zeros: its masks vanish, and a zero male terminal datum keeps the
    # sourceless male row zero
    num = float(np.dot(op.wa, n_eff[:, 0] ** 2)) + float(np.dot(op.wa, l_eff[:, 0] ** 2))
    den = lattice_inner(weights_m, n_eff, n_eff) + lattice_inner(weights_f, l_eff, l_eff)
    return _quotient(num, den)


def _probe_data(rngs, targeted):
    """One standard normal stacked terminal datum per generator, male slot
    drawn first, zero off the ``targeted`` entries."""
    size = targeted.size // 2
    return [np.where(targeted, np.concatenate([rng.standard_normal(size),
                                               rng.standard_normal(size)]), 0.0)
            for rng in rngs]


def _quadratic_forms(op):
    """The (numerator, denominator) forms on the targeted terminal entries,
    in the block form of ``gramian.GramianBlocks``.

    A unit direction p of the terminal data has the work vector theta_p
    times the unit vector, so the forms are the operator's targeted initial
    and control Gramians with each direction scaled by its theta; the two
    entries of a pair share theta.
    """
    theta = np.tile(op.theta, 2)
    control, initial = op.gramians()
    return initial.scaled(theta), control.scaled(theta)


def _power_iteration(op, iters):
    """``gramian.pencil_maximum`` of the forms of ``_quadratic_forms``: the
    infinity sentinel when a terminal direction invisible from the control
    regions carries initial energy, else ``iters`` power steps' estimate."""
    return pencil_maximum(*_quadratic_forms(op), iters)


def estimate_observability_constant(model, grid, geom, traces, *,
                                    config=ObservabilityConfig(), seed=0):
    """Lower estimate of the observability constant, repeated per frozen trace.

    Probes are paired across traces (same seeds) so the reported spread
    isolates the trace dependence.  The constant is only ever estimated
    from below; divergence (an unobserved direction) is flagged instead of
    chased.
    """
    traces = [np.asarray(t, dtype=float) for t in traces]
    if not traces:
        raise DomainError("estimate_observability_constant needs at least one trace")

    targeted = stacked_terminal_weights(grid, geom) > 0
    data = _probe_data(
        [np.random.default_rng(seed + 1000 * k) for k in range(config.probes)], targeted)
    # a deterministic probe concentrated on the targeted male tail whose
    # characteristics miss the open male window exposes unobserved directions
    # that diffuse random data would average away; the node at the window's
    # lower end, which the control reaches at its last step, may be in it,
    # and the probe still bounds the constant from below
    size = grid.num_age_cells + 1
    cone = unreachable_from_window(grid, control_windows(geom)[0], geom.horizon)
    cone &= (grid.ages() >= geom.horizon) & targeted[:size]
    if np.any(cone):
        rng = np.random.default_rng(seed + 99)
        data.append(np.r_[np.where(cone, 1.0 + rng.random(size), 0.0), np.zeros(size)])
    n_block, l_block = np.split(np.stack(data, axis=1), 2)

    estimates = []
    diverged = False

    op = None
    for trace in traces:
        # the traces share the operator's trace-independent tables
        op = FrozenOperator(model, grid, geom, trace) if op is None else op.retrace(trace)
        samples = _gramian_quotients(op, n_block, l_block)
        finite = [s for s in samples if math.isfinite(s)]
        if len(finite) < len(samples):
            diverged = True
        estimate = max(finite) if finite else INFINITE_QUOTIENT
        if config.power_iters > 0:
            power = _power_iteration(op, config.power_iters)
            if math.isfinite(power):
                estimate = max(estimate, power)
            else:
                diverged = True
                estimate = INFINITE_QUOTIENT
        estimates.append(estimate)

    low, high = min(estimates), max(estimates)
    spread = 0.0
    if math.isfinite(high) and high > low:
        # equal estimates, zero ones included, have no spread
        spread = high / low - 1.0 if low > 0 else math.inf
    return ObservabilityReport(
        estimated_constant=high,
        threshold_margin=geom.time_margin(grid.max_age),
        diverged=diverged,
        trace_spread=spread,
    )


# ---------------------------------------------------------------------------
# characteristic cones


def unreachable_from_window(grid, window, horizon):
    """Terminal age nodes whose backward characteristic misses the open age
    window (lo, hi): characteristics through (a, T) sweep the ages
    (a - T, a), which avoid (lo, hi) exactly when a <= lo or a - T >= hi.

    This is the continuous rule, not the scheme's: the node a = lo takes
    the control at the last level, with the boundary mask 1/2, so
    ``forced_terminal_mask`` counts it as reachable.  The direct control
    contribution vanishes on every other returned node.
    """
    ages = grid.ages()
    tol = 1e-9 * max(1.0, grid.max_age)
    if window is None:
        return np.ones(ages.size, dtype=bool)
    lo, hi = window
    return (ages <= lo + tol) | (ages - horizon >= hi - tol)


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

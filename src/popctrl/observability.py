"""Numerical probes of the observability inequalities and time thresholds.

The observability constant is estimated from below: the maximum over
random terminal data of the quotient (initial adjoint energy) / (adjoint
energy on the control regions), optionally sharpened by power iteration on
the pair of quadratic forms.  The forms are the initial-energy and control
Gramians of the frozen-trace operator (`FrozenOperator.gramians`, built
together) on the live terminal entries, scaled by the terminal weights and
kept in the operator's block form: a dense block on the young terminal
ages, a diagonal on the older spikes and the cross block between them.
The power iteration factors only the Schur complement of the spike
diagonal, never the whole denominator, and takes its null cut with no
other eigendecomposition.  The probe quotients are read off
the same blocks when the power iteration runs or the Gramians are
closed-form (separable fertility); otherwise one batched sweep of the
probes gives them.  The operators of one call are retraced from the first, so they
share its trace-independent tables.  A zero denominator with nonzero numerator
is reported as the infinity sentinel: violated observability is a
first-class outcome that certifies the time condition in the discrete
model, not a numerical overflow.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .adjoint import _terminal_data
from .errors import DomainError
from .forward import FrozenOperator, control_masks
from .grid import lattice_inner
from .model import ControlMode

INFINITE_QUOTIENT = math.inf


@dataclass
class ObservabilityReport:
    estimated_constant: float
    quotient_samples: list
    threshold_margin: float
    mode: ControlMode
    diverged: bool
    estimates_by_trace: list = dc_field(default_factory=list)
    trace_spread: float = 0.0
    power_estimate: float = None
    grid_step: float = 0.0
    geometry: object = None


def _quotients(op, n_T, l_T):
    """Energy quotient of each column of (N+1) x k terminal blocks.

    One call of the operator's adjoint on the block serves all columns:
    closed-form for separable fertility, one batched sweep for any other.
    Level 0 of (n_eff, l_eff) is (n, l) there.  A column invisible from the
    control regions but carrying initial energy gets the infinity sentinel.
    """
    grid = op.grid
    theta = (grid.age_weights() / grid.step)[:, None]
    n_eff, l_eff = op.adjoint_images(theta * n_T, theta * l_T)
    wa = grid.age_weights()
    weights_m, weights_f = op.geometry_tables()[0]
    quotients = []
    for c in range(n_T.shape[1]):
        n_c, l_c = n_eff[:, :, c], l_eff[:, :, c]
        # the dead slot of a mode adds exact zeros: its masks vanish, and a
        # zero male terminal datum keeps the sourceless male row zero
        num = float(np.dot(wa, n_c[:, 0] ** 2)) + float(np.dot(wa, l_c[:, 0] ** 2))
        den = lattice_inner(weights_m, n_c, n_c) + lattice_inner(weights_f, l_c, l_c)
        quotients.append(_quotient(num, den))
    return quotients


def _gramian_quotients(op, n_T, l_T):
    """The quotients of ``_quotients``, read off the operator's Gramians.

    With w = theta * (n_T, l_T) stacked, a column's quotient is
    w . E0 w / w . G w for the initial and control Gramians, applied in
    block form, so no probe sweep runs.
    """
    theta = (op.wa / op.grid.step)[:, None]
    work = np.concatenate([theta * n_T, theta * l_T])
    control, initial = op.gramians()
    dense, spikes = control.index
    num = initial.quadratic(work[dense], work[spikes])
    den = control.quadratic(work[dense], work[spikes])
    return [_quotient(float(a), float(b)) for a, b in zip(num, den)]


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
    n_arr = np.zeros(grid.num_age_cells + 1) if n_T is None else np.asarray(n_T, float)
    l_arr = np.zeros(grid.num_age_cells + 1) if l_T is None else np.asarray(l_T, float)
    scale = float(np.max(np.abs(n_arr))) + float(np.max(np.abs(l_arr)))
    if scale == 0.0:
        raise DomainError("observability_ratio: terminal data must not vanish")
    q_m, q_f = _terminal_data(grid, n_arr, l_arr, geom.mode)
    op = FrozenOperator(model, grid, geom, trace)
    return _quotients(op, q_m[:, None], q_f[:, None])[0]


def _probe_data(rng, grid, geom):
    na = grid.num_age_cells
    mode = geom.mode
    n_T = rng.standard_normal(na + 1)
    l_T = rng.standard_normal(na + 1)
    if mode is ControlMode.MALE_ONLY:
        l_T = np.zeros(na + 1)
        if geom.target_min_age > 0:
            n_T = n_T.copy()
            n_T[grid.ages() < geom.target_min_age] = 0.0
    elif mode is ControlMode.FEMALE_ONLY:
        n_T = np.zeros(na + 1)
    return n_T, l_T


def _terminal_basis(grid, geom):
    """Stacked indices (male 0..N, female N+1..2N+1) of the live terminal entries."""
    size = grid.num_age_cells + 1
    if geom.mode is ControlMode.MALE_ONLY:
        return np.nonzero(grid.ages() >= geom.target_min_age)[0]
    if geom.mode is ControlMode.FEMALE_ONLY:
        return np.arange(size, 2 * size)
    return np.arange(2 * size)


def _quadratic_forms(op):
    """The (numerator, denominator) forms on the live terminal basis, as
    ``GramianBlocks``.

    Basis vector p is the terminal datum whose stacked entry p is 1, so its
    work vector is theta_p times a unit vector and the forms are the
    operator's initial and control Gramians scaled by theta_p theta_q.
    """
    live = _terminal_basis(op.grid, op.geom)
    theta = np.tile(op.wa / op.grid.step, 2)[live]
    control, initial = op.gramians()
    return initial.restrict(live, theta), control.restrict(live, theta)


def _power_iteration(op, iters):
    """Generalized Rayleigh maximization on the (numerator, denominator) forms.

    Terminal directions invisible from the control regions but carrying
    initial energy make the quotient unbounded and are detected from the
    denominator's null space; otherwise ``iters`` power steps maximize the
    quotient: from the all-ones direction x scaled to x . D x = 1, each step
    forms y = N x, takes x . y as a quotient and moves to x = D^- y scaled
    by sqrt(y . D^- y), which is power iteration on the denominator-whitened
    numerator.

    The denominator D stays in block form: D^- y solves with the dense
    block's Schur complement S = A - C Delta^+ C^T and the spike diagonal
    Delta, so the only eigendecomposition is that of S.  The relative null
    cut is ``_null_cut``; the null directions are the dead spikes and the
    null vectors v of S, lifted to (v, -Delta^+ C^T v).
    """
    num, den = _quadratic_forms(op)
    null_cut = _null_cut(den)
    live_spikes = den.diag > null_cut
    inv_diag = np.divide(1.0, den.diag, out=np.zeros_like(den.diag), where=live_spikes)
    vals, vecs = np.linalg.eigh(den.schur(inv_diag))
    live = vals > null_cut

    num_scale = max(max(float(np.max(np.abs(part), initial=0.0))
                        for part in (num.dense, num.cross, num.diag)), 1e-300)
    null_dense = vecs[:, ~live]
    null_spike = -inv_diag[:, None] * (den.cross.T @ null_dense)
    null_energy = np.r_[num.quadratic(null_dense, null_spike)
                        / (np.sum(null_dense ** 2, axis=0) + np.sum(null_spike ** 2, axis=0)),
                        num.diag[~live_spikes]]
    if null_energy.size and float(np.max(null_energy)) > 1e-10 * num_scale:
        return INFINITE_QUOTIENT
    if not (np.any(live) or np.any(live_spikes)):
        return 0.0
    whiten = vecs[:, live] / np.sqrt(vals[live])

    # start from the all-ones terminal direction, so the iterates do not
    # depend on the signs or rotations of the eigenvectors
    x_dense, x_spike = np.ones(den.dense.shape[0]), np.ones(den.diag.size)
    start = math.sqrt(float(den.quadratic(x_dense, x_spike)))
    x_dense, x_spike = x_dense / start, x_spike / start
    best = 0.0
    for _ in range(max(1, iters)):
        y_dense, y_spike = num.apply(x_dense, x_spike)
        # x = D^- y by the block elimination, and |z|^2 + y . Delta^+ y = y . x
        z = whiten.T @ (y_dense - den.cross @ (inv_diag * y_spike))
        norm = math.sqrt(float(z @ z) + float(y_spike @ (inv_diag * y_spike)))
        if norm == 0.0:
            break
        best = max(best, float(x_dense @ y_dense) + float(x_spike @ y_spike))
        x_dense = whiten @ z
        x_spike = inv_diag * (y_spike - den.cross.T @ x_dense)
        x_dense, x_spike = x_dense / norm, x_spike / norm
    return max(best, float(num.quadratic(x_dense, x_spike)))


def _null_cut(den):
    """1e-12 max(|A|_F, max Delta): below it a direction of the denominator
    ``den`` counts as null.  |A|_F lies in [lambda_max(A), sqrt(rank A)
    lambda_max(A)], so the scale is within that of lambda_max(D) / 2."""
    top = max(float(np.max(den.diag, initial=0.0)), float(np.linalg.norm(den.dense)))
    return 1e-12 * max(top, 1e-300)


def estimate_observability_constant(model, grid, geom, traces, *, probes=32,
                                    power_iters=0, seed=0):
    """Lower estimate of the observability constant, repeated per frozen trace.

    Probes are paired across traces (same seeds) so the reported spread
    isolates the trace dependence.  The constant is only ever estimated
    from below; divergence (an unobserved direction) is flagged instead of
    chased.
    """
    traces = [np.asarray(t, dtype=float) for t in traces]
    if not traces:
        raise DomainError("estimate_observability_constant needs at least one trace")
    if probes < 1:
        raise DomainError("probes must be >= 1")

    seeds = [seed + 1000 * k for k in range(probes)]
    # deterministic cone-concentrated probes expose unobserved directions
    # that diffuse random data would average away
    cone = unreachable_from_window(grid, geom.male_window
                                   if geom.mode is not ControlMode.MALE_ONLY
                                   else (0.0, geom.male_window[1]), geom.horizon)
    cone_live = cone & (grid.ages() >= geom.horizon)
    if geom.mode is ControlMode.MALE_ONLY and geom.target_min_age > 0:
        cone_live &= grid.ages() >= geom.target_min_age

    estimates = []
    all_samples = []
    diverged = False
    power_best = None
    data = [_probe_data(np.random.default_rng(s), grid, geom) for s in seeds]
    if geom.mode is not ControlMode.FEMALE_ONLY and np.any(cone_live):
        rng = np.random.default_rng(seed + 99)
        n_T = np.where(cone_live, 1.0 + rng.random(cone_live.size), 0.0)
        data.append((n_T, np.zeros_like(n_T)))
    n_block = np.stack([n_T for n_T, _ in data], axis=1)
    l_block = np.stack([l_T for _, l_T in data], axis=1)

    op = None
    for trace in traces:
        # the traces share the operator's trace-independent tables
        op = FrozenOperator(model, grid, geom, trace) if op is None else op.retrace(trace)
        if power_iters > 0 or model.fertility.separable:
            # the Gramians give the probe quotients: the power iteration needs
            # them anyway, and in closed form they cost less than the probes
            samples = _gramian_quotients(op, n_block, l_block)
        else:
            # one sweep of the probes costs less than a swept Gramian assembly
            samples = _quotients(op, n_block, l_block)
        finite = [s for s in samples if math.isfinite(s)]
        if len(finite) < len(samples):
            diverged = True
        estimate = max(finite) if finite else INFINITE_QUOTIENT
        if power_iters > 0:
            power = _power_iteration(op, power_iters)
            if math.isfinite(power):
                estimate = max(estimate, power)
                power_best = power if power_best is None else max(power_best, power)
            else:
                diverged = True
                estimate = INFINITE_QUOTIENT
        estimates.append(estimate)
        all_samples.extend(samples)

    finite_estimates = [e for e in estimates if math.isfinite(e)]
    overall = max(estimates) if estimates else 0.0
    spread = 0.0
    if len(finite_estimates) == len(estimates) and len(estimates) > 1:
        spread = max(estimates) / min(estimates) - 1.0
    return ObservabilityReport(
        estimated_constant=overall,
        quotient_samples=all_samples,
        threshold_margin=geom.time_margin(grid.max_age),
        mode=geom.mode,
        diverged=diverged,
        estimates_by_trace=estimates,
        trace_spread=spread,
        power_estimate=power_best,
        grid_step=grid.step,
        geometry=geom,
    )


# ---------------------------------------------------------------------------
# geometric thresholds and characteristic cones


@dataclass
class ThresholdReport:
    margin_pair: float        # horizon - (a1 + A - a2): coupled and female-only
    margin_male: float        # horizon - (A - a2): male-only
    tail_witness: dict        # a0, kappa certifying the tail vanishing
    trace_witness: dict       # a0, kappa certifying the trace-window inequality


def threshold_margins(geom, max_age):
    """Margins of the strict time conditions plus explicit witnesses.

    The witnesses realize the constructions behind the vanishing of the
    male adjoint tail (slack inside (a1, a2), needs horizon > A - a2) and
    the trace-window chain (needs horizon > a1 + A - a2); both are None
    when the corresponding margin is not strictly positive.
    """
    a1, a2 = geom.male_window
    t_hor = geom.horizon
    margin_pair = t_hor - (a1 + max_age - a2)
    margin_male = t_hor - (max_age - a2)
    tail_witness = None
    if margin_male > 0:
        kappa = min(margin_male, a2 - a1) / 2.0
        tail_witness = {"a0": a2 - kappa, "kappa": kappa}
    trace_witness = None
    if margin_pair > 0:
        kappa = min(margin_pair, a2 - a1) / 4.0
        a0 = a2 - kappa
        trace_witness = {"a0": a0, "kappa": kappa,
                         "trace_window": t_hor - (a1 + kappa),
                         "tail_window": max_age - a0}
    return ThresholdReport(margin_pair=margin_pair, margin_male=margin_male,
                           tail_witness=tail_witness, trace_witness=trace_witness)


def unreachable_from_window(grid, window, horizon):
    """Terminal age nodes whose backward characteristic misses an age window.

    These are the ages where the direct control contribution is identically
    zero: characteristics through (a, T) sweep the ages (a - T, a), which
    avoid (lo, hi) exactly when a <= lo or a - T >= hi.
    """
    ages = grid.ages()
    tol = 1e-9 * max(1.0, grid.max_age)
    if window is None:
        return np.ones(ages.size, dtype=bool)
    lo, hi = window
    return (ages <= lo + tol) | (ages - horizon >= hi - tol)


def forced_terminal_mask(model, grid, geom, p_probes=(0.5, 1.0, 5.0)):
    """Age nodes where the terminal male profile is control-independent.

    Computed from the discrete scheme itself: a terminal node is forced
    when every arrival node on its backward characteristic carries zero
    male-control mask weight, and it is not fed by the birth boundary (age
    at least the horizon, or fertility identically zero, or no control can
    shape the female population).  On the returned nodes the controlled
    solve equals the uncontrolled one exactly, for every admissible
    control.
    """
    ages = grid.ages()
    mode = geom.mode
    mask_m, _ = control_masks(grid, geom)
    nt = grid.num_time_cells

    beta_active = False
    for p in p_probes:
        if float(np.max(np.abs(model.fertility(ages, p)))) > 0:
            beta_active = True
            break
    births_shapeable = beta_active and mode in (ControlMode.BOTH, ControlMode.FEMALE_ONLY)

    forced = np.zeros(ages.size, dtype=bool)
    for i in range(ages.size):
        j_lo = max(1, i - nt + 1)
        direct_dead = not np.any(mask_m[j_lo:i + 1] > 0)
        birth_fed = (i <= nt - 1) and births_shapeable
        forced[i] = direct_dead and not birth_fed
    return forced


def forced_set_measure(grid, mask):
    """Quadrature measure of a forced-age node set."""
    return float(np.dot(grid.age_weights(), mask.astype(float)))

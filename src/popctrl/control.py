"""Penalty-functional control synthesis for the frozen-trace system.

A control is the pair (v_m, v_f) of (N+1) x (Nt+1) lattice fields, zero off
the nodes that couple to the state (inside the region mask, ages >= 1, time
levels 1..Nt).  A sex without a control window has an empty region, so
its field stays zero.  Controls are paired by the duality-consistent
``adjoint.region_inner``, summed over the two sexes, and the objective is

    J(v) = 1/2 ||v||^2  +  1/(2 eps) (||m(T)||^2 + ||f(T)||^2)

with one terminal term per targeted slot, that is 1/2 h sum D y(T)^2 with D
the diagonal penalty weights of the stacked terminal state y(T): a targeted
slot's ``terminal_weights`` w enter D as w / (h eps).  Gradients
come from one adjoint image and are exact for the discrete objective because
the adjoint is the exact transpose of the forward map.

The Hessian is I + L* D L: L maps a control to the terminal state of the
zero-data frozen-trace system and L* is its adjoint (the operator's
transpose applied to a terminal work vector).  By HUM duality the optimum
is v = L* c, where c solves the terminal-space system
(I + D G / h) c = -D y0, G = h L L* is the operator's cached control
Gramian and y0 the terminal state of the uncontrolled system.  D is zero
off the targeted terminal entries, and so is c: the control Gramian lives
on them, in the block form of `popctrl.gramian`, which gives both the
solve (``penalised_solve``, on one row per young terminal age) and the
stopping scale |b| = |L* (-D y0)| (``energy``).  The stage checks the explicit
gradient on the controlled terminal state: it maps the control L* c
through L, never through G.  For separable fertility every map comes in
closed form from the operator's per-trace renewal system, so a stage runs
no level loop; any other fertility takes the step loop and the backward
sweep.  The supports, inner-product weights and terminal weights are the
operator's ``geometry_tables``, built once per operator family, so a stage
forms only its penalty weights.

A stage is a function of three things: its ``FrozenOperator``, which
holds the model, grid, geometry and frozen trace; the initial data; and one
eps.  The schedule supplies eps, one value per stage.  The geometry alone
sets the control mode, and ``forward`` holds its two rules:
``control_windows`` gives each sex's window or None, and
``terminal_weights`` the targeted terminal slots and entries with their
weights.  Everything here derives from them.  The objective and its
gradient at a given control are ``_Workspace.objective`` and
``_Workspace.gradient`` of a stage's workspace.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigurationError, checked, set_checked
from .forward import FrozenOperator, terminal_weights
from .grid import Field2D, lattice_inner

FLAG_NON_ADMISSIBLE = "NON_ADMISSIBLE"
FLAG_CONVERGENCE_NOT_REACHED = "CONVERGENCE_NOT_REACHED"
FLAG_TARGET_NOT_REACHED = "TARGET_NOT_REACHED"
FLAG_FIXED_POINT_NOT_REACHED = "FIXED_POINT_NOT_REACHED"
FLAG_CONTRACTION_BOUND_EXCEEDED = "CONTRACTION_BOUND_EXCEEDED"


@dataclass(frozen=True)
class EpsilonSchedule:
    start: float = 1e-2
    ratio: float = 10.0
    stages: int = 4

    def __post_init__(self):
        set_checked(self, "start", gt=0)
        set_checked(self, "ratio", gt=1)
        set_checked(self, "stages", ge=1, integer=True)
        try:
            last = self.start / self.ratio ** (self.stages - 1)
        except OverflowError:
            last = 0.0
        if not last > 0:
            # a zero epsilon is no penalty; the stage would reject it mid-solve
            raise ConfigurationError("stages: the last epsilon underflows to 0: "
                                     "use fewer stages or a smaller ratio")

    def values(self):
        return [self.start / self.ratio**k for k in range(self.stages)]


@dataclass
class PenaltyProblem:
    target_norm: float = 1e-3
    max_cg_iters: int = 800
    cg_tol: float = 1e-9
    schedule: EpsilonSchedule = dc_field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        set_checked(self, "target_norm", gt=0)
        set_checked(self, "max_cg_iters", ge=1, integer=True)
        set_checked(self, "cg_tol", gt=0)


@dataclass
class ControlResult:
    v_m: Field2D
    v_f: Field2D
    terminal_m_norm: float
    terminal_f_norm: float
    J_value: float
    cg_trace: list
    iterations: int
    converged: bool
    flags: list
    epsilon: float
    stage_history: list = dc_field(default_factory=list)
    # the controlled frozen-trace system: its trace, fertile-male trace and
    # stacked terminal (male, female) profiles
    frozen_trace: np.ndarray = None
    fertile_male_trace: np.ndarray = None
    terminal: np.ndarray = None


def terminal_norms(grid, geom, m, f):
    """(male, female) norms of terminal profiles, weighted as the target is tested.

    A targeted slot takes its ``terminal_weights`` (in male-only mode the
    tail above ``target_min_age``), a slot the target leaves out the full
    trapezoid weights.
    """
    wa = grid.age_weights()
    return tuple(float(np.sqrt(np.dot(wa if w is None else w, x ** 2)))
                 for w, x in zip(terminal_weights(grid, geom), (m, f)))


class _Workspace:
    """A penalty stage for one eps on one frozen-trace operator.

    A control is the pair [v_m, v_f] of (N+1) x (Nt+1) lattice arrays, zero
    off ``support``: the region-mask nodes at ages >= 1 and time levels
    >= 1, the only ones that couple to the state.  A sex without a control
    window has an empty region, so its field stays zero.
    The inner product is the duality-consistent ``region_inner`` summed
    over the two sexes, one fused product per sex on the operator's weight
    lattices; supports, weights and terminal weights are the operator's,
    and stages on one operator share its Gramian.
    """

    def __init__(self, operator, m0, f0, epsilon):
        epsilon = checked("epsilon", epsilon, gt=0)
        self.op = operator
        self.grid = operator.grid
        self.m0 = np.asarray(m0, dtype=float)
        self.f0 = np.asarray(f0, dtype=float)
        self.inner_weights, self.support, terminal = operator.geometry_tables()
        self._weights = terminal / (self.grid.step * epsilon)  # ``penalty_weights``

    def zeros(self):
        return [np.zeros(support.shape) for support in self.support]

    def observe(self, x):
        """(fertile-male trace, stacked terminal profiles) of the control x,
        from ``FrozenOperator.observe``."""
        return self.op.observe(self.m0, self.f0, *x)

    def adjoint_image(self, work):
        """L* of a stacked terminal work vector (male then female slot).

        L* is the adjoint of the terminal map L (zero data) in the pairing
        <L* u, x> = h * u . L x, so ``op.control_gramian()`` is h L L*.
        """
        size = self.m0.size
        n_rows, l_eff = self.op.adjoint_images(work[:size], work[size:])
        support_m, support_f = self.support
        return [np.where(support_m, n_rows, 0.0), np.where(support_f, l_eff, 0.0)]

    def penalty_weights(self):
        """Diagonal D of the terminal penalty in work coordinates: H = I + L* D L."""
        return self._weights

    def terminal(self, x):
        """Stacked terminal (male, female) profiles of the control x."""
        return self.observe(x)[1]

    def inner(self, x, y):
        return sum(lattice_inner(weights, a, b)
                   for weights, a, b in zip(self.inner_weights, x, y))

    def objective(self, x, terminal=None):
        """J(x) = 1/2 <x, x> + 1/2 h sum D y(T)^2, D the ``penalty_weights``;
        ``terminal`` is y(T) when already known."""
        if terminal is None:
            terminal = self.terminal(x)
        penalty = self.grid.step * float(np.dot(self.penalty_weights(), terminal ** 2))
        return 0.5 * (self.inner(x, x) + penalty)

    def gradient(self, x):
        image = self.adjoint_image(-self.penalty_weights() * self.terminal(x))
        return [xi - a for xi, a in zip(x, image)]


def minimize_penalty(problem, operator, m0, f0, epsilon):
    """Minimize the penalty functional of weight ``epsilon`` by the
    terminal-space (HUM) solve.

    Solves (I + D G / h) c = -D y0 on the control Gramian G of ``operator``,
    the FrozenOperator of the frozen trace, on the targeted terminal
    entries, and sets the control to L* c, a pair of lattice fields that
    vanish off the control support.  The
    uncontrolled terminal state y0, L* c, the controlled terminal state y(T)
    of each check and its adjoint image come from the operator: in closed
    form for separable fertility
    (``FrozenOperator.observe`` for y(T)), from the step loop and the sweeps
    for any other; only the control Gramian is assembled, and the
    trace-independent tables are the operator family's.  The norm |b| of
    the zero-control gradient b = L* w, w = -D y0, is sqrt(w . G w), so b
    itself is never formed.  The explicit gradient is checked on y(T): the
    stage stops when the gradient norm, in the region inner product, is at
    most cg_tol |b|.  While it is above, a correction solve on the terminal
    residual -(c + D y(T)) follows, the first from c = 0 and none when
    |b| = 0, up to max_cg_iters solves in all, after which
    CONVERGENCE_NOT_REACHED is flagged.  ``iterations`` counts the
    solves and ``cg_trace`` holds |b| and the gradient norm after each
    solve.  The result carries the frozen trace and the controlled system's
    fertile-male trace and terminal profiles.
    """
    grid, geom = operator.grid, operator.geom
    ws = _Workspace(operator, m0, f0, epsilon)
    weights = ws.penalty_weights()
    # (I + diag(shift) G) c on the targeted entries; c is zero off them
    gram, shift = operator.control_gramian(), weights / grid.step
    x = ws.zeros()
    observed = None
    work = -weights * operator.uncontrolled_terminal(ws.m0, ws.f0)  # -D y0
    c = np.zeros_like(work)
    # |b| = |L* work|, read off G = h L L*; rounding must not take it below 0
    norm_b = math.sqrt(max(float(gram.energy(work)), 0.0))
    tol = problem.cg_tol * norm_b
    cg_trace = [norm_b]
    while cg_trace[-1] > tol and len(cg_trace) <= problem.max_cg_iters:
        # correction on the terminal residual -(c + D y(T))
        delta = gram.penalised_solve(shift, work - c)
        c = c + delta
        x = [xi + si for xi, si in zip(x, ws.adjoint_image(delta))]
        observed = ws.observe(x)
        work = -weights * observed[1]
        grad = [xi - gi for xi, gi in zip(x, ws.adjoint_image(work))]
        cg_trace.append(float(np.sqrt(ws.inner(grad, grad))))
    converged = cg_trace[-1] <= tol
    if observed is None:  # no solve ran: the control stays zero
        observed = ws.observe(x)
    male_trace, terminal = observed

    m_norm, f_norm = terminal_norms(grid, geom, *np.split(terminal, 2))
    flags = []
    if not geom.admissible_time(grid.max_age):
        flags.append(FLAG_NON_ADMISSIBLE)
    if not converged:
        flags.append(FLAG_CONVERGENCE_NOT_REACHED)
    return ControlResult(
        v_m=Field2D(grid, x[0]), v_f=Field2D(grid, x[1]),
        terminal_m_norm=m_norm, terminal_f_norm=f_norm,
        J_value=ws.objective(x, terminal=terminal),
        cg_trace=cg_trace, iterations=len(cg_trace) - 1, converged=converged,
        flags=flags, epsilon=epsilon,
        frozen_trace=operator.trace.copy(), fertile_male_trace=male_trace, terminal=terminal,
    )


def target_reached(grid, geom, target_norm, m_norm, f_norm):
    """True when the norm of every slot ``terminal_weights`` targets is at
    most ``target_norm``."""
    return all(norm <= target_norm for w, norm
               in zip(terminal_weights(grid, geom), (m_norm, f_norm)) if w is not None)


def stage_entry(result):
    """Summary of one penalty stage, as recorded in ``stage_history``."""
    return {
        "epsilon": result.epsilon,
        "terminal_m_norm": result.terminal_m_norm,
        "terminal_f_norm": result.terminal_f_norm,
        "iterations": result.iterations,
        "J_value": result.J_value,
    }


def synthesize_null_control(problem, model, grid, geom, trace, m0, f0):
    """Walk the penalty schedule until the terminal norms meet the target.

    Returns the first successful stage's result, or the last stage flagged
    TARGET_NOT_REACHED.  Each stage is solved from scratch; the stages share
    one frozen-trace operator, hence one control Gramian.
    """
    operator = FrozenOperator(model, grid, geom, trace)
    history = []
    result = None
    for eps in problem.schedule.values():
        result = minimize_penalty(problem, operator, m0, f0, eps)
        history.append(stage_entry(result))
        result.stage_history = history
        if target_reached(grid, geom, problem.target_norm,
                          result.terminal_m_norm, result.terminal_f_norm):
            return result
    result.flags.append(FLAG_TARGET_NOT_REACHED)
    return result

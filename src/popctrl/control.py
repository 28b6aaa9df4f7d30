"""Penalty-functional control synthesis for the frozen-trace system.

A control is the pair (v_m, v_f) of (N+1) x (Nt+1) lattice fields, zero off
the nodes that couple to the state (inside the region mask, ages >= 1, time
levels 1..Nt).  The sex a single-control mode leaves uncontrolled has an
empty region, so its field stays zero.  Controls are paired by the
duality-consistent ``adjoint.region_inner``, summed over the two sexes, and
the objective is

    J(v) = 1/2 ||v||^2  +  1/(2 eps) ||m(T)||^2  (+ 1/(2 theta) ||f(T)||^2)

with mode-appropriate terminal terms, that is 1/2 h sum D y(T)^2 with D the
diagonal penalty weights of the stacked terminal state y(T).  Gradients come
from one adjoint sweep and are exact for the discrete objective because the
adjoint is the exact transpose of the forward map.

The Hessian is I + L* D L: L maps a control to the terminal state of the
zero-data frozen-trace system and L* is its adjoint (one backward sweep from
a terminal work vector).  By HUM duality the optimum is v = L* c, where c
solves the terminal-space system (I + D G / h) c = -D y0, G = h L L* is the
operator's cached control Gramian and y0 the terminal state of the
uncontrolled sweep.  So a stage runs one forward sweep for y0, one dense
solve in the 2(N+1) terminal coordinates and one adjoint sweep for the
control, then checks the explicit gradient from a forward and an adjoint
sweep; a correction solve on the remaining terminal residual runs only while
that gradient is above tolerance.

In the single-control modes the lone terminal term is weighted by
``epsilon``; ``theta`` only matters for the coupled mode.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .adjoint import region_inner
from .errors import ConfigurationError, ConsistencyError
from .forward import FrozenOperator, StateSolution
from .grid import Field2D, region_mask
from .model import ControlMode

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
        if not self.start > 0:
            raise ConfigurationError("schedule start must be positive")
        if not self.ratio > 1:
            raise ConfigurationError("schedule ratio must be above 1")
        if self.stages < 1:
            raise ConfigurationError("schedule needs at least one stage")

    def values(self):
        return [self.start / self.ratio**k for k in range(self.stages)]


@dataclass
class PenaltyProblem:
    epsilon: float = 1e-2
    theta: float = 1e-2
    target_norm: float = 1e-3
    mode: ControlMode = ControlMode.BOTH
    max_cg_iters: int = 800
    cg_tol: float = 1e-9
    schedule: EpsilonSchedule = dc_field(default_factory=EpsilonSchedule)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.mode is ControlMode.BOTH and self.theta <= 0:
            raise ConfigurationError("theta must be positive in coupled mode")
        if self.target_norm <= 0:
            raise ConfigurationError("target_norm must be positive")
        if self.max_cg_iters < 1:
            raise ConfigurationError("max_cg_iters must be at least 1")
        if not self.cg_tol > 0:
            raise ConfigurationError("cg_tol must be positive")


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
    theta: float
    stage_history: list = dc_field(default_factory=list)
    state: StateSolution = None  # the controlled frozen-trace solve


def terminal_weights(grid, geom):
    """Quadratic-form weights of the terminal penalty terms (W_m, W_f)."""
    wa = grid.age_weights()
    if geom.mode is ControlMode.BOTH:
        return wa, wa
    if geom.mode is ControlMode.MALE_ONLY:
        if geom.target_min_age > 0:
            wm = grid.step * region_mask(grid, geom.target_min_age, grid.max_age)
        else:
            wm = wa
        return wm, None
    return None, wa


def terminal_norms(grid, geom, m, f):
    """(male, female) norms of terminal profiles, weighted as the target is tested.

    The male norm uses the mode's penalty weight (the tail above
    ``target_min_age`` in male-only mode), the female norm the full
    trapezoid weights.
    """
    w_m, _ = terminal_weights(grid, geom)
    wa = grid.age_weights()
    m_norm = float(np.sqrt(np.dot(w_m if w_m is not None else wa, m ** 2)))
    f_norm = float(np.sqrt(np.dot(wa, f ** 2)))
    return m_norm, f_norm


def _check_modes(problem, geom):
    if problem.mode is not geom.mode:
        raise ConsistencyError(
            f"penalty mode {problem.mode} does not match geometry mode {geom.mode}")


class _Workspace:
    """Caches everything a penalty stage reuses for one (eps, theta).

    A control is the pair [v_m, v_f] of (N+1) x (Nt+1) lattice arrays, zero
    off ``support``: the region-mask nodes at ages >= 1 and time levels
    >= 1, the only ones that couple to the state.  The sex a single-control
    mode leaves uncontrolled has an empty region, so its field stays zero.
    The inner product is the duality-consistent ``region_inner`` summed
    over the two sexes.  One frozen-trace operator serves every forward and
    adjoint sweep; pass ``operator`` to share one (and its Gramian) between
    penalty stages.
    """

    def __init__(self, problem, model, grid, geom, trace, m0, f0, operator=None):
        _check_modes(problem, geom)
        self.problem = problem
        self.grid = grid
        self.geom = geom
        if operator is None:
            operator = FrozenOperator(model, grid, geom, trace)
        elif (operator.grid != grid or operator.geom != geom
              or not np.array_equal(operator.trace, np.asarray(trace, dtype=float))):
            raise ConsistencyError("operator was built for another grid, geometry "
                                   "or trace")
        self.op = operator
        self.m0 = np.asarray(m0, dtype=float)
        self.f0 = np.asarray(f0, dtype=float)
        self.masks = (operator.mask_m, operator.mask_f)
        # the age-zero node and time level 0 never couple to the state
        support = np.zeros((grid.num_age_cells + 1, grid.num_time_cells + 1), dtype=bool)
        support[1:, 1:] = True
        self.support = [support & (mask > 0)[:, None] for mask in self.masks]
        self.w_m, self.w_f = terminal_weights(grid, geom)
        self.zero_profile = np.zeros(grid.num_age_cells + 1)

    def zeros(self):
        return [np.zeros(support.shape) for support in self.support]

    def pack(self, v_m, v_f):
        """The control of two fields, restricted to ``support``; None counts as zero."""
        return [np.where(support, v.values, 0.0) if v is not None else np.zeros(support.shape)
                for support, v in zip(self.support, (v_m, v_f))]

    def forward(self, x, with_data):
        m0 = self.m0 if with_data else self.zero_profile
        f0 = self.f0 if with_data else self.zero_profile
        return self.op.state(m0, f0, *x)

    def adjoint_image(self, work):
        """L* of a stacked terminal work vector (male then female slot).

        L* is the adjoint of the terminal map L (zero data) in the pairing
        <L* u, x> = h * u . L x, so ``op.control_gramian()`` is h L L*.
        """
        return self.adjoint_images(work)[0]

    def adjoint_images(self, *works):
        """``adjoint_image`` of each work vector, from one batched sweep."""
        size = self.zero_profile.size
        block = np.stack(works, axis=1)
        shape = (size, self.grid.num_time_cells + 1, len(works))
        n_rows, l_eff = np.zeros(shape), np.zeros(shape)

        def store(j, n_j, l_j, l_eff_j):
            n_rows[:, j] = n_j
            l_eff[:, j] = l_eff_j

        self.op.adjoint_levels(block[:size], block[size:], store)
        support_m, support_f = self.support
        return [[np.where(support_m, n_rows[..., c], 0.0),
                 np.where(support_f, l_eff[..., c], 0.0)] for c in range(len(works))]

    def penalty_weights(self):
        """Diagonal D of the terminal penalty in work coordinates: H = I + L* D L."""
        h = self.grid.step
        size = self.zero_profile.size
        weights = np.zeros(2 * size)
        if self.w_m is not None:
            weights[:size] = self.w_m / (h * self.problem.epsilon)
        if self.w_f is not None:
            weights[size:] = self.w_f / (h * self.effective_theta())
        return weights

    def terminal(self, x, with_data):
        """Stacked terminal (male, female) profiles of the controlled sweep."""
        return _terminal(self.forward(x, with_data))

    def effective_theta(self):
        return self.problem.theta if self.geom.mode is ControlMode.BOTH \
            else self.problem.epsilon

    def apply_hessian(self, x):
        image = self.adjoint_image(self.penalty_weights() * self.terminal(x, with_data=False))
        return [xi + a for xi, a in zip(x, image)]

    def rhs(self):
        return self.adjoint_image(
            -self.penalty_weights() * self.terminal(self.zeros(), with_data=True))

    def inner(self, x, y):
        return sum(region_inner(self.grid, mask, a, b)
                   for mask, a, b in zip(self.masks, x, y))

    def objective(self, x, state=None):
        """J(x) = 1/2 <x, x> + 1/2 h sum D y(T)^2, D the ``penalty_weights``."""
        if state is None:
            state = self.forward(x, with_data=True)
        penalty = self.grid.step * float(np.dot(self.penalty_weights(), _terminal(state) ** 2))
        return 0.5 * (self.inner(x, x) + penalty)

    def gradient(self, x):
        image = self.adjoint_image(-self.penalty_weights() * self.terminal(x, with_data=True))
        return [xi - a for xi, a in zip(x, image)]

    def terminal_norms(self, state):
        return terminal_norms(self.grid, self.geom, state.m.values[:, -1],
                              state.f.values[:, -1])


def evaluate_objective(problem, model, grid, geom, trace, m0, f0, v_m, v_f):
    """Value of the penalty functional at the given controls."""
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0)
    return ws.objective(ws.pack(v_m, v_f))


def objective_gradient(problem, model, grid, geom, trace, m0, f0, v_m, v_f):
    """Exact gradient of the discrete objective, as region-supported fields.

    Returns (g_m, g_f) Field2D, each equal to the control minus the masked
    adjoint state on the control's support and zero elsewhere, the gradient
    in the region inner product; the entry for a sex the mode leaves
    uncontrolled is None.
    """
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0)
    g_m, g_f = ws.gradient(ws.pack(v_m, v_f))
    return (None if geom.mode is ControlMode.FEMALE_ONLY else Field2D(grid, g_m),
            None if geom.mode is ControlMode.MALE_ONLY else Field2D(grid, g_f))


def _terminal(state):
    """Stacked terminal (male, female) profiles of a state."""
    return np.concatenate([state.m.values[:, -1], state.f.values[:, -1]])


def minimize_penalty(problem, model, grid, geom, trace, m0, f0, *, epsilon=None,
                     theta=None, operator=None):
    """Minimize the penalty functional by the terminal-space (HUM) solve.

    Solves (I + D G / h) c = -D y0 on the control Gramian G of ``operator``,
    a FrozenOperator for ``trace`` that is built here when None, and sets
    the control to L* c, a pair of lattice fields that vanish off the
    control support.  Stops when the explicit gradient norm, in the region
    inner product, is at most cg_tol times the zero-control gradient norm
    |b|; while it is above, a correction solve on the terminal residual
    -(c + D y(T)) follows, up to max_cg_iters solves in all, after which
    CONVERGENCE_NOT_REACHED is flagged.  ``iterations`` counts the solves
    and ``cg_trace`` holds |b| and the gradient norm after each solve.  The
    result carries the controlled frozen-trace state.
    """
    if epsilon is not None or theta is not None:
        problem = replace(
            problem,
            epsilon=epsilon if epsilon is not None else problem.epsilon,
            theta=theta if theta is not None else problem.theta)
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0, operator=operator)
    weights = ws.penalty_weights()
    x = ws.zeros()
    state = ws.forward(x, with_data=True)
    work = -weights * _terminal(state)  # -D y0
    c = ws.op.solve_gramian(work, weights)
    b, step = ws.adjoint_images(work, c)  # the right-hand side and L* c, one sweep
    norm_b = np.sqrt(ws.inner(b, b))
    tol = problem.cg_tol * norm_b
    cg_trace = [float(norm_b)]
    while cg_trace[-1] > tol and len(cg_trace) <= problem.max_cg_iters:
        if len(cg_trace) > 1:
            # correction on the terminal residual -(c + D y(T))
            delta = ws.op.solve_gramian(work - c, weights)
            c = c + delta
            step = ws.adjoint_image(delta)
        x = [xi + si for xi, si in zip(x, step)]
        state = ws.forward(x, with_data=True)
        work = -weights * _terminal(state)
        grad = [xi - gi for xi, gi in zip(x, ws.adjoint_image(work))]
        cg_trace.append(float(np.sqrt(ws.inner(grad, grad))))
    converged = cg_trace[-1] <= tol

    m_norm, f_norm = ws.terminal_norms(state)
    flags = []
    if not geom.admissible_time(grid.max_age):
        flags.append(FLAG_NON_ADMISSIBLE)
    if not converged:
        flags.append(FLAG_CONVERGENCE_NOT_REACHED)
    return ControlResult(
        v_m=Field2D(grid, x[0]), v_f=Field2D(grid, x[1]),
        terminal_m_norm=m_norm, terminal_f_norm=f_norm,
        J_value=ws.objective(x, state=state),
        cg_trace=cg_trace, iterations=len(cg_trace) - 1, converged=converged,
        flags=flags, epsilon=problem.epsilon, theta=ws.effective_theta(),
        state=state,
    )


def target_reached(mode, target_norm, m_norm, f_norm):
    if mode is ControlMode.MALE_ONLY:
        return m_norm <= target_norm
    if mode is ControlMode.FEMALE_ONLY:
        return f_norm <= target_norm
    return m_norm <= target_norm and f_norm <= target_norm


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
        result = minimize_penalty(problem, model, grid, geom, trace, m0, f0,
                                  epsilon=eps, theta=eps, operator=operator)
        history.append(stage_entry(result))
        result.stage_history = history
        if target_reached(geom.mode, problem.target_norm,
                          result.terminal_m_norm, result.terminal_f_norm):
            return result
    result.flags.append(FLAG_TARGET_NOT_REACHED)
    return result

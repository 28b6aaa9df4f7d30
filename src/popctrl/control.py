"""Penalty-functional control synthesis for the frozen-trace system.

The optimization variable is the control itself, restricted to the nodes
that actually couple to the state (inside the region mask, time levels
1..Nt).  In that space the objective is

    J(v) = 1/2 ||v||^2  +  1/(2 eps) ||m(T)||^2  (+ 1/(2 theta) ||f(T)||^2)

with mode-appropriate terminal terms.  Gradients come from one adjoint
sweep and are exact for the discrete objective because the adjoint is the
exact transpose of the forward map.

The Hessian is I + L* D L: L maps a control to the terminal state of the
zero-data frozen-trace system, L* is its adjoint (one backward sweep from
a terminal work vector) and D holds the penalty weights.  By HUM duality
the optimum is v = L* c, where c solves the terminal-space system
(I + D G / h) c = -D y0, G = h L L* is the operator's cached control
Gramian and y0 the terminal state of the uncontrolled sweep.  So a stage
runs one forward sweep for y0, one dense solve in the 2(N+1) terminal
coordinates and one adjoint sweep for the control, then checks the
explicit gradient from a forward and an adjoint sweep; a correction solve
on the remaining terminal residual runs only while that gradient is above
tolerance.

In the single-control modes the lone terminal term is weighted by
``epsilon``; ``theta`` only matters for the coupled mode.
"""

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import ConfigurationError, ConsistencyError
from .forward import FrozenOperator, StateSolution, control_masks
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


class ControlSpace:
    """Active control degrees of freedom over one region mask."""

    def __init__(self, grid, mask):
        self.grid = grid
        self.mask = mask
        idx = np.where(mask > 0)[0]
        self.idx = idx[idx >= 1]  # the age-zero node never couples to the state
        self.wq = (grid.step**2) * mask[self.idx]

    def pack(self, values):
        return values[self.idx, 1:].copy()

    def unpack(self, packed):
        full = np.zeros((self.grid.num_age_cells + 1, self.grid.num_time_cells + 1))
        full[self.idx, 1:] = packed
        return full

    def zeros(self):
        return np.zeros((self.idx.size, self.grid.num_time_cells))

    def inner(self, u, v):
        return float(np.sum(self.wq[:, None] * u * v))


def build_spaces(grid, geom):
    """(male space or None, female space or None) for the geometry's mode."""
    mask_m, mask_f = control_masks(grid, geom)
    male = ControlSpace(grid, mask_m) if geom.mode is not ControlMode.FEMALE_ONLY else None
    female = ControlSpace(grid, mask_f) if geom.mode is not ControlMode.MALE_ONLY else None
    return male, female


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

    One frozen-trace operator serves every forward and adjoint sweep; pass
    ``operator`` to share one (and its Gramian) between penalty stages.
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
        self.male, self.female = build_spaces(grid, geom)
        self.spaces = [s for s in (self.male, self.female) if s is not None]
        self.w_m, self.w_f = terminal_weights(grid, geom)
        self.zero_profile = np.zeros(grid.num_age_cells + 1)

    def pack(self, v_m, v_f):
        """Packed control of the active spaces; an absent field counts as zero."""
        zeros2 = np.zeros((self.grid.num_age_cells + 1, self.grid.num_time_cells + 1))
        return [space.pack(v.values if v is not None else zeros2)
                for space, v in ((self.male, v_m), (self.female, v_f))
                if space is not None]

    def fields_from_packed(self, packed):
        i = 0
        vm = vf = None
        if self.male is not None:
            vm = self.male.unpack(packed[i]); i += 1
        if self.female is not None:
            vf = self.female.unpack(packed[i])
        return vm, vf

    def forward(self, packed, with_data):
        vm, vf = self.fields_from_packed(packed)
        m0 = self.m0 if with_data else self.zero_profile
        f0 = self.f0 if with_data else self.zero_profile
        return self.op.state(m0, f0, vm, vf)

    def adjoint_image(self, work):
        """L* of a stacked terminal work vector (male then female slot), packed.

        L* is the adjoint of the terminal map L (zero data) in the pairing
        <L* u, x> = h * u . L x, so ``op.control_gramian()`` is h L L*.
        """
        return self.adjoint_images(work)[0]

    def adjoint_images(self, *works):
        """``adjoint_image`` of each work vector, from one batched sweep."""
        size = self.zero_profile.size
        block = np.stack(works, axis=1)
        _, _, n_eff, l_eff = self.op.adjoint(block[:size], block[size:])
        images = []
        for c in range(len(works)):
            image = []
            if self.male is not None:
                image.append(n_eff[self.male.idx, 1:, c])
            if self.female is not None:
                image.append(l_eff[self.female.idx, 1:, c])
            images.append(image)
        return images

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

    def terminal(self, packed, with_data):
        """Stacked terminal (male, female) profiles of the controlled sweep."""
        return _terminal(self.forward(packed, with_data))

    def adjoint_packed(self, m_term, f_term, sign):
        """Pack the adjoint of sign/eps-weighted terminal states onto the spaces."""
        return self.adjoint_image(
            sign * self.penalty_weights() * np.concatenate([m_term, f_term]))

    def effective_theta(self):
        return self.problem.theta if self.geom.mode is ControlMode.BOTH \
            else self.problem.epsilon

    def apply_hessian(self, packed):
        state = self.forward(packed, with_data=False)
        adj = self.adjoint_packed(state.m.values[:, -1], state.f.values[:, -1], +1.0)
        return [p + a for p, a in zip(packed, adj)]

    def rhs(self):
        state = self.forward([s.zeros() for s in self.spaces], with_data=True)
        return self.adjoint_packed(state.m.values[:, -1], state.f.values[:, -1], -1.0)

    def inner(self, x, y):
        return sum(s.inner(a, b) for s, a, b in zip(self.spaces, x, y))

    def objective(self, packed, state=None):
        if state is None:
            state = self.forward(packed, with_data=True)
        value = 0.5 * self.inner(packed, packed)
        if self.w_m is not None:
            value += 0.5 / self.problem.epsilon * float(
                np.dot(self.w_m, state.m.values[:, -1] ** 2))
        if self.w_f is not None:
            value += 0.5 / self.effective_theta() * float(
                np.dot(self.w_f, state.f.values[:, -1] ** 2))
        return value

    def gradient(self, packed):
        state = self.forward(packed, with_data=True)
        adj = self.adjoint_packed(state.m.values[:, -1], state.f.values[:, -1], -1.0)
        return [p - a for p, a in zip(packed, adj)]

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
    adjoint state on its region and zero elsewhere; the entry for an
    inactive control mode is None.
    """
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0)
    g_m, g_f = ws.fields_from_packed(ws.gradient(ws.pack(v_m, v_f)))
    return (None if g_m is None else Field2D(grid, g_m),
            None if g_f is None else Field2D(grid, g_f))


def _terminal(state):
    """Stacked terminal (male, female) profiles of a state."""
    return np.concatenate([state.m.values[:, -1], state.f.values[:, -1]])


def minimize_penalty(problem, model, grid, geom, trace, m0, f0, *, epsilon=None,
                     theta=None, operator=None):
    """Minimize the penalty functional by the terminal-space (HUM) solve.

    Solves (I + D G / h) c = -D y0 on the control Gramian G of ``operator``,
    a FrozenOperator for ``trace`` that is built here when None, and sets
    the control to L* c.  Stops when the explicit gradient norm is at most
    cg_tol times the zero-control gradient norm |b|; while it is above, a
    correction solve on the terminal residual -(c + D y(T)) follows, up to
    max_cg_iters solves in all, after which CONVERGENCE_NOT_REACHED is
    flagged.  ``iterations`` counts the solves and ``cg_trace`` holds |b|
    and the gradient norm after each solve.  The result carries the
    controlled frozen-trace state.
    """
    if epsilon is not None or theta is not None:
        problem = replace(
            problem,
            epsilon=epsilon if epsilon is not None else problem.epsilon,
            theta=theta if theta is not None else problem.theta)
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0, operator=operator)
    weights = ws.penalty_weights()
    x = [s.zeros() for s in ws.spaces]
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
    vm, vf = ws.fields_from_packed(x)
    zeros2 = np.zeros((grid.num_age_cells + 1, grid.num_time_cells + 1))
    return ControlResult(
        v_m=Field2D(grid, vm if vm is not None else zeros2),
        v_f=Field2D(grid, vf if vf is not None else zeros2.copy()),
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

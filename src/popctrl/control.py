"""Penalty-functional control synthesis for the frozen-trace system.

The optimization variable is the control itself, restricted to the nodes
that actually couple to the state (inside the region mask, time levels
1..Nt).  In that space the objective is

    J(v) = 1/2 ||v||^2  +  1/(2 eps) ||m(T)||^2  (+ 1/(2 theta) ||f(T)||^2)

with mode-appropriate terminal terms, its Hessian is identity plus a
positive semidefinite compact part, and plain conjugate gradients converge
without preconditioning.  Gradients come from one adjoint sweep and are
exact for the discrete objective because the adjoint is the exact
transpose of the forward map.

The compact part is L* D L: L maps a control to the terminal state of the
zero-data frozen-trace system, L* is its adjoint (one backward sweep from
a terminal work vector) and D holds the penalty weights.  So every CG
vector is an explicit anchor plus L* of a terminal-space vector of size
2(N+1), and the CG recurrence runs on those coordinates with the
operator's cached control Gramian G = h L L* (HUM duality): an iteration
is one 2(N+1)-sized matrix-vector product instead of a forward and an
adjoint sweep.  A handful of sweeps per call set up the anchor, confirm
the final residual and form the control and its state.  The recurrence,
the stopping rule and the flags are those of control-space CG.

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
    """Caches everything reused across CG iterations for one (eps, theta).

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
        state = self.forward(packed, with_data)
        return np.concatenate([state.m.values[:, -1], state.f.values[:, -1]])

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

    def rhs_and_hessian(self, packed):
        """(``rhs()``, ``apply_hessian(packed)``) from one forward and one
        adjoint sweep of two columns: the data with zero control, and zero
        data with the control ``packed``."""
        zero = self.zero_profile
        zeros = self.fields_from_packed([s.zeros() for s in self.spaces])
        controls = [None if v is None else np.stack([v0, v], axis=-1)
                    for v0, v in zip(zeros, self.fields_from_packed(packed))]
        m, f, _, _ = self.op.forward(np.stack([self.m0, zero], axis=1),
                                     np.stack([self.f0, zero], axis=1), *controls)
        weights = self.penalty_weights()
        y0, y = (np.concatenate([m[:, -1, c], f[:, -1, c]]) for c in (0, 1))
        b, adj = self.adjoint_images(-weights * y0, weights * y)
        return b, [p + a for p, a in zip(packed, adj)]

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


_PROJECTION_RIDGE = 1e-12


def _terminal_cg(ws, r0, rho0, tol, max_iters):
    """The CG recurrence for H x = r0 on vectors sigma * u + L* c.

    u is the part of r0 that L* does not reach: r0 = u + L* c0, with c0 the
    ridge-regularized least-squares fit G c0 = h L r0.  Then
    H (sigma, c) = (sigma, c + D (G c / h + sigma * t_u)), with G the
    operator's control Gramian and t_u = L u, and every inner product is
    sigma sigma' |u|^2 + h (sigma c' + sigma' c) . t_u + c . G c', so an
    iteration costs one Gramian product instead of a forward and an adjoint
    sweep.  Because u is small and nearly orthogonal to the range of L*, no
    anchor term cancels against L* c as the residual shrinks, for cold
    starts and for warm starts from another trace alike.  Once the formula
    puts the residual below the tolerance, one adjoint sweep forms it and
    the stopping test uses its norm; the same sweep forms L* of the current
    c_x, which is the last term of the solution when the loop ends there.

    Returns (sigma, c) of the solution sigma * u + L* c of H x = r0, u,
    L* c (None when the loop did not end on that check), the residual norm
    history and the final squared residual norm.
    """
    h = ws.grid.step
    gram = ws.op.control_gramian()
    weights = ws.penalty_weights()
    scale = float(np.max(np.diag(gram)))
    c_r = np.zeros_like(weights)
    if scale > 0:
        c_r = ws.op.solve_gramian(h * ws.terminal(r0, with_data=False),
                                  _PROJECTION_RIDGE * scale)
    u = [ri - li for ri, li in zip(r0, ws.adjoint_image(c_r))]
    t_u = ws.terminal(u, with_data=False)
    rho_u = ws.inner(u, u)

    def inner(s1, c1, gc1, s2, c2):
        return s1 * s2 * rho_u + h * (s1 * np.dot(c2, t_u) + s2 * np.dot(c1, t_u)) \
            + float(np.dot(c2, gc1))

    sigma_x, c_x, image_x = 0.0, np.zeros_like(weights), None
    sigma_r, gc_r = 1.0, gram @ c_r
    sigma_d, c_d, gc_d = sigma_r, c_r.copy(), gc_r.copy()
    rho = rho0
    history = []
    while np.sqrt(rho) > tol and len(history) < max_iters:
        c_q = c_d + weights * (gc_d / h + sigma_d * t_u)
        gc_q = gram @ c_q
        dq = inner(sigma_d, c_q, gc_q, sigma_d, c_d)
        if dq <= 0:
            break  # numerically exhausted: Hessian is SPD so this is rounding
        alpha = rho / dq
        sigma_x += alpha * sigma_d
        c_x += alpha * c_d
        image_x = None
        sigma_r -= alpha * sigma_d
        c_r -= alpha * c_q
        gc_r -= alpha * gc_q
        rho_new = inner(sigma_r, c_r, gc_r, sigma_r, c_r)
        if rho_new <= tol * tol:
            # near the tolerance the formula's terms cancel: stop on the residual itself
            image_r, image_x = ws.adjoint_images(c_r, c_x)
            r = [sigma_r * ui + li for ui, li in zip(u, image_r)]
            rho_new = ws.inner(r, r)
        beta = rho_new / rho
        sigma_d = sigma_r + beta * sigma_d
        c_d = c_r + beta * c_d
        gc_d = gc_r + beta * gc_d
        rho = rho_new
        history.append(float(np.sqrt(rho)))
    return sigma_x, c_x, u, image_x, history, rho


def minimize_penalty(problem, model, grid, geom, trace, m0, f0, *, v_init=None,
                     epsilon=None, theta=None, operator=None):
    """Conjugate-gradient minimization of the penalty functional.

    Stops when the gradient norm falls below cg_tol times the zero-control
    gradient norm, or flags CONVERGENCE_NOT_REACHED after max_cg_iters (or
    when the curvature along a search direction is not positive).  The
    iterations run in terminal coordinates on the control Gramian of
    ``operator``, a FrozenOperator for ``trace`` that is built here when
    None.  The result carries the controlled frozen-trace state.
    """
    if epsilon is not None or theta is not None:
        problem = replace(
            problem,
            epsilon=epsilon if epsilon is not None else problem.epsilon,
            theta=theta if theta is not None else problem.theta)
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0, operator=operator)
    if v_init is None:
        b = ws.rhs()
        x = [s.zeros() for s in ws.spaces]
        r0 = b
    else:
        x = [p.copy() for p in v_init]
        b, hx = ws.rhs_and_hessian(x)
        r0 = [bi - hi for bi, hi in zip(b, hx)]
    norm_b = np.sqrt(ws.inner(b, b))
    rho = ws.inner(r0, r0)
    cg_trace = [float(np.sqrt(rho))]
    tol = problem.cg_tol * norm_b
    iterations = 0
    if np.sqrt(rho) > tol and problem.max_cg_iters > 0:
        sigma, c, u, image, history, rho = _terminal_cg(ws, r0, rho, tol,
                                                        problem.max_cg_iters)
        cg_trace += history
        iterations = len(history)
        if image is None:
            image = ws.adjoint_image(c)
        x = [xi + sigma * ui + li for xi, ui, li in zip(x, u, image)]
    converged = np.sqrt(rho) <= tol

    state = ws.forward(x, with_data=True)
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
        cg_trace=cg_trace, iterations=iterations, converged=converged,
        flags=flags, epsilon=problem.epsilon, theta=ws.effective_theta(),
        state=state,
    ), x


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
    TARGET_NOT_REACHED.  Stages warm-start from the previous controls and
    share one frozen-trace operator, hence one control Gramian.
    """
    operator = FrozenOperator(model, grid, geom, trace)
    history = []
    packed = None
    result = None
    for eps in problem.schedule.values():
        result, packed = minimize_penalty(problem, model, grid, geom, trace, m0, f0,
                                          v_init=packed, epsilon=eps, theta=eps,
                                          operator=operator)
        history.append(stage_entry(result))
        result.stage_history = history
        if target_reached(geom.mode, problem.target_norm,
                          result.terminal_m_norm, result.terminal_f_norm):
            return result, packed
    result.flags.append(FLAG_TARGET_NOT_REACHED)
    return result, packed

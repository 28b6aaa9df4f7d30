"""The control and initial-energy Gramians of a frozen-trace operator, and the
penalty solve that runs on the control Gramian in terminal coordinates,
against a dense solve of the full system and the control-space CG loop."""

from dataclasses import replace

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, PenaltyProblem, build_grid,
                     minimize_penalty, solve_forward)
from popctrl.control import _Workspace
from popctrl.errors import ConsistencyError
from popctrl.forward import FrozenOperator

from conftest import (PenaltySystem, expr_fertility_model, random_nonneg_model,
                      reference_data, reference_model)


def _geometry(mode, horizon, target_min_age=0.0):
    return ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=horizon, target_min_age=target_min_age, mode=mode)


def reference_minimize_penalty(problem, model, grid, geom, trace, m0, f0, *,
                               epsilon=None, theta=None):
    """The control-space CG loop: one forward and one adjoint sweep per iteration.

    Returns (packed control, iterations, cg_trace, converged).
    """
    if epsilon is not None or theta is not None:
        problem = replace(
            problem,
            epsilon=epsilon if epsilon is not None else problem.epsilon,
            theta=theta if theta is not None else problem.theta)
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0)
    system = PenaltySystem(ws)
    b = system.rhs()
    norm_b = np.sqrt(ws.inner(b, b))
    x = ws.zeros()
    r = [bi.copy() for bi in b]
    rho = ws.inner(r, r)
    cg_trace = [float(np.sqrt(rho))]
    d = [ri.copy() for ri in r]
    iterations = 0
    tol = problem.cg_tol * norm_b
    while np.sqrt(rho) > tol and iterations < problem.max_cg_iters:
        q = system.apply_hessian(d)
        dq = ws.inner(d, q)
        if dq <= 0:
            break  # numerically exhausted: Hessian is SPD so this is rounding
        alpha = rho / dq
        x = [xi + alpha * di for xi, di in zip(x, d)]
        r = [ri - alpha * qi for ri, qi in zip(r, q)]
        rho_new = ws.inner(r, r)
        d = [ri + (rho_new / rho) * di for ri, di in zip(r, d)]
        rho = rho_new
        cg_trace.append(float(np.sqrt(rho)))
        iterations += 1
    converged = np.sqrt(rho) <= tol
    return x, iterations, cg_trace, converged


def _naive_gramian(ws):
    size = 2 * (ws.grid.num_age_cells + 1)
    images = [ws.adjoint_image(np.eye(size)[p]) for p in range(size)]
    return np.array([[ws.inner(a, b) for b in images] for a in images])


def _naive_initial_gramian(op):
    size = 2 * (op.grid.num_age_cells + 1)
    wa = op.grid.age_weights()
    rows = []
    for p in range(size):
        n, l, _, _ = op.adjoint(*np.split(np.eye(size)[p], 2))
        rows.append((n[:, 0], l[:, 0]))
    return np.array([[np.dot(wa, n_p * n_q) + np.dot(wa, l_p * l_q) for n_q, l_q in rows]
                     for n_p, l_p in rows])


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _check_gramians(ws):
    """Both Gramians of the workspace's operator against the pairwise adjoint
    images and against the sweep assembly; separable fertility takes the
    closed form, any other the sweep itself."""
    op = ws.op
    swept = op._assemble_gramians()
    control, initial = op.gramians()
    for got, pairwise, sweep in ((control.matrix(), _naive_gramian(ws), swept[0].matrix()),
                                 (initial.matrix(), _naive_initial_gramian(op),
                                  swept[1].matrix())):
        assert _close(got, pairwise)
        if op.fertility.separable:
            assert _close(got, sweep)
        else:
            assert np.array_equal(got, sweep)
    assert (op._renewal is not None) == op.fertility.separable


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
@pytest.mark.parametrize("horizon", [0.35, 1.0])  # 1.0: every terminal age reaches age 0
@pytest.mark.parametrize("make_model", [reference_model, lambda: random_nonneg_model(5),
                                        expr_fertility_model],
                         ids=["reference", "random_nonneg", "expr"])
def test_structured_gramian_matches_pairwise_adjoint_images(mode, target_min_age,
                                                            horizon, make_model):
    # random_nonneg: fertility ignores the onset, boundary sweep;
    # expr: fertility is not separable, so the Gramians come from the sweep
    model = make_model()
    geom = _geometry(mode, horizon, target_min_age)
    grid = build_grid(1.0, horizon, 1.0 / 16)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    problem = PenaltyProblem(epsilon=1e-3, theta=1e-3, mode=mode)
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0)
    gram, initial = ws.op.gramians()
    _check_gramians(ws)
    # cached on the operator, and each expanded matrix on its blocks
    assert all(a is b for a, b in zip(ws.op.gramians(), (gram, initial)))
    assert ws.op.control_gramian() is gram
    assert gram.matrix() is gram.matrix()


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
@pytest.mark.parametrize("horizon", [0.35, 1.0, 1.3])  # 1.3: no terminal age is older
@pytest.mark.parametrize("last_cell_survival", [0.0, 0.5])
@pytest.mark.parametrize("female_fraction", [0.05, 0.95])
def test_birth_source_split_matches_pairwise_adjoint_images(mode, target_min_age, horizon,
                                                            last_cell_survival,
                                                            female_fraction):
    # the male and female images of a young terminal age are the (a, b) shares
    # of one birth response; a lopsided female fraction makes one share tiny,
    # and a dead last cell gives the oldest age no response at all
    model = replace(reference_model(gamma=female_fraction),
                    last_cell_survival=last_cell_survival)
    geom = _geometry(mode, horizon, target_min_age)
    grid = build_grid(1.0, horizon, 1.0 / 16)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    ws = _Workspace(PenaltyProblem(mode=mode), model, grid, geom, trace, m0, f0)
    _check_gramians(ws)


def test_gramian_pairs_terminal_map_and_adjoint():
    # <L* u, x> = h u . L x, so G = h L L*
    model = reference_model()
    geom = _geometry(ControlMode.BOTH, 0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    ws = _Workspace(PenaltyProblem(), model, grid, geom, trace, m0, f0)
    r = np.random.default_rng(4)
    c = r.standard_normal(2 * (grid.num_age_cells + 1))
    lc = PenaltySystem(ws).terminal_map(ws.adjoint_image(c))
    gc = ws.op.control_gramian().matrix() @ c
    assert np.max(np.abs(grid.step * lc - gc)) <= 1e-12 * np.max(np.abs(gc))


def _relative(ws, x, y):
    diff = [a - b for a, b in zip(x, y)]
    return np.sqrt(ws.inner(diff, diff) / ws.inner(y, y))


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
@pytest.mark.parametrize("eps", [1e-2, 1e-5])
def test_terminal_solve_matches_dense_system_and_control_space_loop(mode, target_min_age,
                                                                   eps):
    model = reference_model()
    geom = _geometry(mode, 0.35, target_min_age)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    problem = PenaltyProblem(mode=mode, max_cg_iters=2000, cg_tol=1e-10)
    result = minimize_penalty(problem, model, grid, geom, trace, m0, f0,
                              epsilon=eps, theta=eps)
    assert result.converged and result.iterations == 1
    assert len(result.cg_trace) == result.iterations + 1
    ws = _Workspace(replace(problem, epsilon=eps, theta=eps), model, grid, geom,
                    trace, m0, f0)
    got = ws.pack(result.v_m, result.v_f)

    # the optimum L* D^1/2 w, with (I + D^1/2 G D^1/2 / h) w = -D^1/2 y0 solved
    # densely on the pairwise Gramian, with no Schur complement
    root = np.sqrt(ws.penalty_weights())
    y0 = ws.terminal(ws.zeros())
    system = np.eye(root.size) + root[:, None] * _naive_gramian(ws) * root / grid.step
    exact = ws.adjoint_image(root * np.linalg.solve(system, -root * y0))
    assert _relative(ws, got, exact) <= 1e-10

    want, _, _, want_conv = reference_minimize_penalty(
        problem, model, grid, geom, trace, m0, f0, epsilon=eps, theta=eps)
    assert want_conv
    assert _relative(ws, got, want) <= 1e-8


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
def test_gradient_below_tolerance_after_every_stage(mode, target_min_age):
    model = reference_model()
    geom = _geometry(mode, 0.35, target_min_age)
    grid = build_grid(1.0, 0.35, 1.0 / 80)
    assert (grid.num_age_cells, grid.num_time_cells) == (80, 28)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    operator = FrozenOperator(model, grid, geom, trace)
    problem = PenaltyProblem(mode=mode, max_cg_iters=4000, cg_tol=1e-9)
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        result = minimize_penalty(problem, model, grid, geom, trace, m0, f0,
                                  epsilon=eps, theta=eps, operator=operator)
        assert result.converged
        ws = _Workspace(replace(problem, epsilon=eps, theta=eps), model, grid, geom,
                        trace, m0, f0)
        b = PenaltySystem(ws).rhs()
        grad = ws.gradient(ws.pack(result.v_m, result.v_f))
        assert np.sqrt(ws.inner(grad, grad)) <= \
            1.01 * problem.cg_tol * np.sqrt(ws.inner(b, b))


def test_operator_for_another_trace_is_rejected():
    model = reference_model()
    geom = _geometry(ControlMode.BOTH, 0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 16)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    operator = FrozenOperator(model, grid, geom, 2.0 * trace)
    with pytest.raises(ConsistencyError):
        minimize_penalty(PenaltyProblem(), model, grid, geom, trace, m0, f0,
                         operator=operator)

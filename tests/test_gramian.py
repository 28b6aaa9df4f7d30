"""The control and initial-energy Gramians of a frozen-trace operator, and the
penalty solve that runs on the control Gramian in terminal coordinates,
against a dense solve of the full system and the control-space CG loop."""

from dataclasses import replace

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, PenaltyProblem, build_grid,
                     minimize_penalty, solve_forward)
from popctrl.control import _Workspace
from popctrl.forward import FrozenOperator, stacked_terminal_weights
from popctrl.gramian import _gram_blocks, _PairBasis

from conftest import (PenaltySystem, expr_fertility_model, random_nonneg_model,
                      reference_data, reference_model)


def _geometry(mode, horizon, target_min_age=0.0):
    return ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=horizon, target_min_age=target_min_age, mode=mode)


def reference_minimize_penalty(problem, operator, m0, f0, epsilon):
    """The control-space CG loop: one forward and one adjoint sweep per iteration.

    Returns (packed control, iterations, cg_trace, converged).
    """
    ws = _Workspace(operator, m0, f0, epsilon)
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


def _on_entries(op, parts, male, female):
    """The Gramian of the ingredients ``parts`` on the pair basis, for the
    operator's birth shares, of the entries of the age masks ``male`` and
    ``female``."""
    return _gram_blocks(*parts, _PairBasis(*op._birth_shares()[2], male, female))


def _parts(op, half):
    """The (live, cross, diag) ingredients of the operator's control (``half``
    0) or initial (1) Gramian, from the path its fertility takes."""
    if op.fertility.separable:
        return op._renewal_levels().gramian(half, op._spike_terms())
    return op._assemble_gramians()[half]


def _every_entry(op, half):
    """The operator's control (``half`` 0) or initial (1) Gramian on the pair
    basis of every terminal entry."""
    every = np.ones(op.grid.num_age_cells + 1, dtype=bool)
    return _on_entries(op, _parts(op, half), every, every)


def _check_gramians(ws):
    """Both Gramians of the workspace's operator, on the targeted terminal
    entries and on every entry, against the pairwise adjoint images and
    against the sweep assembly; separable fertility takes the closed form,
    any other the sweep itself.  The pair rotation is orthogonal, so the
    expanded matrices match the pairwise ones to rounding."""
    op = ws.op
    every = np.ones(op.grid.num_age_cells + 1, dtype=bool)
    targeted = np.flatnonzero(stacked_terminal_weights(op.grid, op.geom))
    pairwise = (_naive_gramian(ws), _naive_initial_gramian(op))
    for half, (form, want, parts) in enumerate(zip(op.gramians(), pairwise,
                                                   op._assemble_gramians())):
        full, swept = _every_entry(op, half), _on_entries(op, parts, every, every)
        assert _close(full.matrix(), want)
        assert np.array_equal(form.basis.entries, targeted)
        assert _close(form.matrix(), want[np.ix_(targeted, targeted)])
        if op.fertility.separable:
            assert _close(full.matrix(), swept.matrix())
        else:
            assert np.array_equal(full.matrix(), swept.matrix())
    # every spike of a young age ends before level 0: the initial Gramian is
    # exactly zero on the d directions
    initial = _every_entry(op, 1)
    pairs = initial.basis.counts[1]
    assert pairs == min(op.grid.num_time_cells, op.grid.num_age_cells + 1)
    assert not np.any(initial.cross[:, :pairs]) and not np.any(initial.diag[:pairs])
    assert (op._renewal is not None) == op.fertility.separable


@pytest.mark.parametrize("last_cell_survival", [0.0, 0.5])
@pytest.mark.parametrize("horizon", [0.35, 1.3])  # 1.3: Nt above N + 1
@pytest.mark.parametrize("make_model", [reference_model, lambda: random_nonneg_model(5),
                                        expr_fertility_model],
                         ids=["reference", "random_nonneg", "expr"])
def test_spike_lattice_holds_the_sweeps_spikes(make_model, horizon, last_cell_survival):
    # nothing else pins the carry rule to the sweep, and the birth shares,
    # both Gramians' spike terms and the closed forms read the lattice: it
    # must hold, bit for bit, the spike that the backward sweep from each
    # terminal unit vector carries d levels down, before it reaches age 0
    model = replace(make_model(), last_cell_survival=last_cell_survival)
    geom = _geometry(ControlMode.BOTH, horizon)
    grid = build_grid(1.0, horizon, 1.0 / 16)
    nt, size = grid.num_time_cells, grid.num_age_cells + 1
    op = FrozenOperator(model, grid, geom, np.linspace(0.5, 1.5, nt + 1))
    swept = np.zeros((2, size, nt + 1))

    def record(j, n_j, l_j, l_eff_j):
        rows = np.arange(max(size - (nt - j), 0))
        swept[:, rows, j] = n_j[rows, rows + nt - j], l_j[rows, rows + nt - j]

    op.adjoint_levels(np.eye(size), np.eye(size), record)
    assert np.array_equal(op._spike_lattice(), swept)
    assert op.retrace(2.0 * op.trace)._spike_lattice() is op._spike_lattice()


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1), (ControlMode.MALE_ONLY, 0.0),
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
    ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, 1e-3)
    gram, initial = ws.op.gramians()
    _check_gramians(ws)
    # cached on the operator, and each expanded matrix on its blocks
    assert all(a is b for a, b in zip(ws.op.gramians(), (gram, initial)))
    assert ws.op.control_gramian() is gram
    assert gram.matrix() is gram.matrix()


@pytest.mark.parametrize("horizon", [0.35, 1.0])
def test_any_entry_masks_give_the_restricted_gramian(horizon):
    # masks with holes, and young ages with one slot only, beside pairs
    model = reference_model()
    geom = _geometry(ControlMode.BOTH, horizon)
    grid = build_grid(1.0, horizon, 1.0 / 16)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    op = FrozenOperator(model, grid, geom, trace)
    r = np.random.default_rng(8)
    male, female = r.random((2, grid.num_age_cells + 1)) < 0.6
    for half in (0, 1):
        full = _every_entry(op, half)
        form = _on_entries(op, _parts(op, half), male, female)
        entries = np.flatnonzero(np.concatenate([male, female]))
        assert np.array_equal(form.basis.entries, entries)
        assert _close(form.matrix(), full.matrix()[np.ix_(entries, entries)])
        vectors = form.basis.vectors()
        assert np.allclose(vectors.T @ vectors, np.eye(entries.size), rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1), (ControlMode.MALE_ONLY, 0.0),
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
    ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, 1e-2)
    _check_gramians(ws)


def test_gramian_pairs_terminal_map_and_adjoint():
    # <L* u, x> = h u . L x, so G = h L L*
    model = reference_model()
    geom = _geometry(ControlMode.BOTH, 0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, 1e-2)
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
    problem = PenaltyProblem(max_cg_iters=2000, cg_tol=1e-10)
    result = minimize_penalty(problem, FrozenOperator(model, grid, geom, trace), m0, f0, eps)
    assert result.converged and result.iterations == 1
    assert len(result.cg_trace) == result.iterations + 1
    ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, eps)
    got = [result.v_m.values, result.v_f.values]

    # the optimum L* D^1/2 w, with (I + D^1/2 G D^1/2 / h) w = -D^1/2 y0 solved
    # densely on the pairwise Gramian, with no Schur complement
    root = np.sqrt(ws.penalty_weights())
    y0 = ws.terminal(ws.zeros())
    system = np.eye(root.size) + root[:, None] * _naive_gramian(ws) * root / grid.step
    exact = ws.adjoint_image(root * np.linalg.solve(system, -root * y0))
    assert _relative(ws, got, exact) <= 1e-10

    want, _, _, want_conv = reference_minimize_penalty(
        problem, FrozenOperator(model, grid, geom, trace), m0, f0, eps)
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
    problem = PenaltyProblem(max_cg_iters=4000, cg_tol=1e-9)
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        result = minimize_penalty(problem, operator, m0, f0, eps)
        assert result.converged
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, eps)
        b = PenaltySystem(ws).rhs()
        grad = ws.gradient([result.v_m.values, result.v_f.values])
        assert np.sqrt(ws.inner(grad, grad)) <= \
            1.01 * problem.cg_tol * np.sqrt(ws.inner(b, b))


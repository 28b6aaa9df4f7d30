"""The closed forms of the renewal equation (separable fertility) against the
level sweeps they replace: the whole adjoint lattice of a work block, the
controlled forward map's male trace and terminal state (``observe``),
duality with the forward step loop and between the closed forms, block
against single columns, and the level a non-finite result is reported at."""

import dataclasses

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                     PenaltyProblem, RateFunction, build_grid, duality_residual,
                     minimize_penalty, solve_adjoint, solve_forward)
from popctrl.control import _Workspace
from popctrl.errors import DimensionError, NumericalFailure
from popctrl.forward import FrozenOperator

from conftest import (PenaltySystem, expr_fertility_model, random_nonneg_model, reference_data,
                      reference_model)

MODES = [ControlMode.BOTH, ControlMode.MALE_ONLY, ControlMode.FEMALE_ONLY]
MODELS = {
    "reference": reference_model,
    # fertility ignores the onset: the boundary sweep of the birth integral is active
    "random_nonneg": lambda: random_nonneg_model(5),
    "last_cell_half": lambda: dataclasses.replace(reference_model(), last_cell_survival=0.5),
}


def _geometry(mode, horizon):
    return ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=horizon, mode=mode)


def _operator(model, mode, horizon, step):
    geom = _geometry(mode, horizon)
    grid = build_grid(1.0, horizon, step)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    return FrozenOperator(model, grid, geom, trace), m0, f0


def _swept(op, work_n, work_l):
    """(n, l, l_eff) lattices of the backward level sweep."""
    shape = (op.grid.num_age_cells + 1, op.grid.num_time_cells + 1, work_n.shape[1])
    n, l, l_eff = np.zeros(shape), np.zeros(shape), np.zeros(shape)

    def store(j, n_j, l_j, l_eff_j):
        n[:, j], l[:, j], l_eff[:, j] = n_j, l_j, l_eff_j

    op.adjoint_levels(work_n, work_l, store)
    return n, l, l_eff


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("horizon", [0.2, 0.35, 1.3])  # 1.3: Nt above N + 1
@pytest.mark.parametrize("step", [1.0 / 32, 1.0 / 64])
def test_closed_forms_match_the_level_sweeps(mode, model_name, horizon, step):
    op, m0, f0 = _operator(MODELS[model_name](), mode, horizon, step)
    assert op.grid.num_time_cells > op.grid.num_age_cells + 1 or horizon < 1.0
    size = op.grid.num_age_cells + 1
    work_n, work_l = np.random.default_rng(11).standard_normal((2, size, 3))
    n, l, n_eff, l_eff = op.adjoint(work_n, work_l)
    swept_n, swept_l, swept_l_eff = _swept(op, work_n, work_l)
    for got, want in ((n, swept_n), (l, swept_l), (n_eff, swept_n), (l_eff, swept_l_eff)):
        assert _close(got, want)
    # the terminal rows are the work arrays, and level 0 has no feedback
    assert np.array_equal(n[:, -1], work_n) and np.array_equal(l[:, -1], work_l)
    assert np.array_equal(l[:, 0], l_eff[:, 0])
    # the control images are the same lattices
    images = op.adjoint_images(work_n, work_l)
    assert np.array_equal(images[0], n) and np.array_equal(images[1], l_eff)

    m, f, _, _ = op.forward(m0, f0)
    assert _close(op.uncontrolled_terminal(m0, f0), np.concatenate([m[:, -1], f[:, -1]]))


def _renewal_terminal(op, m0, f0):
    """The uncontrolled terminal state by the renewal formula, term by term:
    births rate * U^-T d, carried with the initial data by the spike products."""
    levels = op._renewal_levels()
    t = levels.tables
    old = t.size - t.young
    births = (levels.rate * (levels.inverse().T @ (t.h * (f0 @ t.carried[:, 1:]))))[t.inject]
    return np.concatenate([t.born[0] * ((1.0 - t.gamma) * births), t.old[0] * m0[:old],
                           t.born[1] * (t.gamma * births), t.old[1] * f0[:old]])


def _random_controls(grid, rng):
    shape = (grid.num_age_cells + 1, grid.num_time_cells + 1)
    return rng.standard_normal(shape), rng.standard_normal(shape)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("horizon", [0.2, 0.35, 1.3])  # 1.3: Nt above N + 1
@pytest.mark.parametrize("step", [1.0 / 32, 1.0 / 64])
def test_observe_matches_the_step_loop(mode, model_name, horizon, step):
    # the male trace and the terminal state of the controlled map, for random
    # controls (both fields, also where the mode's region is empty) and for a
    # penalty stage's own control
    model = MODELS[model_name]()
    op, m0, f0 = _operator(model, mode, horizon, step)
    stage = minimize_penalty(PenaltyProblem(mode=mode), model, op.grid, op.geom, op.trace,
                             m0, f0, epsilon=1e-3, theta=1e-3, operator=op)
    controls = [_random_controls(op.grid, np.random.default_rng(9)),
                (stage.v_m.values, stage.v_f.values)]
    for v_m, v_f in controls + [(None, None)]:
        m, f, male_trace, _ = op.forward(m0, f0, v_m, v_f)
        got_trace, got_terminal = op.observe(m0, f0, v_m, v_f)
        scale = max(np.max(np.abs(m)), np.max(np.abs(f)))
        assert np.max(np.abs(got_terminal - np.concatenate([m[:, -1], f[:, -1]]))) \
            <= 1e-13 * scale
        assert np.max(np.abs(got_trace - male_trace)) <= 1e-13 * np.max(np.abs(male_trace))
    # the stage carries what it computed for its own control
    assert np.array_equal(stage.frozen_trace, op.trace)
    assert np.array_equal(stage.fertile_male_trace, op.observe(m0, f0, stage.v_m.values,
                                                               stage.v_f.values)[0])
    # without controls the terminal state is the renewal formula, bit for bit
    terminal = op.observe(m0, f0)[1]
    assert np.array_equal(terminal, _renewal_terminal(op, m0, f0))
    assert np.array_equal(op.uncontrolled_terminal(m0, f0), terminal)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("horizon", [0.35, 1.3])
def test_duality_between_the_closed_forms(mode, model_name, horizon):
    # <L* u, x> = h u . L x with L from observe and L* from adjoint_images
    model = MODELS[model_name]()
    op, m0, f0 = _operator(model, mode, horizon, 1.0 / 64)
    ws = _Workspace(PenaltyProblem(mode=mode), model, op.grid, op.geom, op.trace, m0, f0,
                    operator=op)
    r = np.random.default_rng(17)
    x = [np.where(support, v, 0.0)
         for support, v in zip(ws.support, _random_controls(op.grid, r))]
    for _ in range(3):
        u = r.standard_normal(2 * (op.grid.num_age_cells + 1))
        image = ws.adjoint_image(u)
        paired = ws.inner(image, x)
        mapped = op.grid.step * float(u @ PenaltySystem(ws).terminal_map(x))
        assert abs(paired - mapped) <= 1e-12 * np.sqrt(ws.inner(image, image) * ws.inner(x, x))


def test_observe_takes_single_profiles():
    op, m0, f0 = _operator(reference_model(), ControlMode.BOTH, 0.35, 1.0 / 16)
    with pytest.raises(DimensionError):
        op.observe(np.stack([m0, m0], axis=1), np.stack([f0, f0], axis=1))


def test_expr_fertility_keeps_the_sweeps():
    # fertility that is not separable: the adjoint is the level sweep and the
    # forward map the step loop, bit for bit
    op, m0, f0 = _operator(expr_fertility_model(), ControlMode.BOTH, 0.35, 1.0 / 32)
    size = op.grid.num_age_cells + 1
    work_n, work_l = np.random.default_rng(2).standard_normal((2, size, 2))
    n, l, n_eff, l_eff = op.adjoint(work_n, work_l)
    swept_n, swept_l, swept_l_eff = _swept(op, work_n, work_l)
    for got, want in ((n, swept_n), (l, swept_l), (n_eff, swept_n), (l_eff, swept_l_eff)):
        assert np.array_equal(got, want)
    m, f, _, _ = op.forward(m0, f0)
    assert np.array_equal(op.uncontrolled_terminal(m0, f0),
                          np.concatenate([m[:, -1], f[:, -1]]))
    v_m, v_f = _random_controls(op.grid, np.random.default_rng(4))
    m, f, male_trace, _ = op.forward(m0, f0, v_m, v_f)
    got_trace, got_terminal = op.observe(m0, f0, v_m, v_f)
    assert np.array_equal(got_trace, male_trace)
    assert np.array_equal(got_terminal, np.concatenate([m[:, -1], f[:, -1]]))
    assert op._renewal is None


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("horizon", [0.35, 1.3])
def test_duality_between_step_loop_and_closed_form_adjoint(mode, model_name, horizon):
    model = MODELS[model_name]()
    geom = _geometry(mode, horizon)
    grid = build_grid(1.0, horizon, 1.0 / 64)
    na, nt = grid.num_age_cells, grid.num_time_cells
    r = np.random.default_rng(5)
    m0, f0 = r.random(na + 1), r.random(na + 1)
    v_m = r.standard_normal((na + 1, nt + 1)) if mode is not ControlMode.FEMALE_ONLY else None
    v_f = r.standard_normal((na + 1, nt + 1)) if mode is not ControlMode.MALE_ONLY else None
    n_T = r.standard_normal(na + 1) if mode is not ControlMode.FEMALE_ONLY else None
    l_T = r.standard_normal(na + 1) if mode is not ControlMode.MALE_ONLY else None
    trace = 2.0 * r.random(nt + 1)
    state = solve_forward(model, grid, geom, v_m, v_f, m0, f0, frozen_trace=trace)
    adj = solve_adjoint(model, grid, geom, n_T, l_T, trace, mode=mode)
    zero = np.zeros(na + 1)
    residual, scale = duality_residual(state, adj, zero if n_T is None else n_T,
                                       zero if l_T is None else l_T, m0, f0, v_m, v_f,
                                       model, grid, geom)
    assert residual <= 1e-12 * scale


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("horizon", [0.35, 1.3])
def test_block_equals_its_single_columns_bitwise(model_name, horizon):
    op, _, _ = _operator(MODELS[model_name](), ControlMode.BOTH, horizon, 1.0 / 32)
    size = op.grid.num_age_cells + 1
    work_n, work_l = np.random.default_rng(3).standard_normal((2, size, 5))
    block = op.adjoint(work_n, work_l)
    images = op.adjoint_images(work_n, work_l)
    for c in range(5):
        single = op.adjoint(work_n[:, c], work_l[:, c])
        for got, want in zip(block, single):
            assert np.array_equal(got[..., c], want)
        for got, want in zip(images, op.adjoint_images(work_n[:, [c]], work_l[:, [c]])):
            assert np.array_equal(got[..., c], want[..., 0])


def _explosive_model():
    """Fertility exp(p) p: finite at moderate traces, overflowing at huge ones."""
    return DemographicModel(
        male_mortality=RateFunction.constant(0.2),
        female_mortality=RateFunction.constant(0.3),
        fertility=Fertility.separable_pair(
            RateFunction.constant(1.0), RateFunction.expression("exp(p) * p", "p"), 1.0),
        male_fertility_weight=RateFunction.constant(1.0),
        female_fraction=0.5, fertility_onset=0.15, max_age=1.0)


def _failure_step(call):
    with pytest.raises(NumericalFailure) as info:
        call()
    return info.value.step


@pytest.mark.parametrize("fault", ["beta", "column"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_closed_form_names_the_sweeps_level(fault, where):
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    na, nt = grid.num_age_cells, grid.num_time_cells
    j = {"first": nt, "middle": nt // 2, "last": 1}[where]
    trace = np.full(nt + 1, 0.5)
    work = np.ones((na + 1, 3))
    if fault == "beta":
        trace[j] = 1e3  # exp(1e3) overflows: an infinite fertility at level j
    else:
        # a finite fertility of about 1.8e12 at level j, met by a huge work
        # entry of column 1 exactly when it reaches age 0
        trace[j] = 25.0
        work[nt - j, 1] = 1e300
    op = FrozenOperator(_explosive_model(), grid, _geometry(ControlMode.BOTH, 0.5), trace)
    swept = _failure_step(lambda: op.adjoint_levels(work, work, lambda *rows: None))
    assert swept == j - 1
    assert _failure_step(lambda: op.adjoint(work, work)) == swept
    assert _failure_step(lambda: op.adjoint_images(work, work)) == swept
    if fault == "column":
        op.adjoint(work[:, [0, 2]], work[:, [0, 2]])  # the finite columns pass
        return
    # the forward map meets the infinite fertility at step j
    profile = np.ones(na + 1)
    stepped = _failure_step(lambda: op.forward(profile, profile))
    assert stepped == j
    assert _failure_step(lambda: op.uncontrolled_terminal(profile, profile)) == stepped
    v_m, v_f = _random_controls(grid, np.random.default_rng(1))
    assert _failure_step(lambda: op.forward(profile, profile, v_m, v_f)) == stepped
    assert _failure_step(lambda: op.observe(profile, profile, v_m, v_f)) == stepped

"""The frozen-trace operator: block sweeps against single-column sweeps,
duality and gradients through one operator, and the batched observability
assembly against per-vector adjoint solves."""

import dataclasses

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, Fertility, Field2D, PenaltyProblem,
                     build_grid, duality_residual, estimate_observability_constant,
                     minimize_penalty, observability_ratio, solve_adjoint, solve_forward)
from popctrl import observability as obs
from popctrl.adjoint import AdjointSolution, region_inner
from popctrl.control import _Workspace
from popctrl.errors import NumericalFailure
from popctrl.forward import FrozenOperator, StateSolution, control_masks

from conftest import random_nonneg_model, reference_data, reference_model

MODES = [ControlMode.BOTH, ControlMode.MALE_ONLY, ControlMode.FEMALE_ONLY]


def _geometry(mode, horizon=0.5, target_min_age=0.0):
    return ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=horizon, target_min_age=target_min_age, mode=mode)


def _column(arrays, c):
    return tuple(a[..., c] for a in arrays)


@pytest.mark.parametrize("mode", MODES)
def test_block_sweeps_equal_single_sweeps_bitwise(mode):
    model = random_nonneg_model(5)  # fertility ignores the onset: boundary sweep active
    geom = _geometry(mode)
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    na, nt = grid.num_age_cells, grid.num_time_cells
    r = np.random.default_rng(17)
    op = FrozenOperator(model, grid, geom, 2.0 * r.random(nt + 1))
    k = 4
    m0, f0 = r.standard_normal((na + 1, k)), r.standard_normal((na + 1, k))
    vm = r.standard_normal((na + 1, nt + 1, k)) if mode is not ControlMode.FEMALE_ONLY \
        else None
    vf = r.standard_normal((na + 1, nt + 1, k)) if mode is not ControlMode.MALE_ONLY \
        else None
    work_n, work_l = r.standard_normal((na + 1, k)), r.standard_normal((na + 1, k))

    block_fwd = op.forward(m0, f0, vm, vf)
    block_adj = op.adjoint(work_n, work_l)
    for c in range(k):
        single_fwd = op.forward(m0[:, c], f0[:, c], None if vm is None else vm[..., c],
                                None if vf is None else vf[..., c])
        for got, want in zip(_column(block_fwd, c), single_fwd):
            assert np.array_equal(got, want)
        for got, want in zip(_column(block_adj, c), op.adjoint(work_n[:, c], work_l[:, c])):
            assert np.array_equal(got, want)

    # the public wrapper is the operator's single-column sweep
    state = solve_forward(model, grid, geom, None if vm is None else vm[..., 0],
                          None if vf is None else vf[..., 0], m0[:, 0], f0[:, 0],
                          frozen_trace=op.trace)
    assert np.array_equal(state.m.values, block_fwd[0][..., 0])
    assert np.array_equal(state.fertile_male_trace, block_fwd[2][:, 0])


def test_non_finite_column_raises_with_level():
    model = reference_model()
    geom = _geometry(ControlMode.BOTH)
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    na, nt = grid.num_age_cells, grid.num_time_cells
    op = FrozenOperator(model, grid, geom, np.ones(nt + 1))
    work = np.ones((na + 1, 3))
    work[5, 1] = np.inf
    with pytest.raises(NumericalFailure) as info:
        op.adjoint(work, np.ones((na + 1, 3)))
    assert info.value.step == nt - 1
    m0 = np.ones((na + 1, 3))
    m0[3, 2] = np.nan
    with pytest.raises(NumericalFailure) as info:
        op.forward(m0, np.ones((na + 1, 3)))
    assert info.value.step == 1


def test_duality_and_gradient_through_one_operator_fine_grid():
    model = reference_model()
    geom = _geometry(ControlMode.BOTH, horizon=0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 256)
    na, nt = grid.num_age_cells, grid.num_time_cells
    assert (na, nt) == (260, 91)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    op = FrozenOperator(model, grid, geom, trace)
    r = np.random.default_rng(23)
    k = 3
    vm = r.standard_normal((na + 1, nt + 1, k))
    vf = r.standard_normal((na + 1, nt + 1, k))
    q_m, q_f = r.standard_normal((na + 1, k)), r.standard_normal((na + 1, k))
    theta = (grid.age_weights() / grid.step)[:, None]
    m, f, male_trace, birth_trace = op.forward(
        np.repeat(m0[:, None], k, axis=1), np.repeat(f0[:, None], k, axis=1), vm, vf)
    n, l, n_eff, l_eff = op.adjoint(theta * q_m, theta * q_f)
    for c in range(k):
        state = StateSolution(m=Field2D(grid, m[..., c]), f=Field2D(grid, f[..., c]),
                              fertile_male_trace=male_trace[:, c],
                              birth_trace=birth_trace[:, c], frozen_trace=op.trace)
        adj = AdjointSolution(n=Field2D(grid, n[..., c]), l=Field2D(grid, l[..., c]),
                              n0_trace=n[0, :, c], l0_trace=l[0, :, c],
                              frozen_trace=op.trace, n_eff=n_eff[..., c],
                              l_eff=l_eff[..., c])
        residual, scale = duality_residual(
            state, adj, q_m[:, c], q_f[:, c], m0, f0, Field2D(grid, vm[..., c]),
            Field2D(grid, vf[..., c]), model, grid, geom)
        assert residual <= 1e-12 * scale

    problem = PenaltyProblem(epsilon=1e-3, theta=1e-3, mode=ControlMode.BOTH)
    ws = _Workspace(problem, model, grid, geom, trace, m0, f0)
    x = [r.standard_normal(s.zeros().shape) for s in ws.spaces]
    d = [r.standard_normal(s.zeros().shape) for s in ws.spaces]
    norm = np.sqrt(ws.inner(d, d))
    d = [di / norm for di in d]
    directional = ws.inner(ws.gradient(x), d)
    eta = 1e-5
    plus = ws.objective([xi + eta * di for xi, di in zip(x, d)])
    minus = ws.objective([xi - eta * di for xi, di in zip(x, d)])
    fd = (plus - minus) / (2 * eta)
    assert abs(directional - fd) <= 1e-7 * abs(fd)


def _counting(model):
    """The model with a fertility that records every evaluation."""
    calls = []

    def fn(ages, p):
        calls.append(p)
        return model.fertility(ages, p)

    return dataclasses.replace(model, fertility=Fertility(fn)), calls


def test_fertility_evaluated_once_per_level_per_operator():
    model, calls = _counting(reference_model())
    geom = _geometry(ControlMode.BOTH, horizon=0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = np.linspace(0.2, 0.8, grid.num_time_cells + 1)
    problem = PenaltyProblem(epsilon=1e-3, theta=1e-3, mode=ControlMode.BOTH)
    result, _ = minimize_penalty(problem, model, grid, geom, trace, m0, f0)
    assert result.iterations > 10
    assert calls == list(trace)
    del calls[:]
    estimate_observability_constant(model, grid, geom, [trace, 2.0 * trace],
                                    probes=4, power_iters=3, seed=0)
    assert calls == list(trace) + list(2.0 * trace)


# -- batched observability against one solve_adjoint per terminal datum --------


def _reference_ratio(model, grid, geom, n_T, l_T, trace):
    adj = solve_adjoint(model, grid, geom, n_T, l_T, trace, mode=geom.mode)
    wa = grid.age_weights()
    mask_m, mask_f = control_masks(grid, geom)
    mode = geom.mode
    num = 0.0
    den = 0.0
    if mode is not ControlMode.FEMALE_ONLY:
        num += float(np.dot(wa, adj.n.values[:, 0] ** 2))
        den += region_inner(grid, mask_m, adj.n_eff, adj.n_eff)
    if mode is not ControlMode.MALE_ONLY:
        num += float(np.dot(wa, adj.l.values[:, 0] ** 2))
        den += region_inner(grid, mask_f, adj.l_eff, adj.l_eff)
    if mode is ControlMode.MALE_ONLY:
        num += float(np.dot(wa, adj.l.values[:, 0] ** 2))
    if den <= 1e-300 * max(num, 1.0):
        return obs.INFINITE_QUOTIENT if num > 0 else 0.0
    return num / den


def _reference_forms(model, grid, geom, trace):
    basis = obs._terminal_basis(grid, geom)
    na, nt = grid.num_age_cells, grid.num_time_cells
    h = grid.step
    sq_wa = np.sqrt(grid.age_weights())
    mask_m, mask_f = control_masks(grid, geom)
    sqw_m = np.sqrt((h * h * mask_m[1:, None] * np.ones(nt)).ravel())
    sqw_f = np.sqrt((h * h * mask_f[1:, None] * np.ones(nt)).ravel())
    num_rows = np.zeros((len(basis), 2 * (na + 1)))
    den_rows = np.zeros((len(basis), sqw_m.size + sqw_f.size))
    mode = geom.mode
    for k, (slot, i) in enumerate(basis):
        n_T = np.zeros(na + 1)
        l_T = np.zeros(na + 1)
        (n_T if slot == "n" else l_T)[i] = 1.0
        adj = solve_adjoint(model, grid, geom, n_T, l_T, trace, mode=mode)
        if mode is not ControlMode.FEMALE_ONLY:
            num_rows[k, :na + 1] = sq_wa * adj.n.values[:, 0]
            den_rows[k, :sqw_m.size] = sqw_m * adj.n_eff[1:, 1:].ravel()
        num_rows[k, na + 1:] = sq_wa * adj.l.values[:, 0]
        if mode is not ControlMode.MALE_ONLY:
            den_rows[k, sqw_m.size:] = sqw_f * adj.l_eff[1:, 1:].ravel()
    return num_rows @ num_rows.T, den_rows @ den_rows.T


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
def test_batched_observability_matches_per_vector_solves(mode, target_min_age,
                                                         monkeypatch):
    model = reference_model()
    geom = _geometry(mode, horizon=0.35, target_min_age=target_min_age)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    op = FrozenOperator(model, grid, geom, trace)

    rng = np.random.default_rng(3)
    data = [obs._probe_data(rng, grid, geom) for _ in range(6)]
    n_block = np.stack([n for n, _ in data], axis=1)
    l_block = np.stack([l for _, l in data], axis=1)
    expected = [_reference_ratio(model, grid, geom, n, l, trace) for n, l in data]
    assert obs._quotients(op, n_block, l_block) == expected
    assert [observability_ratio(model, grid, geom, n, l, trace)
            for n, l in data] == expected

    num_form, den_form = obs._quadratic_forms(op)
    ref_num, ref_den = _reference_forms(model, grid, geom, trace)
    assert np.array_equal(num_form, ref_num) and np.array_equal(den_form, ref_den)
    batched = obs._power_iteration(op, 12)
    monkeypatch.setattr(obs, "_quadratic_forms", lambda _op: (ref_num, ref_den))
    assert obs._power_iteration(op, 12) == batched

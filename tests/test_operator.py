"""The frozen-trace operator: block sweeps against single-column sweeps,
duality and gradients through one operator, and the batched observability
assembly against per-vector adjoint solves."""

import dataclasses
import pathlib

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, DemographicModel, Fertility, Field2D,
                     FixedPointConfig, PenaltyProblem, RateFunction, build_grid,
                     duality_residual, estimate_observability_constant,
                     iterate_to_fixed_point, minimize_penalty, observability_ratio,
                     solve_adjoint, solve_forward, synthesize_null_control, trace_map)
from popctrl import fixed_point as fixed_point_module
from popctrl import forward as forward_module
from popctrl import observability as obs
from popctrl.cli import run_command
from popctrl.adjoint import AdjointSolution, region_inner
from popctrl.control import _Workspace
from popctrl.errors import DimensionError, NumericalFailure
from popctrl.forward import FrozenOperator, GramianBlocks, StateSolution, control_masks

from conftest import (PenaltySystem, expr_fertility_model, random_control,
                      random_nonneg_model, reference_data, reference_model)

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


def _explosive_model():
    """Fertility exp(p) p: finite at moderate traces, overflowing at huge ones."""
    return DemographicModel(
        male_mortality=RateFunction.constant(0.2),
        female_mortality=RateFunction.constant(0.3),
        fertility=Fertility.separable_pair(
            RateFunction.constant(1.0), RateFunction.expression("exp(p) * p", "p"), 1.0),
        male_fertility_weight=RateFunction.constant(1.0),
        female_fraction=0.5, fertility_onset=0.15, max_age=1.0)


_LEVELS = ["first", "middle", "last"]


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("slot", ["male", "female"])
@pytest.mark.parametrize("where", _LEVELS)
def test_forward_reports_the_first_non_finite_level(bad, slot, where):
    # finiteness is checked once after the sweep; the reported step is the
    # first level that a check after every step would have stopped at
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    na, nt = grid.num_age_cells, grid.num_time_cells
    level = {"first": 1, "middle": nt // 2, "last": nt}[where]
    op = FrozenOperator(reference_model(), grid, _geometry(ControlMode.BOTH),
                        np.ones(nt + 1))
    k = 3
    controls = {s: np.zeros((na + 1, nt + 1, k)) for s in ("male", "female")}
    controls[slot][na // 2, level, 1] = bad  # age 0.5, inside both windows
    with pytest.raises(NumericalFailure) as info:
        op.forward(np.ones((na + 1, k)), np.ones((na + 1, k)),
                   controls["male"], controls["female"])
    assert info.value.step == level
    finite = [0, 2]
    op.forward(np.ones((na + 1, 2)), np.ones((na + 1, 2)),
               controls["male"][..., finite], controls["female"][..., finite])


@pytest.mark.parametrize("fault", ["beta", "column"])
@pytest.mark.parametrize("where", _LEVELS)
def test_adjoint_reports_the_first_non_finite_level(fault, where):
    # the sweep runs from level Nt down, so a feedback that overflows at level j
    # spoils level j - 1 first; only level 0 is checked on the way
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    na, nt = grid.num_age_cells, grid.num_time_cells
    j = {"first": nt, "middle": nt // 2, "last": 1}[where]
    trace = np.full(nt + 1, 0.5)
    work = np.ones((na + 1, 3))
    if fault == "beta":
        trace[j] = 1e3  # exp(1e3) overflows: every column meets an infinite beta
    else:
        # a finite beta of about 1.8e12 at level j; column 1 carries a huge value
        # that reaches age 0, where it meets that beta, exactly at level j
        trace[j] = 25.0
        work[nt - j, 1] = 1e300
    op = FrozenOperator(_explosive_model(), grid, _geometry(ControlMode.BOTH), trace)
    assert np.isfinite(np.delete(op.beta, j, axis=0)).all()
    visited = []
    with pytest.raises(NumericalFailure) as info:
        op.adjoint_levels(work, work, lambda level, *rows: visited.append(level))
    assert info.value.step == j - 1
    assert 0 not in visited  # the rows of levels >= 1 may be non-finite by then
    if fault == "column":
        op.adjoint(work[:, [0, 2]], work[:, [0, 2]])


@pytest.mark.parametrize("where", _LEVELS)
def test_nonlinear_solve_reports_the_first_non_finite_level(where):
    # a male control spike at level n lifts the fertile-male integral there
    # far enough for exp(p) p to overflow, so the births of level n are infinite
    model = _explosive_model()
    geom = _geometry(ControlMode.BOTH)
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    na, nt = grid.num_age_cells, grid.num_time_cells
    level = {"first": 1, "middle": nt // 2, "last": nt}[where]
    v_m = np.zeros((na + 1, nt + 1))
    v_m[na // 2, level] = 1e6
    profile = np.full(na + 1, 0.1)
    with pytest.raises(NumericalFailure) as info:
        solve_forward(model, grid, geom, v_m, None, profile, profile)
    assert info.value.step == level


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
    x, d = random_control(ws, r), random_control(ws, r)
    norm = np.sqrt(ws.inner(d, d))
    d = [di / norm for di in d]
    directional = ws.inner(ws.gradient(x), d)
    eta = 1e-5
    plus = ws.objective([xi + eta * di for xi, di in zip(x, d)])
    minus = ws.objective([xi - eta * di for xi, di in zip(x, d)])
    fd = (plus - minus) / (2 * eta)
    assert abs(directional - fd) <= 1e-7 * abs(fd)


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
@pytest.mark.parametrize("make_model", [reference_model, expr_fertility_model],
                         ids=["separable", "expr"])
def test_stage_sweeps(mode, target_min_age, make_model, monkeypatch):
    # separable fertility: y0 and the check's controlled state (two closed-form
    # forward maps), L* c (one column) and the check's image come from the
    # renewal system, only the control Gramian is built, |b| is read off it,
    # and no level loop runs.  Any other fertility: y0 takes one forward
    # sweep, the Gramians one batched adjoint sweep, L* c one single-column
    # sweep, and the check one forward and one adjoint sweep.
    model = make_model()
    geom = _geometry(mode, horizon=0.35, target_min_age=target_min_age)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    problem = PenaltyProblem(mode=mode)

    widths = {"forward": [], "adjoint": [], "closed_form": [], "gramians": [], "observe": []}
    forward, levels = FrozenOperator.forward, FrozenOperator.adjoint_levels
    closed_adjoint, closed_gramian = forward_module._Levels.adjoint, forward_module._Levels.gramian
    closed_observe = forward_module._Levels.observe

    def counting_forward(self, m0, f0, v_m=None, v_f=None):
        widths["forward"].append(1 if np.ndim(m0) == 1 else np.shape(m0)[1])
        return forward(self, m0, f0, v_m, v_f)

    def counting_levels(self, work_n, work_l, visit):
        widths["adjoint"].append(np.shape(work_n)[1])
        return levels(self, work_n, work_l, visit)

    def counting_closed_adjoint(self, work_n, work_l, keep_l):
        assert not keep_l, "the control path keeps the female rows without feedback"
        widths["closed_form"].append(np.shape(work_n)[1])
        return closed_adjoint(self, work_n, work_l, keep_l)

    def counting_gramian(self, half):
        widths["gramians"].append(half)
        return closed_gramian(self, half)

    def counting_observe(self, m0, f0, source_m, source_f, male):
        # y0 has no sources and no male trace; the check's control has one
        # source per controlled sex
        widths["observe"].append((source_m is not None, source_f is not None, male))
        return closed_observe(self, m0, f0, source_m, source_f, male)

    def whole_adjoint(self, work_n, work_l):
        raise AssertionError("the control path stores whole adjoint lattices")

    monkeypatch.setattr(FrozenOperator, "forward", counting_forward)
    monkeypatch.setattr(FrozenOperator, "adjoint_levels", counting_levels)
    monkeypatch.setattr(FrozenOperator, "adjoint", whole_adjoint)
    monkeypatch.setattr(forward_module._Levels, "adjoint", counting_closed_adjoint)
    monkeypatch.setattr(forward_module._Levels, "gramian", counting_gramian)
    monkeypatch.setattr(forward_module._Levels, "observe", counting_observe)
    op = FrozenOperator(model, grid, geom, trace)
    result = minimize_penalty(problem, model, grid, geom, trace, m0, f0,
                              epsilon=1e-3, theta=1e-3, operator=op)
    assert result.converged and result.iterations == 1
    if model.fertility.separable:
        controlled = (mode is not ControlMode.FEMALE_ONLY, mode is not ControlMode.MALE_ONLY)
        assert widths == {"forward": [], "adjoint": [], "closed_form": [1, 1],
                          "gramians": [0], "observe": [(False, False, False), (*controlled, True)]}
        assert op._gramian_cache[1] is None  # no initial Gramian
    else:
        gramian_sweep = min(grid.num_time_cells, grid.num_age_cells + 1) + 2
        assert widths == {"forward": [1, 1], "adjoint": [gramian_sweep, 1, 1],
                          "closed_form": [], "gramians": [], "observe": []}
    monkeypatch.undo()

    # |b| from the Gramian is the lattice norm of b up to rounding, and the
    # check gives the gradient bit for bit
    ws = _Workspace(dataclasses.replace(problem, epsilon=1e-3, theta=1e-3), model, grid,
                    geom, trace, m0, f0)
    b = PenaltySystem(ws).rhs()
    grad = ws.gradient(ws.pack(result.v_m, result.v_f))
    assert abs(result.cg_trace[0] - np.sqrt(ws.inner(b, b))) <= 1e-13 * result.cg_trace[0]
    assert result.cg_trace[1] == np.sqrt(ws.inner(grad, grad))


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
def test_adjoint_images_are_the_adjoint_restricted_to_the_support(mode, target_min_age):
    # each image is its whole adjoint sweep's (n_eff, l_eff), zeroed off the
    # control support, bit for bit
    model = reference_model()
    geom = _geometry(mode, horizon=0.35, target_min_age=target_min_age)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    ws = _Workspace(PenaltyProblem(mode=mode), model, grid, geom, trace, m0, f0)
    support_m, support_f = ws.support
    # the sex the mode leaves uncontrolled has an empty support
    assert support_m.any() == (mode is not ControlMode.FEMALE_ONLY)
    assert support_f.any() == (mode is not ControlMode.MALE_ONLY)
    works = np.random.default_rng(23).standard_normal((2, 2 * (grid.num_age_cells + 1)))
    for work in works:
        image_m, image_f = ws.adjoint_image(work)
        _, _, n_eff, l_eff = ws.op.adjoint(*np.split(work, 2))
        assert np.array_equal(image_m, np.where(support_m, n_eff, 0.0))
        assert np.array_equal(image_f, np.where(support_f, l_eff, 0.0))


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
    result = minimize_penalty(problem, model, grid, geom, trace, m0, f0)
    assert result.iterations >= 1
    assert calls == list(trace)
    del calls[:]
    estimate_observability_constant(model, grid, geom, [trace, 2.0 * trace],
                                    probes=4, power_iters=3, seed=0)
    assert calls == list(trace) + list(2.0 * trace)


def test_trace_map_evaluates_fertility_once_per_level():
    # the controlled frozen-trace system's male trace and terminal state come
    # from the penalty solve's own operator, so a trace_map call builds
    # exactly one operator; this fertility is not separable, so they are the
    # step loop's
    model, calls = _counting(reference_model())
    geom = _geometry(ControlMode.BOTH, horizon=0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = np.linspace(0.2, 0.8, grid.num_time_cells + 1)
    problem = PenaltyProblem(epsilon=1e-3, theta=1e-3, mode=ControlMode.BOTH)
    y, result = trace_map(trace, model, grid, geom, problem, m0, f0)
    assert calls == list(trace)
    expected = solve_forward(reference_model(), grid, geom, result.v_m, result.v_f,
                             m0, f0, frozen_trace=trace)
    assert np.array_equal(result.frozen_trace, trace)
    assert np.array_equal(result.terminal, np.concatenate([expected.m.values[:, -1],
                                                           expected.f.values[:, -1]]))
    assert np.array_equal(y, expected.fertile_male_trace)
    del calls[:]
    trace_map(1.1 * trace, model, grid, geom, problem, m0, f0)
    assert calls == list(1.1 * trace)


@pytest.mark.parametrize("command", ["control", "solve"])
def test_separable_penalty_stages_run_no_step_loop(command, tmp_path, monkeypatch):
    # with separable fertility the forward step loop runs only for the
    # nonlinear solves: the uncontrolled trace of `control`, and the initial
    # and per-stage nonlinear solves of `solve`
    loops, nonlinear = [], []
    step_loop = forward_module._Transport._step_loop

    def counting_loop(self, *args):
        loops.append(type(self).__name__)
        return step_loop(self, *args)

    def counting_solve(*args, **kwargs):
        nonlinear.append(kwargs.get("frozen_trace"))
        return solve_forward(*args, **kwargs)

    monkeypatch.setattr(forward_module._Transport, "_step_loop", counting_loop)
    monkeypatch.setattr(fixed_point_module, "solve_forward", counting_solve)
    scenario = str(pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "example.json")
    assert run_command([command, scenario, "--grid-h", "0.03125", "--out", str(tmp_path),
                        "--quiet"]) == 0
    if command == "control":
        assert loops == ["_Transport"]
    else:
        assert len(nonlinear) > 1 and all(t is None for t in nonlinear)
        assert loops == ["_Transport"] * len(nonlinear)


@pytest.mark.parametrize("mode", MODES)
def test_nonlinear_solve_is_the_frozen_step_at_its_own_arguments(mode):
    # one step loop: the nonlinear solve evaluates fertility once per level and
    # is the frozen-trace sweep at the arguments it evaluated
    model, calls = _counting(random_nonneg_model(3))
    geom = _geometry(mode)
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    na, nt = grid.num_age_cells, grid.num_time_cells
    r = np.random.default_rng(23)
    m0, f0 = r.random(na + 1), r.random(na + 1)
    vm = r.standard_normal((na + 1, nt + 1)) if mode is not ControlMode.FEMALE_ONLY else None
    vf = r.standard_normal((na + 1, nt + 1)) if mode is not ControlMode.MALE_ONLY else None
    nonlinear = solve_forward(model, grid, geom, vm, vf, m0, f0)
    assert len(calls) == nt + 1
    recorded = list(calls)
    frozen = FrozenOperator(model, grid, geom, recorded).state(m0, f0, vm, vf)
    assert np.array_equal(frozen.m.values, nonlinear.m.values)
    assert np.array_equal(frozen.f.values, nonlinear.f.values)
    assert np.array_equal(frozen.fertile_male_trace, nonlinear.fertile_male_trace)
    assert np.array_equal(frozen.birth_trace, nonlinear.birth_trace)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("make_model", [reference_model, lambda: random_nonneg_model(3)],
                         ids=["reference", "random_nonneg"])
def test_separable_fertility_table_is_the_per_level_calls(mode, make_model):
    # phi(a) r(p) from one vector call of each factor: the same IEEE products
    # as one model.fertility call per level
    model = make_model()
    geom = _geometry(mode)
    grid = build_grid(1.0, 0.5, 1.0 / 32)
    na, nt = grid.num_age_cells, grid.num_time_cells
    r = np.random.default_rng(7)
    vm = r.random((na + 1, nt + 1)) if mode is not ControlMode.FEMALE_ONLY else None
    vf = r.random((na + 1, nt + 1)) if mode is not ControlMode.MALE_ONLY else None
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, vm, vf, m0, f0).fertile_male_trace
    op = FrozenOperator(model, grid, geom, trace)
    assert op.response is not None
    expected = np.array([model.fertility(grid.ages(), p) for p in trace])
    assert np.array_equal(op.beta, expected)
    assert np.array_equal(op.retrace(2.0 * trace).beta,
                          [model.fertility(grid.ages(), p) for p in 2.0 * trace])


def _counting_factors(model):
    """The model with its separable fertility's age profile and response
    recording each argument; the per-level fertility, which the nonlinear
    solve calls, is left uncounted."""
    fertility = model.fertility
    calls = {"age_profile": [], "response": []}

    def counted(name):
        factor = getattr(fertility, name)

        def record(x):
            calls[name].append(np.array(x, dtype=float))
            return factor(x)
        return record

    counting = Fertility(fertility, age_profile=counted("age_profile"),
                         response=counted("response"),
                         response_lipschitz=fertility.response_lipschitz)
    return dataclasses.replace(model, fertility=counting), calls


def _counting_tables(monkeypatch):
    built = []

    class Counting(forward_module._Renewal):
        def __init__(self, op):
            built.append(op.trace)
            super().__init__(op)

    monkeypatch.setattr(forward_module, "_Renewal", Counting)
    return built


def test_separable_tables_built_once_per_fixed_point_solve(monkeypatch):
    # every outer iteration's operator is the previous one retraced: one age
    # profile and one set of tables for all of them, one response call per
    # operator; each nonlinear solve takes the age profile once and one
    # scalar response per level
    model, calls = _counting_factors(reference_model())
    built = _counting_tables(monkeypatch)
    nonlinear = []

    def counting_solve(*args, **kwargs):
        nonlinear.append(kwargs.get("frozen_trace"))
        return solve_forward(*args, **kwargs)

    monkeypatch.setattr(fixed_point_module, "solve_forward", counting_solve)
    geom = _geometry(ControlMode.BOTH, horizon=0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    nt = grid.num_time_cells
    m0, f0 = reference_data(grid)
    problem = PenaltyProblem(epsilon=1e-2, theta=1e-2, target_norm=1e-3,
                             mode=ControlMode.BOTH)
    state, result, _ = iterate_to_fixed_point(model, grid, geom, problem,
                                              FixedPointConfig(), m0, f0)
    outer = len(state.history)
    assert outer > 1 and len(nonlinear) > 1 and not any(t is not None for t in nonlinear)
    assert len(calls["age_profile"]) == 1 + len(nonlinear)
    assert all(np.array_equal(c, grid.ages()) for c in calls["age_profile"])
    vector = [c for c in calls["response"] if c.ndim]
    assert [c.shape for c in vector] == [(nt + 1,)] * outer
    assert len(calls["response"]) - len(vector) == len(nonlinear) * (nt + 1)
    assert np.array_equal(vector[-1], result.frozen_trace)
    assert len(built) == 1

    del calls["age_profile"][:], calls["response"][:], built[:]
    synthesize_null_control(problem, model, grid, geom, result.frozen_trace, m0, f0)
    assert (len(calls["age_profile"]), len(calls["response"]), len(built)) == (1, 1, 1)


@pytest.mark.parametrize("power_iters", [0, 3])
def test_separable_tables_built_once_per_horizon(power_iters, monkeypatch):
    # with or without power iteration the probe quotients are read off the
    # closed-form Gramians, so the traces share one set of tables
    model, calls = _counting_factors(reference_model())
    built = _counting_tables(monkeypatch)
    _, grid, geom, trace = _observability_setup()
    traces = [trace, 2.0 * trace, 0.5 * trace]
    estimate_observability_constant(model, grid, geom, traces, probes=4,
                                    power_iters=power_iters, seed=0)
    assert len(calls["age_profile"]) == 1
    assert all(np.array_equal(got, want) for got, want in zip(calls["response"], traces))
    assert len(calls["response"]) == len(traces)
    assert len(built) == 1


def test_retraced_operator_shares_the_tables():
    model, grid, geom, trace = _observability_setup()
    op = FrozenOperator(model, grid, geom, trace)
    gram = op.control_gramian()
    other = op.retrace(1.5 * trace)
    fresh = FrozenOperator(model, grid, geom, 1.5 * trace)
    assert other._renewal is op._renewal
    assert np.array_equal(other.trace, fresh.trace)
    assert np.array_equal(other.beta, fresh.beta)
    for got, want in zip(other.gramians(), fresh.gramians()):
        assert np.array_equal(got.matrix(), want.matrix())
    assert op.control_gramian() is gram
    with pytest.raises(DimensionError):
        op.retrace(trace[:-1])


@pytest.mark.parametrize("where", _LEVELS)
def test_closed_form_gramian_reports_the_first_non_finite_level(where):
    # an overflowing fertility makes the closed form non-finite; the failure
    # names the level the sweep stops at
    grid = build_grid(1.0, 0.5, 1.0 / 16)
    nt = grid.num_time_cells
    j = {"first": nt, "middle": nt // 2, "last": 1}[where]
    trace = np.full(nt + 1, 0.5)
    trace[j] = 1e3
    op = FrozenOperator(_explosive_model(), grid, _geometry(ControlMode.BOTH), trace)
    with pytest.raises(NumericalFailure) as info:
        op.control_gramian()
    assert info.value.step == j - 1


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
    for k, p in enumerate(basis):
        n_T, l_T = np.split(np.eye(2 * (na + 1))[p], 2)
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

    # the forms come from the operator's Gramians, summed in another order
    num_form, den_form = obs._quadratic_forms(op)
    ref_num, ref_den = _reference_forms(model, grid, geom, trace)
    for got, want in ((num_form, ref_num), (den_form, ref_den)):
        assert np.max(np.abs(got.matrix() - want)) <= 1e-13 * np.max(np.abs(want))
    batched = obs._power_iteration(op, 12)
    # the per-vector forms, cut into the same blocks, feed the power iteration
    ref_forms = tuple(_as_blocks(ref, num_form.index) for ref in (ref_num, ref_den))
    monkeypatch.setattr(obs, "_quadratic_forms", lambda _op: ref_forms)
    assert abs(obs._power_iteration(op, 12) - batched) <= 1e-12 * batched


def _as_blocks(matrix, index):
    """A dense symmetric form cut into ``GramianBlocks`` by (dense, spike) index;
    its spike block must be diagonal."""
    dense, spikes = index
    spike_block = matrix[np.ix_(spikes, spikes)]
    assert np.array_equal(spike_block, np.diag(np.diag(spike_block)))
    return GramianBlocks(matrix[np.ix_(dense, dense)], matrix[np.ix_(dense, spikes)],
                         np.diag(spike_block).copy(), index)


def _observability_setup(mode=ControlMode.BOTH, target_min_age=0.0):
    model = reference_model()
    geom = _geometry(mode, horizon=0.35, target_min_age=target_min_age)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    return model, grid, geom, trace


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
def test_power_estimate_ignores_eigenvector_signs(mode, target_min_age, monkeypatch):
    model, grid, geom, trace = _observability_setup(mode, target_min_age)
    op = FrozenOperator(model, grid, geom, trace)
    plain = obs._power_iteration(op, 5)
    assert np.isfinite(plain)
    eigh = np.linalg.eigh

    def flipped(matrix):
        vals, vecs = eigh(matrix)
        vecs[:, ::2] *= -1.0
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", flipped)
    assert abs(obs._power_iteration(op, 5) - plain) <= 1e-12 * plain


@pytest.mark.parametrize("power_iters", [0, 3])
@pytest.mark.parametrize("make_model", [reference_model, expr_fertility_model],
                         ids=["separable", "expr"])
def test_estimate_makes_one_sweep_per_trace(power_iters, make_model, monkeypatch):
    # separable fertility: the closed-form Gramians serve both forms and the
    # probe quotients, with no sweep.  Any other fertility: with power
    # iteration one Gramian sweep per trace serves them, without it one sweep
    # of the probes costs less
    model = make_model()
    _, grid, geom, trace = _observability_setup()
    widths = []
    levels = FrozenOperator.adjoint_levels

    def counting(self, work_n, work_l, visit):
        widths.append(np.shape(work_n)[1])
        return levels(self, work_n, work_l, visit)

    monkeypatch.setattr(FrozenOperator, "adjoint_levels", counting)
    estimate_observability_constant(model, grid, geom, [trace, 2.0 * trace], probes=4,
                                    power_iters=power_iters, seed=0)
    gramian_width = min(grid.num_time_cells, grid.num_age_cells + 1) + 2
    # 4 probes; no terminal age is old enough for the cone datum at this horizon
    if model.fertility.separable:
        assert widths == []
    else:
        assert widths == ([gramian_width] if power_iters else [4]) * 2


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
    (ControlMode.FEMALE_ONLY, 0.0)])
def test_gramian_quotients_match_probe_sweep(mode, target_min_age):
    model, grid, geom, trace = _observability_setup(mode, target_min_age)
    op = FrozenOperator(model, grid, geom, trace)
    rng = np.random.default_rng(5)
    data = [obs._probe_data(rng, grid, geom) for _ in range(6)]
    n_block = np.stack([n for n, _ in data], axis=1)
    l_block = np.stack([l for _, l in data], axis=1)
    swept = np.array(obs._quotients(op, n_block, l_block))
    read = np.array(obs._gramian_quotients(op, n_block, l_block))
    assert np.all(np.abs(read - swept) <= 1e-13 * swept)


def test_gramian_quotients_keep_the_infinity_sentinel():
    # a short horizon leaves the oldest ages invisible from the male window
    model = reference_model()
    geom = ControlGeometry(male_window=(0.1, 0.5), female_window=(0.05, 0.6),
                           horizon=0.3, mode=ControlMode.BOTH)
    grid = build_grid(1.0, 0.3, 1.0 / 32)
    op = FrozenOperator(model, grid, geom, np.zeros(grid.num_time_cells + 1))
    ages = grid.ages()
    invisible = np.where(ages >= 0.85, 1.0, 0.0)
    n_block = np.stack([invisible, np.zeros_like(ages), np.sin(np.pi * ages)], axis=1)
    l_block = np.zeros_like(n_block)
    swept = obs._quotients(op, n_block, l_block)
    read = obs._gramian_quotients(op, n_block, l_block)
    assert swept[:2] == read[:2] == [obs.INFINITE_QUOTIENT, 0.0]
    assert abs(read[2] - swept[2]) <= 1e-13 * swept[2]

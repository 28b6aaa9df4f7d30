import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, EpsilonSchedule, PenaltyProblem,
                     build_grid, minimize_penalty, solve_forward, synthesize_null_control)
from popctrl.control import (FLAG_CONVERGENCE_NOT_REACHED, FLAG_NON_ADMISSIBLE,
                             FLAG_TARGET_NOT_REACHED, _Workspace)
from popctrl.errors import ConfigurationError
from popctrl.forward import FrozenOperator, terminal_weights
from popctrl.gramian import GramianBlocks
from popctrl.observability import forced_terminal_mask

from conftest import random_control, reference_data, reference_geometry, reference_model

EPS = 1e-2  # the penalty weight of the single-stage tests


@pytest.fixture
def setup():
    model = reference_model()
    geom = reference_geometry()
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    problem = PenaltyProblem(max_cg_iters=2000, cg_tol=1e-10)
    return model, geom, grid, m0, f0, trace, problem


@pytest.mark.parametrize("start, ratio, stages", [
    (1e-2, 10.0, 400),   # 10.0 ** 399 overflows
    (1e-300, 1e20, 3),   # the third value is below the smallest subnormal
    (5e-324, 2.0, 2),
])
def test_schedule_whose_last_epsilon_underflows_is_rejected(start, ratio, stages):
    # an epsilon of 0 is no penalty: the stage that got it would fail mid-solve
    with pytest.raises(ConfigurationError, match="underflows"):
        EpsilonSchedule(start=start, ratio=ratio, stages=stages)


def test_schedule_down_to_the_smallest_epsilon_is_accepted():
    values = EpsilonSchedule(start=1e-2, ratio=10.0, stages=300).values()
    assert len(values) == 300 and values[-1] > 0.0
    assert EpsilonSchedule(start=5e-324, ratio=2.0, stages=1).values() == [5e-324]


class TestObjective:
    def test_zero_everything(self, setup):
        model, geom, grid, m0, f0, trace, problem = setup
        zeros = np.zeros(grid.num_age_cells + 1)
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), zeros, zeros, EPS)
        assert ws.objective(ws.zeros()) == 0.0

    def test_uncontrolled_value_matches_direct_solve(self, setup):
        model, geom, grid, m0, f0, trace, problem = setup
        state = solve_forward(model, grid, geom, None, None, m0, f0,
                              frozen_trace=trace)
        wa = grid.age_weights()
        expected = 0.5 / EPS * (float(wa @ state.m.values[:, -1] ** 2)
                                + float(wa @ state.f.values[:, -1] ** 2))
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, EPS)
        assert ws.objective(ws.zeros()) == pytest.approx(expected, rel=1e-12)

    def test_convexity_along_segments(self, setup):
        model, geom, grid, m0, f0, trace, problem = setup
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, EPS)
        rng = np.random.default_rng(0)
        x, y = random_control(ws, rng), random_control(ws, rng)
        for t in (0.0, 0.3, 0.7, 1.0):
            blend = [t * a + (1 - t) * b for a, b in zip(x, y)]
            assert ws.objective(blend) <= (t * ws.objective(x)
                                           + (1 - t) * ws.objective(y) + 1e-10)


class TestGradient:
    def test_zero_at_zero_data(self, setup):
        model, geom, grid, _, _, trace, problem = setup
        zeros = np.zeros(grid.num_age_cells + 1)
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), zeros, zeros, EPS)
        g_m, g_f = ws.gradient(ws.zeros())
        assert np.all(g_m == 0.0)
        assert np.all(g_f == 0.0)

    def test_finite_difference_check(self, setup):
        model, geom, grid, m0, f0, trace, problem = setup
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, EPS)
        rng = np.random.default_rng(3)
        x, d = random_control(ws, rng), random_control(ws, rng)
        norm = np.sqrt(ws.inner(d, d))
        d = [di / norm for di in d]
        directional = ws.inner(ws.gradient(x), d)
        eta = 1e-5
        plus = ws.objective([xi + eta * di for xi, di in zip(x, d)])
        minus = ws.objective([xi - eta * di for xi, di in zip(x, d)])
        fd = (plus - minus) / (2 * eta)
        assert abs(directional - fd) <= 1e-7 * abs(fd)

    def test_explicit_matrix_gradient(self):
        """Assemble the control-to-terminal map densely on a tiny grid and
        compare the adjoint gradient against the literal quadratic-form
        gradient."""
        model = reference_model()
        geom = reference_geometry(horizon=1.0)
        grid = build_grid(1.0, 1.0, 1.0 / 8)
        m0, f0 = reference_data(grid)
        trace = np.linspace(0.2, 0.8, grid.num_time_cells + 1)
        eps = 2e-3
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, eps)

        sizes = [int(s.sum()) for s in ws.support]
        dim = sum(sizes)

        def pack_flat(x):
            return np.concatenate([xi[s] for xi, s in zip(x, ws.support)])

        def unpack_flat(vec):
            out = ws.zeros()
            out[0][ws.support[0]] = vec[:sizes[0]]
            out[1][ws.support[1]] = vec[sizes[0]:]
            return out

        # the terminal map from the step loop
        m, f, _, _ = ws.op.forward(ws.m0, ws.f0, *ws.zeros())
        t0 = np.concatenate([m[:, -1], f[:, -1]])
        columns = []
        zero = np.zeros(grid.num_age_cells + 1)
        for k in range(dim):
            e = np.zeros(dim); e[k] = 1.0
            m, f, _, _ = ws.op.forward(zero, zero, *unpack_flat(e))
            columns.append(np.concatenate([m[:, -1], f[:, -1]]))
        tmat = np.stack(columns, axis=1)

        h = grid.step
        wq = np.concatenate([np.broadcast_to(h * h * mask[:, None], s.shape)[s]
                             for mask, s in zip((ws.op.mask_m, ws.op.mask_f), ws.support)])
        pw = np.concatenate(terminal_weights(grid, geom)) / eps

        rng = np.random.default_rng(8)
        v = rng.standard_normal(dim)
        terminal = tmat @ v + t0
        explicit = v + (tmat.T @ (pw * terminal)) / wq
        adjoint_grad = pack_flat(ws.gradient(unpack_flat(v)))
        assert np.max(np.abs(adjoint_grad - explicit)) <= 1e-12 * np.max(np.abs(explicit))


class TestMinimize:
    def test_zero_data_zero_control(self, setup):
        model, geom, grid, _, _, trace, problem = setup
        zeros = np.zeros(grid.num_age_cells + 1)
        result = minimize_penalty(problem, FrozenOperator(model, grid, geom, trace),
                                  zeros, zeros, EPS)
        assert result.iterations == 0
        assert result.J_value == 0.0
        assert np.all(result.v_m.values == 0.0)

    def test_zero_data_spends_no_solve(self, setup, monkeypatch):
        # |b| = 0 meets the tolerance before the first solve
        model, geom, grid, _, _, trace, problem = setup
        zeros = np.zeros(grid.num_age_cells + 1)
        spent = []
        monkeypatch.setattr(GramianBlocks, "penalised_solve", lambda *args: spent.append(args))
        monkeypatch.setattr(FrozenOperator, "adjoint_images", lambda *args: spent.append(args))
        result = minimize_penalty(problem, FrozenOperator(model, grid, geom, trace),
                                  zeros, zeros, EPS)
        assert spent == [] and result.converged and result.cg_trace == [0.0]

    def test_support_and_optimality(self, setup):
        model, geom, grid, m0, f0, trace, problem = setup
        result = minimize_penalty(problem, FrozenOperator(model, grid, geom, trace), m0, f0,
                                  EPS)
        assert result.converged
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, EPS)
        packed = [result.v_m.values, result.v_f.values]
        # support: exactly zero outside the active region
        support_m, support_f = ws.support
        assert np.all(result.v_m.values[~support_m] == 0.0)
        assert np.all(result.v_f.values[~support_f] == 0.0)
        # optimality: the control equals the masked adjoint of the penalized
        # terminal state on the active set
        opt = ws.adjoint_image(-ws.penalty_weights() * ws.terminal(packed))
        err = max(np.max(np.abs(p - o)) for p, o in zip(packed, opt))
        scale = max(np.max(np.abs(p)) for p in packed)
        assert err <= 1e-6 * max(scale, 1e-30)

    def test_gradient_norm_below_tolerance(self, setup):
        model, geom, grid, m0, f0, trace, problem = setup
        result = minimize_penalty(problem, FrozenOperator(model, grid, geom, trace), m0, f0,
                                  EPS)
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, EPS)
        grad = ws.gradient([result.v_m.values, result.v_f.values])
        zero_grad = ws.gradient(ws.zeros())
        assert np.sqrt(ws.inner(grad, grad)) <= \
            problem.cg_tol * np.sqrt(ws.inner(zero_grad, zero_grad)) * 1.01

    def test_objective_monotone_as_penalties_shrink(self, setup):
        # smaller eps weights the terminal misfit harder, so the optimal value
        # cannot decrease
        model, geom, grid, m0, f0, trace, problem = setup
        op = FrozenOperator(model, grid, geom, trace)
        values = []
        for eps in (1e-2, 1e-3, 1e-4):
            result = minimize_penalty(problem, op, m0, f0, eps)
            values.append(result.J_value)
        assert values[0] <= values[1] <= values[2]

    def test_terminal_scaling_bounded(self, setup):
        model, geom, grid, m0, f0, trace, problem = setup
        op = FrozenOperator(model, grid, geom, trace)
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            result = minimize_penalty(problem, op, m0, f0, eps)
            ratios.append(result.terminal_m_norm ** 2 / eps)
        assert max(ratios) <= 3.0 * min(ratios)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-2, np.inf, np.nan])
    def test_stage_weight_must_be_positive_and_finite(self, setup, epsilon):
        # a negative weight would return a control with no flag
        model, geom, grid, m0, f0, trace, problem = setup
        with pytest.raises(ConfigurationError, match="epsilon"):
            minimize_penalty(problem, FrozenOperator(model, grid, geom, trace), m0, f0,
                             epsilon)

    @pytest.mark.parametrize("max_cg_iters", [1, 2])
    def test_iteration_cap_flags(self, setup, max_cg_iters):
        # no solve gets the gradient below rounding level, so the cap ends the stage
        model, geom, grid, m0, f0, trace, problem = setup
        capped = PenaltyProblem(max_cg_iters=max_cg_iters, cg_tol=1e-18)
        result = minimize_penalty(capped, FrozenOperator(model, grid, geom, trace), m0, f0,
                                  1e-4)
        assert not result.converged
        assert FLAG_CONVERGENCE_NOT_REACHED in result.flags
        assert result.iterations == max_cg_iters
        assert len(result.cg_trace) == max_cg_iters + 1


    def test_correction_solves_recover_from_an_inexact_solve(self, setup, monkeypatch):
        # with each terminal-space solve off by half, the correction solves on
        # -(c + D y(T)) still drive the explicit gradient below the tolerance
        model, geom, grid, m0, f0, trace, problem = setup
        exact = GramianBlocks.penalised_solve
        monkeypatch.setattr(GramianBlocks, "penalised_solve",
                            lambda self, weights, rhs: 0.5 * exact(self, weights, rhs))
        result = minimize_penalty(problem, FrozenOperator(model, grid, geom, trace), m0, f0,
                                  EPS)
        assert result.converged and result.iterations > 10
        assert all(b < a for a, b in zip(result.cg_trace, result.cg_trace[1:]))
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0, EPS)
        grad = ws.gradient([result.v_m.values, result.v_f.values])
        assert np.sqrt(ws.inner(grad, grad)) <= problem.cg_tol * result.cg_trace[0]


class TestSynthesize:
    def test_large_target_succeeds_immediately(self, setup):
        model, geom, grid, m0, f0, trace, _ = setup
        problem = PenaltyProblem(target_norm=10.0)
        result = synthesize_null_control(problem, model, grid, geom, trace, m0, f0)
        assert not result.flags
        assert len(result.stage_history) == 1

    def test_admissible_scenario_reaches_target(self, setup):
        model, geom, grid, m0, f0, trace, _ = setup
        wa = grid.age_weights()
        kappa = 1e-3 * (np.sqrt(wa @ m0 ** 2) + np.sqrt(wa @ f0 ** 2))
        problem = PenaltyProblem(target_norm=kappa, max_cg_iters=4000, cg_tol=1e-10)
        result = synthesize_null_control(problem, model, grid, geom, trace, m0, f0)
        assert FLAG_TARGET_NOT_REACHED not in result.flags
        assert result.terminal_m_norm <= kappa
        assert result.terminal_f_norm <= kappa

    def test_male_only_reports_tail_norm(self):
        model = reference_model()
        geom = ControlGeometry(male_window=(0.0, 0.9), female_window=(0.1, 0.95),
                               horizon=0.15, target_min_age=0.05,
                               mode=ControlMode.MALE_ONLY)
        grid = build_grid(1.0, 0.15, 1.0 / 32)
        m0, f0 = reference_data(grid)
        trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
        problem = PenaltyProblem(max_cg_iters=2000, cg_tol=1e-10)
        result = minimize_penalty(problem, FrozenOperator(model, grid, geom, trace), m0, f0,
                                  1e-3)
        assert np.all(result.v_f.values == 0.0)
        # reported male norm is restricted to ages above the tail cutoff
        state = solve_forward(model, grid, geom, result.v_m, None, m0, f0,
                              frozen_trace=trace)
        from popctrl.control import terminal_weights
        w_m, _ = terminal_weights(grid, geom)
        expected = float(np.sqrt(w_m @ state.m.values[:, -1] ** 2))
        assert result.terminal_m_norm == pytest.approx(expected, rel=1e-12)
        full = float(np.sqrt(grid.age_weights() @ state.m.values[:, -1] ** 2))
        assert result.terminal_m_norm < full  # the infant ages are exempt

    def test_female_only_drives_female_norm(self):
        model = reference_model()
        geom = ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                               horizon=0.35, mode=ControlMode.FEMALE_ONLY)
        grid = build_grid(1.0, 0.35, 1.0 / 32)
        m0, f0 = reference_data(grid)
        kappa = 1e-3 * float(np.sqrt(grid.age_weights() @ f0 ** 2))
        trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
        problem = PenaltyProblem(target_norm=kappa, max_cg_iters=4000, cg_tol=1e-10)
        result = synthesize_null_control(problem, model, grid, geom, trace, m0, f0)
        assert np.all(result.v_m.values == 0.0)
        assert result.terminal_f_norm <= kappa
        assert FLAG_TARGET_NOT_REACHED not in result.flags
        # only the female norm is targeted; the male one stays macroscopic
        assert result.terminal_m_norm > kappa

    def test_non_admissible_flagged_and_floored(self):
        """With the horizon below the male window start, a forced cone of
        ages keeps the uncontrolled transport value exactly, and the male
        terminal norm stagnates on it for every penalty stage."""
        model = reference_model()
        geom = ControlGeometry(male_window=(0.5, 0.9), female_window=(0.4, 0.95),
                               horizon=0.3, mode=ControlMode.BOTH)
        grid = build_grid(1.0, 0.3, 1.0 / 32)
        m0, f0 = reference_data(grid)
        uncontrolled = solve_forward(model, grid, geom, None, None, m0, f0)
        trace = uncontrolled.fertile_male_trace
        cone = forced_terminal_mask(model, grid, geom)
        w_cone = grid.age_weights() * cone
        floor = np.sqrt(float(w_cone @ uncontrolled.m.values[:, -1] ** 2))
        assert float(w_cone.sum()) > 0 and floor > 0
        problem = PenaltyProblem(max_cg_iters=3000, cg_tol=1e-10)
        op = FrozenOperator(model, grid, geom, trace)
        for eps in (1e-2, 1e-3, 1e-4):
            result = minimize_penalty(problem, op, m0, f0, eps)
            assert FLAG_NON_ADMISSIBLE in result.flags
            controlled = solve_forward(model, grid, geom, result.v_m, result.v_f,
                                       m0, f0, frozen_trace=trace)
            deviation = np.max(np.abs((controlled.m.values[:, -1]
                                       - uncontrolled.m.values[:, -1])[cone]))
            assert deviation <= 1e-10
            cone_norm = np.sqrt(float(w_cone @ controlled.m.values[:, -1] ** 2))
            assert cone_norm >= 0.5 * floor

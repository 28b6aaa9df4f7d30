import dataclasses

import numpy as np
import pytest

from popctrl import (ContractionConfig, FixedPointConfig, PenaltyProblem, build_grid,
                     contraction_test, iterate_to_fixed_point, trace_map)
from popctrl.control import (EpsilonSchedule, FLAG_FIXED_POINT_NOT_REACHED,
                             FLAG_TARGET_NOT_REACHED)
from popctrl import fixed_point as fixed_point_module
from popctrl.errors import ConfigurationError
from popctrl.fixed_point import trace_norm
from popctrl.forward import FrozenOperator
from popctrl.model import DemographicModel, Fertility, RateFunction

from conftest import reference_data, reference_geometry, reference_model


@pytest.fixture
def setup():
    model = reference_model()
    geom = reference_geometry()
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    problem = PenaltyProblem(target_norm=1e-3, max_cg_iters=3000, cg_tol=1e-9)
    return model, geom, grid, m0, f0, problem


class TestTraceMap:
    def test_zero_data_maps_to_zero(self, setup):
        model, geom, grid, _, _, problem = setup
        zeros = np.zeros(grid.num_age_cells + 1)
        trace = np.linspace(0.0, 1.0, grid.num_time_cells + 1)
        y, result = trace_map(FrozenOperator(model, grid, geom, trace), problem, zeros,
                              zeros, 1e-2)
        assert np.all(y == 0.0)
        assert result.J_value == 0.0

    def test_zero_weight_maps_to_zero(self, setup):
        model, geom, grid, m0, f0, problem = setup
        flat = DemographicModel(
            male_mortality=model.male_mortality,
            female_mortality=model.female_mortality,
            fertility=model.fertility,
            male_fertility_weight=RateFunction.constant(0.0),
            female_fraction=model.female_fraction,
            fertility_onset=model.fertility_onset,
            max_age=model.max_age)
        trace = np.linspace(0.0, 1.0, grid.num_time_cells + 1)
        y, _ = trace_map(FrozenOperator(flat, grid, geom, trace), problem, m0, f0, 1e-2)
        assert np.all(y == 0.0)

    def test_trace_stays_in_bounded_ball(self, setup):
        # sup and derivative norms of the mapped trace stay bounded by a
        # data-sized constant, uniformly over the input trace
        model, geom, grid, m0, f0, problem = setup
        wa = grid.age_weights()
        data_size = np.sqrt(wa @ m0 ** 2) + np.sqrt(wa @ f0 ** 2)
        rng = np.random.default_rng(0)
        sups, ders = [], []
        for _ in range(4):
            trace = rng.random(grid.num_time_cells + 1)
            y, _ = trace_map(FrozenOperator(model, grid, geom, trace), problem, m0, f0, 1e-2)
            sups.append(np.max(np.abs(y)))
            diffs = np.diff(y) / grid.step
            ders.append(np.sqrt(grid.step * np.sum(diffs ** 2)))
        assert max(sups) <= 5.0 * data_size
        assert max(ders) <= 20.0 * data_size
        assert max(sups) <= 2.0 * min(sups) + 1e-12


class TestIteration:
    def test_zero_data_converges_immediately(self, setup):
        model, geom, grid, _, _, problem = setup
        zeros = np.zeros(grid.num_age_cells + 1)
        fp = FixedPointConfig(fp_tol=1e-6, max_outer_iters=5)
        state, result, nonlinear = iterate_to_fixed_point(model, grid, geom, problem,
                                                          fp, zeros, zeros)
        assert state.converged
        assert state.history[0]["iteration"] == 1
        assert np.all(nonlinear.m.values == 0.0)

    def test_converges_with_decreasing_deltas(self, setup):
        model, geom, grid, m0, f0, problem = setup
        wa = grid.age_weights()
        kappa = 1e-3 * (np.sqrt(wa @ m0 ** 2) + np.sqrt(wa @ f0 ** 2))
        problem = PenaltyProblem(target_norm=kappa, max_cg_iters=3000, cg_tol=1e-9)
        fp = FixedPointConfig(fp_tol=1e-4, max_outer_iters=40)
        state, result, nonlinear = iterate_to_fixed_point(model, grid, geom, problem,
                                                          fp, m0, f0)
        assert state.converged and not state.flags
        ratios = [e["delta_ratio"] for e in state.history
                  if e["delta_ratio"] is not None]
        assert ratios and all(r < 1.0 for r in ratios)
        # self-consistency of the fixed point against the nonlinear trace
        gap = trace_norm(grid, state.trace - nonlinear.fertile_male_trace)
        assert gap <= 2.0 * fp.fp_tol * max(trace_norm(grid, state.trace), 1e-30)
        # true nonlinear norms close to the last frozen-trace norms
        nl_m = np.sqrt(wa @ nonlinear.m.values[:, -1] ** 2)
        nl_f = np.sqrt(wa @ nonlinear.f.values[:, -1] ** 2)
        assert nl_m <= 1.5 * result.terminal_m_norm
        assert nl_f <= 1.5 * result.terminal_f_norm

    def test_delta_is_the_picard_residual(self, setup, monkeypatch):
        # delta is ||y - p||, the residual of the map at its input, and the
        # next input is y itself; each stage stops at its first delta within
        # fp_tol ||p||
        model, geom, grid, m0, f0, problem = setup
        calls = []

        def recording(operator, *args):
            y, result = trace_map(operator, *args)
            calls.append((operator.trace.copy(), y.copy()))
            return y, result

        monkeypatch.setattr(fixed_point_module, "trace_map", recording)
        fp = FixedPointConfig(fp_tol=1e-4)
        state, _, _ = iterate_to_fixed_point(model, grid, geom, problem, fp, m0, f0)
        assert state.converged and len(calls) == len(state.history) > 1
        for entry, (p, y) in zip(state.history, calls):
            assert entry["delta"] == trace_norm(grid, y - p)
        for (_, y), (p_next, _) in zip(calls, calls[1:]):
            assert np.array_equal(p_next, y)
        for k, (entry, (p, _)) in enumerate(zip(state.history, calls)):
            last_of_stage = (k + 1 == len(state.history)
                             or state.history[k + 1]["epsilon"] != entry["epsilon"])
            assert (entry["delta"] <= fp.fp_tol * trace_norm(grid, p)) == last_of_stage

    def test_outer_iteration_cap_flags_the_fixed_point(self, setup):
        # the stage ends unconverged: the schedule stops there, and the stage's
        # result carries the flag
        model, geom, grid, m0, f0, problem = setup
        fp = FixedPointConfig(fp_tol=1e-12, max_outer_iters=1)
        state, result, _ = iterate_to_fixed_point(model, grid, geom, problem, fp, m0, f0)
        assert not state.converged and state.flags == [FLAG_FIXED_POINT_NOT_REACHED]
        assert FLAG_FIXED_POINT_NOT_REACHED in result.flags
        assert len(state.history) == 1 and len(result.stage_history) == 1

    def test_unreachable_target_flags_a_converged_fixed_point(self, setup):
        # the one stage reaches its fixed point, but the nonlinear norms miss
        # the target
        model, geom, grid, m0, f0, _ = setup
        problem = PenaltyProblem(target_norm=1e-12, schedule=EpsilonSchedule(stages=1))
        state, result, _ = iterate_to_fixed_point(model, grid, geom, problem,
                                                  FixedPointConfig(), m0, f0)
        assert state.converged and state.flags == [FLAG_TARGET_NOT_REACHED]
        assert FLAG_TARGET_NOT_REACHED in result.flags
        assert state.history[-1]["nonlinear_m_norm"] > problem.target_norm


class TestContraction:
    def test_requires_separable_fertility(self, grid):
        model = reference_model()
        general = DemographicModel(
            male_mortality=model.male_mortality,
            female_mortality=model.female_mortality,
            fertility=Fertility.expression("step(a - 0.15) * p / (1 + p)"),
            male_fertility_weight=model.male_fertility_weight,
            female_fraction=0.5, fertility_onset=0.15, max_age=1.0)
        m0, f0 = reference_data(grid)
        with pytest.raises(ConfigurationError):
            contraction_test(general, grid, m0, f0, config=ContractionConfig(trials=2))

    def test_zero_fertility_gives_zero_ratios(self, grid):
        model = reference_model()
        dead = DemographicModel(
            male_mortality=model.male_mortality,
            female_mortality=model.female_mortality,
            fertility=Fertility.separable_pair(RateFunction.constant(0.0),
                                               RateFunction.expression("p", "p"), 1.0),
            male_fertility_weight=model.male_fertility_weight,
            female_fraction=0.5, fertility_onset=0.15, max_age=1.0)
        m0, f0 = reference_data(grid)
        report = contraction_test(dead, grid, m0, f0, config=ContractionConfig(trials=5),
                                  seed=1)
        assert report.max_ratio == 0.0

    def test_generic_instance_below_bound(self):
        model = reference_model(beta_amp=0.6)
        grid = build_grid(1.0, 0.5, 1.0 / 32)
        m0, f0 = reference_data(grid)
        report = contraction_test(model, grid, m0, f0, config=ContractionConfig(trials=25),
                                  seed=0)
        assert len(report.ratios) == 25  # no degenerate pairs with this rng
        assert report.max_ratio <= report.bound

    @pytest.mark.parametrize("trials, amplitude", [(0, 1.0), (-1, 1.0), (3, 0.0),
                                                   (3, -0.5), (3, float("nan"))])
    def test_rejects_empty_or_zero_probe(self, grid, trials, amplitude):
        # no trial, or fields that are zero or negative, carry no contraction information
        m0, f0 = reference_data(grid)
        with pytest.raises(ConfigurationError):
            contraction_test(reference_model(), grid, m0, f0,
                             config=ContractionConfig(trials=trials, amplitude=amplitude))


def test_contraction_requires_the_response_lipschitz_constant(grid):
    model = reference_model()
    fertility = Fertility.separable_pair(model.fertility.age_profile, model.fertility.response)
    m0, f0 = reference_data(grid)
    with pytest.raises(ConfigurationError, match="configured response Lipschitz constant"):
        contraction_test(dataclasses.replace(model, fertility=fertility), grid, m0, f0,
                         config=ContractionConfig(trials=2))

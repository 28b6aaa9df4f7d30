import math

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, ObservabilityConfig, build_grid,
                     estimate_observability_constant, integrate_age, observability_ratio,
                     solve_forward)
from popctrl import observability as obs
from popctrl.observability import forced_terminal_mask, unreachable_from_window
from popctrl.errors import DomainError
from popctrl.forward import FrozenOperator, terminal_weights

from conftest import reference_data, reference_geometry, reference_model


@pytest.fixture
def setup():
    model = reference_model()
    geom = reference_geometry()
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    return model, geom, grid, trace


class TestRatio:
    def test_scaling_invariance(self, setup):
        model, geom, grid, trace = setup
        rng = np.random.default_rng(0)
        n_T = rng.standard_normal(grid.num_age_cells + 1)
        l_T = rng.standard_normal(grid.num_age_cells + 1)
        base = observability_ratio(model, grid, geom, n_T, l_T, trace)
        scaled = observability_ratio(model, grid, geom, 17.0 * n_T, 17.0 * l_T, trace)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_zero_data_rejected(self, setup):
        model, geom, grid, trace = setup
        zeros = np.zeros(grid.num_age_cells + 1)
        with pytest.raises(DomainError):
            observability_ratio(model, grid, geom, zeros, zeros, trace)

    def test_observable_datum_finite(self, setup):
        model, geom, grid, trace = setup
        ages = grid.ages()
        n_T = np.exp(-30 * (ages - 0.5) ** 2)
        value = observability_ratio(model, grid, geom, n_T,
                                    np.zeros_like(n_T), trace)
        assert math.isfinite(value) and value > 0

    def test_unobserved_cone_gives_sentinel(self):
        # horizon below A - a2: terminal mass beyond a2 + T never crosses the
        # window but survives to time zero
        model = reference_model()
        geom = ControlGeometry(male_window=(0.1, 0.5), female_window=(0.05, 0.6),
                               horizon=0.3, mode=ControlMode.BOTH)
        grid = build_grid(1.0, 0.3, 1.0 / 32)
        ages = grid.ages()
        n_T = np.where(ages >= 0.85, 1.0, 0.0)
        value = observability_ratio(model, grid, geom, n_T, np.zeros_like(n_T),
                                    np.zeros(grid.num_time_cells + 1))
        assert math.isinf(value)

    def test_window_monotonicity(self, setup):
        model, _, grid, trace = setup
        rng = np.random.default_rng(1)
        n_T = rng.standard_normal(grid.num_age_cells + 1)
        l_T = rng.standard_normal(grid.num_age_cells + 1)
        narrow = reference_geometry()
        wide = ControlGeometry(male_window=(0.15, 0.95), female_window=(0.1, 0.95),
                               horizon=0.35, mode=ControlMode.BOTH)
        r_narrow = observability_ratio(model, grid, narrow, n_T, l_T, trace)
        r_wide = observability_ratio(model, grid, wide, n_T, l_T, trace)
        assert r_wide <= r_narrow + 1e-12


class TestEstimate:
    def test_refinement_stability(self, setup):
        model, geom, _, _ = setup
        estimates = []
        for target in (1.0 / 32, 1.0 / 64):
            g = build_grid(1.0, 0.35, target)
            m0, f0 = reference_data(g)
            trace = solve_forward(model, g, geom, None, None, m0, f0).fertile_male_trace
            rep = estimate_observability_constant(
                model, g, geom, [trace], config=ObservabilityConfig(probes=16), seed=0)
            estimates.append(rep.estimated_constant)
        assert estimates[1] <= 2.0 * estimates[0]
        assert estimates[0] <= 2.0 * estimates[1]

    def test_trace_independence(self, setup):
        model, geom, grid, trace = setup
        traces = [trace, 0.5 * trace, 1.5 * trace]
        rep = estimate_observability_constant(
            model, grid, geom, traces, config=ObservabilityConfig(probes=16), seed=0)
        assert not rep.diverged
        assert rep.trace_spread <= 0.10

    def test_power_iteration_dominates_probes(self, setup):
        model, geom, grid, trace = setup
        plain = estimate_observability_constant(
            model, grid, geom, [trace], config=ObservabilityConfig(probes=8), seed=0)
        powered = estimate_observability_constant(
            model, grid, geom, [trace], config=ObservabilityConfig(probes=8, power_iters=12),
            seed=0)
        # the same probes, and the power steps' estimate of the one operator
        power = obs._power_iteration(FrozenOperator(model, grid, geom, trace), 12)
        assert powered.estimated_constant == max(plain.estimated_constant, power)

    def test_divergence_flagged_on_short_horizon(self):
        model = reference_model()
        geom = ControlGeometry(male_window=(0.1, 0.5), female_window=(0.05, 0.6),
                               horizon=0.3, mode=ControlMode.BOTH)
        grid = build_grid(1.0, 0.3, 1.0 / 32)
        trace = np.zeros(grid.num_time_cells + 1)
        rep = estimate_observability_constant(
            model, grid, geom, [trace], config=ObservabilityConfig(probes=8, power_iters=8),
            seed=0)
        assert rep.diverged
        assert math.isinf(rep.estimated_constant)


class TestCones:
    def test_direct_cone_matches_geometry(self):
        grid = build_grid(1.0, 0.3, 1.0 / 32)
        mask = unreachable_from_window(grid, (0.5, 0.9), 0.3)
        ages = grid.ages()
        expected = (ages <= 0.5 + 1e-12) | (ages - 0.3 >= 0.9 - 1e-12)
        assert np.array_equal(mask, expected)

    def test_forced_set_empty_when_births_reach_everywhere(self):
        # horizon above both a1 and A - a2: every age is either swept by the
        # window or fed by controllable births
        model = reference_model()
        geom = reference_geometry(horizon=0.25)
        grid = build_grid(1.0, 0.25, 1.0 / 32)
        mask = forced_terminal_mask(model, grid, geom)
        assert integrate_age(mask.astype(float), grid) == 0.0

    def test_forced_set_positive_for_short_horizon(self):
        model = reference_model()
        geom = ControlGeometry(male_window=(0.5, 0.9), female_window=(0.4, 0.95),
                               horizon=0.3, mode=ControlMode.BOTH)
        grid = build_grid(1.0, 0.3, 1.0 / 32)
        mask = forced_terminal_mask(model, grid, geom)
        measure = integrate_age(mask.astype(float), grid)
        assert measure > 0.1
        ages = grid.ages()[mask]
        assert ages.min() >= 0.3 - 1e-12 and ages.max() <= 0.5 + 1e-12

    def test_window_lower_end_is_in_the_rule_but_reached_by_the_scheme(self):
        # the T = 0.2 geometry of the observability benchmark at h = 1/130:
        # among the ages >= T the rule and the scheme differ only at the node
        # a = lo, which is the whole cone probe; the control reaches it at the
        # last level with the boundary mask 1/2, and no other node of the rule
        model = reference_model()
        geom = reference_geometry(horizon=0.2)
        grid = build_grid(1.0, 0.2, 1.0 / 128)
        ages, h = grid.ages(), grid.step
        lower = int(np.argmin(np.abs(ages - 0.2)))
        rule = unreachable_from_window(grid, geom.male_window, geom.horizon)
        forced = forced_terminal_mask(model, grid, geom)
        late = ages >= geom.horizon - 1e-12
        assert list(np.flatnonzero(rule & late)) == [lower]
        assert list(np.flatnonzero((rule != forced) & late)) == [lower]
        m0, f0 = reference_data(grid)
        trace = np.linspace(0.2, 0.8, grid.num_time_cells + 1)

        def terminal_male(v_m):
            state = solve_forward(model, grid, geom, v_m, None, m0, f0, frozen_trace=trace)
            return state.m.values[:, -1]

        reached = terminal_male(np.ones((ages.size, trace.size))) - terminal_male(None)
        assert reached[lower] == pytest.approx(0.5 * h, rel=1e-12)
        assert np.all(reached[rule & (ages != ages[lower])] == 0.0)

    def test_male_only_cone_counts_no_birth_path(self):
        model = reference_model()
        geom = ControlGeometry(male_window=(0.0, 0.5), female_window=(0.1, 0.95),
                               horizon=0.2, target_min_age=0.05,
                               mode=ControlMode.MALE_ONLY)
        grid = build_grid(1.0, 0.2, 1.0 / 32)
        mask = forced_terminal_mask(model, grid, geom)
        # no female control: births are not shapeable, so old ages beyond the
        # swept window are forced
        ages = grid.ages()
        assert np.all(mask[ages >= 0.5 + 0.2 + grid.step])


def test_estimate_needs_a_trace(setup):
    model, geom, grid, _ = setup
    with pytest.raises(DomainError, match="needs at least one trace"):
        estimate_observability_constant(model, grid, geom, [])


def test_targeted_entries_include_the_boundary_node_of_the_target_tail(monkeypatch):
    # at h = 1/140 node 14 sits at age 0.09999999999999999, the boundary of a
    # male-only target from age 0.1, which the penalty weighs h/2.  The
    # forms' basis, the probes' support and the cone probe's tail are the
    # nonzero terminal weights, that node included.  A male window ending at
    # 0.05 with horizon 0.05 leaves the whole targeted tail in the cone.
    model = reference_model()
    geom = ControlGeometry(male_window=(0.01, 0.05), female_window=(0.01, 0.95),
                           horizon=0.05, target_min_age=0.1, mode=ControlMode.MALE_ONLY)
    grid = build_grid(1.0, 0.05, 1.0 / 140)
    w_m, w_f = terminal_weights(grid, geom)
    assert w_f is None and grid.ages()[14] < 0.1 and w_m[14] == grid.step / 2
    targeted = np.flatnonzero(w_m)
    assert targeted[0] == 14 and targeted[-1] == grid.num_age_cells

    seen = {}
    quotients, quadratic_forms = obs._gramian_quotients, obs._quadratic_forms

    def probes(op, n_T, l_T):
        seen["probes"] = n_T, l_T
        return quotients(op, n_T, l_T)

    def forms(op):
        seen["forms"] = quadratic_forms(op)
        return seen["forms"]

    monkeypatch.setattr(obs, "_gramian_quotients", probes)
    monkeypatch.setattr(obs, "_quadratic_forms", forms)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    estimate_observability_constant(model, grid, geom, [trace],
                                    config=ObservabilityConfig(probes=4, power_iters=2))
    # the numerator and denominator forms
    assert len(seen["forms"]) == 2
    assert all(np.array_equal(form.basis.entries, targeted) for form in seen["forms"])
    n_T, l_T = seen["probes"]
    # four random probes, then the cone probe on the targeted tail
    assert n_T.shape[1] == 5 and not np.any(l_T)
    for column in n_T.T:
        assert np.array_equal(np.flatnonzero(column), targeted)

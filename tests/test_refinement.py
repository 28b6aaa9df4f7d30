"""Refinement checks on the example scenario: how the numbers move as h shrinks.

These record sequences rather than fixed bounds; run with ``-s`` to see them.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from popctrl import (ControlMode, ObservabilityConfig, build_grid,
                     estimate_observability_constant, integrate_age, iterate_to_fixed_point,
                     load_scenario, solve_forward, synthesize_null_control)

EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "example.json")


def _setup(scenario, h):
    grid = build_grid(scenario.model.max_age, scenario.geometry.horizon, h)
    m0, f0 = scenario.sample_initial(grid)
    trace = solve_forward(scenario.model, grid, scenario.geometry, None, None,
                          m0, f0).fertile_male_trace
    return grid, m0, f0, trace


@pytest.mark.slow
def test_every_stage_takes_one_solve_under_refinement():
    # the terminal-space solve is exact on the operator's Gramian, so no stage
    # needs a correction solve as h shrinks
    scenario = load_scenario(EXAMPLE)
    rows = []
    for h in (1 / 40, 1 / 80, 1 / 140, 1 / 260):
        grid, m0, f0, trace = _setup(scenario, h)
        result = synthesize_null_control(scenario.penalty, scenario.model, grid,
                                         scenario.geometry, trace, m0, f0)
        assert result.converged and not result.flags
        rows.append((grid.num_age_cells, grid.num_time_cells,
                     [stage["iterations"] for stage in result.stage_history]))
    print("solves per stage:",
          " -> ".join(f"{iters} ({na}x{nt})" for na, nt, iters in rows))
    assert [(na, nt) for na, nt, _ in rows] == [(40, 14), (80, 28), (140, 49), (260, 91)]
    assert all(iters and set(iters) == {1} for _, _, iters in rows)


@pytest.mark.slow
def test_observability_estimate_settles_under_refinement():
    scenario = load_scenario(EXAMPLE)
    estimates = []
    for h in (1 / 40, 1 / 80, 1 / 140):
        grid, _, _, trace = _setup(scenario, h)
        report = estimate_observability_constant(
            scenario.model, grid, scenario.geometry, [trace],
            config=ObservabilityConfig(power_iters=50))
        assert not report.diverged
        estimates.append(report.estimated_constant)
    print("observability estimate:", " -> ".join(f"{e:.4g}" for e in estimates))
    assert all(math.isfinite(e) and e > 0 for e in estimates)
    increments = np.abs(np.diff(estimates))
    assert increments[1] < increments[0]


def _total_after_max_age(scenario, grid, m, f):
    """Total population after an uncontrolled nonlinear solve of length A from (m, f)."""
    max_age = scenario.model.max_age
    later = build_grid(max_age, max_age, grid.step)
    assert later.step == grid.step
    state = solve_forward(scenario.model, later, replace(scenario.geometry, horizon=max_age),
                          None, None, m, f)
    return integrate_age(state.m.values[:, -1] + state.f.values[:, -1], later)


@pytest.mark.slow
@pytest.mark.parametrize("mode", list(ControlMode))
def test_population_dies_out_one_max_age_after_control(mode):
    # the paper's claim: once one sex is null-controlled at T, the whole
    # population is extinct by T + A, A the maximal age
    scenario = load_scenario(EXAMPLE)
    geom = replace(scenario.geometry, mode=mode)
    rows = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        grid = build_grid(scenario.model.max_age, geom.horizon, h)
        m0, f0 = scenario.sample_initial(grid)
        state, result, nonlinear = iterate_to_fixed_point(scenario.model, grid, geom,
                                                          scenario.penalty,
                                                          scenario.fixed_point,
                                                          m0, f0)
        assert state.converged and not result.flags
        controlled = _total_after_max_age(scenario, grid, nonlinear.m.values[:, -1],
                                          nonlinear.f.values[:, -1])
        uncontrolled = _total_after_max_age(scenario, grid, m0, f0)
        rows.append((grid.num_age_cells, controlled, uncontrolled))
    print(f"{mode.value} total at T + A, controlled / uncontrolled:",
          " -> ".join(f"{c:.3g} / {u:.3g} ({na} cells)" for na, c, u in rows))
    assert all(c <= 1e-3 * u for _, c, u in rows)

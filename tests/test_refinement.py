"""Refinement checks on the example scenario: how the numbers move as h shrinks.

These record sequences rather than fixed bounds; run with ``-s`` to see them.
"""

import math
import os

import numpy as np
import pytest

from popctrl import (build_grid, estimate_observability_constant, load_scenario,
                     solve_forward, synthesize_null_control)

EXAMPLE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "example.json")


def _setup(scenario, h):
    grid = build_grid(scenario.model.max_age, scenario.geometry.horizon, h)
    m0, f0 = scenario.sample_initial(grid)
    trace = solve_forward(scenario.model, grid, scenario.geometry, None, None,
                          m0, f0).fertile_male_trace
    return grid, m0, f0, trace


@pytest.mark.slow
def test_final_stage_cg_iterations_under_refinement():
    scenario = load_scenario(EXAMPLE)
    rows = []
    for h in (1 / 40, 1 / 80, 1 / 140, 1 / 260):
        grid, m0, f0, trace = _setup(scenario, h)
        result, _ = synthesize_null_control(scenario.penalty, scenario.model, grid,
                                            scenario.geometry, trace, m0, f0)
        assert result.converged and not result.flags
        rows.append((grid.num_age_cells, grid.num_time_cells,
                     result.stage_history[-1]["iterations"]))
    print("final-stage CG iterations:",
          " -> ".join(f"{iters} ({na}x{nt})" for na, nt, iters in rows))
    assert [(na, nt) for na, nt, _ in rows] == [(40, 14), (80, 28), (140, 49), (260, 91)]
    assert all(0 < iters < scenario.penalty.max_cg_iters for _, _, iters in rows)


@pytest.mark.slow
def test_observability_estimate_settles_under_refinement():
    scenario = load_scenario(EXAMPLE)
    estimates = []
    for h in (1 / 40, 1 / 80, 1 / 140):
        grid, _, _, trace = _setup(scenario, h)
        report = estimate_observability_constant(
            scenario.model, grid, scenario.geometry, [trace], probes=8, power_iters=50,
            seed=0)
        assert not report.diverged
        estimates.append(report.estimated_constant)
    print("observability estimate:", " -> ".join(f"{e:.4g}" for e in estimates))
    assert all(math.isfinite(e) and e > 0 for e in estimates)
    increments = np.abs(np.diff(estimates))
    assert increments[1] < increments[0]

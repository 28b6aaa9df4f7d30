"""Command implementations shared by the CLI and the test suite.

Every command writes deterministic artifacts: CSV fields with fixed float
formatting and reports as canonically sorted JSON.  Wall-clock timings are
logged to the console only, never persisted, so reports are byte-identical
across reruns of the same scenario and seed.
"""

import csv
import os
from dataclasses import replace

import numpy as np

from .adjoint import solve_adjoint
from .control import (FLAG_CONTRACTION_BOUND_EXCEEDED, synthesize_null_control,
                      terminal_norms)
from .errors import ConfigurationError
from .fixed_point import contraction_test, iterate_to_fixed_point
from .forward import solve_forward
from .grid import build_grid, write_field_csv
from .model import validate_hypotheses
from .observability import estimate_observability_constant
from .util import write_json


def make_grid(scenario):
    return build_grid(scenario.model.max_age, scenario.geometry.horizon,
                      scenario.target_h)


def uncontrolled_trace(scenario, grid, m0, f0):
    """Fertile-male trace of the uncontrolled nonlinear solve from the
    initial profiles ``m0``, ``f0`` sampled on ``grid``.

    This is the default frozen trace for the linear auxiliary pipelines.
    """
    state = solve_forward(scenario.model, grid, scenario.geometry, None, None, m0, f0)
    return state.fertile_male_trace


def base_report(command, scenario, grid, seed, flags, scalars):
    return {
        "command": command,
        "scenario_hash": scenario.scenario_hash,
        "seed": seed,
        "grid": {"h": grid.step, "num_age_cells": grid.num_age_cells,
                 "num_time_cells": grid.num_time_cells},
        "flags": sorted(set(flags)),
        "scalars": scalars,
    }


def _write_csv(path, header, rows):
    """A small CSV: floats as ``%.17g`` (``inf`` for the infinity sentinel),
    every other value as csv.writer prints it."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def cmd_validate(scenario, outdir, seed, log):
    report = validate_hypotheses(scenario.model, scenario.geometry)
    for line in report.summary_lines():
        log(line)
    payload = {
        "command": "validate",
        "scenario_hash": scenario.scenario_hash,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
        "admissible_time": report.admissible_time,
        "ok": report.ok,
    }
    write_json(os.path.join(outdir, "validation.json"), payload)
    return 0 if report.ok else 1


def cmd_simulate(scenario, outdir, seed, log):
    grid = make_grid(scenario)
    m0, f0 = scenario.sample_initial(grid)
    state = solve_forward(scenario.model, grid, scenario.geometry, None, None, m0, f0)
    write_field_csv(os.path.join(outdir, "m.csv"), state.m)
    write_field_csv(os.path.join(outdir, "f.csv"), state.f)
    _write_csv(os.path.join(outdir, "traces.csv"), ["t", "M", "N"],
               zip(grid.times(), state.fertile_male_trace, state.birth_trace))
    m_norm, f_norm = terminal_norms(grid, scenario.geometry, state.m.values[:, -1],
                                    state.f.values[:, -1])
    scalars = {"terminal_m_norm": m_norm, "terminal_f_norm": f_norm}
    write_json(os.path.join(outdir, "report.json"),
               base_report("simulate", scenario, grid, seed, [], scalars))
    log(f"simulate: grid {grid.num_age_cells}x{grid.num_time_cells}, terminal norms "
        f"m={scalars['terminal_m_norm']:.6g} f={scalars['terminal_f_norm']:.6g}")
    return 0


def cmd_adjoint(scenario, outdir, seed, log):
    if scenario.n_T is None and scenario.l_T is None:
        raise ConfigurationError(
            "adjoint command needs a 'terminal' section with n_T and/or l_T")
    grid = make_grid(scenario)
    n_T, l_T = scenario.sample_terminal(grid)
    trace = uncontrolled_trace(scenario, grid, *scenario.sample_initial(grid))
    adj = solve_adjoint(scenario.model, grid, scenario.geometry, n_T, l_T, trace)
    write_field_csv(os.path.join(outdir, "n.csv"), adj.n)
    write_field_csv(os.path.join(outdir, "l.csv"), adj.l)
    _write_csv(os.path.join(outdir, "traces.csv"), ["t", "n0", "l0"],
               zip(grid.times(), adj.n.values[0], adj.l.values[0]))
    wa = grid.age_weights()
    scalars = {
        "initial_n_norm": float(np.sqrt(wa @ adj.n.values[:, 0] ** 2)),
        "initial_l_norm": float(np.sqrt(wa @ adj.l.values[:, 0] ** 2)),
    }
    write_json(os.path.join(outdir, "report.json"),
               base_report("adjoint", scenario, grid, seed, [], scalars))
    log(f"adjoint: initial norms n={scalars['initial_n_norm']:.6g} "
        f"l={scalars['initial_l_norm']:.6g}")
    return 0


def _control_scalars(result):
    return {
        "terminal_m_norm": result.terminal_m_norm,
        "terminal_f_norm": result.terminal_f_norm,
        "J_value": result.J_value,
        "iterations": result.iterations,
        "epsilon": result.epsilon,
        "stages": result.stage_history,
    }


def _null_control(scenario):
    """(grid, result) of the control pipeline: the synthesis on the frozen
    trace of the uncontrolled solve."""
    grid = make_grid(scenario)
    m0, f0 = scenario.sample_initial(grid)
    trace = uncontrolled_trace(scenario, grid, m0, f0)
    return grid, synthesize_null_control(scenario.penalty, scenario.model, grid,
                                         scenario.geometry, trace, m0, f0)


def cmd_control(scenario, outdir, seed, log):
    grid, result = _null_control(scenario)
    write_field_csv(os.path.join(outdir, "v_m.csv"), result.v_m)
    write_field_csv(os.path.join(outdir, "v_f.csv"), result.v_f)
    write_json(os.path.join(outdir, "report.json"),
               base_report("control", scenario, grid, seed, result.flags,
                           _control_scalars(result)))
    log(f"control: terminal norms m={result.terminal_m_norm:.6g} "
        f"f={result.terminal_f_norm:.6g}, flags={result.flags}")
    return 1 if result.flags else 0


def cmd_solve(scenario, outdir, seed, log):
    grid = make_grid(scenario)
    m0, f0 = scenario.sample_initial(grid)
    fp_state, result, nonlinear = iterate_to_fixed_point(
        scenario.model, grid, scenario.geometry, scenario.penalty,
        scenario.fixed_point, m0, f0)
    write_field_csv(os.path.join(outdir, "v_m.csv"), result.v_m)
    write_field_csv(os.path.join(outdir, "v_f.csv"), result.v_f)
    write_field_csv(os.path.join(outdir, "m.csv"), nonlinear.m)
    write_field_csv(os.path.join(outdir, "f.csv"), nonlinear.f)
    columns = ["epsilon", "iteration", "delta", "terminal_m_norm", "terminal_f_norm"]
    _write_csv(os.path.join(outdir, "history.csv"), columns,
               ([entry[c] for c in columns] for entry in fp_state.history))
    m_norm, f_norm = terminal_norms(grid, scenario.geometry, nonlinear.m.values[:, -1],
                                    nonlinear.f.values[:, -1])
    scalars = _control_scalars(result)
    scalars.update({
        "nonlinear_m_norm": m_norm,
        "nonlinear_f_norm": f_norm,
        "outer_iterations": len(fp_state.history),
        "fixed_point_converged": fp_state.converged,
    })
    write_json(os.path.join(outdir, "report.json"),
               base_report("solve", scenario, grid, seed, result.flags, scalars))
    log(f"solve: {len(fp_state.history)} outer iterations, nonlinear terminal norms "
        f"m={scalars['nonlinear_m_norm']:.6g} f={scalars['nonlinear_f_norm']:.6g}, "
        f"flags={result.flags}")
    return 1 if result.flags else 0


def cmd_contraction(scenario, outdir, seed, log):
    grid = make_grid(scenario)
    m0, f0 = scenario.sample_initial(grid)
    report = contraction_test(scenario.model, grid, m0, f0, config=scenario.contraction,
                              seed=seed)
    passed = report.max_ratio <= report.bound
    payload = base_report("contraction", scenario, grid, seed,
                          [] if passed else [FLAG_CONTRACTION_BOUND_EXCEEDED],
                          {"max_ratio": report.max_ratio, "bound": report.bound,
                           "sigma_hat": report.sigma_hat, "trials": report.trials})
    write_json(os.path.join(outdir, "report.json"), payload)
    _write_csv(os.path.join(outdir, "ratios.csv"), ["trial", "ratio"],
               enumerate(report.ratios))
    log(f"contraction: max ratio {report.max_ratio:.6g} vs bound {report.bound:.6g}")
    return 0 if passed else 1


def _observability_traces(scenario, grid, count):
    base = uncontrolled_trace(scenario, grid, *scenario.sample_initial(grid))
    scales = [1.0, 0.5, 1.5, 0.25, 2.0, 0.75]
    traces = []
    for k in range(count):
        scale = scales[k % len(scales)] * (1.0 + k // len(scales))
        traces.append(scale * base)
    return traces


def cmd_observability(scenario, outdir, seed, log):
    sweep = scenario.observability_sweep
    windows = [(lo, hi) for lo in sweep["male_lo"] for hi in sweep["male_hi"] if lo < hi]
    rows = []
    for horizon in sweep["horizons"]:
        if not windows:
            break  # nothing to estimate, so no uncontrolled solve either
        grid = build_grid(scenario.model.max_age, horizon, scenario.target_h)
        # the frozen traces come from the uncontrolled solve, which does not
        # depend on the control window: one set serves every window
        traces = _observability_traces(scenario, grid, scenario.observability.num_traces)
        for lo, hi in windows:
            geom = replace(scenario.geometry, male_window=(lo, hi), horizon=horizon)
            report = estimate_observability_constant(
                scenario.model, grid, geom, traces, config=scenario.observability, seed=seed)
            rows.append([horizon, lo, hi, report.threshold_margin,
                         report.estimated_constant, int(report.diverged)])
    _write_csv(os.path.join(outdir, "observability.csv"),
               ["T", "a1", "a2", "margin", "estimate", "diverged_flag"], rows)
    log(f"observability: {len(rows)} sweep points written")
    return 0


def cmd_sweep(sweep, outdir, seed, log):
    """The control pipeline on every run of a parsed sweep file."""
    rows = []
    any_flagged = False
    for values, scenario in sweep.runs:
        result = _null_control(scenario)[1]
        any_flagged = any_flagged or bool(result.flags)
        rows.append(values + [result.terminal_m_norm, result.terminal_f_norm,
                              result.J_value, result.iterations, result.epsilon,
                              len(result.stage_history), "|".join(result.flags)])
    _write_csv(os.path.join(outdir, "sweep.csv"),
               sweep.paths + ["terminal_m_norm", "terminal_f_norm", "J_value",
                              "iterations", "epsilon", "stages", "flags"], rows)
    log(f"sweep: {len(rows)} combinations written")
    return 1 if any_flagged else 0

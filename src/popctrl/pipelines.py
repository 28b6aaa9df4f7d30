"""Command implementations shared by the CLI and the test suite.

Every command writes deterministic artifacts: CSV fields with fixed float
formatting and reports as canonically sorted JSON.  Wall-clock timings are
logged to the console only, never persisted, so reports are byte-identical
across reruns of the same scenario and seed.
"""

import csv
import math
import os

import numpy as np

from .adjoint import solve_adjoint
from .control import (FLAG_CONTRACTION_BOUND_EXCEEDED, synthesize_null_control,
                      terminal_norms)
from .errors import ConfigurationError
from .fixed_point import contraction_test, iterate_to_fixed_point
from .forward import solve_forward
from .grid import build_grid, write_field_csv
from .model import ControlGeometry, validate_hypotheses
from .observability import estimate_observability_constant
from .util import write_json


def _fmt(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.17g}"


def make_grid(scenario):
    return build_grid(scenario.model.max_age, scenario.geometry.horizon,
                      scenario.target_h)


def uncontrolled_trace(scenario, grid):
    """Fertile-male trace of the uncontrolled nonlinear solve.

    This is the default frozen trace for the linear auxiliary pipelines.
    """
    m0, f0 = scenario.sample_initial(grid)
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


def _write_trace_csv(path, header, columns):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([_fmt(v) for v in row])


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
    _write_trace_csv(os.path.join(outdir, "traces.csv"), ["t", "M", "N"],
                     [grid.times(), state.fertile_male_trace, state.birth_trace])
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
    trace = uncontrolled_trace(scenario, grid)
    adj = solve_adjoint(scenario.model, grid, scenario.geometry, n_T, l_T, trace,
                        mode=scenario.geometry.mode)
    write_field_csv(os.path.join(outdir, "n.csv"), adj.n)
    write_field_csv(os.path.join(outdir, "l.csv"), adj.l)
    _write_trace_csv(os.path.join(outdir, "traces.csv"), ["t", "n0", "l0"],
                     [grid.times(), adj.n0_trace, adj.l0_trace])
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
        "theta": result.theta,
        "stages": result.stage_history,
    }


def cmd_control(scenario, outdir, seed, log):
    grid = make_grid(scenario)
    m0, f0 = scenario.sample_initial(grid)
    trace = uncontrolled_trace(scenario, grid)
    result = synthesize_null_control(scenario.penalty, scenario.model, grid,
                                     scenario.geometry, trace, m0, f0)
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
    with open(os.path.join(outdir, "history.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["epsilon", "iteration", "delta", "terminal_m_norm",
                         "terminal_f_norm"])
        for entry in fp_state.history:
            writer.writerow([_fmt(entry["epsilon"]), entry["iteration"],
                             _fmt(entry["delta"]), _fmt(entry["terminal_m_norm"]),
                             _fmt(entry["terminal_f_norm"])])
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
    cfg = scenario.contraction or {"trials": 50, "amplitude": 1.0}
    report = contraction_test(scenario.model, grid, m0, f0, trials=cfg["trials"],
                              seed=seed, amplitude=cfg["amplitude"])
    passed = report.max_ratio <= report.bound
    payload = base_report("contraction", scenario, grid, seed,
                          [] if passed else [FLAG_CONTRACTION_BOUND_EXCEEDED],
                          {"max_ratio": report.max_ratio, "bound": report.bound,
                           "sigma_hat": report.sigma_hat, "trials": report.trials})
    write_json(os.path.join(outdir, "report.json"), payload)
    _write_trace_csv(os.path.join(outdir, "ratios.csv"), ["trial", "ratio"],
                     [list(range(len(report.ratios))), report.ratios])
    log(f"contraction: max ratio {report.max_ratio:.6g} vs bound {report.bound:.6g}")
    return 0 if passed else 1


def _observability_traces(scenario, grid, count):
    base = uncontrolled_trace(scenario, grid)
    scales = [1.0, 0.5, 1.5, 0.25, 2.0, 0.75]
    traces = []
    for k in range(count):
        scale = scales[k % len(scales)] * (1.0 + k // len(scales))
        traces.append(scale * base)
    return traces


def cmd_observability(scenario, outdir, seed, log):
    cfg = scenario.observability
    if cfg is None:
        geometry = scenario.geometry
        cfg = {"horizons": [geometry.horizon], "male_lo": [geometry.male_window[0]],
               "male_hi": [geometry.male_window[1]], "probes": 16, "power_iters": 0,
               "num_traces": 3}
    windows = [(lo, hi) for lo in cfg["male_lo"] for hi in cfg["male_hi"] if lo < hi]
    rows = []
    for horizon in cfg["horizons"]:
        if not windows:
            break  # nothing to estimate, so no uncontrolled solve either
        grid = build_grid(scenario.model.max_age, horizon, scenario.target_h)
        # the frozen traces come from the uncontrolled solve, which does not
        # depend on the control window: one set serves every window
        traces = _observability_traces(scenario, grid, cfg["num_traces"])
        for lo, hi in windows:
            geom = ControlGeometry(
                male_window=(lo, hi), female_window=scenario.geometry.female_window,
                horizon=horizon, target_min_age=scenario.geometry.target_min_age,
                mode=scenario.geometry.mode)
            report = estimate_observability_constant(
                scenario.model, grid, geom, traces, probes=cfg["probes"],
                power_iters=cfg["power_iters"], seed=seed)
            rows.append([horizon, lo, hi, report.threshold_margin,
                         report.estimated_constant, report.diverged])
    with open(os.path.join(outdir, "observability.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["T", "a1", "a2", "margin", "estimate", "diverged_flag"])
        for row in rows:
            writer.writerow([_fmt(row[0]), _fmt(row[1]), _fmt(row[2]), _fmt(row[3]),
                             _fmt(row[4]), int(row[5])])
    log(f"observability: {len(rows)} sweep points written")
    return 0


def set_json_path(obj, dotted, value):
    parts = dotted.split(".")
    node = obj
    for key in parts[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise ConfigurationError(f"sweep parameter path {dotted!r} not in scenario")
        node = node[key]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigurationError(f"sweep parameter path {dotted!r} not in scenario")
    node[parts[-1]] = value


def cmd_sweep(sweep_spec, base_raw, outdir, seed, log):
    """Cartesian parameter sweep running the control pipeline per combination."""
    import itertools
    import json

    from .scenario import parse_scenario

    parameters = sweep_spec.get("parameters")
    if not isinstance(parameters, list) or not parameters:
        raise ConfigurationError("sweep file needs a non-empty 'parameters' list")
    paths = []
    value_lists = []
    for k, item in enumerate(parameters):
        if not isinstance(item, dict) or set(item) != {"path", "values"}:
            raise ConfigurationError(
                f"sweep.parameters[{k}]: expected {{'path':..., 'values': [...]}}")
        paths.append(item["path"])
        value_lists.append(item["values"])

    rows = []
    any_flagged = False
    for combo in itertools.product(*value_lists):
        raw = json.loads(json.dumps(base_raw))
        for path, value in zip(paths, combo):
            set_json_path(raw, path, value)
        scenario = parse_scenario(raw)
        grid = make_grid(scenario)
        m0, f0 = scenario.sample_initial(grid)
        trace = uncontrolled_trace(scenario, grid)
        result = synthesize_null_control(scenario.penalty, scenario.model, grid,
                                         scenario.geometry, trace, m0, f0)
        any_flagged = any_flagged or bool(result.flags)
        rows.append(list(combo) + [result.terminal_m_norm, result.terminal_f_norm,
                                   result.J_value, result.iterations, result.epsilon,
                                   len(result.stage_history), "|".join(result.flags)])
    with open(os.path.join(outdir, "sweep.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(paths + ["terminal_m_norm", "terminal_f_norm", "J_value",
                                 "iterations", "epsilon", "stages", "flags"])
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    log(f"sweep: {len(rows)} combinations written")
    return 1 if any_flagged else 0

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The reference setup is
the admissible coupled-control scenario (male window (0.2, 0.9), female
window (0.1, 0.95), fertility onset 0.15, horizon 0.35 on max age 1), at
a grid step of at most 1/64.  Criterion 6 is marked strict-xfail: its
stated geometry admits no control-independent age set (see the decisions
ledger next to the repository).
"""

import json
import os

import numpy as np
import pytest

from popctrl import (ContractionConfig, ControlGeometry, ControlMode, Field2D,
                     PenaltyProblem, build_grid, duality_residual,
                     contraction_test, estimate_observability_constant, integrate_age,
                     iterate_to_fixed_point, minimize_penalty, solve_adjoint, solve_forward,
                     synthesize_null_control)
from popctrl.cli import run_command
from popctrl.control import _Workspace, FLAG_TARGET_NOT_REACHED
from popctrl.fixed_point import FixedPointConfig
from popctrl.forward import FrozenOperator
from popctrl.observability import forced_terminal_mask

from conftest import (random_control, random_nonneg_model, reference_data,
                      reference_geometry, reference_model, transport_model)

H_TARGET = 1.0 / 64


def report(number, description, ok):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def _scenario(horizon=0.35):
    model = reference_model()
    geom = reference_geometry(horizon=horizon)
    grid = build_grid(1.0, horizon, H_TARGET)
    m0, f0 = reference_data(grid)
    return model, geom, grid, m0, f0


def _kappa(grid, m0, f0):
    wa = grid.age_weights()
    return 1e-3 * (np.sqrt(wa @ m0 ** 2) + np.sqrt(wa @ f0 ** 2))


def test_criterion_1_transport_oracle():
    model = transport_model()
    geom = reference_geometry(horizon=0.5)
    profile = lambda a: np.where(a <= 0.4,
                                 np.sin(np.pi * np.minimum(a, 0.4) / 0.4) ** 2, 0.0)

    def error(target):
        g = build_grid(1.0, 0.5, target)
        m0 = profile(g.ages())
        state = solve_forward(model, g, geom, None, None, m0, np.zeros_like(m0))
        h = g.step
        err2 = 0.0
        for n in range(1, g.num_time_cells + 1):
            t_c = g.times()[n] - h / 2
            a_c = g.ages()[1:] - h / 2
            shifted = np.maximum(a_c - t_c, 0.0)
            decay = np.exp(model.mortality_integral("male", shifted)
                           - model.mortality_integral("male", a_c))
            exact = np.where(a_c >= t_c, profile(shifted) * decay, 0.0)
            err2 += float(np.sum(h * h * (state.m.values[1:, n] - exact) ** 2))
        return np.sqrt(err2)

    errors = [error(t) for t in (1.0 / 32, 1.0 / 64, 1.0 / 128)]
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    report(1, f"transport error halves under refinement (ratios {r1:.3f}, {r2:.3f})",
           1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4)


def test_criterion_2_discrete_duality():
    worst = 0.0
    geom = reference_geometry(horizon=1.0)
    grid = build_grid(1.0, 1.0, 1.0 / 8)
    na, nt = grid.num_age_cells, grid.num_time_cells
    for seed in range(100):
        model = random_nonneg_model(seed)
        r = np.random.default_rng(20_000 + seed)
        m0, f0 = r.standard_normal(na + 1), r.standard_normal(na + 1)
        vm = Field2D(grid, r.standard_normal((na + 1, nt + 1)))
        vf = Field2D(grid, r.standard_normal((na + 1, nt + 1)))
        n_T, l_T = r.standard_normal(na + 1), r.standard_normal(na + 1)
        trace = 3.0 * r.random(nt + 1)
        state = solve_forward(model, grid, geom, vm, vf, m0, f0, frozen_trace=trace)
        adj = solve_adjoint(model, grid, geom, n_T, l_T, trace)
        residual, scale = duality_residual(state, adj, n_T, l_T, m0, f0, vm, vf,
                                           model, grid, geom)
        worst = max(worst, residual / scale)
    report(2, f"duality residual <= 1e-12 x scale on 100 instances (worst {worst:.2e})",
           worst <= 1e-12)


def test_criterion_3_gradient_exactness():
    worst = 0.0
    for seed in range(20):
        model = random_nonneg_model(seed + 300)
        geom = reference_geometry(horizon=0.5)
        grid = build_grid(1.0, 0.5, 1.0 / 16)
        r = np.random.default_rng(30_000 + seed)
        m0 = r.random(grid.num_age_cells + 1)
        f0 = r.random(grid.num_age_cells + 1)
        trace = r.random(grid.num_time_cells + 1)
        ws = _Workspace(FrozenOperator(model, grid, geom, trace), m0, f0,
                        10 ** r.uniform(-3, -1))
        x, d = random_control(ws, r), random_control(ws, r)
        norm = np.sqrt(ws.inner(d, d))
        d = [di / norm for di in d]
        directional = ws.inner(ws.gradient(x), d)
        eta = 1e-5
        plus = ws.objective([xi + eta * di for xi, di in zip(x, d)])
        minus = ws.objective([xi - eta * di for xi, di in zip(x, d)])
        fd = (plus - minus) / (2 * eta)
        worst = max(worst, abs(directional - fd) / abs(fd))
    report(3, f"adjoint gradient matches central differences (worst rel {worst:.2e})",
           worst <= 1e-7)


def test_criterion_4_epsilon_scaling():
    model, geom, grid, m0, f0 = _scenario()
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    problem = PenaltyProblem(max_cg_iters=6000, cg_tol=1e-10)
    op = FrozenOperator(model, grid, geom, trace)
    ratios_m, ratios_f = [], []
    for eps in (1e-2, 1e-3, 1e-4):
        result = minimize_penalty(problem, op, m0, f0, eps)
        assert result.converged
        ratios_m.append(result.terminal_m_norm ** 2 / eps)
        ratios_f.append(result.terminal_f_norm ** 2 / eps)
    var_m = max(ratios_m) / min(ratios_m)
    var_f = max(ratios_f) / min(ratios_f)
    report(4, f"terminal-norm ratios stable across the penalty sweep "
              f"(m x{var_m:.2f}, f x{var_f:.2f})", var_m < 3.0 and var_f < 3.0)


def test_criterion_5_null_control_success():
    model, geom, grid, m0, f0 = _scenario()
    kappa = _kappa(grid, m0, f0)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    problem = PenaltyProblem(target_norm=kappa,
                             max_cg_iters=6000, cg_tol=1e-10)
    result = synthesize_null_control(problem, model, grid, geom, trace, m0, f0)
    ok = (FLAG_TARGET_NOT_REACHED not in result.flags
          and result.terminal_m_norm <= kappa and result.terminal_f_norm <= kappa)
    report(5, f"default schedule reaches both terminal norms <= {kappa:.3e} "
              f"(m {result.terminal_m_norm:.3e}, f {result.terminal_f_norm:.3e}, "
              f"{len(result.stage_history)} stages)", ok)


@pytest.mark.xfail(
    strict=True,
    reason="stated geometry admits no control-independent age set: the horizon "
           "0.25 exceeds both the male window start 0.2 and the distance 0.1 "
           "from the window end to the maximal age, so every terminal age is "
           "reached directly or through the controllable birth boundary; see "
           "the decisions ledger")
def test_criterion_6_time_condition_sharpness():
    model, geom0, _, _, _ = _scenario()
    geom = ControlGeometry(male_window=geom0.male_window,
                           female_window=geom0.female_window,
                           horizon=0.25, mode=ControlMode.BOTH)
    grid = build_grid(1.0, 0.25, H_TARGET)
    m0, f0 = reference_data(grid)
    uncontrolled = solve_forward(model, grid, geom, None, None, m0, f0)
    trace = uncontrolled.fertile_male_trace
    cone = forced_terminal_mask(model, grid, geom)
    measure = integrate_age(cone.astype(float), grid)
    print(f"criterion  6: forced-set measure {measure:.4f}")
    assert measure > 0.0, "unreachable cone has measure zero"
    w_cone = grid.age_weights() * cone
    floor = np.sqrt(float(w_cone @ uncontrolled.m.values[:, -1] ** 2))
    problem = PenaltyProblem(max_cg_iters=6000, cg_tol=1e-10)
    op = FrozenOperator(model, grid, geom, trace)
    for eps in problem.schedule.values():
        result = minimize_penalty(problem, op, m0, f0, eps)
        controlled = solve_forward(model, grid, geom, result.v_m, result.v_f,
                                   m0, f0, frozen_trace=trace)
        deviation = np.max(np.abs((controlled.m.values[:, -1]
                                   - uncontrolled.m.values[:, -1])[cone]))
        assert deviation <= 1e-10
        cone_norm = np.sqrt(float(w_cone @ controlled.m.values[:, -1] ** 2))
        assert cone_norm >= 0.5 * floor
    report(6, "terminal norm stagnates on the unreachable cone", True)


def test_criterion_7_male_only_control():
    model = reference_model()
    geom = ControlGeometry(male_window=(0.0, 0.9), female_window=(0.1, 0.95),
                           horizon=0.15, target_min_age=0.05,
                           mode=ControlMode.MALE_ONLY)
    grid = build_grid(1.0, 0.15, H_TARGET)
    m0, f0 = reference_data(grid)
    kappa = _kappa(grid, m0, f0)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    problem = PenaltyProblem(target_norm=kappa, max_cg_iters=6000,
                             cg_tol=1e-10)
    result = synthesize_null_control(problem, model, grid, geom, trace, m0, f0)
    ok = (result.terminal_m_norm <= kappa
          and FLAG_TARGET_NOT_REACHED not in result.flags
          and np.all(result.v_f.values == 0.0))
    report(7, f"male-only control drives the tail norm to {result.terminal_m_norm:.3e} "
              f"<= {kappa:.3e} with no female control", ok)


def test_criterion_8_positivity():
    geom = reference_geometry(horizon=0.5)
    grid = build_grid(1.0, 0.5, H_TARGET)
    shape = (grid.num_age_cells + 1, grid.num_time_cells + 1)
    worst = 0.0
    for seed in range(100):
        model = random_nonneg_model(seed + 800)
        r = np.random.default_rng(40_000 + seed)
        state = solve_forward(model, grid, geom,
                              Field2D(grid, r.random(shape)),
                              Field2D(grid, r.random(shape)),
                              r.random(grid.num_age_cells + 1),
                              r.random(grid.num_age_cells + 1))
        scale = max(np.max(state.m.values), np.max(state.f.values), 1.0)
        worst = min(worst, state.m.values.min() / scale,
                    state.f.values.min() / scale)
    report(8, f"nonlinear solves preserve nonnegativity (min scaled value {worst:.2e})",
           worst >= -1e-12)


def test_criterion_9_contraction():
    model = reference_model(beta_amp=0.6)
    grid = build_grid(1.0, 0.5, H_TARGET)
    m0, f0 = reference_data(grid)
    rep = contraction_test(model, grid, m0, f0, config=ContractionConfig(trials=50), seed=0)
    report(9, f"weighted-metric contraction factor {rep.max_ratio:.4f} <= "
              f"{rep.bound:.4f} over 50 trials", rep.max_ratio <= rep.bound)


def test_criterion_10_fixed_point_convergence():
    model, geom, grid, m0, f0 = _scenario()
    kappa = _kappa(grid, m0, f0)
    problem = PenaltyProblem(target_norm=kappa,
                             max_cg_iters=6000, cg_tol=1e-9)
    fp = FixedPointConfig(fp_tol=1e-4, max_outer_iters=40)
    state, result, nonlinear = iterate_to_fixed_point(model, grid, geom, problem,
                                                      fp, m0, f0)
    ratios = [e["delta_ratio"] for e in state.history if e["delta_ratio"] is not None]
    wa = grid.age_weights()
    nl_m = np.sqrt(wa @ nonlinear.m.values[:, -1] ** 2)
    nl_f = np.sqrt(wa @ nonlinear.f.values[:, -1] ** 2)
    ok = (state.converged and ratios and all(r < 1.0 for r in ratios)
          and nl_m <= 1.5 * result.terminal_m_norm
          and nl_f <= 1.5 * result.terminal_f_norm)
    report(10, f"fixed point converges ({len(state.history)} iterations, max delta "
               f"ratio {max(ratios):.3f}) with nonlinear norms within 1.5x frozen",
           ok)


def test_criterion_11_observability_trace_independence():
    model, geom, grid, m0, f0 = _scenario()
    base = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    traces = [base, 0.5 * base, 1.5 * base]
    rep = estimate_observability_constant(model, grid, geom, traces)
    spread = rep.trace_spread
    report(11, f"observability estimates across 3 frozen traces differ by "
               f"{100 * spread:.2f}%", (not rep.diverged) and spread <= 0.10)


def test_criterion_12_determinism(tmp_path):
    scenario = {
        "model": {
            "male_mortality": 0.2, "female_mortality": 0.3,
            "fertility": {
                "kind": "separable",
                "age_profile": {"kind": "expr", "expr": "1.3 * step(a - 0.15)"},
                "response": {"kind": "expr", "expr": "p / (1 + p)"},
                "response_lipschitz": 1.0},
            "male_fertility_weight": {"kind": "expr", "expr": "4 * a * (1 - a)"},
            "female_fraction": 0.6, "fertility_onset": 0.15, "max_age": 1.0},
        "geometry": {"male_window": [0.2, 0.9], "female_window": [0.1, 0.95],
                     "horizon": 0.35, "mode": "BOTH"},
        "grid": {"target_h": 0.0625},
        "initial": {"m0": {"kind": "expr", "expr": "sin(3.141592653589793 * a)**2"},
                    "f0": {"kind": "expr", "expr": "0.5 * exp(-30 * (a - 0.55)**2)"}},
        "penalty": {"target_norm": 0.002, "max_cg_iters": 2000, "cg_tol": 1e-8,
                    "schedule": {"start": 0.01, "ratio": 10.0, "stages": 3}},
        "fixed_point": {"fp_tol": 0.001, "max_outer_iters": 25},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    code_a = run_command(["solve", str(path), "--seed", "7", "--out", out_a,
                          "--quiet"])
    code_b = run_command(["solve", str(path), "--seed", "7", "--out", out_b,
                          "--quiet"])
    identical = True
    for name in ("report.json", "v_m.csv", "v_f.csv", "m.csv", "f.csv",
                 "history.csv"):
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            identical = identical and fa.read() == fb.read()
    report(12, "repeated seeded solve produces byte-identical artifacts",
           code_a == code_b and identical)

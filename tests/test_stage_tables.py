"""A penalty stage reads its trace-independent tables off the operator family:
|b| from the control Gramian, the fused control inner product, and tables
built once per CLI solve."""

import json

import numpy as np
import pytest

from popctrl import ControlGeometry, ControlMode, build_grid, solve_forward
from popctrl import forward as forward_module
from popctrl.adjoint import region_inner
from popctrl.cli import run_command
from popctrl.control import _Workspace
from popctrl.grid import lattice_inner, region_weights

from conftest import PenaltySystem, expr_fertility_model, reference_data, reference_model
from test_cli import FAST_SCENARIO

def _stage(make_model, mode, target_min_age=0.0):
    model = make_model()
    geom = ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95), horizon=0.35,
                           target_min_age=target_min_age, mode=mode)
    grid = build_grid(1.0, geom.horizon, 1.0 / 32)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    return _Workspace(forward_module.FrozenOperator(model, grid, geom, trace), m0, f0, 1e-3)


@pytest.mark.parametrize("mode, target_min_age", [
    (ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1), (ControlMode.FEMALE_ONLY, 0.0)])
@pytest.mark.parametrize("make_model", [reference_model, expr_fertility_model],
                         ids=["separable", "expr"])
def test_rhs_norm_from_the_gramian_is_the_lattice_norm(make_model, mode, target_min_age):
    ws = _stage(make_model, mode, target_min_age)
    work = -ws.penalty_weights() * ws.op.uncontrolled_terminal(ws.m0, ws.f0)
    b = PenaltySystem(ws).rhs()
    lattice = np.sqrt(ws.inner(b, b))
    assert lattice > 0
    assert abs(np.sqrt(ws.op.control_gramian().energy(work)) - lattice) <= 1e-13 * lattice


def test_fused_inner_matches_the_sliced_formula():
    rng = np.random.default_rng(4)
    for na, nt in ((32, 11), (80, 28), (260, 91)):
        grid = build_grid(1.0, nt / na, 1.0 / na)
        assert (grid.num_age_cells, grid.num_time_cells) == (na, nt)
        h = grid.step
        for lo, hi in ((0.2, 0.9), (0.0, 0.5), (0.1, 1.0)):
            mask = forward_module.region_mask(grid, lo, hi)
            w = h * h * mask[1:, None]
            for _ in range(5):
                u, v = rng.standard_normal((2, na + 1, nt + 1))
                terms = w * u[1:, 1:] * v[1:, 1:]
                old = float(np.sum(terms))
                got = region_inner(grid, mask, u, v)
                assert abs(got - old) <= 1e-15 * float(np.sum(np.abs(terms)))
                assert got == lattice_inner(region_weights(grid, mask), u, v)
                squares = float(np.sum(w * u[1:, 1:] * u[1:, 1:]))
                assert abs(region_inner(grid, mask, u, u) - squares) <= 1e-15 * squares


def test_retraced_operators_share_the_geometry_tables():
    ws = _stage(reference_model, ControlMode.BOTH)
    op = ws.op
    tables = op.geometry_tables()
    assert op.retrace(2.0 * op.trace).geometry_tables() is tables
    assert ws.support is tables[1]
    # the supports are the nodes of nonzero inner weight, away from the
    # age-zero node and level 0
    for support, mask in zip(ws.support, (ws.op.mask_m, ws.op.mask_f)):
        want = np.zeros(support.shape, dtype=bool)
        want[1:, 1:] = (mask[1:] > 0)[:, None]
        assert np.array_equal(support, want)


def test_an_adjoint_or_forward_map_alone_builds_no_geometry_tables():
    ws = _stage(reference_model, ControlMode.BOTH)
    op = forward_module.FrozenOperator(reference_model(), ws.grid, ws.op.geom, ws.op.trace)
    op.adjoint(ws.m0, ws.f0)
    op.forward(ws.m0, ws.f0)
    op.observe(ws.m0, ws.f0, None, None)
    # nor any Gramian table
    assert op._geometry is None and op._terms is None


def test_cli_solve_builds_the_geometry_tables_once(tmp_path, monkeypatch):
    builds = []

    def counted(grid, mask):
        builds.append(mask)
        return region_weights(grid, mask)

    monkeypatch.setattr(forward_module, "region_weights", counted)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(FAST_SCENARIO))
    out = tmp_path / "out"
    assert run_command(["solve", str(path), "--out", str(out), "--quiet"]) in (0, 1)
    with open(out / "report.json") as handle:
        assert json.load(handle)["scalars"]["outer_iterations"] > 1
    # every stage of every outer iteration reads the tables of one family:
    # one weight lattice per sex
    assert len(builds) == 2

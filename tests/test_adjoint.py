import numpy as np
import pytest

from popctrl import (ControlMode, Field2D, build_grid, duality_residual,
                     region_mask, solve_adjoint, solve_forward)
from popctrl.adjoint import region_inner
from popctrl.errors import ConsistencyError
from popctrl.forward import control_masks

from conftest import (random_nonneg_model, reference_geometry, reference_model,
                      transport_model)


def closed_form_backward(model, ages, t, horizon, terminal_fn):
    """Pure-transport adjoint: survival-weighted pullback of the terminal datum."""
    shifted = ages + horizon - t
    inside = shifted <= model.max_age
    shifted = np.minimum(shifted, model.max_age)
    decay = np.exp(model.mortality_integral("female", ages)
                   - model.mortality_integral("female", shifted))
    return np.where(inside, terminal_fn(shifted) * decay, 0.0)


def test_zero_terminal_data(model, geometry, grid):
    zeros = np.zeros(grid.num_age_cells + 1)
    adj = solve_adjoint(model, grid, geometry, zeros, zeros,
                        np.zeros(grid.num_time_cells + 1))
    assert np.all(adj.n.values == 0.0)
    assert np.all(adj.l.values == 0.0)


def test_backward_transport_matches_closed_form():
    model = transport_model()
    geom = reference_geometry(horizon=0.5)
    terminal = lambda a: np.exp(-40 * (a - 0.5) ** 2) * (np.abs(a - 0.5) <= 0.4)
    errors = []
    for target in (1.0 / 16, 1.0 / 32):
        g = build_grid(1.0, 0.5, target)
        l_T = terminal(g.ages())
        adj = solve_adjoint(model, g, geom, np.zeros_like(l_T), l_T,
                            np.zeros(g.num_time_cells + 1))
        h = g.step
        err2 = 0.0
        for n in range(g.num_time_cells):
            t_c = g.times()[n] + h / 2
            a_c = g.ages()[:-1] + h / 2
            diff = adj.l.values[:-1, n] - closed_form_backward(model, a_c, t_c, 0.5,
                                                               terminal)
            err2 += float(np.sum(h * h * diff ** 2))
        errors.append(np.sqrt(err2))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.5)
    assert errors[1] < 0.05 * np.max(np.abs(terminal(np.linspace(0, 1, 101))))


def test_female_part_vanishes_without_source():
    # zero female terminal datum and zero fertility leave the female adjoint
    # identically zero even when the male part is active
    model = transport_model()
    geom = reference_geometry(horizon=0.5)
    g = build_grid(1.0, 0.5, 1.0 / 16)
    rng = np.random.default_rng(9)
    n_T = rng.standard_normal(g.num_age_cells + 1)
    adj = solve_adjoint(model, g, geom, n_T, np.zeros_like(n_T),
                        np.zeros(g.num_time_cells + 1))
    assert np.all(adj.l.values == 0.0)
    assert np.any(adj.n.values != 0.0)


def test_terminal_row_stores_raw_data(model, geometry, grid):
    rng = np.random.default_rng(0)
    n_T = rng.standard_normal(grid.num_age_cells + 1)
    l_T = rng.standard_normal(grid.num_age_cells + 1)
    adj = solve_adjoint(model, grid, geometry, n_T, l_T,
                        np.zeros(grid.num_time_cells + 1))
    assert np.array_equal(adj.n.values[:, -1], n_T)
    assert np.array_equal(adj.l.values[:, -1], l_T)
    # the oldest-age row vanishes at every earlier level
    assert np.all(adj.n.values[-1, :-1] == 0.0)
    assert np.all(adj.l.values[-1, :-1] == 0.0)


def test_trace_support_propagation(model, geometry):
    # terminal datum vanishing on (0, rho) silences the age-zero trace on
    # (T - rho, T), up to one boundary cell
    g = build_grid(1.0, 0.35, 1.0 / 64)
    rho = 0.1
    ages = g.ages()
    n_T = np.where(ages >= rho, 1.0 + np.sin(7 * ages) ** 2, 0.0)
    adj = solve_adjoint(model, g, geometry, n_T, np.zeros_like(n_T),
                        np.zeros(g.num_time_cells + 1))
    times = g.times()
    silent = times > 0.35 - rho + g.step + 1e-12
    assert np.all(adj.n.values[0, silent] == 0.0)


def test_male_equation_autonomous(model, geometry, grid):
    rng = np.random.default_rng(1)
    n_T = rng.standard_normal(grid.num_age_cells + 1)
    trace = rng.random(grid.num_time_cells + 1)
    l_a = solve_adjoint(model, grid, geometry, n_T,
                        rng.standard_normal(grid.num_age_cells + 1), trace)
    l_b = solve_adjoint(model, grid, geometry, n_T,
                        rng.standard_normal(grid.num_age_cells + 1), trace)
    assert np.array_equal(l_a.n.values, l_b.n.values)


def test_mode_variants_force_terminal_slots(model, grid):
    geom_m = reference_geometry(horizon=0.35, mode=ControlMode.MALE_ONLY)
    rng = np.random.default_rng(2)
    data = rng.standard_normal(grid.num_age_cells + 1)
    with pytest.raises(ConsistencyError):
        solve_adjoint(model, grid, geom_m, data, data,
                      np.zeros(grid.num_time_cells + 1))
    geom_f = reference_geometry(horizon=0.35, mode=ControlMode.FEMALE_ONLY)
    adj = solve_adjoint(model, grid, geom_f, None, data,
                        np.zeros(grid.num_time_cells + 1))
    assert np.all(adj.n.values == 0.0)


class TestDuality:
    def _random_instance(self, seed, beta_onset_violated):
        model = random_nonneg_model(seed) if beta_onset_violated \
            else reference_model()
        grid = build_grid(1.0, 1.0, 1.0 / 8)
        geom = reference_geometry(horizon=1.0)
        r = np.random.default_rng(seed + 500)
        na, nt = grid.num_age_cells, grid.num_time_cells
        data = {
            "m0": r.standard_normal(na + 1), "f0": r.standard_normal(na + 1),
            "vm": Field2D(grid, r.standard_normal((na + 1, nt + 1))),
            "vf": Field2D(grid, r.standard_normal((na + 1, nt + 1))),
            "n_T": r.standard_normal(na + 1), "l_T": r.standard_normal(na + 1),
            "trace": 3.0 * r.random(nt + 1),
        }
        return model, grid, geom, data

    @pytest.mark.parametrize("beta_onset_violated", [False, True])
    def test_residual_machine_precision(self, beta_onset_violated):
        for seed in range(20):
            model, grid, geom, d = self._random_instance(seed, beta_onset_violated)
            state = solve_forward(model, grid, geom, d["vm"], d["vf"], d["m0"],
                                  d["f0"], frozen_trace=d["trace"])
            adj = solve_adjoint(model, grid, geom, d["n_T"], d["l_T"], d["trace"])
            residual, scale = duality_residual(state, adj, d["n_T"], d["l_T"],
                                               d["m0"], d["f0"], d["vm"], d["vf"],
                                               model, grid, geom)
            assert residual <= 1e-12 * scale

    def test_zero_inputs_zero_residual(self, model, geometry, grid):
        zeros = np.zeros(grid.num_age_cells + 1)
        trace = np.zeros(grid.num_time_cells + 1)
        state = solve_forward(model, grid, geometry, None, None, zeros, zeros,
                              frozen_trace=trace)
        adj = solve_adjoint(model, grid, geometry, zeros, zeros, trace)
        residual, scale = duality_residual(state, adj, zeros, zeros, zeros, zeros,
                                           None, None, model, grid, geometry)
        assert residual == 0.0 and scale == 0.0

    def test_mismatched_traces_rejected(self, model, geometry, grid):
        zeros = np.zeros(grid.num_age_cells + 1)
        t1 = np.zeros(grid.num_time_cells + 1)
        t2 = np.ones(grid.num_time_cells + 1)
        state = solve_forward(model, grid, geometry, None, None, zeros, zeros,
                              frozen_trace=t1)
        adj = solve_adjoint(model, grid, geometry, zeros, zeros, t2)
        with pytest.raises(ConsistencyError):
            duality_residual(state, adj, zeros, zeros, zeros, zeros, None, None,
                             model, grid, geometry)

    @pytest.mark.parametrize("with_beta", [False, True])
    def test_explicit_matrix_transpose(self, with_beta):
        """Assemble the full forward map on a tiny grid and compare the
        adjoint-reported pairing coefficients against the literal matrix
        transpose, entry by entry."""
        model = random_nonneg_model(3) if with_beta else transport_model()
        grid = build_grid(1.0, 1.0, 1.0 / 8)
        geom = reference_geometry(horizon=1.0)
        na, nt = grid.num_age_cells, grid.num_time_cells
        shape = (na + 1, nt + 1)
        trace = np.linspace(0.5, 1.5, nt + 1)
        zero_p = np.zeros(na + 1)
        zero_c = np.zeros(shape)

        def terminal_of(m0, f0, vm, vf):
            state = solve_forward(model, grid, geom, Field2D(grid, vm),
                                  Field2D(grid, vf), m0, f0, frozen_trace=trace)
            return np.concatenate([state.m.values[:, -1], state.f.values[:, -1]])

        columns = []
        keys = []
        for i in range(na + 1):
            e = zero_p.copy(); e[i] = 1.0
            columns.append(terminal_of(e, zero_p, zero_c, zero_c))
            keys.append(("m0", i))
        for i in range(na + 1):
            e = zero_p.copy(); e[i] = 1.0
            columns.append(terminal_of(zero_p, e, zero_c, zero_c))
            keys.append(("f0", i))
        for i in range(na + 1):
            for n in range(nt + 1):
                e = zero_c.copy(); e[i, n] = 1.0
                columns.append(terminal_of(zero_p, zero_p, e, zero_c))
                keys.append(("vm", i, n))
        for i in range(na + 1):
            for n in range(nt + 1):
                e = zero_c.copy(); e[i, n] = 1.0
                columns.append(terminal_of(zero_p, zero_p, zero_c, e))
                keys.append(("vf", i, n))
        matrix = np.stack(columns, axis=1)

        rng = np.random.default_rng(11)
        q_m = rng.standard_normal(na + 1)
        q_f = rng.standard_normal(na + 1)
        wa = grid.age_weights()
        weighted_terminal = np.concatenate([wa * q_m, wa * q_f])
        transpose_coeffs = matrix.T @ weighted_terminal

        adj = solve_adjoint(model, grid, geom, q_m, q_f, trace)
        h = grid.step
        mask_m, mask_f = control_masks(grid, geom)
        claimed = np.empty_like(transpose_coeffs)
        for k, key in enumerate(keys):
            if key[0] == "m0":
                claimed[k] = h * adj.n.values[key[1], 0]
            elif key[0] == "f0":
                claimed[k] = h * adj.l.values[key[1], 0]
            elif key[0] == "vm":
                _, i, n = key
                claimed[k] = h * h * mask_m[i] * adj.n_eff[i, n] \
                    if (i >= 1 and n >= 1) else 0.0
            else:
                _, i, n = key
                claimed[k] = h * h * mask_f[i] * adj.l_eff[i, n] \
                    if (i >= 1 and n >= 1) else 0.0
        scale = np.max(np.abs(transpose_coeffs))
        assert np.max(np.abs(claimed - transpose_coeffs)) <= 1e-13 * scale


def test_nonlocal_trace_ratio_recorded(model, geometry):
    # shape of the trace estimate: the ratio of early-trace energy to window
    # energy stays finite over random terminal data (recorded, no sharp bound)
    g = build_grid(1.0, 0.35, 1.0 / 32)
    eta = 0.25  # above the window's lower edge
    times = g.times()
    early = times <= 0.35 - eta
    mask = region_mask(g, *geometry.male_window)
    ratios = []
    rng = np.random.default_rng(4)
    for _ in range(100):
        n_T = rng.standard_normal(g.num_age_cells + 1)
        adj = solve_adjoint(model, g, geometry, n_T,
                            np.zeros(g.num_age_cells + 1),
                            np.zeros(g.num_time_cells + 1))
        numerator = float(np.sum(g.step * adj.n.values[0, early] ** 2))
        denominator = region_inner(g, mask, adj.n_eff, adj.n_eff)
        if denominator > 0:
            ratios.append(numerator / denominator)
    assert ratios and np.isfinite(max(ratios))


def test_duality_needs_a_frozen_trace_forward_solve(model, geometry, grid):
    zeros = np.zeros(grid.num_age_cells + 1)
    state = solve_forward(model, grid, geometry, None, None, zeros, zeros)
    adj = solve_adjoint(model, grid, geometry, zeros, zeros, np.zeros(grid.num_time_cells + 1))
    with pytest.raises(ConsistencyError, match="duality requires a frozen-trace forward solve"):
        duality_residual(state, adj, zeros, zeros, zeros, zeros, None, None, model, grid,
                         geometry)

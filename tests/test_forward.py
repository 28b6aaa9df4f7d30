import numpy as np
import pytest

from popctrl import Field2D, build_grid, fertile_male_integral, solve_forward
from popctrl.errors import DimensionError

from conftest import (random_nonneg_model, reference_data, reference_geometry,
                      reference_model, transport_model)


def closed_form_transport(model, which, ages, t, profile_fn):
    """Characteristic solution of the fertility-free transport problem."""
    shifted = np.maximum(ages - t, 0.0)
    decay = np.exp(model.mortality_integral(which, shifted)
                   - model.mortality_integral(which, ages))
    return np.where(ages >= t, profile_fn(shifted) * decay, 0.0)


def cell_centered_error(model, grid, field, t_nodes, profile_fn, which):
    """L2(Q) distance of the piecewise-constant solve to the closed form,
    sampled at characteristic cell centres."""
    h = grid.step
    ages = grid.ages()
    err2 = 0.0
    for n in range(1, grid.num_time_cells + 1):
        t_c = t_nodes[n] - h / 2
        a_c = ages[1:] - h / 2
        diff = field[1:, n] - closed_form_transport(model, which, a_c, t_c, profile_fn)
        err2 += float(np.sum(h * h * diff ** 2))
    return np.sqrt(err2)


def test_zero_data_zero_solution(model, geometry, grid):
    zeros = np.zeros(grid.num_age_cells + 1)
    state = solve_forward(model, grid, geometry, None, None, zeros, zeros)
    assert np.all(state.m.values == 0.0)
    assert np.all(state.f.values == 0.0)
    assert np.all(state.birth_trace == 0.0)


def test_transport_oracle_first_order():
    model = transport_model()
    geom = reference_geometry(horizon=0.5)
    profile = lambda a: np.where(a <= 0.4, np.sin(np.pi * np.minimum(a, 0.4) / 0.4) ** 2,
                                 0.0)
    errors = []
    for target in (1.0 / 16, 1.0 / 32):
        g = build_grid(1.0, 0.5, target)
        m0 = profile(g.ages())
        state = solve_forward(model, g, geom, None, None, m0, np.zeros_like(m0))
        errors.append(cell_centered_error(model, g, state.m.values, g.times(),
                                          profile, "male"))
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.4)


def test_nodal_values_track_closed_form():
    # on aligned characteristics the scheme is exact up to survival quadrature
    model = transport_model()
    geom = reference_geometry(horizon=0.5)
    g = build_grid(1.0, 0.5, 1.0 / 32)
    profile = lambda a: np.exp(-10 * (a - 0.25) ** 2) * (a <= 0.5)
    m0 = profile(g.ages())
    state = solve_forward(model, g, geom, None, None, m0, np.zeros_like(m0))
    inner = g.ages() < 0.9  # away from the hard cutoff cell
    exact = closed_form_transport(model, "male", g.ages()[inner], 0.5, profile)
    assert np.max(np.abs(state.m.values[inner, -1] - exact)) < 1e-10


def test_boundary_shares_birth_trace(model, geometry, grid):
    m0, f0 = reference_data(grid)
    state = solve_forward(model, grid, geometry, None, None, m0, f0)
    gamma = model.female_fraction
    assert np.allclose(state.m.values[0, 1:] / (1 - gamma), state.birth_trace[1:],
                       rtol=1e-13, atol=1e-300)
    assert np.allclose(state.f.values[0, 1:] / gamma, state.birth_trace[1:],
                       rtol=1e-13, atol=1e-300)


def test_equal_split_when_fraction_half(grid):
    model = reference_model(gamma=0.5)
    geom = reference_geometry()
    m0, f0 = reference_data(grid)
    state = solve_forward(model, grid, geom, None, None, m0, f0)
    assert np.array_equal(state.m.values[0, 1:], state.f.values[0, 1:])


def test_positivity_random_instances():
    for seed in range(25):
        model = random_nonneg_model(seed)
        geom = reference_geometry(horizon=0.5)
        g = build_grid(1.0, 0.5, 1.0 / 16)
        r = np.random.default_rng(seed + 10_000)
        shape = (g.num_age_cells + 1, g.num_time_cells + 1)
        state = solve_forward(model, g, geom,
                              Field2D(g, r.random(shape)), Field2D(g, r.random(shape)),
                              r.random(g.num_age_cells + 1), r.random(g.num_age_cells + 1))
        assert state.m.values.min() >= 0.0
        assert state.f.values.min() >= 0.0
        assert state.birth_trace.min() >= 0.0


def test_frozen_mode_superposition(model, geometry, grid):
    rng = np.random.default_rng(7)
    shape = (grid.num_age_cells + 1, grid.num_time_cells + 1)
    trace = rng.random(grid.num_time_cells + 1)

    def inputs(seed):
        r = np.random.default_rng(seed)
        return (r.standard_normal(grid.num_age_cells + 1),
                r.standard_normal(grid.num_age_cells + 1),
                r.standard_normal(shape), r.standard_normal(shape))

    x, y = inputs(1), inputs(2)
    combined = [a + b for a, b in zip(x, y)]

    def solve(u):
        return solve_forward(model, grid, geometry, Field2D(grid, u[2]),
                             Field2D(grid, u[3]), u[0], u[1], frozen_trace=trace)

    zero = solve((np.zeros(grid.num_age_cells + 1), np.zeros(grid.num_age_cells + 1),
                  np.zeros(shape), np.zeros(shape)))
    lhs = solve(combined).m.values
    rhs = solve(x).m.values + solve(y).m.values - zero.m.values
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))


def test_frozen_bound_independent_of_trace(model, geometry, grid):
    # the female L2(Q) bound constant must not depend on the frozen trace
    m0, f0 = reference_data(grid)
    rng = np.random.default_rng(5)
    vf = Field2D(grid, rng.standard_normal((grid.num_age_cells + 1,
                                            grid.num_time_cells + 1)))
    wa = grid.age_weights()
    wt = grid.time_weights()
    vf_norm = np.sqrt(float(wt @ (wa @ vf.values ** 2)))
    f0_norm = np.sqrt(float(wa @ f0 ** 2))
    ratios = []
    for k in range(5):
        trace = 0.5 * k * np.abs(np.sin(np.linspace(0, 3, grid.num_time_cells + 1)))
        state = solve_forward(model, grid, geometry, None, vf, m0, f0,
                              frozen_trace=trace)
        f_l2q = np.sqrt(float(wt @ (wa @ state.f.values ** 2)))
        ratios.append(f_l2q / (f0_norm + vf_norm))
    assert max(ratios) / min(ratios) <= 1.05


def test_fertile_male_integral_polynomial(model):
    g = build_grid(1.0, 0.35, 0.1)
    # weight 4a(1-a) against a constant profile: 4 * (1/2 - 1/3) = 2/3
    value = fertile_male_integral(np.ones(g.num_age_cells + 1), model, g)
    assert value == pytest.approx(2.0 / 3.0, abs=2e-2)
    assert fertile_male_integral(np.zeros(g.num_age_cells + 1), model, g) == 0.0
    # and a vanishing weight annihilates any profile
    from popctrl.model import DemographicModel, RateFunction
    flat = DemographicModel(
        male_mortality=model.male_mortality,
        female_mortality=model.female_mortality,
        fertility=model.fertility,
        male_fertility_weight=RateFunction.constant(0.0),
        female_fraction=model.female_fraction,
        fertility_onset=model.fertility_onset,
        max_age=model.max_age)
    assert fertile_male_integral(np.ones(g.num_age_cells + 1), flat, g) == 0.0


def test_wrong_trace_length_rejected(model, geometry, grid):
    m0, f0 = reference_data(grid)
    with pytest.raises(DimensionError):
        solve_forward(model, grid, geometry, None, None, m0, f0,
                      frozen_trace=np.zeros(3))


def test_discontinuous_data_error_recorded():
    # step-function initial data: the error against the closed form is
    # measured and must shrink under refinement, but no rate is promised
    model = transport_model()
    geom = reference_geometry(horizon=0.5)
    profile = lambda a: np.where((a >= 0.11) & (a <= 0.37), 1.0, 0.0)
    errors = []
    for target in (1.0 / 16, 1.0 / 64):
        g = build_grid(1.0, 0.5, target)
        m0 = profile(g.ages())
        state = solve_forward(model, g, geom, None, None, m0, np.zeros_like(m0))
        errors.append(cell_centered_error(model, g, state.m.values, g.times(),
                                          profile, "male"))
    assert errors[1] < errors[0]


def test_overflow_reports_failing_step():
    from popctrl.errors import NumericalFailure
    from popctrl.model import DemographicModel, Fertility, RateFunction

    explosive = DemographicModel(
        male_mortality=RateFunction.constant(0.0),
        female_mortality=RateFunction.constant(0.0),
        fertility=Fertility.separable_pair(
            RateFunction.constant(1.0),
            RateFunction.expression("exp(p) * p", "p"), 1.0),
        male_fertility_weight=RateFunction.constant(1000.0),
        female_fraction=0.5, fertility_onset=0.15, max_age=1.0)
    geom = reference_geometry(horizon=1.0)
    g = build_grid(1.0, 1.0, 1.0 / 16)
    big = np.full(g.num_age_cells + 1, 50.0)
    with pytest.raises(NumericalFailure) as info:
        solve_forward(explosive, g, geom, None, None, big, big)
    assert info.value.step == 1  # the births of the first level already overflow

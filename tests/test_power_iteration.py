"""The observability power iteration on the block form of the Gramians,
against the eigh-whitened iteration on the expanded forms, and a guard that
neither it nor a penalty stage expands a Gramian, factors a full one or
computes an eigenvector."""

import math

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, ObservabilityConfig, PenaltyProblem,
                     build_grid, estimate_observability_constant, minimize_penalty,
                     solve_forward)
from popctrl import observability as obs
from popctrl.forward import FrozenOperator, stacked_terminal_weights
from popctrl.gramian import GramianBlocks

from conftest import (expr_fertility_model, random_nonneg_model, reference_data,
                      reference_model)
from test_gramian import _every_entry

MODES = [(ControlMode.BOTH, 0.0), (ControlMode.MALE_ONLY, 0.1),
         (ControlMode.MALE_ONLY, 0.0), (ControlMode.FEMALE_ONLY, 0.0)]
MODELS = [reference_model, lambda: random_nonneg_model(5), expr_fertility_model]
MODEL_IDS = ["reference", "random_nonneg", "expr"]


def _geometry(mode, horizon, target_min_age=0.0):
    return ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=horizon, target_min_age=target_min_age, mode=mode)


def oracle_power_iteration(op, iters):
    """The power iteration on the expanded forms: the denominator's full
    eigendecomposition gives its null space and whitens the numerator."""
    den_blocks, num_blocks = op.gramians()
    num_form, den_form = num_blocks.matrix(), den_blocks.matrix()
    den_vals, den_vecs = np.linalg.eigh(den_form)
    den_scale = max(float(den_vals[-1]), 0.0)
    num_scale = max(float(np.max(np.abs(num_form))), 1e-300)
    null_cut = 1e-12 * max(den_scale, 1e-300)
    null_space = den_vecs[:, den_vals <= null_cut]
    if null_space.size:
        null_energy = float(np.max(np.sum(null_space * (num_form @ null_space),
                                          axis=0)))
        if null_energy > 1e-10 * num_scale:
            return math.inf
    live = den_vals > null_cut
    if not np.any(live):
        return 0.0
    root = np.sqrt(den_vals[live])
    whiten = den_vecs[:, live] / root
    reduced = whiten.T @ num_form @ whiten
    z = root * (den_vecs[:, live].T @ np.ones(den_vecs.shape[0]))
    z /= np.linalg.norm(z)
    best = 0.0
    for _ in range(max(1, iters)):
        z_new = reduced @ z
        norm = np.linalg.norm(z_new)
        if norm == 0.0:
            break
        best = max(best, float(z @ z_new))
        z = z_new / norm
    best = max(best, float(z @ reduced @ z))
    return best


def _operator(make_model, mode, target_min_age, horizon, h):
    model = make_model()
    geom = _geometry(mode, horizon, target_min_age)
    grid = build_grid(1.0, horizon, h)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace
    return FrozenOperator(model, grid, geom, trace)


@pytest.mark.parametrize("mode, target_min_age", MODES)
@pytest.mark.parametrize("make_model", MODELS, ids=MODEL_IDS)
def test_block_power_iteration_matches_expanded_oracle(mode, target_min_age, make_model):
    # 1.0: only the oldest terminal age is left a spike; there the 20 steps
    # have not converged, which amplifies rounding the most
    flags = []
    for horizon in (0.2, 0.3, 0.35, 0.6, 1.0):
        for h in (1.0 / 32, 1.0 / 64):
            op = _operator(make_model, mode, target_min_age, horizon, h)
            got = obs._power_iteration(op, 20)
            want = oracle_power_iteration(op, 20)
            assert math.isinf(got) == math.isinf(want), (horizon, h, got, want)
            flags.append(math.isinf(got))
            if not math.isinf(want):
                assert abs(got - want) <= 1e-5 * want, (horizon, h, got, want)
    # male controls never see the female response to a newborn terminal male,
    # a null vector of the dense block's Schur complement
    unobservable = (mode, target_min_age) == (ControlMode.MALE_ONLY, 0.0)
    assert flags == [unobservable] * len(flags)


@pytest.mark.parametrize("mode", [ControlMode.BOTH, ControlMode.MALE_ONLY])
def test_dead_spike_with_initial_energy_gives_the_sentinel(mode):
    # a short horizon leaves the oldest male ages invisible from the male
    # window: their spikes have no control energy but reach level 0
    geom = ControlGeometry(male_window=(0.1, 0.5), female_window=(0.05, 0.6),
                           horizon=0.3, mode=mode)
    grid = build_grid(1.0, 0.3, 1.0 / 32)
    op = FrozenOperator(reference_model(), grid, geom, np.zeros(grid.num_time_cells + 1))
    den, num = op.gramians()
    assert np.max(num.diag[den.diag == 0.0]) > 0.0
    assert obs._power_iteration(op, 20) == oracle_power_iteration(op, 20) == math.inf


def test_targets_older_than_every_young_age_leave_no_dense_block():
    # male-only targets from age 0.3 on, horizon 0.2: every live terminal
    # entry is an older spike
    op = _operator(reference_model, ControlMode.MALE_ONLY, 0.3, 0.2, 1.0 / 32)
    den = op.control_gramian()
    assert den.dense.shape == (0, 0) and den.diag.size > 0
    got, want = obs._power_iteration(op, 20), oracle_power_iteration(op, 20)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("mode, target_min_age", MODES)
def test_block_forms_expand_to_the_dense_forms(mode, target_min_age):
    # the forms live on the targeted entries' pair basis and the Gramians of
    # every entry on theirs: the two expansions agree to the rounding of the
    # rotations
    op = _operator(reference_model, mode, target_min_age, 0.35, 1.0 / 32)
    live = np.flatnonzero(stacked_terminal_weights(op.grid, op.geom))
    for blocks, half in zip(op.gramians(), (0, 1)):
        want = _every_entry(op, half).matrix()[np.ix_(live, live)]
        assert np.array_equal(blocks.basis.entries, live)
        assert np.max(np.abs(blocks.matrix() - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("make_model", [reference_model, expr_fertility_model],
                         ids=["separable", "expr"])
def test_penalty_stage_and_power_iteration_stay_in_block_form(make_model, monkeypatch):
    # a horizon below the maximal age leaves older spikes, so the dense block
    # is smaller than the whole terminal space
    model = make_model()
    geom = _geometry(ControlMode.BOTH, 0.35)
    grid = build_grid(1.0, 0.35, 1.0 / 32)
    full = 2 * (grid.num_age_cells + 1)
    m0, f0 = reference_data(grid)
    trace = solve_forward(model, grid, geom, None, None, m0, f0).fertile_male_trace

    def no_expand(blocks):
        raise AssertionError("a Gramian was expanded to its dense matrix")

    def no_eigh(matrix, *args, **kwargs):
        raise AssertionError("an eigenvector on the stage or the observability path")

    factors = ("eigvalsh", "cholesky", "inv", "solve", "qr")
    sizes = {name: [] for name in factors}

    def sized(name, factor):
        def run(matrix, *args, **kwargs):
            sizes[name].append(np.shape(matrix)[0])
            assert np.shape(matrix)[0] < full
            return factor(matrix, *args, **kwargs)
        return run

    def symmetric(factor):
        def run(matrix, *args, **kwargs):
            assert np.array_equal(matrix, np.transpose(matrix)), "S is not exactly symmetric"
            return factor(matrix, *args, **kwargs)
        return run

    monkeypatch.setattr(GramianBlocks, "matrix", no_expand)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for name in factors:
        factor = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, sized(name, symmetric(factor)
                                                   if name == "eigvalsh" else factor))
    result = minimize_penalty(PenaltyProblem(), FrozenOperator(model, grid, geom, trace),
                              m0, f0, 1e-3)
    assert result.converged
    # the null cut takes no eigenvalues of A: a stage takes none at all
    assert not sizes["eigvalsh"]
    report = estimate_observability_constant(
        model, grid, geom, [trace, 2.0 * trace],
        config=ObservabilityConfig(power_iters=5))
    # per trace, the pseudo-inverse counts the null directions of its Schur
    # complement (eigvalsh), solves the complement bordered by its one null
    # direction (nt + 1), orthonormalises that direction (qr) and inverts the
    # complement shifted along it; the null-energy test solves with the Gram
    # matrix of the lifted direction (1 x 1).  The penalised solve, and the
    # renewal system of separable fertility and its inverse, are Nt x Nt: all
    # on the dense block of the pair basis only, one direction per young
    # terminal age, min(Nt, N+1) = Nt here
    nt = grid.num_time_cells
    assert sizes["eigvalsh"] == sizes["qr"] == [nt] * 2
    assert [size for size in sizes["solve"] if size != nt] == [nt + 1, 1] * 2
    assert sizes["solve"].count(nt) >= 1
    assert sizes["inv"].count(nt) >= 2 and set(sizes["inv"]) == {nt}
    assert not sizes["cholesky"]
    # the largest of the two traces' power steps
    monkeypatch.undo()
    op = FrozenOperator(model, grid, geom, trace)
    assert report.estimated_constant == max(obs._power_iteration(op.retrace(t), 5)
                                            for t in (trace, 2.0 * trace))

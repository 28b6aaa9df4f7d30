"""The block algebra of ``GramianBlocks`` against its expanded matrix: the
penalised solve, the pseudo-inverse and its null directions, and the null
cut that separates them."""

import numpy as np
import pytest

from popctrl import observability as obs

from conftest import expr_fertility_model, reference_model
from test_gramian import _every_entry
from test_power_iteration import MODEL_IDS, MODELS, MODES, _operator


@pytest.mark.parametrize("mode, target_min_age", MODES)
@pytest.mark.parametrize("horizon", [0.35, 1.0])
def test_penalised_solve_matches_dense_solve(horizon, mode, target_min_age):
    # the Schur complement of the spike block gives the solve of the matrix on
    # the targeted entries, c is zero off them, and a zero weight leaves an
    # identity row; the two entries of a pair share their weight
    op = _operator(reference_model, mode, target_min_age, horizon, 1.0 / 16)
    gram = op.control_gramian()
    entries = gram.basis.entries
    r = np.random.default_rng(11)
    size = op.grid.num_age_cells + 1
    weights = r.random(size) / 1e-4
    weights[r.random(size) < 0.3] = 0.0
    weights = np.tile(weights, 2)
    rhs = r.standard_normal(2 * size)
    got = gram.penalised_solve(weights, rhs)
    want = np.zeros(2 * size)
    want[entries] = np.linalg.solve(np.eye(entries.size)
                                    + weights[entries, None] * gram.matrix(), rhs[entries])
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    zero = np.zeros(2 * size, dtype=bool)
    zero[entries] = weights[entries] == 0.0
    assert np.max(np.abs(got[zero] - rhs[zero])) <= 1e-13 * np.max(np.abs(rhs))
    off = np.ones(2 * size, dtype=bool)
    off[entries] = False
    assert not np.any(got[off])


def _check_pseudo_inverse(blocks):
    """F F^- F = F and F v = 0 for every null direction v, on the expanded
    matrix of ``blocks``, whose basis vectors split and merge its columns;
    returns the number of dead spikes."""
    full = blocks.matrix()
    scale = np.max(np.abs(full))
    vectors = blocks.basis.vectors()
    q_dense, q_spike = np.split(vectors, [blocks.dense.shape[0]], axis=1)
    solve, null_dense, null_spike, dead = blocks.pseudo_inverse()
    columns = np.empty_like(full)
    for j, y in enumerate(full.T):
        x_dense, x_spike, energy = solve(q_dense.T @ y, q_spike.T @ y)
        columns[:, j] = q_dense @ x_dense + q_spike @ x_spike
        assert abs(energy - y @ columns[:, j]) <= 1e-10 * max(abs(energy), scale)
    assert np.max(np.abs(full @ columns - full)) <= 1e-10 * scale
    null = np.hstack([q_dense @ null_dense + q_spike @ null_spike, q_spike[:, dead]])
    assert np.all(np.max(np.abs(full @ null), axis=0)
                  <= 1e-10 * scale * np.linalg.norm(null, axis=0))
    return int(np.sum(dead))


@pytest.mark.parametrize("mode, target_min_age", MODES)
@pytest.mark.parametrize("make_model", [reference_model, expr_fertility_model],
                         ids=["separable", "expr"])
def test_pseudo_inverse_and_null_directions_match_the_matrix(make_model, mode,
                                                             target_min_age):
    # the control Gramian of all terminal entries and the observability
    # denominator on the live ones; no control reaches terminal age A, so
    # the control Gramian has a dead spike in each slot
    for horizon in (0.35, 1.0):
        op = _operator(make_model, mode, target_min_age, horizon, 1.0 / 32)
        assert _check_pseudo_inverse(_every_entry(op, 0)) >= 2
        _check_pseudo_inverse(obs._quadratic_forms(op)[1])


def _live_counts(den, null_cut):
    """(live spikes, live eigenvalues of the Schur complement) under a cut."""
    live_spikes = den.diag > null_cut
    inv_diag = np.divide(1.0, den.diag, out=np.zeros_like(den.diag), where=live_spikes)
    vals = np.linalg.eigvalsh(den.schur(inv_diag))
    return int(np.sum(live_spikes)), int(np.sum(vals > null_cut))


@pytest.mark.parametrize("mode, target_min_age", MODES)
@pytest.mark.parametrize("make_model", MODELS, ids=MODEL_IDS)
def test_frobenius_null_cut_classifies_as_the_eigenvalue_cut(mode, target_min_age,
                                                             make_model):
    # the cut against max(|A|_F, max Delta) keeps every live and null
    # direction of the cut against max(lambda_max(A), max Delta)
    for horizon in (0.2, 0.3, 0.35, 0.6, 1.0):
        for h in (1.0 / 32, 1.0 / 64):
            op = _operator(make_model, mode, target_min_age, horizon, h)
            _, den = obs._quadratic_forms(op)
            top = max(float(np.max(den.diag, initial=0.0)),
                      float(np.linalg.eigvalsh(den.dense)[-1]) if den.dense.size else 0.0)
            eigen_cut = 1e-12 * max(top, 1e-300)
            assert den.null_cut() >= eigen_cut
            assert _live_counts(den, den.null_cut()) == _live_counts(den, eigen_cut), \
                (horizon, h)

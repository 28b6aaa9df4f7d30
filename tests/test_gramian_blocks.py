"""The block algebra of ``GramianBlocks`` against its expanded matrix: the
penalised solve, the pseudo-inverse and its null directions, and the null
cut that separates them."""

import numpy as np
import pytest

from popctrl import ControlMode
from popctrl import observability as obs

from conftest import expr_fertility_model, reference_model
from test_power_iteration import MODEL_IDS, MODELS, MODES, _operator


@pytest.mark.parametrize("horizon", [0.35, 1.0])
def test_penalised_solve_matches_dense_solve(horizon):
    # the Schur complement of the spike block gives the solve of the full
    # matrix, and a zero weight leaves an identity row
    op = _operator(reference_model, ControlMode.BOTH, 0.0, horizon, 1.0 / 16)
    gram = op.control_gramian()
    r = np.random.default_rng(11)
    size = 2 * (op.grid.num_age_cells + 1)
    weights = r.random(size) / 1e-4
    weights[r.random(size) < 0.3] = 0.0
    rhs = r.standard_normal(size)
    got = gram.penalised_solve(weights, rhs)
    want = np.linalg.solve(np.eye(size) + weights[:, None] * gram.matrix(), rhs)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    zero = weights == 0.0
    assert np.max(np.abs(got[zero] - rhs[zero])) <= 1e-13 * np.max(np.abs(rhs))


def _check_pseudo_inverse(blocks):
    """F F^- F = F and F v = 0 for every null direction v, on the expanded
    matrix of ``blocks``; returns the number of dead spikes."""
    full = blocks.matrix()
    scale = np.max(np.abs(full))
    dense, spikes = blocks.index
    solve, null_dense, null_spike, dead = blocks.pseudo_inverse()
    columns = np.empty_like(full)
    for j, y in enumerate(full.T):
        x_dense, x_spike, energy = solve(y[dense], y[spikes])
        columns[dense, j], columns[spikes, j] = x_dense, x_spike
        assert abs(energy - y @ columns[:, j]) <= 1e-10 * max(abs(energy), scale)
    assert np.max(np.abs(full @ columns - full)) <= 1e-10 * scale
    null = np.zeros((full.shape[0], null_dense.shape[1] + int(np.sum(dead))))
    null[dense, :null_dense.shape[1]], null[spikes, :null_dense.shape[1]] = \
        null_dense, null_spike
    null[spikes[dead], null_dense.shape[1] + np.arange(int(np.sum(dead)))] = 1.0
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
        assert _check_pseudo_inverse(op.control_gramian()) >= 2
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

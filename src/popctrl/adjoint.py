"""Backward adjoint solver: the exact transpose of the discrete forward map.

The backward sweep (`FrozenOperator.adjoint_levels`, next to the forward
step it transposes) works on "effective" arrays that absorb the trapezoid
half weights of the terminal pairing; with that convention the recursion is
plain characteristic transport plus an h-weighted nonlocal source at the
already-computed level, and the discrete duality identity

    <m(T), q_m>_a + <f(T), q_f>_a
        = h * sum_i (m0 * n(.,0) + f0 * l(.,0))
        + h^2 * sum_{levels >= 1, interior nodes} (mask_m vm n_eff + mask_f vf l_eff)

holds to machine precision for every frozen-trace forward solve.  The
female effective array includes the same-level nonlocal feedback term,
because the forward birth integral sees the control injected at the new
level; `duality_residual` and the objective gradient must use it.  For
separable fertility `FrozenOperator.adjoint` gives the same lattices in
closed form, from the renewal equation of the birth feedback, without
running the sweep; any other fertility runs it.

The three adjoint variants (coupled pair, male-only pair, female-only
scalar) share one recursion: the male equation is autonomous transport and
the female source always has the (1-gamma, gamma) split of the birth law,
so the variants differ only in which terminal data are allowed.  The
geometry's mode decides: a slot that ``forward.terminal_weights`` leaves
untargeted takes a zero datum.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConsistencyError
from .forward import (FrozenOperator, _as_profile, _control_values, control_masks,
                      terminal_weights)
from .grid import Field2D, lattice_inner, region_weights


@dataclass
class AdjointSolution:
    n: Field2D
    l: Field2D
    frozen_trace: np.ndarray
    # duality-consistent arrays: terminal level carries trapezoid half
    # weights, the female one includes the same-level nonlocal feedback
    n_eff: np.ndarray = dc_field(default=None, repr=False)
    l_eff: np.ndarray = dc_field(default=None, repr=False)


def _terminal_data(grid, geom, n_T, l_T):
    """Validated terminal profiles; None means zero, and a slot that
    ``terminal_weights`` leaves untargeted (dead) must be zero."""
    zero = np.zeros(grid.num_age_cells + 1)
    data = []
    for name, datum, weights in zip(("n_T", "l_T"), (n_T, l_T), terminal_weights(grid, geom)):
        if weights is None and datum is not None and np.any(np.asarray(datum) != 0.0):
            raise ConsistencyError(f"{name} must vanish: a {geom.mode.value} geometry "
                                   "does not target that terminal slot")
        data.append(_as_profile(zero if datum is None or weights is None else datum,
                                grid, name))
    return data


def solve_adjoint(model, grid, geom, n_T, l_T, frozen_trace):
    """Solve the backward adjoint system from terminal data.

    The geometry's mode selects the live terminal slots: the male-only
    variant forces the female terminal datum to zero, the female-only
    variant the male one.  The returned fields store the raw terminal data
    at the last time level; the effective arrays used by duality and
    gradients carry the terminal trapezoid weights.
    """
    nt = grid.num_time_cells
    q_m, q_f = _terminal_data(grid, geom, n_T, l_T)

    op = FrozenOperator(model, grid, geom, frozen_trace)
    n_rows, l_rows, n_eff, l_eff = op.adjoint(op.theta * q_m, op.theta * q_f)
    n_rows[:, nt] = q_m
    l_rows[:, nt] = q_f
    return AdjointSolution(
        n=Field2D(grid, n_rows), l=Field2D(grid, l_rows),
        frozen_trace=np.array(frozen_trace, dtype=float), n_eff=n_eff, l_eff=l_eff,
    )


def region_inner(grid, mask, u, v):
    """Duality-consistent inner product over a control region.

    Age nodes are weighted by h * mask (trapezoid over the window), time
    levels 1..Nt by h each (``grid.region_weights``); a frozen-trace
    operator keeps those of its masks (``geometry_tables``).
    """
    return lattice_inner(region_weights(grid, mask), u, v)


def duality_residual(state, adjoint, n_T, l_T, m0, f0, v_m, v_f, model, grid, geom):
    """Residual of the discrete duality identity; zero for the exact transpose.

    The forward solution must come from a frozen-trace solve with the same
    trace the adjoint used.
    """
    if state.frozen_trace is None:
        raise ConsistencyError("duality requires a frozen-trace forward solve")
    if not np.array_equal(state.frozen_trace, adjoint.frozen_trace):
        raise ConsistencyError("forward and adjoint frozen traces differ")
    h = grid.step
    wa = grid.age_weights()
    q_m = _as_profile(n_T, grid, "n_T")
    q_f = _as_profile(l_T, grid, "l_T")
    m0 = _as_profile(m0, grid, "m0")
    f0 = _as_profile(f0, grid, "f0")
    vm = _control_values(v_m, grid, "v_m")
    vf = _control_values(v_f, grid, "v_f")
    mask_m, mask_f = control_masks(grid, geom)

    terms = [
        float(np.dot(wa, state.m.values[:, -1] * q_m)),
        float(np.dot(wa, state.f.values[:, -1] * q_f)),
        -h * float(np.dot(m0, adjoint.n.values[:, 0])),
        -h * float(np.dot(f0, adjoint.l.values[:, 0])),
    ]
    if vm is not None:
        terms.append(-region_inner(grid, mask_m, vm, adjoint.n_eff))
    if vf is not None:
        terms.append(-region_inner(grid, mask_f, vf, adjoint.l_eff))
    residual = abs(sum(terms))
    scale = sum(abs(t) for t in terms)
    return residual, scale

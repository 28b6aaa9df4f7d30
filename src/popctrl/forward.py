"""Forward solver for the state system along characteristics, and the
frozen-trace operator shared by the linear machinery.

Each time step transports interior nodes with per-cell survival ratios,
adds the region-masked control as a piecewise-constant source over the
characteristic cell, evaluates the fertile-male integral at the new level,
and closes the step with the nonlocal birth boundary.  The fertility
argument is either the solution's own fertile-male trace (nonlinear mode)
or a supplied frozen trace (the linear auxiliary mode used by the control
machinery).

Step order is explicit because the male weight vanishes at age zero and
fertility vanishes below the onset age; when a scenario violates the
onset cutoff the birth integral gets one extra boundary sweep, which the
adjoint reproduces exactly (the `boundary_factor` below).

For a frozen trace the map is linear, and `FrozenOperator` holds everything
its forward sweep and exact transpose need, built once per trace.  Both
sweeps take a single age profile or an (N+1) x k block of columns; every
per-column operation is the one the single-column sweep performs, so a
block sweep equals k single sweeps bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DimensionError, NumericalFailure
from .grid import Field2D, region_mask
from .model import ControlMode


@dataclass
class StateSolution:
    m: Field2D
    f: Field2D
    fertile_male_trace: np.ndarray  # integral of weight * m per time node
    birth_trace: np.ndarray         # integral of fertility * f per time node
    frozen_trace: np.ndarray = None  # trace the fertility was evaluated at, None if nonlinear


def transport_tables(model, grid):
    """Per-cell survival ratios, nodal weights and masks shared by the solvers."""
    ages = grid.ages()
    na = grid.num_age_cells
    s_m = np.zeros(na + 1)
    s_f = np.zeros(na + 1)
    ints_m = model.mortality_integral("male", ages)
    ints_f = model.mortality_integral("female", ages)
    s_m[1:] = np.exp(ints_m[:-1] - ints_m[1:])
    s_f[1:] = np.exp(ints_f[:-1] - ints_f[1:])
    s_m[na] = model.last_cell_survival
    s_f[na] = model.last_cell_survival
    lam = np.asarray(model.male_fertility_weight(ages), dtype=float)
    wa = grid.age_weights()
    return {"ages": ages, "s_m": s_m, "s_f": s_f, "lam": lam, "wa": wa}


def control_masks(grid, geom):
    """Nodal region masks for the (male, female) control supports of the mode."""
    male = female = None
    if geom.mode is ControlMode.BOTH:
        male = region_mask(grid, *geom.male_window)
        female = region_mask(grid, *geom.female_window)
    elif geom.mode is ControlMode.MALE_ONLY:
        male = region_mask(grid, 0.0, geom.male_window[1])
    elif geom.mode is ControlMode.FEMALE_ONLY:
        female = region_mask(grid, *geom.female_window)
    zero = np.zeros(grid.num_age_cells + 1)
    return (male if male is not None else zero, female if female is not None else zero)


def _as_profile(values, grid, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (grid.num_age_cells + 1,):
        raise DimensionError(f"{name} has shape {arr.shape}, expected "
                             f"({grid.num_age_cells + 1},)")
    if not np.all(np.isfinite(arr)):
        raise DimensionError(f"{name} contains non-finite values")
    return arr


def _control_values(v, grid, name):
    if v is None:
        return None
    if isinstance(v, Field2D):
        if v.grid != grid:
            raise ConsistencyError(f"{name} lives on a different grid")
        return v.values
    arr = np.asarray(v, dtype=float)
    if arr.shape != (grid.num_age_cells + 1, grid.num_time_cells + 1):
        raise DimensionError(f"{name} has shape {arr.shape}")
    return arr


def fertile_male_integral(values, model, grid):
    """Trapezoid integral of weight * profile over age (the M of the birth law)."""
    arr = _as_profile(values, grid, "age profile")
    lam = np.asarray(model.male_fertility_weight(grid.ages()), dtype=float)
    return float(np.dot(grid.age_weights(), lam * arr))


class FrozenOperator:
    """The linear frozen-trace map and its exact transpose, for one trace.

    Holds the survival ratios, the male fertility weight, the trapezoid
    weights, the control masks and the fertility table beta(., trace[j])
    of every time level, so the sweeps evaluate no rate function.

    Profiles are (N+1,) arrays or (N+1) x k blocks whose columns are
    independent right-hand sides; results keep the column axis last.
    """

    def __init__(self, model, grid, geom, trace):
        trace = np.array(trace, dtype=float)
        if trace.shape != (grid.num_time_cells + 1,):
            raise DimensionError(f"frozen trace has shape {trace.shape}, "
                                 f"expected ({grid.num_time_cells + 1},)")
        self.grid = grid
        self.geom = geom
        self.trace = trace
        tables = transport_tables(model, grid)
        self.s_m, self.s_f, self.lam, self.wa = (
            tables[k] for k in ("s_m", "s_f", "lam", "wa"))
        self.mask_m, self.mask_f = control_masks(grid, geom)
        self.gamma = model.female_fraction
        ages = tables["ages"]
        self.beta = np.array([np.asarray(model.fertility(ages, p), dtype=float)
                              for p in self.trace])
        # one boundary sweep per level: exact when fertility vanishes at age zero
        self.boundary_factor = 1.0 + self.gamma * self.wa[0] * self.beta[:, 0]

    @staticmethod
    def _block(values, extra_dims=0):
        arr = np.asarray(values, dtype=float)
        lead = arr.ndim - extra_dims
        if lead not in (1, 2):
            raise DimensionError(f"expected a profile or a block of columns, "
                                 f"got shape {arr.shape}")
        return arr if lead == 2 else arr[..., None]

    @staticmethod
    def _unblock(arrays, single):
        return tuple(a[..., 0] for a in arrays) if single else arrays

    def forward(self, m0, f0, v_m=None, v_f=None):
        """Forward sweep; returns (m, f, fertile-male trace, birth trace).

        ``m0``/``f0`` are (N+1,) or (N+1, k); controls are None or full
        lattice arrays of shape (N+1, Nt+1) or (N+1, Nt+1, k) to match.
        Raises NumericalFailure with the step index if the solution stops
        being finite.
        """
        na, nt = self.grid.num_age_cells, self.grid.num_time_cells
        h = self.grid.step
        single = np.ndim(m0) == 1
        m0, f0 = self._block(m0), self._block(f0)
        vm = None if v_m is None else self._block(v_m, extra_dims=1)
        vf = None if v_f is None else self._block(v_f, extra_dims=1)
        k = m0.shape[1]
        s_m, s_f, lam, wa = self.s_m, self.s_f, self.lam, self.wa
        gamma = self.gamma
        hmask_m = (h * self.mask_m[1:])[:, None]
        hmask_f = (h * self.mask_f[1:])[:, None]

        m = np.zeros((na + 1, nt + 1, k))
        f = np.zeros((na + 1, nt + 1, k))
        m[:, 0] = m0
        f[:, 0] = f0
        male_trace = np.zeros((nt + 1, k))
        birth_trace = np.zeros((nt + 1, k))
        # interior weights exclude node 0: the male weight and the fertility both
        # contribute nothing there under the standing hypotheses
        wa_int = wa[1:]
        births = np.zeros(k)

        beta0 = self.beta[0]
        for c in range(k):
            male_trace[0, c] = float(np.dot(wa, lam * m0[:, c]))
            birth0 = float(np.dot(wa_int, beta0[1:] * f0[1:, c]))
            birth_trace[0, c] = self.boundary_factor[0] * birth0

        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(nt):
                mt = s_m[1:, None] * m[:-1, n]
                ft = s_f[1:, None] * f[:-1, n]
                if vm is not None:
                    mt = mt + hmask_m * vm[1:, n + 1]
                if vf is not None:
                    ft = ft + hmask_f * vf[1:, n + 1]
                beta_int = self.beta[n + 1, 1:]
                for c in range(k):
                    births[c] = np.dot(wa_int, beta_int * ft[:, c])
                births *= self.boundary_factor[n + 1]
                m[0, n + 1] = (1.0 - gamma) * births
                f[0, n + 1] = gamma * births
                m[1:, n + 1] = mt
                f[1:, n + 1] = ft
                birth_trace[n + 1] = births
                for c in range(k):
                    male_trace[n + 1, c] = float(np.dot(wa, lam * m[:, n + 1, c]))
                if not (np.isfinite(m[:, n + 1]).all() and np.isfinite(f[:, n + 1]).all()):
                    raise NumericalFailure(
                        f"forward solve lost finiteness at step {n + 1}", step=n + 1)
        return self._unblock((m, f, male_trace, birth_trace), single)

    def state(self, m0, f0, v_m=None, v_f=None):
        """Single-column forward sweep packaged as a StateSolution."""
        m, f, male_trace, birth_trace = self.forward(m0, f0, v_m, v_f)
        return StateSolution(m=Field2D(self.grid, m), f=Field2D(self.grid, f),
                             fertile_male_trace=male_trace, birth_trace=birth_trace,
                             frozen_trace=self.trace.copy())

    def adjoint_levels(self, work_n, work_l, visit):
        """Backward sweep from weighted terminal work blocks, level by level.

        Calls ``visit(j, n_j, l_j, l_eff_j)`` for j = Nt, ..., 0, each
        (N+1) x k: the male and female adjoint rows at level j and the
        female row with the same-level nonlocal feedback (equal to l_j at
        level 0).  The blocks are reused from level to level, so ``visit``
        must copy what it keeps.  The work arrays carry the terminal
        trapezoid weights (theta = wa / h).  Raises NumericalFailure with the
        level index if a level stops being finite.
        """
        na, nt = self.grid.num_age_cells, self.grid.num_time_cells
        h = self.grid.step
        wn = np.array(self._block(work_n))
        wl = np.array(self._block(work_l))
        if wn.shape != wl.shape or wn.shape[0] != na + 1:
            raise DimensionError(f"work blocks have shapes {wn.shape} and {wl.shape}, "
                                 f"expected ({na + 1}, k)")
        gamma = self.gamma
        theta = (self.wa / h)[:, None]
        s_m, s_f = self.s_m[1:, None], self.s_f[1:, None]
        # fixed buffers: wide blocks would otherwise churn the heap every level
        next_n, next_l = np.zeros_like(wn), np.zeros_like(wl)
        wl_eff, feedback = np.empty_like(wl), np.empty_like(wl)

        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(nt, 0, -1):
                source = h * self.boundary_factor[j] * ((1.0 - gamma) * wn[0] + gamma * wl[0])
                np.multiply(theta, source, out=feedback)
                np.multiply(feedback, self.beta[j][:, None], out=feedback)
                np.add(wl, feedback, out=wl_eff)
                visit(j, wn, wl, wl_eff)
                np.multiply(s_m, wn[1:], out=next_n[:-1])
                np.multiply(s_f, wl_eff[1:], out=next_l[:-1])
                wn, next_n = next_n, wn
                wl, next_l = next_l, wl
                next_n[-1] = next_l[-1] = 0.0
                if not (np.isfinite(wn).all() and np.isfinite(wl).all()):
                    raise NumericalFailure(
                        f"adjoint solve lost finiteness at level {j - 1}", step=j - 1)
        visit(0, wn, wl, wl)

    def adjoint(self, work_n, work_l):
        """Whole backward sweep; returns (n, l, n_eff, l_eff) lattice arrays.

        The rows at the terminal level are the work arrays themselves;
        ``n_eff`` equals ``n`` and ``l_eff`` adds the same-level feedback,
        as the duality identity and the objective gradient require.
        """
        na, nt = self.grid.num_age_cells, self.grid.num_time_cells
        single = np.ndim(work_n) == 1
        k = 1 if single else np.shape(work_n)[1]
        n_rows = np.zeros((na + 1, nt + 1, k))
        l_rows = np.zeros((na + 1, nt + 1, k))
        l_eff = np.zeros((na + 1, nt + 1, k))

        def store(j, n_j, l_j, l_eff_j):
            n_rows[:, j] = n_j
            l_rows[:, j] = l_j
            l_eff[:, j] = l_eff_j

        self.adjoint_levels(work_n, work_l, store)
        return self._unblock((n_rows, l_rows, n_rows.copy(), l_eff), single)


def solve_forward(model, grid, geom, v_m, v_f, m0, f0, frozen_trace=None):
    """Solve the state system forward; frozen_trace=None selects nonlinear mode.

    Controls may be None (treated as zero).  Initial data are nodal age
    profiles.  Raises NumericalFailure with the step index if the solution
    stops being finite.
    """
    vm = _control_values(v_m, grid, "v_m")
    vf = _control_values(v_f, grid, "v_f")
    m0 = _as_profile(m0, grid, "m0")
    f0 = _as_profile(f0, grid, "f0")
    if frozen_trace is not None:
        return FrozenOperator(model, grid, geom, frozen_trace).state(m0, f0, vm, vf)

    na, nt = grid.num_age_cells, grid.num_time_cells
    h = grid.step
    tables = transport_tables(model, grid)
    ages, s_m, s_f, lam, wa = (tables[k] for k in ("ages", "s_m", "s_f", "lam", "wa"))
    mask_m, mask_f = control_masks(grid, geom)

    gamma = model.female_fraction
    m = np.zeros((na + 1, nt + 1))
    f = np.zeros((na + 1, nt + 1))
    m[:, 0] = m0
    f[:, 0] = f0
    male_trace = np.zeros(nt + 1)
    birth_trace = np.zeros(nt + 1)
    # interior weights exclude node 0: the male weight and the fertility both
    # contribute nothing there under the standing hypotheses
    wa_int = wa[1:]

    male_trace[0] = float(np.dot(wa, lam * m0))
    beta0 = np.asarray(model.fertility(ages, male_trace[0]), dtype=float)
    birth0 = float(np.dot(wa[1:], beta0[1:] * f0[1:]))
    birth_trace[0] = (1.0 + gamma * wa[0] * beta0[0]) * birth0

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(nt):
            mt = s_m[1:] * m[:-1, n]
            ft = s_f[1:] * f[:-1, n]
            if vm is not None:
                mt = mt + h * mask_m[1:] * vm[1:, n + 1]
            if vf is not None:
                ft = ft + h * mask_f[1:] * vf[1:, n + 1]
            level_p = float(np.dot(wa_int, lam[1:] * mt))
            beta = np.asarray(model.fertility(ages, level_p), dtype=float)
            births = float(np.dot(wa_int, beta[1:] * ft))
            # one boundary sweep: exact when fertility vanishes at age zero
            births *= 1.0 + gamma * wa[0] * beta[0]
            m[0, n + 1] = (1.0 - gamma) * births
            f[0, n + 1] = gamma * births
            m[1:, n + 1] = mt
            f[1:, n + 1] = ft
            birth_trace[n + 1] = births
            male_trace[n + 1] = float(np.dot(wa, lam * m[:, n + 1]))
            if not (np.isfinite(m[:, n + 1]).all() and np.isfinite(f[:, n + 1]).all()):
                raise NumericalFailure(
                    f"forward solve lost finiteness at step {n + 1}", step=n + 1)

    return StateSolution(
        m=Field2D(grid, m), f=Field2D(grid, f),
        fertile_male_trace=male_trace, birth_trace=birth_trace,
    )

"""Forward solver for the state system along characteristics, and the
frozen-trace operator shared by the linear machinery.

Each time step transports interior nodes with per-cell survival ratios,
adds the region-masked control as a piecewise-constant source over the
characteristic cell, takes the level's fertility row, and closes the step
with the nonlocal birth boundary.  One step loop serves both solves; only
the source of the fertility row differs.  The nonlinear solve evaluates
fertility at the solution's own fertile-male integral, once per level and
before the births; the frozen-trace operator (the linear auxiliary mode
used by the control machinery) reads it from a table built for its trace.

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


class _Transport:
    """The trace-independent tables of the sweeps, and the forward step loop.

    Holds the survival ratios, the male fertility weight, the trapezoid
    weights, the control masks and the female fraction; the nonlinear solve
    and every frozen-trace operator build them here.
    """

    def __init__(self, model, grid, geom):
        self.grid = grid
        self.geom = geom
        self.ages = grid.ages()
        na = grid.num_age_cells
        ints_m = model.mortality_integral("male", self.ages)
        ints_f = model.mortality_integral("female", self.ages)
        self.s_m = np.zeros(na + 1)
        self.s_f = np.zeros(na + 1)
        self.s_m[1:] = np.exp(ints_m[:-1] - ints_m[1:])
        self.s_f[1:] = np.exp(ints_f[:-1] - ints_f[1:])
        self.s_m[na] = self.s_f[na] = model.last_cell_survival
        self.lam = np.asarray(model.male_fertility_weight(self.ages), dtype=float)
        self.wa = grid.age_weights()
        self.mask_m, self.mask_f = control_masks(grid, geom)
        self.gamma = model.female_fraction

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

    def _step_loop(self, m0, f0, v_m, v_f, fertility_row):
        """Forward sweep; returns (m, f, fertile-male trace, birth trace).

        ``fertility_row(j, male)`` returns the fertility over the age nodes
        at level j; ``male`` is the male block its argument would integrate:
        the whole initial block at level 0, the transported interior rows
        before the births at level j >= 1.  Shapes as in
        ``FrozenOperator.forward``.
        """
        na, nt = self.grid.num_age_cells, self.grid.num_time_cells
        h = self.grid.step
        single = np.ndim(m0) == 1
        m0, f0 = self._block(m0), self._block(f0)
        vm = None if v_m is None else self._block(v_m, extra_dims=1)
        vf = None if v_f is None else self._block(v_f, extra_dims=1)
        k = m0.shape[1]
        s_m, s_f = self.s_m[1:, None], self.s_f[1:, None]
        lam, wa = self.lam, self.wa
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

        beta = fertility_row(0, m0)
        # one boundary sweep: exact when fertility vanishes at age zero
        factor = 1.0 + gamma * wa[0] * beta[0]
        for c in range(k):
            male_trace[0, c] = float(np.dot(wa, lam * m0[:, c]))
            birth0 = float(np.dot(wa_int, beta[1:] * f0[1:, c]))
            birth_trace[0, c] = factor * birth0

        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(nt):
                mt = s_m * m[:-1, n]
                ft = s_f * f[:-1, n]
                if vm is not None:
                    mt = mt + hmask_m * vm[1:, n + 1]
                if vf is not None:
                    ft = ft + hmask_f * vf[1:, n + 1]
                beta = fertility_row(n + 1, mt)
                beta_int = beta[1:]
                factor = 1.0 + gamma * wa[0] * beta[0]
                m[1:, n + 1] = mt
                f[1:, n + 1] = ft
                for c in range(k):
                    births = float(np.dot(wa_int, beta_int * ft[:, c])) * factor
                    m[0, n + 1, c] = (1.0 - gamma) * births
                    f[0, n + 1, c] = gamma * births
                    birth_trace[n + 1, c] = births
                    male_trace[n + 1, c] = float(np.dot(wa, lam * m[:, n + 1, c]))
                if not (np.isfinite(m[:, n + 1]).all() and np.isfinite(f[:, n + 1]).all()):
                    raise NumericalFailure(
                        f"forward solve lost finiteness at step {n + 1}", step=n + 1)
        return self._unblock((m, f, male_trace, birth_trace), single)


class FrozenOperator(_Transport):
    """The linear frozen-trace map and its exact transpose, for one trace.

    Holds the trace-independent tables and the fertility table
    beta(., trace[j]) of every time level, so the sweeps evaluate no rate
    function.

    Profiles are (N+1,) arrays or (N+1) x k blocks whose columns are
    independent right-hand sides; results keep the column axis last.
    """

    def __init__(self, model, grid, geom, trace):
        trace = np.array(trace, dtype=float)
        if trace.shape != (grid.num_time_cells + 1,):
            raise DimensionError(f"frozen trace has shape {trace.shape}, "
                                 f"expected ({grid.num_time_cells + 1},)")
        super().__init__(model, grid, geom)
        self.trace = trace
        self.beta = np.array([np.asarray(model.fertility(self.ages, p), dtype=float)
                              for p in self.trace])
        # one boundary sweep per level, as in the forward step loop
        self.boundary_factor = 1.0 + self.gamma * self.wa[0] * self.beta[:, 0]
        self._gramian_cache = None

    def forward(self, m0, f0, v_m=None, v_f=None):
        """Forward sweep; returns (m, f, fertile-male trace, birth trace).

        ``m0``/``f0`` are (N+1,) or (N+1, k); controls are None or full
        lattice arrays of shape (N+1, Nt+1) or (N+1, Nt+1, k) to match.
        Raises NumericalFailure with the step index if the solution stops
        being finite.
        """
        return self._step_loop(m0, f0, v_m, v_f, lambda j, male: self.beta[j])

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

    def control_gramian(self):
        """Gramian of the adjoint images of the 2(N+1) terminal unit work vectors.

        Entry (p, q) is the control-space inner product
        h^2 * sum over levels >= 1 and ages >= 1 of
        (mask_m * n_p * n_q + mask_f * l_eff_p * l_eff_q), where (n_p, l_eff_p)
        is the backward sweep from the work pair whose stacked entry p is 1
        (entries 0..N are the male slot, N+1..2N+1 the female one).  Built
        on first use and cached: it does not depend on the penalty weights.
        """
        return self._gramians()[0]

    def initial_gramian(self):
        """Initial-energy Gramian of the same adjoint images.

        Entry (p, q) is sum over ages of wa * (n_p * n_q + l_p * l_q) at
        level 0.  Cached with ``control_gramian``, from the same sweep.
        """
        return self._gramians()[1]

    def _gramians(self):
        if self._gramian_cache is None:
            self._gramian_cache = self._assemble_gramians()
        return self._gramian_cache

    def solve_gramian(self, rhs, ridge):
        """Solve (G + ridge I) c = rhs for the control Gramian G, ridge > 0.

        The spike block of G is diagonal (see ``_assemble_gramians``), so only
        its Schur complement on the 2 min(Nt, N+1) dense unit vectors is
        factored.
        """
        gram, _, (dense, spikes) = self._gramians()
        diag = gram[spikes, spikes] + ridge
        cross = gram[np.ix_(dense, spikes)]
        schur = gram[np.ix_(dense, dense)] - (cross / diag) @ cross.T
        schur[np.diag_indices_from(schur)] += ridge
        c = np.empty_like(rhs)
        c[dense] = np.linalg.solve(schur, rhs[dense] - cross @ (rhs[spikes] / diag))
        c[spikes] = (rhs[spikes] - cross.T @ c[dense]) / diag
        return c

    def _assemble_gramians(self):
        """One batched sweep of 2 min(Nt, N+1) + 2 columns, laid out by transport.

        The male row has no source, and a terminal age a >= Nt reaches age 0
        only at level 0, after the last feedback.  So the unit vectors of
        those ages stay one transported spike per level, in row a - (Nt - j)
        at level j.  All spikes of one slot ride in one column without
        sharing a row: their diagonal entries and their products with the
        other columns are read off that row.  Only the 2 min(Nt, N+1)
        younger unit vectors, whose spike triggers the nonlocal feedback,
        need a dense product per level.  The control Gramian sums the
        region-weighted rows (n_j, l_eff_j) of the levels j >= 1, the
        initial one the trapezoid-weighted rows (n_0, l_0) of level 0.

        Returns (control Gramian, initial Gramian, (dense, spike) indices).
        """
        na, nt = self.grid.num_age_cells, self.grid.num_time_cells
        h = self.grid.step
        size = na + 1
        young = min(nt, size)
        dense = 2 * young
        work_n = np.zeros((size, dense + 2))
        work_l = np.zeros((size, dense + 2))
        work_n[:young, :young] = np.eye(young)
        work_l[:young, young:dense] = np.eye(young)
        work_n[young:, dense] = 1.0
        work_l[young:, dense + 1] = 1.0

        # the age-zero node never couples to the controls
        region_m, region_f = self.mask_m.copy(), self.mask_f.copy()
        region_m[0] = region_f[0] = 0.0
        control = _TransportGram(size, nt, h, region_m, region_f)
        initial = _TransportGram(size, nt, 1.0, self.wa, self.wa)

        def collect(j, n_j, l_j, l_eff_j):
            if j == 0:
                initial.add(j, n_j, l_j)
            else:
                control.add(j, n_j, l_eff_j)

        self.adjoint_levels(work_n, work_l, collect)
        blocks = (np.r_[0:young, size:size + young], np.r_[young:size, size + young:2 * size])
        return control.matrix(*blocks), initial.matrix(*blocks), blocks


class _TransportGram:
    """Weighted Gram sums of the terminal unit vectors over the levels of a sweep.

    Accumulates sum over the visited levels and ages of
    (scale^2 * weight_n * n_p * n_q + scale^2 * weight_l * l_p * l_q) for the
    column layout of ``FrozenOperator._assemble_gramians``: dense unit-vector
    columns first, then one spike column per slot.
    """

    def __init__(self, size, nt, scale, weight_n, weight_l):
        self.size, self.nt = size, nt
        self.young = min(nt, size)
        self.dense = 2 * self.young
        self.rows_n = np.nonzero(weight_n)[0]
        self.rows_l = np.nonzero(weight_l)[0]
        self.root_n = (scale * np.sqrt(weight_n[self.rows_n]))[:, None]
        self.root_l = (scale * np.sqrt(weight_l[self.rows_l]))[:, None]
        self.wq_n, self.wq_l = scale * scale * weight_n, scale * scale * weight_l
        self.region = np.empty((self.rows_n.size + self.rows_l.size, self.dense))
        self.gram_dense = np.zeros((self.dense, self.dense))
        # rows: stacked spike index (slot, age); columns: the dense unit vectors
        self.spike_cross = np.zeros((2 * size, self.dense))
        self.spike_diag = np.zeros(2 * size)

    def add(self, j, n_rows, l_rows):
        size, young, dense, split = self.size, self.young, self.dense, self.rows_n.size
        np.multiply(self.root_n, n_rows[self.rows_n, :dense], out=self.region[:split])
        np.multiply(self.root_l, l_rows[self.rows_l, :dense], out=self.region[split:])
        np.add(self.gram_dense, self.region.T @ self.region, out=self.gram_dense)
        if young == size:
            return
        # at level j, row a - (nt - j) carries the spike of terminal age a
        span = slice(young - self.nt + j, size - self.nt + j)
        for slot, rows, wq, col in ((0, n_rows, self.wq_n, dense),
                                    (size, l_rows, self.wq_l, dense + 1)):
            spike = rows[span, col]
            weighted = wq[span] * spike
            ages = slice(slot + young, slot + size)
            self.spike_diag[ages] += weighted * spike
            self.spike_cross[ages] += weighted[:, None] * rows[span, :dense]

    def matrix(self, dense_idx, spike_idx):
        gram = np.zeros((2 * self.size, 2 * self.size))
        gram[np.ix_(dense_idx, dense_idx)] = self.gram_dense
        gram[np.ix_(spike_idx, dense_idx)] = self.spike_cross[spike_idx]
        gram[np.ix_(dense_idx, spike_idx)] = self.spike_cross[spike_idx].T
        gram[spike_idx, spike_idx] = self.spike_diag[spike_idx]
        return gram


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

    transport = _Transport(model, grid, geom)
    ages, lam, wa = transport.ages, transport.lam, transport.wa

    def fertility_row(j, male):
        # level 0 weighs the whole initial profile, later levels the
        # transported interior rows before the births
        cut = 0 if j == 0 else 1
        level_p = float(np.dot(wa[cut:], lam[cut:] * male[:, 0]))
        return np.asarray(model.fertility(ages, level_p), dtype=float)

    m, f, male_trace, birth_trace = transport._step_loop(m0, f0, vm, vf, fertility_row)
    return StateSolution(
        m=Field2D(grid, m), f=Field2D(grid, f),
        fertile_male_trace=male_trace, birth_trace=birth_trace,
    )

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
block sweep equals k single sweeps bit for bit.  The operator's control and
initial Gramians come from one such sweep with a single column per terminal
age young enough to reach age 0 (see `FrozenOperator._assemble_gramians`).
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
                # the transported interior rows, written in place
                mt, ft = m[1:, n + 1], f[1:, n + 1]
                np.multiply(s_m, m[:-1, n], out=mt)
                np.multiply(s_f, f[:-1, n], out=ft)
                if vm is not None:
                    mt += hmask_m * vm[1:, n + 1]
                if vf is not None:
                    ft += hmask_f * vf[1:, n + 1]
                beta = fertility_row(n + 1, mt)
                beta_int = beta[1:]
                factor = 1.0 + gamma * wa[0] * beta[0]
                for c in range(k):
                    births = float(np.dot(wa_int, beta_int * ft[:, c])) * factor
                    m[0, n + 1, c] = (1.0 - gamma) * births
                    f[0, n + 1, c] = gamma * births
                    birth_trace[n + 1, c] = births
                    male_trace[n + 1, c] = float(np.dot(wa, lam * m[:, n + 1, c]))
        # one check of levels 1..Nt; the first non-finite level is searched
        # for only when there is one
        if not (np.isfinite(m[:, 1:]).all() and np.isfinite(f[:, 1:]).all()):
            finite = (np.isfinite(m[:, 1:]).all(axis=(0, 2))
                      & np.isfinite(f[:, 1:]).all(axis=(0, 2)))
            step = int(np.argmin(finite)) + 1
            raise NumericalFailure(f"forward solve lost finiteness at step {step}",
                                   step=step)
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
        Raises NumericalFailure with the first step, in any column, at which
        the solution stops being finite; the lattice is checked once, after
        the sweep.
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
        trapezoid weights (theta = wa / h).

        Raises NumericalFailure with the index of the first level, in sweep
        order, that stops being finite.  Finiteness is checked once, at
        level 0, so ``visit`` may already have seen non-finite rows at the
        levels j >= 1 when the failure is raised; it never sees them at
        level 0.
        """
        na = self.grid.num_age_cells
        wn, wl = self._block(work_n), self._block(work_l)
        if wn.shape != wl.shape or wn.shape[0] != na + 1:
            raise DimensionError(f"work blocks have shapes {wn.shape} and {wl.shape}, "
                                 f"expected ({na + 1}, k)")
        n_0, l_0 = self._backward(wn, wl, visit)
        # a non-finite entry stays non-finite down to level 0: the finite
        # survival ratios carry it along its row to row 0, and the feedback
        # spreads row 0 to every row (theta > 0)
        if not (np.isfinite(n_0).all() and np.isfinite(l_0).all()):
            self._backward(wn, wl, self._check_finite)
            raise NumericalFailure("adjoint solve lost finiteness at level 0", step=0)
        visit(0, n_0, l_0, l_0)

    def _backward(self, work_n, work_l, visit):
        """The levels Nt..1 of ``adjoint_levels`` on copies of the work blocks;
        returns the rows (n_0, l_0) of level 0."""
        nt = self.grid.num_time_cells
        h = self.grid.step
        wn, wl = np.array(work_n), np.array(work_l)
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
        return wn, wl

    def _check_finite(self, j, n_j, l_j, l_eff_j):
        """Visit of the failure path: raises at the first non-finite level
        below the terminal one."""
        if j < self.grid.num_time_cells and not (np.isfinite(n_j).all()
                                                 and np.isfinite(l_j).all()):
            raise NumericalFailure(f"adjoint solve lost finiteness at level {j}", step=j)

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

    def solve_gramian(self, rhs, weights):
        """Solve (I + diag(weights) G / h) c = rhs for the control Gramian G.

        ``weights`` are nonnegative, one per terminal unit vector; a zero
        weight makes its row an identity row.  The spike block of G is
        diagonal (see ``_assemble_gramians``), so only the Schur complement
        on the 2 min(Nt, N+1) dense unit vectors is factored.
        """
        gram, _, (dense, spikes) = self._gramians()
        h = self.grid.step
        d_dense, d_spike = weights[dense] / h, weights[spikes] / h
        diag = 1.0 + d_spike * gram[spikes, spikes]
        cross = gram[np.ix_(dense, spikes)]
        schur = gram[np.ix_(dense, dense)] - (cross * (d_spike / diag)) @ cross.T
        schur *= d_dense[:, None]
        schur[np.diag_indices_from(schur)] += 1.0
        c = np.empty_like(rhs)
        c[dense] = np.linalg.solve(schur, rhs[dense] - d_dense * (cross @ (rhs[spikes] / diag)))
        c[spikes] = (rhs[spikes] - d_spike * (cross.T @ c[dense])) / diag
        return c

    def _assemble_gramians(self):
        """One batched sweep of min(Nt, N+1) + 2 columns, laid out by transport.

        The male row has no source, so until terminal age p reaches age 0, at
        level Nt - p, both of its unit vectors stay single transported
        spikes, in row p - (Nt - j) of their slot at level j.  A terminal age
        p >= Nt reaches age 0 only at level 0, after the last feedback, so
        its spikes never end.  All those older spikes of one slot ride in one
        column without sharing a row.  Each of the min(Nt, N+1) younger ages
        gets one column that starts from its unit vector in both slots: at
        level Nt - p its two spikes, of values s_m and s_f there, inject one
        birth source, and from then on the column carries the response R_p
        to it, in the female rows only.  From that level on, the male unit
        vector's image is a_p R_p and the female one's b_p R_p, with
        a_p = (1 - gamma) s_m / ((1 - gamma) s_m + gamma s_f) and
        b_p = gamma s_f / ((1 - gamma) s_m + gamma s_f) = 1 - a_p.  So the
        dense product runs over the female rows of the live columns only; the
        spikes' squares, and the products of the female spikes with the live
        columns, are read off single rows; and (a, b) expand the result to
        both slots.  The control Gramian sums the region-weighted rows
        (n_j, l_eff_j) of the levels j >= 1, the initial one the
        trapezoid-weighted rows (n_0, l_0) of level 0.

        Returns (control Gramian, initial Gramian, (dense, spike) indices).
        """
        na, nt = self.grid.num_age_cells, self.grid.num_time_cells
        h = self.grid.step
        size = na + 1
        young = min(nt, size)
        work_n = np.zeros((size, young + 2))
        work_l = np.zeros((size, young + 2))
        work_n[:young, :young] = work_l[:young, :young] = np.eye(young)
        work_n[young:, young] = 1.0
        work_l[young:, young + 1] = 1.0

        # the age-zero node never couples to the controls
        region_m, region_f = self.mask_m.copy(), self.mask_f.copy()
        region_m[0] = region_f[0] = 0.0
        control = _LiveGram(size, nt, h, region_m, region_f)
        initial = _LiveGram(size, nt, 1.0, self.wa, self.wa)
        reached = np.zeros((2, young))  # (s_m, s_f) of each young age at age 0

        def collect(j, n_j, l_j, l_eff_j):
            if j == 0:
                initial.add(j, n_j, l_j)
                return
            if nt - j < young:
                reached[:, nt - j] = n_j[0, nt - j], l_j[0, nt - j]
            control.add(j, n_j, l_eff_j)

        self.adjoint_levels(work_n, work_l, collect)
        gamma = self.gamma
        births = (1.0 - gamma) * reached[0] + gamma * reached[1]
        # a column whose spikes die before age 0 has no response: any split serves
        split = np.zeros((2, young))
        np.divide((1.0 - gamma) * reached[0], births, out=split[0], where=births != 0)
        np.divide(gamma * reached[1], births, out=split[1], where=births != 0)
        blocks = (np.r_[0:young, size:size + young], np.r_[young:size, size + young:2 * size])
        return control.matrix(*split), initial.matrix(*split), blocks


class _LiveGram:
    """Weighted Gram sums over the levels of the sweep of ``_assemble_gramians``.

    With weights scale^2 * weight_n and scale^2 * weight_l, accumulates the
    female-row Gram matrix of the live young columns, the products of every
    female spike with the live columns, and the squares of the spikes of
    both slots; ``matrix`` expands them to the 2(N+1) x 2(N+1) Gramian of
    the terminal unit vectors.
    """

    def __init__(self, size, nt, scale, weight_n, weight_l):
        self.size, self.nt = size, nt
        self.young = young = min(nt, size)
        self.rows_l = np.nonzero(weight_l)[0]
        self.root_l = (scale * np.sqrt(weight_l[self.rows_l]))[:, None]
        self.wq_n, self.wq_l = scale * scale * weight_n, scale * scale * weight_l
        self.region = np.empty(self.rows_l.size * young)
        self.gram_live = np.zeros((young, young))
        # rows: female spike by terminal age; columns: the live young columns
        self.spike_cross = np.zeros((size, young))
        self.spike_diag = np.zeros((2, size))
        # the sweep column that carries the spike of each terminal age, per slot
        ages = np.arange(size)
        self.col_n = np.minimum(ages, young)
        self.col_l = np.where(ages < young, ages, young + 1)

    def add(self, j, n_rows, l_rows):
        shift = self.nt - j
        # the young columns p <= Nt - j have reached age 0
        live = min(shift + 1, self.young)
        region = self.region[:self.rows_l.size * live].reshape(-1, live)
        np.multiply(self.root_l, l_rows[self.rows_l, :live], out=region)
        gram = self.gram_live[:live, :live]
        np.add(gram, region.T @ region, out=gram)
        # every other terminal age p is a spike in row p - (Nt - j) of each slot
        rows = np.arange(max(live - shift, 0), self.size - shift)
        ages = rows + shift
        spike_n = n_rows[rows, self.col_n[ages]]
        spike_l = l_rows[rows, self.col_l[ages]]
        weighted = self.wq_l[rows] * spike_l
        self.spike_diag[0, ages] += self.wq_n[rows] * spike_n * spike_n
        self.spike_diag[1, ages] += weighted * spike_l
        self.spike_cross[ages, :live] += weighted[:, None] * l_rows[rows, :live]

    def matrix(self, a, b):
        """The Gramian of the terminal unit vectors, the male image of young age
        p being a_p times its column's response and the female one b_p times."""
        size, young = self.size, self.young
        male, female, old = (slice(0, young), slice(size, size + young),
                             slice(size + young, 2 * size))
        live, cross = self.gram_live, self.spike_cross
        # pair[p, q]: the female spike of age q against the live column p
        pair = cross[:young].T
        female_pair = b[:, None] * pair
        gram = np.zeros((2 * size, 2 * size))
        gram[male, male] = np.outer(a, a) * live
        gram[male, female] = np.outer(a, b) * live + a[:, None] * pair
        gram[female, female] = np.outer(b, b) * live + (female_pair + female_pair.T)
        gram[old, male] = cross[young:] * a
        gram[old, female] = cross[young:] * b
        gram[female, male] = gram[male, female].T
        gram[male, old] = gram[old, male].T
        gram[female, old] = gram[old, female].T
        gram[np.diag_indices_from(gram)] += self.spike_diag.ravel()
        return gram


def solve_forward(model, grid, geom, v_m, v_f, m0, f0, frozen_trace=None):
    """Solve the state system forward; frozen_trace=None selects nonlinear mode.

    Controls may be None (treated as zero).  Initial data are nodal age
    profiles.  Raises NumericalFailure with the first step at which the
    solution stops being finite, checked once after the sweep; in nonlinear
    mode the levels after it get a non-finite fertility row without a call
    to the model's fertility.
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
        # the sweep goes on past a non-finite level and reports it at the end;
        # the rate function only ever sees integrals of finite rows
        if not np.isfinite(male).all():
            return np.full(ages.size, np.nan)
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

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
its forward map and exact transpose need, built once per trace;
`FrozenOperator.retrace` gives the operator of another trace that shares
every trace-independent table.  Both take a single age profile or an
(N+1) x k block of columns; every per-column operation is the one the
single-column call performs, so a block equals k single columns bit for
bit.

`FrozenOperator.forward`/`state` (the whole lattice) always run the step
loop.  The parts of the forward map a penalty stage reads
(`FrozenOperator.observe`: the fertile-male trace and the terminal state,
controls included), the transpose and the control and initial Gramians
take one of two paths, by the kind of fertility.  Separable fertility
phi(a) r(p) is tabulated from one vector call of r per trace, and the birth
law, the only coupling between ages, reduces to a discrete renewal
equation on the Nt time levels (`_Renewal`).  Its trace-independent tables
are built once and shared by retraced operators; per trace one triangular
system (`_Levels`) gives the Gramians, the whole adjoint lattice of any
work block and the controlled male trace and terminal state in closed
form, with no level loop.  Any other fertility is evaluated once per
level: its adjoint is the backward sweep (`FrozenOperator.adjoint_levels`),
its `observe` the step loop, and its Gramians come from one batched sweep
with a single column per terminal age young enough to reach age 0
(`FrozenOperator._assemble_gramians`).  Those sweeps are also the oracles
the closed forms are tested against.  Both paths give the Gramians in
block form (`GramianBlocks`): the terminal ages too old to reach age 0 stay
spikes that never share a row, so their block is diagonal.  Every solve
with a Gramian is a method of its blocks: the penalised solve of a penalty
stage, and the pseudo-inverse and null directions the observability power
iteration uses, each factoring only a Schur complement on the dense
indices.  The dense matrices are expanded only on demand (``matrix``).
"""

import copy
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConsistencyError, DimensionError, NumericalFailure
from .grid import Field2D, region_mask, region_weights
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


def terminal_weights(grid, geom):
    """Quadratic-form weights of the terminal penalty terms (W_m, W_f)."""
    wa = grid.age_weights()
    if geom.mode is ControlMode.BOTH:
        return wa, wa
    if geom.mode is ControlMode.MALE_ONLY:
        if geom.target_min_age > 0:
            wm = grid.step * region_mask(grid, geom.target_min_age, grid.max_age)
        else:
            wm = wa
        return wm, None
    return None, wa


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
    function; for separable fertility also its age profile and its
    ``response`` at every level, the factors of that table, and the
    closed forms of ``_Renewal`` built from them on first use.

    Profiles are (N+1,) arrays or (N+1) x k blocks whose columns are
    independent right-hand sides; results keep the column axis last.
    """

    def __init__(self, model, grid, geom, trace):
        super().__init__(model, grid, geom)
        self.fertility = fertility = model.fertility
        # a separable fertility's age profile, shared by every trace
        self.age_profile = (np.asarray(fertility.age_profile(self.ages), dtype=float)
                            if fertility.separable else None)
        self._geometry = None
        self._renewal = None
        self._freeze(trace)

    def _freeze(self, trace):
        """Tabulate the fertility of every level at ``trace``."""
        trace = np.array(trace, dtype=float)
        nt = self.grid.num_time_cells
        if trace.shape != (nt + 1,):
            raise DimensionError(f"frozen trace has shape {trace.shape}, "
                                 f"expected ({nt + 1},)")
        self.trace = trace
        if self.age_profile is None:
            self.response = None
            self.beta = np.array([np.asarray(self.fertility(self.ages, p), dtype=float)
                                  for p in trace])
        else:
            # the products phi(a) r(p) the per-level calls form, from one vector call
            self.response = np.asarray(self.fertility.response(trace), dtype=float)
            self.beta = self.age_profile[None, :] * self.response[:, None]
        # one boundary sweep per level, as in the forward step loop
        self.boundary_factor = 1.0 + self.gamma * self.wa[0] * self.beta[:, 0]
        self._gramian_cache = [None, None]  # (control, initial)
        self._levels = None

    def geometry_tables(self):
        """(inner weights, supports, terminal weights): the ``region_weights``
        of the control masks, their nodes of nonzero weight, and the
        ``terminal_weights``; built on first use, as the renewal tables are."""
        if self._geometry is None:
            weights = tuple(region_weights(self.grid, mask) for mask in (self.mask_m, self.mask_f))
            self._geometry = (weights, tuple(w > 0 for w in weights),
                              terminal_weights(self.grid, self.geom))
        return self._geometry

    def retrace(self, trace):
        """The operator of the same model, grid and geometry for another trace.

        It shares every trace-independent table of this one, the geometry
        and renewal tables included once they are built.
        """
        op = copy.copy(self)
        op._freeze(trace)
        return op

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
        wn, wl = self._work_blocks(work_n, work_l)
        n_0, l_0 = self._backward(wn, wl, visit)
        # a non-finite entry stays non-finite down to level 0: the finite
        # survival ratios carry it along its row to row 0, and the feedback
        # spreads row 0 to every row (theta > 0)
        if not (np.isfinite(n_0).all() and np.isfinite(l_0).all()):
            self._backward(wn, wl, self._check_finite)
            raise NumericalFailure("adjoint solve lost finiteness at level 0", step=0)
        visit(0, n_0, l_0, l_0)

    def _work_blocks(self, work_n, work_l):
        """The work arrays as (N+1) x k blocks of matching shape."""
        na = self.grid.num_age_cells
        wn, wl = self._block(work_n), self._block(work_l)
        if wn.shape != wl.shape or wn.shape[0] != na + 1:
            raise DimensionError(f"work blocks have shapes {wn.shape} and {wl.shape}, "
                                 f"expected ({na + 1}, k)")
        return wn, wl

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
        """The whole adjoint; returns (n, l, n_eff, l_eff) lattice arrays.

        The rows at the terminal level are the work arrays themselves;
        ``n_eff`` equals ``n`` and ``l_eff`` adds the same-level feedback,
        as the duality identity and the objective gradient require.
        Separable fertility takes the closed form of ``_Levels.adjoint``,
        any other the backward sweep.  Raises NumericalFailure naming the
        level at which the sweep stops being finite.
        """
        single = np.ndim(work_n) == 1
        n, l, l_eff = self._adjoint_lattices(work_n, work_l, keep_l=True)
        return self._unblock((n, l, n.copy(), l_eff), single)

    def adjoint_images(self, work_n, work_l):
        """The (n, l_eff) lattice blocks of the adjoint, (N+1) x (Nt+1) x k:
        the rows that pair with the male and female controls."""
        n, _, l_eff = self._adjoint_lattices(work_n, work_l, keep_l=False)
        return n, l_eff

    def _adjoint_lattices(self, work_n, work_l, keep_l):
        """(n, l, l_eff) blocks of the adjoint; l is None unless ``keep_l``."""
        wn, wl = self._work_blocks(work_n, work_l)
        if self.age_profile is not None:
            lattices = self._renewal_levels().adjoint(wn, wl, keep_l)
            if not all(np.isfinite(a).all() for a in lattices if a is not None):
                # the sweep names the first level that stops being finite
                self.adjoint_levels(wn, wl, lambda *rows: None)
                raise NumericalFailure("adjoint solve lost finiteness")
            return lattices
        shape = (wn.shape[0], self.grid.num_time_cells + 1, wn.shape[1])
        n_rows, l_eff = np.zeros(shape), np.zeros(shape)
        l_rows = np.zeros(shape) if keep_l else None

        def store(j, n_j, l_j, l_eff_j):
            n_rows[:, j] = n_j
            l_eff[:, j] = l_eff_j
            if keep_l:
                l_rows[:, j] = l_j

        self.adjoint_levels(wn, wl, store)
        return n_rows, l_rows, l_eff

    def observe(self, m0, f0, v_m=None, v_f=None):
        """The parts of the forward map a penalty stage reads: the fertile-male
        trace at every level, (Nt+1,), and the stacked terminal (male, female)
        profiles, (2(N+1),).

        Single column; arguments as in ``forward``.  Separable fertility takes
        the closed form of ``_Levels.observe``, any other the step loop.
        Raises NumericalFailure naming the first step at which the step loop
        stops being finite.
        """
        return self._observe(m0, f0, v_m, v_f, male=True)

    def uncontrolled_terminal(self, m0, f0):
        """Stacked terminal (male, female) profiles of the forward map from the
        profiles ``m0``, ``f0`` without controls, as ``observe`` gives them."""
        return self._observe(m0, f0, None, None, male=False)[1]

    def _observe(self, m0, f0, v_m, v_f, male):
        """``observe``; the closed form skips the male trace (None) unless
        ``male``."""
        if np.ndim(m0) != 1 or np.ndim(f0) != 1:
            raise DimensionError("observe takes single age profiles")
        if self.age_profile is None:
            m, f, male_trace, _ = self.forward(m0, f0, v_m, v_f)
            return male_trace, np.concatenate([m[:, -1], f[:, -1]])
        h = self.grid.step
        shape = (self.grid.num_age_cells + 1, self.grid.num_time_cells + 1)
        sources = []
        for v, mask in ((v_m, self.mask_m), (v_f, self.mask_f)):
            # the lattice of control sources the step loop adds; a sex with an
            # empty region has none
            source = None
            if v is not None and mask.any():
                source = np.zeros(shape)
                np.multiply((h * mask[1:])[:, None], v[1:, 1:], out=source[1:, 1:])
            sources.append(source)
        male_trace, terminal = self._renewal_levels().observe(
            np.asarray(m0, dtype=float), np.asarray(f0, dtype=float), *sources, male)
        if not (np.isfinite(terminal).all()
                and (male_trace is None or np.isfinite(male_trace).all())):
            self.forward(m0, f0, v_m, v_f)  # names the first non-finite step
            raise NumericalFailure("forward solve lost finiteness")
        return male_trace, terminal

    def _renewal_levels(self):
        """The renewal system of this trace, built on first use; its tables
        are built once and shared by retraced operators."""
        if self._levels is None:
            if self._renewal is None:
                self._renewal = _Renewal(self)
            self._levels = _Levels(self._renewal, self.response, self.boundary_factor)
        return self._levels

    def gramians(self):
        """(control, initial) Gramians of the terminal unit work vectors, as
        ``GramianBlocks``.

        Built on first use and cached: they do not depend on the penalty
        weights.  Separable fertility takes the closed form of ``_Levels``,
        any other the sweep of ``_assemble_gramians``.  Entry (p, q) of the
        control Gramian is the control-space inner product
        h^2 * sum over levels >= 1 and ages >= 1 of
        (mask_m * n_p * n_q + mask_f * l_eff_p * l_eff_q), where (n_p, l_eff_p)
        is the backward sweep from the work pair whose stacked entry p is 1
        (entries 0..N are the male slot, N+1..2N+1 the female one); entry
        (p, q) of the initial one is sum over ages of wa * (n_p * n_q + l_p * l_q)
        at level 0.
        """
        return self._gramian(0), self._gramian(1)

    def control_gramian(self):
        """The control Gramian of ``gramians``; for separable fertility the
        initial one is not built."""
        return self._gramian(0)

    def _gramian(self, half):
        """The control (``half`` 0) or initial (1) Gramian of ``gramians``;
        for separable fertility only the one asked for is built."""
        cache = self._gramian_cache
        if cache[half] is None:
            if self.age_profile is None:
                cache[:] = self._assemble_gramians()
            else:
                gram = self._renewal_levels().gramian(half)
                if not all(np.isfinite(part).all() for part in (gram.dense, gram.cross,
                                                                 gram.diag)):
                    # the sweep names the first level that stops being finite
                    self._assemble_gramians()
                    raise NumericalFailure("Gramian assembly lost finiteness")
                cache[half] = gram
        return cache[half]

    def _assemble_gramians(self):
        """One batched sweep of min(Nt, N+1) + 2 columns, laid out by transport.

        The Gramians of a fertility that is not separable come from here; a
        separable one takes ``_Renewal``, and comes here only to name the
        level at which a non-finite closed form stops being finite.

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

        Returns the (control, initial) Gramians as ``GramianBlocks``.
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
        _, split = _birth_split(reached, self.gamma)
        return control.blocks(*split), initial.blocks(*split)


def _birth_split(reached, gamma):
    """The birth source E_p = (1 - gamma) s_m + gamma s_f of each young terminal
    age, and the shares (a_p, b_p) of its male and female unit vectors, from
    the spike values (s_m, s_f) that reach age 0."""
    births = (1.0 - gamma) * reached[0] + gamma * reached[1]
    # a column whose spikes die before age 0 has no response: any split serves
    split = np.zeros(reached.shape)
    np.divide((1.0 - gamma) * reached[0], births, out=split[0], where=births != 0)
    np.divide(gamma * reached[1], births, out=split[1], where=births != 0)
    return births, split


def _terminal_blocks(size, young):
    """Stacked (dense, spike) indices: the young terminal ages of both slots,
    then the older ones."""
    ages = np.arange(2 * size).reshape(2, size)
    return ages[:, :young].ravel(), ages[:, young:].ravel()


class _LiveGram:
    """Weighted Gram sums over the levels of the sweep of ``_assemble_gramians``.

    With weights scale^2 * weight_n and scale^2 * weight_l, accumulates the
    female-row Gram matrix of the live young columns, the products of every
    female spike with the live columns, and the squares of the spikes of
    both slots; ``blocks`` gives the Gramian of the terminal unit vectors
    from them.
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

    def blocks(self, a, b):
        """The Gramian of the terminal unit vectors (see ``_gram_blocks``)."""
        return _gram_blocks(self.gram_live, self.spike_cross, self.spike_diag, a, b)


class GramianBlocks:
    """A Gramian of the 2(N+1) terminal unit vectors, in block form.

    ``index`` holds the (dense, spike) stacked indices: the young terminal
    ages of both slots, then the older ones.  ``dense`` is the block A on
    the dense indices, ``cross`` the block C between dense and spike ones
    and ``diag`` the diagonal Delta of the spike block, which is diagonal
    because the older spikes never share a row.  Every solve with the form
    is made here: Delta is eliminated and only a Schur complement
    A - C W C^T on the dense indices is factored.  ``matrix`` expands the
    form to the full matrix on demand.
    """

    def __init__(self, dense, cross, diag, index):
        self.dense, self.cross, self.diag = dense, cross, diag
        self.index = index
        self._matrix = None

    def matrix(self):
        """The full symmetric matrix, built on first use and cached."""
        if self._matrix is None:
            dense, spikes = self.index
            gram = np.zeros((dense.size + spikes.size,) * 2)
            gram[np.ix_(dense, dense)] = self.dense
            gram[np.ix_(dense, spikes)] = self.cross
            gram[np.ix_(spikes, dense)] = self.cross.T
            gram[spikes, spikes] = self.diag
            self._matrix = gram
        return self._matrix

    def apply(self, x_dense, x_spike):
        """The product with the vector (or columns) of dense part ``x_dense``
        and spike part ``x_spike``, split the same way."""
        return (self.dense @ x_dense + self.cross @ x_spike,
                self.cross.T @ x_dense + (self.diag * x_spike.T).T)

    def quadratic(self, x_dense, x_spike):
        """x . F x of the vector, or of each column, split as in ``apply``."""
        f_dense, f_spike = self.apply(x_dense, x_spike)
        return np.sum(x_dense * f_dense, axis=0) + np.sum(x_spike * f_spike, axis=0)

    def energy(self, x):
        """x . F x of a stacked vector, or of each column of a stacked block."""
        dense, spikes = self.index
        return self.quadratic(x[dense], x[spikes])

    def max_abs(self):
        """The largest |entry| of the form."""
        return max(float(np.max(np.abs(part), initial=0.0))
                   for part in (self.dense, self.cross, self.diag))

    def schur(self, spike_weights):
        """A - C diag(spike_weights) C^T, a new array."""
        return self.dense - (self.cross * spike_weights) @ self.cross.T

    def penalised_solve(self, weights, rhs):
        """Solve (I + diag(weights) F) c = rhs for a stacked ``rhs``.

        ``weights`` are nonnegative, one per stacked entry; a zero weight
        makes its row an identity row.  Delta is eliminated, so only the
        Schur complement on the dense indices is formed and factored.
        """
        dense, spikes = self.index
        d_dense, d_spike = weights[dense], weights[spikes]
        diag = 1.0 + d_spike * self.diag
        schur = self.schur(d_spike / diag)
        schur *= d_dense[:, None]
        schur.flat[::schur.shape[0] + 1] += 1.0  # the diagonal
        c = np.empty_like(rhs)
        c[dense] = np.linalg.solve(schur,
                                   rhs[dense] - d_dense * (self.cross @ (rhs[spikes] / diag)))
        c[spikes] = (rhs[spikes] - d_spike * (self.cross.T @ c[dense])) / diag
        return c

    def null_cut(self):
        """1e-12 max(|A|_F, max Delta): below it a direction of this positive
        semidefinite form counts as null.  |A|_F lies in [lambda_max(A),
        sqrt(rank A) lambda_max(A)], so the scale is within that of
        lambda_max(F) / 2."""
        top = max(float(np.max(self.diag, initial=0.0)), float(np.linalg.norm(self.dense)))
        return 1e-12 * max(top, 1e-300)

    def pseudo_inverse(self):
        """The pseudo-inverse F^- of this positive semidefinite form, and its
        null directions, both under ``null_cut``.

        Returns (solve, null_dense, null_spike, dead).  ``solve(y_dense,
        y_spike)`` gives (x_dense, x_spike, y . x) for x = F^- y.  The null
        directions are the dead spikes, flagged in ``dead``, and the null
        vectors v of the Schur complement S = A - C Delta^+ C^T, lifted to
        (v, -Delta^+ C^T v): the columns of (null_dense, null_spike).  S is
        the only matrix eigendecomposed, and null_dense has as many columns
        as rows exactly when S has no live eigenvalue.
        """
        cut = self.null_cut()
        live_spikes = self.diag > cut
        inv_diag = np.divide(1.0, self.diag, out=np.zeros_like(self.diag), where=live_spikes)
        vals, vecs = np.linalg.eigh(self.schur(inv_diag))
        live = vals > cut
        null_dense = vecs[:, ~live]
        null_spike = -inv_diag[:, None] * (self.cross.T @ null_dense)
        whiten = vecs[:, live] / np.sqrt(vals[live])

        def solve(y_dense, y_spike):
            # |z|^2 + y . Delta^+ y = y . x
            z = whiten.T @ (y_dense - self.cross @ (inv_diag * y_spike))
            x_dense = whiten @ z
            x_spike = inv_diag * (y_spike - self.cross.T @ x_dense)
            return x_dense, x_spike, float(z @ z) + float(y_spike @ (inv_diag * y_spike))
        return solve, null_dense, null_spike, ~live_spikes

    def restrict(self, live, scale):
        """The form on the sorted stacked entries ``live``, the unit vector of
        live[i] scaled by scale[i]; indices then count positions in ``live``."""
        dense, spikes = self.index
        position = np.full(dense.size + spikes.size, -1)
        position[live] = np.arange(len(live))
        weight = np.zeros(position.size)
        weight[live] = scale
        keep_d, keep_s = position[dense] >= 0, position[spikes] >= 0
        w_d, w_s = weight[dense[keep_d]], weight[spikes[keep_s]]
        if len(live) == position.size:
            # every entry is live: the blocks are scaled as they are
            dense_block, cross_block = self.dense, self.cross
        else:
            dense_block = self.dense[np.ix_(keep_d, keep_d)]
            cross_block = self.cross[np.ix_(keep_d, keep_s)]
        return GramianBlocks(np.outer(w_d, w_d) * dense_block, np.outer(w_d, w_s) * cross_block,
                             w_s * w_s * self.diag[keep_s],
                             (position[dense[keep_d]], position[spikes[keep_s]]))


def _gram_blocks(live, cross, diag, a, b):
    """The Gramian of the terminal unit vectors in block form.

    ``live`` is the Gram matrix of the young columns' responses, ``cross``
    the products of every terminal age's female spike with those responses
    and ``diag`` the squares of the spikes of both slots; the male image of
    young age p is a_p times its column's response and the female one b_p
    times.  A male spike of an older age meets nothing but itself, so its
    columns of C are zero.
    """
    size, young = cross.shape
    male, female = slice(0, young), slice(young, 2 * young)
    # pair[p, q]: the female spike of age q against the live column p
    pair = cross[:young].T
    female_pair = b[:, None] * pair
    dense = np.zeros((2 * young, 2 * young))
    dense[male, male] = np.outer(a, a) * live
    dense[male, female] = np.outer(a, b) * live + a[:, None] * pair
    dense[female, female] = np.outer(b, b) * live + (female_pair + female_pair.T)
    dense[female, male] = dense[male, female].T
    dense.flat[::2 * young + 1] += diag[:, :young].ravel()  # the diagonal
    old = size - young
    spike_cross = np.zeros((2 * young, 2 * old))
    spike_cross[male, old:] = (cross[young:] * a).T
    spike_cross[female, old:] = (cross[young:] * b).T
    return GramianBlocks(dense, spike_cross, diag[:, young:].ravel(),
                         _terminal_blocks(size, young))


class _Renewal:
    """The trace-independent tables of the closed forms, for separable
    fertility beta(a, p) = phi(a) r(p), of one model, grid and geometry.

    The feedback of the backward sweep at level j is then psi c_j q_j: one
    fixed age profile psi = (wa / h) phi times c_j = h bf_j r_j, bf_j the
    level's boundary factor, times the level's birth source
    q_j = (1 - gamma) n_j[0] + gamma l_j[0].  Let T_d psi be psi carried d
    levels down the female rows and kappa_d its age-0 entry.  Apart from
    the feedbacks, the work entry of terminal age q is a spike that the
    sweep carries down its row: d levels below the terminal one it sits in
    row q - d, times a survival product (``lattice_spikes``), and at level
    Nt - q it reaches age 0.  So the feedback amplitudes
    alpha_j = c_j q_j of any work pair solve the discrete renewal equation
    (I - gamma diag(c) K) alpha = c e, with K[j, k] = kappa_{k-j} for k > j
    and e_j the birth source of the spikes that reach age 0 at level j.  The
    female row l_j is its spike plus the sum over k > j of
    alpha_k T_{k-j} psi, a Hankel product in alpha, and l_eff_j adds
    alpha_j psi.

    The forward map without controls solves the transposed recursion: the
    births B_n of the levels n >= 1 satisfy
    (I - gamma diag(c) K^T) B = bf r d, where d_n is the birth integral of
    the initial female profile carried n levels.  The terminal state is the
    initial data and the births carried by the same spike products; the
    survival products are never divided, as ``last_cell_survival`` may be 0.

    For the Gramians, the column of young terminal age p injects E_p at
    level Nt - p, so its amplitudes solve the renewal equation with the
    source c_{Nt-p} E_p e_{Nt-p}.  Stacking the amplitudes as Lambda, the
    response block of the control Gramian is Lambda^T Q Lambda and the
    spike-by-response block Z Lambda, where Q sums the region-weighted
    products of T_{k-j} psi and T_{k'-j} psi over the levels j and Z those
    of the female spikes with T_{k-j} psi; the initial Gramian has Q0 and
    Z0 at level 0.  Only c depends on the trace (``_Levels``), so everything
    else is tabulated here, once.
    """

    def __init__(self, op):
        na, nt = op.grid.num_age_cells, op.grid.num_time_cells
        h = op.grid.step
        size = na + 1
        self.nt, self.size, self.h, self.gamma = nt, size, h, op.gamma
        self.young = young = min(nt, size)
        region_m, region_f = op.mask_m.copy(), op.mask_f.copy()
        region_m[0] = region_f[0] = 0.0
        self.weights = (h * h * region_m, h * h * region_f, op.wa)

        # carried[:, d] is T_d psi.  lattice_spikes[s, r, j] is the spike of
        # terminal age r + Nt - j of slot s, in row r at level j, multiplied in
        # the sweep's order; it is zero where that age is past the grid
        carried = np.zeros((size, nt + 1))
        carried[:, 0] = (op.wa / h) * op.age_profile
        lattice = np.zeros((2, size, nt + 1))
        lattice[:, :, nt] = 1.0
        survival = np.stack([op.s_m, op.s_f])
        for d in range(1, nt + 1):
            carried[:-1, d] = op.s_f[1:] * carried[1:, d - 1]
            if d < size:
                lattice[:, :size - d, nt - d] = (survival[:, 1:size - d + 1]
                                                 * lattice[:, 1:size - d + 1, nt - d + 1])
        self.carried, self.lattice_spikes = carried, lattice

        # K[j, k] = kappa_{k-j} above the diagonal
        lag = np.arange(nt)[None, :] - np.arange(nt)[:, None]
        self.kernel = np.where(lag > 0, carried[0, np.maximum(lag, 0)], 0.0)
        young_ages = np.arange(young)
        self.born = lattice[:, 0, nt - young_ages]  # (s_m, s_f) of each young age at age 0
        self.births, self.split = _birth_split(self.born, op.gamma)
        self.inject = nt - 1 - young_ages  # row of level Nt - p among levels 1..Nt
        # the birth source of level j = 1..Nt: the spikes of terminal age Nt - j
        # at age 0, in the shares of the birth law
        self.source_spikes = np.array([[1.0 - op.gamma], [op.gamma]]) * lattice[:, 0, 1:]
        # l_eff - spike = carried @ A with the Hankel matrix A[d, j] = alpha_{j+d},
        # read from the amplitudes padded as [0, alpha_1, ..., alpha_Nt, 0];
        # l drops the term d = 0
        self.hankel = np.minimum(np.arange(nt + 1)[:, None] + np.arange(nt + 1), nt + 1)

        # the forward map: the terminal ages >= Nt carry the initial data by the
        # spikes of level 0
        self.old = lattice[:, :size - young, 0]
        self.male_weight, self.s_m = op.wa * op.lam, op.s_m
        self._forward = None
        self._forms = None

    def forward_tables(self):
        """The tables of ``_Levels.observe``, built on first use:
        ``male_carried``, whose column d is wa * lambda carried d levels down
        the male rows, so that its entry r weighs the male trace d levels
        after a value in row r; the level d + k that entry (d, k) of a
        product with a source lattice reaches; and the terminal age
        r + Nt - k that the source in row r at level k reaches."""
        if self._forward is None:
            nt, size = self.nt, self.size
            male_carried = np.zeros((size, nt + 1))
            male_carried[:, 0] = self.male_weight
            for d in range(1, nt + 1):
                male_carried[:-1, d] = self.s_m[1:] * male_carried[1:, d - 1]
            levels = np.arange(nt + 1)
            self._forward = (male_carried, (levels[:, None] + levels).ravel(),
                             (np.arange(size)[:, None] + (nt - levels)).ravel())
        return self._forward

    def along_levels(self, product):
        """Level n's sum of an (Nt+1) x (Nt+1) product indexed (d, k): its
        anti-diagonal d + k = n, for n = 0..Nt."""
        return np.bincount(self.forward_tables()[1], product.ravel())[:self.nt + 1]

    def to_terminal(self, slot, source):
        """The terminal profile of slot ``slot`` reached by the sources in an
        (N+1) x (Nt+1) lattice: each carried by its spike product, summed
        along its characteristic."""
        carried = (self.lattice_spikes[slot] * source).ravel()
        return np.bincount(self.forward_tables()[2], carried)[:self.size]

    def gramian_forms(self):
        """The (forms, cross, diag) tables of the (control, initial) Gramians,
        built on first use."""
        if self._forms is not None:
            return self._forms
        nt, size = self.nt, self.size
        wq_m, wq_f, wa = self.weights
        carried, spikes = self.carried.T, self.lattice_spikes  # carried[d] is T_d psi
        # control: levels j = Nt - d >= 1, spikes in rows r = q - d >= 1
        root = carried[:nt] * np.sqrt(wq_f)
        q_ctrl = root @ root.T  # Q[k, k'] = sum_j G[k - j, k' - j], G this Gram matrix
        for k in range(1, nt):
            q_ctrl[k, 1:] += q_ctrl[k - 1, :-1]
        z_ctrl = np.zeros((size, nt))
        diag_ctrl = np.zeros((2, size))
        for d in range(min(nt, size - 1)):
            j = nt - d
            rows = slice(1, size - d)
            spike_f = spikes[1, rows, j]
            weighted = wq_f[rows] * spike_f
            spike_m = spikes[0, rows, j]
            z_ctrl[d + 1:, j - 1:] += weighted[:, None] * carried[:d + 1, rows].T
            diag_ctrl[0, d + 1:] += wq_m[rows] * spike_m * spike_m
            diag_ctrl[1, d + 1:] += weighted * spike_f

        # initial: level 0, spikes of the terminal ages q >= Nt in rows q - Nt
        root = carried[1:] * np.sqrt(wa)
        q_init = root @ root.T
        z_init = np.zeros((size, nt))
        diag_init = np.zeros((2, size))
        if nt < size:
            rows = slice(0, size - nt)
            weighted = wa[rows] * spikes[1, rows, 0]
            z_init[nt:] = weighted[:, None] * carried[1:, rows].T
            diag_init[0, nt:] = wa[rows] * spikes[0, rows, 0] * spikes[0, rows, 0]
            diag_init[1, nt:] = weighted * spikes[1, rows, 0]
        self._forms = ((q_ctrl, q_init), (z_ctrl, z_init), (diag_ctrl, diag_init))
        return self._forms


class _Levels:
    """The renewal system U = I - gamma diag(c) K of one trace, and the closed
    forms it gives from the tables of ``_Renewal``.

    A non-finite fertility spoils the results; the caller checks them.
    """

    def __init__(self, tables, response, boundary_factor):
        self.tables = tables
        with np.errstate(over="ignore", invalid="ignore"):
            self.rate = boundary_factor[1:] * response[1:]  # bf r of the levels 1..Nt
            self.c = tables.h * boundary_factor[1:] * response[1:]
            self.system = np.eye(tables.nt) - (tables.gamma * self.c)[:, None] * tables.kernel
        self._amplitudes = None
        self._inverse = None

    def inverse(self):
        """U^-1, formed on first use; all NaN when the fertility is not finite."""
        if self._inverse is None:
            if np.isfinite(self.system).all():
                # U is unit upper triangular: LU swaps no rows
                self._inverse = np.linalg.inv(self.system)
            else:
                self._inverse = np.full(self.system.shape, np.nan)
        return self._inverse

    def gramian(self, half):
        """The control (``half`` 0) or initial (1) Gramian as ``GramianBlocks``;
        both share the young columns' amplitudes, solved on first use."""
        t = self.tables
        with np.errstate(over="ignore", invalid="ignore"):
            if self._amplitudes is None:
                source = np.zeros((t.nt, t.young))
                source[t.inject, np.arange(t.young)] = self.c[t.inject] * t.births
                # the system is unit upper triangular: LU finds no row to swap
                self._amplitudes = np.linalg.solve(self.system, source)
            amplitudes = self._amplitudes
            forms, cross, diag = t.gramian_forms()
            live = amplitudes.T @ (forms[half] @ amplitudes)
            live = 0.5 * (live + live.T)
            return _gram_blocks(live, cross[half] @ amplitudes, diag[half], *t.split)

    def adjoint(self, work_n, work_l, keep_l):
        """The (n, l, l_eff) lattice blocks, (N+1) x (Nt+1) x k, of the adjoint
        from (N+1) x k work blocks; l is None unless ``keep_l``.  Each column
        is solved and carried on its own, so a block equals its single
        columns bit for bit."""
        t = self.tables
        nt, size, k = t.nt, t.size, work_n.shape[1]
        inverse = self.inverse()
        n, l_eff = np.empty((2, k, size, nt + 1))
        l = np.empty((k, size, nt + 1)) if keep_l else None
        spike_f = np.empty((size, nt + 1))
        # a work column padded with zeros: row r at level j reads entry r + Nt - j,
        # and level j's birth source entry Nt - j
        padded = np.zeros((2, size + nt + 1))
        step = padded.strides[1]
        reach = as_strided(padded[:, nt:], shape=(2, size, nt + 1),
                           strides=(padded.strides[0], step, -step))
        source = padded[:, nt - 1::-1]
        alpha = np.zeros(nt + 2)  # [0, alpha_1, ..., alpha_Nt, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            for col in range(k):
                padded[0, :size], padded[1, :size] = work_n[:, col], work_l[:, col]
                np.multiply(t.lattice_spikes[0], reach[0], out=n[col])
                births = t.source_spikes[0] * source[0] + t.source_spikes[1] * source[1]
                alpha[1:nt + 1] = inverse @ (self.c * births)
                amplitudes = alpha[t.hankel]
                np.multiply(t.lattice_spikes[1], reach[1], out=spike_f)
                np.matmul(t.carried, amplitudes, out=l_eff[col])
                l_eff[col] += spike_f
                if keep_l:
                    np.matmul(t.carried[:, 1:], amplitudes[1:], out=l[col])
                    l[col] += spike_f
                    l[col, :, 0] = l_eff[col, :, 0]  # no feedback at level 0
        return tuple(None if a is None else a.transpose(1, 2, 0) for a in (n, l, l_eff))

    def observe(self, m0, f0, source_m, source_f, male):
        """The fertile-male trace at every level (None unless ``male``) and
        the stacked terminal (male, female) profiles of the forward map from
        the profiles (m0, f0), with the (N+1) x (Nt+1) lattices of control
        sources ``source_m``, ``source_f`` (None for none) the step loop adds.

        The births B of the levels 1..Nt solve
        (I - gamma diag(c) K^T) B = rate (d + d_v), where d_n = h (T_n psi) . f0
        is the birth integral of f0 carried n levels and
        d_v_n = h sum_k (T_{n-k} psi) . source_f[:, k] that of the female
        sources; since that matrix times diag(rate) is diag(rate) U^T,
        B = rate U^-T (d + d_v).  The data, the sources and the births reach
        the terminal level by the spike products, and the male trace by
        ``male_carried`` (``_Renewal.forward_tables``), each summed along its
        characteristics.
        """
        t = self.tables
        old = t.size - t.young
        with np.errstate(over="ignore", invalid="ignore"):
            data = t.h * (f0 @ t.carried[:, 1:])
            if source_f is not None:
                data = data + t.h * t.along_levels(t.carried.T @ source_f)[1:]
            births = self.rate * (self.inverse().T @ data)
            young = births[t.inject]
            terminal = np.concatenate([t.born[0] * ((1.0 - t.gamma) * young),
                                       t.old[0] * m0[:old],
                                       t.born[1] * (t.gamma * young), t.old[1] * f0[:old]])
            for slot, source in enumerate((source_m, source_f)):
                if source is not None:
                    terminal[slot * t.size:(slot + 1) * t.size] += t.to_terminal(slot, source)
            if not male:
                return None, terminal
            # the male block the male trace integrates: data at level 0, births
            # at age 0 and the male sources
            block = np.zeros((t.size, t.nt + 1)) if source_m is None else source_m.copy()
            block[:, 0] = m0
            block[0, 1:] = (1.0 - t.gamma) * births
            return t.along_levels(t.forward_tables()[0].T @ block), terminal


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
    fertility = model.fertility
    # a separable fertility's age profile, evaluated once per solve: each level
    # then forms the products phi(a) r(p) of a per-level call from one scalar
    profile = (np.asarray(fertility.age_profile(ages), dtype=float)
               if fertility.separable else None)

    def fertility_row(j, male):
        # the sweep goes on past a non-finite level and reports it at the end;
        # the rate function only ever sees integrals of finite rows
        if not np.isfinite(male).all():
            return np.full(ages.size, np.nan)
        # level 0 weighs the whole initial profile, later levels the
        # transported interior rows before the births
        cut = 0 if j == 0 else 1
        level_p = float(np.dot(wa[cut:], lam[cut:] * male[:, 0]))
        if profile is None:
            return np.asarray(fertility(ages, level_p), dtype=float)
        return profile * fertility.response(np.asarray(level_p, dtype=float))

    m, f, male_trace, birth_trace = transport._step_loop(m0, f0, vm, vf, fertility_row)
    return StateSolution(
        m=Field2D(grid, m), f=Field2D(grid, f),
        fertile_male_trace=male_trace, birth_trace=birth_trace,
    )

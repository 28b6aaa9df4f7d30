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
Both take their trace-independent tables, the work weights theta = wa / h
and a separable fertility's age profile included, from `_Transport`.

Step order is explicit because the male weight vanishes at age zero and
fertility vanishes below the onset age; when a scenario violates the
onset cutoff the birth integral gets one extra boundary sweep, which the
adjoint reproduces exactly (the `boundary_factor` below).

For a frozen trace the map is linear, and `FrozenOperator` holds everything
its forward map and exact transpose need, built once per trace;
`FrozenOperator.retrace` gives the operator of another trace that shares
every trace-independent table.  The forward map and the adjoint each take
a single age profile; only the backward sweep (`adjoint_levels`) takes an
(N+1) x k block of columns, which the Gramian assembly of a fertility that
is not separable sweeps at once.

`FrozenOperator.forward` (the whole lattice) always runs the step loop,
and `solve_forward` with a frozen trace packages its result.  The parts
of the forward map a penalty stage reads (`FrozenOperator.observe`: the
fertile-male trace and the terminal state, controls included), the
transpose and the control and initial Gramians take one of two paths, by
the kind of fertility.  Separable fertility phi(a) r(p) is tabulated from
one vector call of r per trace, and the birth law, the only coupling
between ages, reduces to a discrete renewal equation on the Nt time
levels (`_Renewal`).  Its trace-independent tables
are built once and shared by retraced operators; per trace one triangular
system (`_Levels`) gives the Gramians, the whole adjoint lattice of a
work pair and the controlled male trace and terminal state in closed
form, with no level loop.  Any other fertility is evaluated once per
level: its adjoint is the backward sweep (`FrozenOperator.adjoint_levels`),
its `observe` the step loop, and its Gramians come from one batched sweep
of min(Nt, N+1) columns, one per terminal age young enough to reach age 0
(`FrozenOperator._assemble_gramians`).  Those sweeps are also the oracles
the closed forms are tested against.  Both paths give the same Gram sums;
`popctrl.gramian` lays them out in block form and makes every solve with
them.

One rule, `carry`, builds every survival table: the spikes of the terminal
unit vectors (`FrozenOperator._spike_lattice`) and the profiles the closed
forms carry.  The spike lattice and the Gramians' `spike_terms` are built
once per operator family, and both Gramian paths read them.
"""

import copy
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConsistencyError, DimensionError, NumericalFailure
from .gramian import _PairBasis, _gram_blocks, birth_shares
from .grid import Field2D, region_mask, region_weights
from .model import ControlMode


@dataclass
class StateSolution:
    m: Field2D
    f: Field2D
    fertile_male_trace: np.ndarray  # integral of weight * m per time node
    birth_trace: np.ndarray         # integral of fertility * f per time node
    frozen_trace: np.ndarray = None  # trace the fertility was evaluated at, None if nonlinear


def control_windows(geom):
    """The (male, female) control windows of the geometry's mode; None for a
    sex the mode leaves uncontrolled.  A male-only control acts on
    (0, male_window[1])."""
    if geom.mode is ControlMode.MALE_ONLY:
        return (0.0, geom.male_window[1]), None
    if geom.mode is ControlMode.FEMALE_ONLY:
        return None, geom.female_window
    return geom.male_window, geom.female_window


def control_masks(grid, geom):
    """Nodal region masks of the (male, female) ``control_windows``; zero for
    an uncontrolled sex."""
    return tuple(np.zeros(grid.num_age_cells + 1) if window is None
                 else region_mask(grid, *window) for window in control_windows(geom))


def terminal_weights(grid, geom):
    """Quadratic-form weights (W_m, W_f) of the targeted terminal entries.

    None marks a slot the mode does not target.  A male-only target leaves
    out the ages below ``target_min_age``, and the node at it (within the
    grid tolerance) has half weight.  The penalty, the reported norms and
    the observability forms all read their terminal entries here.
    """
    wa = grid.age_weights()
    if geom.mode is ControlMode.MALE_ONLY:
        if geom.target_min_age > 0:
            return grid.step * region_mask(grid, geom.target_min_age, grid.max_age), None
        return wa, None
    if geom.mode is ControlMode.FEMALE_ONLY:
        return None, wa
    return wa, wa


def stacked_terminal_weights(grid, geom):
    """The ``terminal_weights`` stacked, male slot first, zero in an untargeted
    slot: the nonzero entries are the targeted ones."""
    zero = np.zeros(grid.num_age_cells + 1)
    return np.concatenate([zero if w is None else w for w in terminal_weights(grid, geom)])


def carry(profile, survival, levels):
    """``profile`` carried 0..``levels`` levels down its rows by the survival
    ratios s (a leading axis, one per sex, alongside): column d, row r is
    s[r+1] (s[r+2] (... (s[r+d] profile[r+d]))) in the sweep's order, 0 past
    the grid."""
    table = np.zeros(np.shape(profile) + (levels + 1,))
    table[..., 0] = profile
    for d in range(1, levels + 1):
        table[..., :-1, d] = survival[..., 1:] * table[..., 1:, d - 1]
    return table


def spike_terms(spikes, weights, levels):
    """(diag, weighted) of one Gramian from the ``spikes`` S of the levels
    Nt - d for d in ``levels``, with row weights w = ``weights``: diag[s, r + d]
    sums w_s[r] S_s[r, Nt - d]^2, and weighted[d] is w_f S_f[:, Nt - d], the
    factor of the female spikes' products with the responses.  A row whose
    spike feeds a birth weighs zero."""
    size, nt = spikes.shape[1], spikes.shape[2] - 1
    diag = np.zeros((2, size))
    weighted = {}
    for d in levels:
        spike = spikes[:, :size - d, nt - d]
        terms = weights[:, :size - d] * spike
        diag[:, d:] += terms * spike
        weighted[d] = terms[1]
    return diag, weighted


def _shaped(values, shape, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def _as_profile(values, grid, name):
    arr = _shaped(values, (grid.num_age_cells + 1,), name)
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
    return _shaped(v, (grid.num_age_cells + 1, grid.num_time_cells + 1), name)


class _Transport:
    """The trace-independent tables of the sweeps, and the forward step loop.

    Holds the survival ratios, the male fertility weight lambda, the
    trapezoid weights wa and the work weights theta = wa / h, the control
    masks, the female fraction and, for a separable fertility, its age
    profile; the nonlinear solve and every frozen-trace operator build them
    here, and their callers read them here.
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
        self.theta = self.wa / grid.step
        self.mask_m, self.mask_f = control_masks(grid, geom)
        self.gamma = model.female_fraction
        self.fertility = fertility = model.fertility
        self.age_profile = (np.asarray(fertility.age_profile(self.ages), dtype=float)
                            if fertility.separable else None)

    def _step_loop(self, m0, f0, v_m, v_f, fertility_row):
        """Forward sweep; returns (m, f, fertile-male trace, birth trace).

        ``m0``/``f0`` are (N+1,) profiles and the controls None or
        (N+1, Nt+1) lattice arrays; the callers check them.
        ``fertility_row(j, male)`` returns the fertility over the age nodes
        at level j; ``male`` is the male profile its argument would
        integrate: the whole initial profile at level 0, the transported
        interior rows before the births at level j >= 1.
        """
        na, nt = self.grid.num_age_cells, self.grid.num_time_cells
        h = self.grid.step
        s_m, s_f = self.s_m[1:], self.s_f[1:]
        lam, wa = self.lam, self.wa
        gamma = self.gamma
        hmask_m, hmask_f = h * self.mask_m[1:], h * self.mask_f[1:]

        m = np.zeros((na + 1, nt + 1))
        f = np.zeros((na + 1, nt + 1))
        m[:, 0] = m0
        f[:, 0] = f0
        male_trace = np.zeros(nt + 1)
        birth_trace = np.zeros(nt + 1)
        # interior weights exclude node 0: the male weight and the fertility both
        # contribute nothing there under the standing hypotheses
        wa_int = wa[1:]

        beta = fertility_row(0, m0)
        # one boundary sweep: exact when fertility vanishes at age zero
        factor = 1.0 + gamma * wa[0] * beta[0]
        male_trace[0] = float(np.dot(wa, lam * m0))
        birth_trace[0] = factor * float(np.dot(wa_int, beta[1:] * f0[1:]))

        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(nt):
                # the transported interior rows, written in place
                mt, ft = m[1:, n + 1], f[1:, n + 1]
                np.multiply(s_m, m[:-1, n], out=mt)
                np.multiply(s_f, f[:-1, n], out=ft)
                if v_m is not None:
                    mt += hmask_m * v_m[1:, n + 1]
                if v_f is not None:
                    ft += hmask_f * v_f[1:, n + 1]
                beta = fertility_row(n + 1, mt)
                factor = 1.0 + gamma * wa[0] * beta[0]
                births = float(np.dot(wa_int, beta[1:] * ft)) * factor
                m[0, n + 1] = (1.0 - gamma) * births
                f[0, n + 1] = gamma * births
                birth_trace[n + 1] = births
                male_trace[n + 1] = float(np.dot(wa, lam * m[:, n + 1]))
        # one check of levels 1..Nt; the first non-finite level is searched
        # for only when there is one
        if not (np.isfinite(m[:, 1:]).all() and np.isfinite(f[:, 1:]).all()):
            finite = np.isfinite(m[:, 1:]).all(axis=0) & np.isfinite(f[:, 1:]).all(axis=0)
            step = int(np.argmin(finite)) + 1
            raise NumericalFailure(f"forward solve lost finiteness at step {step}",
                                   step=step)
        return m, f, male_trace, birth_trace


class FrozenOperator(_Transport):
    """The linear frozen-trace map and its exact transpose, for one trace.

    Holds the trace-independent tables and the fertility table
    beta(., trace[j]) of every time level, so the sweeps evaluate no rate
    function; for separable fertility also its age profile and its
    ``response`` at every level, the factors of that table, and the
    closed forms of ``_Renewal`` built from them on first use.

    The forward map and the adjoint take (N+1,) profiles; the backward
    sweep ``adjoint_levels`` takes (N+1) x k blocks whose columns are
    independent right-hand sides.
    """

    def __init__(self, model, grid, geom, trace):
        super().__init__(model, grid, geom)
        self.region = np.stack([self.mask_m, self.mask_f])
        self.region[:, 0] = 0.0  # the age-zero node never couples to the controls
        self._geometry = self._renewal = self._shares = self._basis = None
        self._spikes = self._terms = None
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
        self._gramian_forms = [None, None]  # (control, initial)
        self._levels = None

    def geometry_tables(self):
        """(inner weights, supports, terminal weights): the ``region_weights``
        of the control masks, their nodes of nonzero weight, and the
        ``stacked_terminal_weights``; built on first use, as the renewal
        tables are."""
        if self._geometry is None:
            weights = tuple(region_weights(self.grid, mask) for mask in (self.mask_m, self.mask_f))
            self._geometry = (weights, tuple(w > 0 for w in weights),
                              stacked_terminal_weights(self.grid, self.geom))
        return self._geometry

    def retrace(self, trace):
        """The operator of the same model, grid and geometry for another trace.

        It shares every trace-independent table of this one, the geometry
        and renewal tables, the spike lattice and terms, the birth shares
        and the Gramians' basis included once they are built.
        """
        op = copy.copy(self)
        op._freeze(trace)
        return op

    def forward(self, m0, f0, v_m=None, v_f=None):
        """Forward sweep; returns (m, f, fertile-male trace, birth trace).

        ``m0``/``f0`` are (N+1,) profiles; controls are None or full lattice
        arrays of shape (N+1, Nt+1).  Raises DimensionError naming a wrong
        shape, and NumericalFailure with the first step at which the
        solution stops being finite; the lattice is checked once, after the
        sweep.
        """
        return self._step_loop(*self._arguments(m0, f0, v_m, v_f),
                               lambda j, male: self.beta[j])

    def _arguments(self, m0, f0, v_m, v_f):
        """The profiles and controls of ``forward`` as float arrays of their
        shapes; their values are not checked."""
        size = (self.grid.num_age_cells + 1,)
        return (_shaped(m0, size, "m0"), _shaped(f0, size, "f0"),
                _control_values(v_m, self.grid, "v_m"), _control_values(v_f, self.grid, "v_f"))

    def adjoint_levels(self, work_n, work_l, visit):
        """Backward sweep from weighted terminal work blocks, (N+1) x k
        each, level by level.

        Calls ``visit(j, n_j, l_j, l_eff_j)`` for j = Nt, ..., 0, each
        (N+1) x k: the male and female adjoint rows at level j and the
        female row with the same-level nonlocal feedback (equal to l_j at
        level 0).  The blocks are reused from level to level, so ``visit``
        must copy what it keeps.  The work arrays carry the terminal
        trapezoid weights (theta = wa / h).

        Raises DimensionError naming blocks of any other shape, and
        NumericalFailure with the index of the first level, in sweep
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
        """The work arrays as float (N+1) x k blocks of matching shape."""
        na = self.grid.num_age_cells
        wn, wl = np.asarray(work_n, dtype=float), np.asarray(work_l, dtype=float)
        if wn.ndim != 2 or wn.shape != wl.shape or wn.shape[0] != na + 1:
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
        theta = self.theta[:, None]
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
        """The whole adjoint; returns (n, l, n_eff, l_eff), (N+1) x (Nt+1)
        lattice arrays, from the (N+1,) work arrays.

        The rows at the terminal level are the work arrays themselves;
        ``n_eff`` equals ``n`` and ``l_eff`` adds the same-level feedback,
        as the duality identity and the objective gradient require.
        Separable fertility takes the closed form of ``_Levels.adjoint``,
        any other the backward sweep.  Raises DimensionError naming a wrong
        shape, and NumericalFailure naming the level at which the sweep
        stops being finite.
        """
        n, l, l_eff = self._adjoint_lattices(work_n, work_l, keep_l=True)
        return n, l, n.copy(), l_eff

    def adjoint_images(self, work_n, work_l):
        """The (n, l_eff) lattices of ``adjoint``, (N+1) x (Nt+1): the rows
        that pair with the male and female controls."""
        n, _, l_eff = self._adjoint_lattices(work_n, work_l, keep_l=False)
        return n, l_eff

    def _adjoint_lattices(self, work_n, work_l, keep_l):
        """(n, l, l_eff) lattices of the adjoint; l is None unless ``keep_l``."""
        size = (self.grid.num_age_cells + 1,)
        wn, wl = _shaped(work_n, size, "work_n"), _shaped(work_l, size, "work_l")
        if self.age_profile is not None:
            lattices = self._renewal_levels().adjoint(wn, wl, keep_l)
            if not all(np.isfinite(a).all() for a in lattices if a is not None):
                # the sweep names the first level that stops being finite
                self.adjoint_levels(wn[:, None], wl[:, None], lambda *rows: None)
                raise NumericalFailure("adjoint solve lost finiteness")
            return lattices
        shape = size + (self.grid.num_time_cells + 1, 1)  # the sweep's column axis last
        n_rows, l_eff = np.zeros(shape), np.zeros(shape)
        l_rows = np.zeros(shape) if keep_l else None

        def store(j, n_j, l_j, l_eff_j):
            n_rows[:, j] = n_j
            l_eff[:, j] = l_eff_j
            if keep_l:
                l_rows[:, j] = l_j

        self.adjoint_levels(wn[:, None], wl[:, None], store)
        return tuple(None if a is None else a[..., 0] for a in (n_rows, l_rows, l_eff))

    def observe(self, m0, f0, v_m=None, v_f=None):
        """The parts of the forward map a penalty stage reads: the fertile-male
        trace at every level, (Nt+1,), and the stacked terminal (male, female)
        profiles, (2(N+1),).

        Arguments as in ``forward``.  Separable fertility takes the closed
        form of ``_Levels.observe``, any other the step loop.  Raises
        DimensionError naming a wrong shape, and NumericalFailure naming the
        first step at which the step loop stops being finite.
        """
        return self._observe(m0, f0, v_m, v_f, male=True)

    def uncontrolled_terminal(self, m0, f0):
        """Stacked terminal (male, female) profiles of the forward map from the
        profiles ``m0``, ``f0`` without controls, as ``observe`` gives them."""
        return self._observe(m0, f0, None, None, male=False)[1]

    def _observe(self, m0, f0, v_m, v_f, male):
        """``observe``; the closed form skips the male trace (None) unless
        ``male``."""
        m0, f0, v_m, v_f = self._arguments(m0, f0, v_m, v_f)
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
        male_trace, terminal = self._renewal_levels().observe(m0, f0, *sources, male)
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
        """(control, initial) Gramians of the terminal unit work vectors on
        the entries ``terminal_weights`` targets, in the block form of
        ``gramian.GramianBlocks``.

        Built on first use and cached: they do not depend on the penalty
        weights.  Their ingredients come from the closed form of ``_Levels``
        for separable fertility and from the sweep of ``_assemble_gramians``
        for any other.  Entry (p, q) of the control Gramian is the
        control-space inner product
        h^2 * sum over levels >= 1 and ages >= 1 of
        (mask_m * n_p * n_q + mask_f * l_eff_p * l_eff_q), where (n_p, l_eff_p)
        is the backward sweep from the work pair whose stacked entry p is 1
        (entries 0..N are the male slot, N+1..2N+1 the female one); entry
        (p, q) of the initial one is sum over ages of wa * (n_p * n_q + l_p * l_q)
        at level 0.
        """
        return self.control_gramian(), self._gramian(1)

    def control_gramian(self):
        """The control Gramian of ``gramians``; for separable fertility the
        initial one is not built."""
        return self._gramian(0)

    def _gramian(self, half):
        """The control (``half`` 0) or initial (1) Gramian of ``gramians``;
        the sweep builds both at once, the closed form the one asked for."""
        forms = self._gramian_forms
        if forms[half] is None:
            if self.age_profile is None:
                forms[:] = [_gram_blocks(*parts, self._pair_basis())
                            for parts in self._assemble_gramians()]
            else:
                parts = self._renewal_levels().gramian(half, self._spike_terms())
                if not all(np.isfinite(part).all() for part in parts):
                    # the sweep names the first level that stops being finite
                    self._assemble_gramians()
                    raise NumericalFailure("Gramian assembly lost finiteness")
                forms[half] = _gram_blocks(*parts, self._pair_basis())
        return forms[half]

    def _spike_lattice(self):
        """``carry`` of the unit profiles of both slots, in level order: entry
        (s, r, j) is the spike of terminal age r + Nt - j of slot s, in row r
        at level j; built on first use and shared by retraced operators."""
        if self._spikes is None:
            self._spikes = carry(np.ones((2, self.grid.num_age_cells + 1)),
                                 np.stack([self.s_m, self.s_f]),
                                 self.grid.num_time_cells)[..., ::-1].copy()
        return self._spikes

    def _spike_terms(self):
        """The ``spike_terms`` of the control (levels 1..Nt, weights h^2
        ``region``) and initial (level 0, weights wa) Gramians; built on
        first use and shared by retraced operators."""
        if self._terms is None:
            nt, size = self.grid.num_time_cells, self.grid.num_age_cells + 1
            h, spikes = self.grid.step, self._spike_lattice()
            self._terms = (spike_terms(spikes, h * h * self.region, range(min(nt, size))),
                           spike_terms(spikes, np.stack([self.wa, self.wa]),
                                       range(nt, min(nt + 1, size))))
        return self._terms

    def _birth_shares(self):
        """(born, births, shares) of the young terminal ages: their spikes at
        age 0, at level Nt - p, and the ``gramian.birth_shares`` of those;
        built on first use and shared by retraced operators."""
        if self._shares is None:
            nt = self.grid.num_time_cells
            young = min(nt, self.grid.num_age_cells + 1)
            born = self._spike_lattice()[:, 0, nt:nt - young:-1]
            self._shares = (born, *birth_shares(born, self.gamma))
        return self._shares

    def _pair_basis(self):
        """The ``_PairBasis`` of the targeted entries for the birth shares,
        built on first use and shared by retraced operators."""
        if self._basis is None:
            targeted = self.geometry_tables()[2] > 0
            self._basis = _PairBasis(*self._birth_shares()[2], *np.split(targeted, 2))
        return self._basis

    def _assemble_gramians(self):
        """One batched sweep of min(Nt, N+1) columns, laid out by transport.

        The Gramians of a fertility that is not separable come from here; a
        separable one takes ``_Renewal``, and comes here only to name the
        level at which a non-finite closed form stops being finite.

        The male row has no source, so until terminal age p reaches age 0, at
        level Nt - p, both of its unit vectors stay single transported
        spikes (``_spike_lattice``); a terminal age p >= Nt reaches age 0
        only at level 0, after the last feedback, so its spikes never end.
        Their terms are the family's ``_spike_terms``, so only the
        min(Nt, N+1) younger ages are swept, each in one column that starts
        from its unit vector in both slots: at level Nt - p its two spikes,
        of values s_m and s_f there, inject one birth source, and from then
        on the column carries the response R_p to it, in the female rows
        only.  From that level on, the male unit vector's image is a_p R_p
        and the female one's b_p R_p, in the ``gramian.birth_shares``
        (a_p, b_p) of the pair basis.  So the dense product runs over the
        female rows of the live columns only, and the products of the female
        spikes with the live columns are read off single rows.  The control
        Gramian sums the region-weighted rows l_eff_j of the levels j >= 1,
        the initial one the trapezoid-weighted rows l_0 of level 0.

        Returns the (live, cross, diag) ingredients of the (control,
        initial) Gramians, the arguments of ``gramian._gram_blocks``.
        """
        nt, size = self.grid.num_time_cells, self.grid.num_age_cells + 1
        terms = self._spike_terms()
        control = _LiveGram(nt, size, self.grid.step, self.region[1], terms[0][1])
        initial = _LiveGram(nt, size, 1.0, self.wa, terms[1][1])

        def collect(j, n_j, l_j, l_eff_j):
            if j == 0:
                initial.add(j, l_j)
            else:
                control.add(j, l_eff_j)

        units = np.eye(size, min(nt, size))
        self.adjoint_levels(units, units, collect)
        return tuple((gram.gram_live, gram.spike_cross, diag)
                     for gram, (diag, _) in zip((control, initial), terms))


class _LiveGram:
    """Weighted Gram sums over the levels of the sweep of ``_assemble_gramians``.

    With the row weights scale^2 * weight, accumulates the female-row Gram
    matrix of the live young columns and, from the ``weighted`` female
    spikes of ``spike_terms``, their products with the live columns: the
    live and cross ingredients of ``_gram_blocks``.
    """

    def __init__(self, nt, size, scale, weight, weighted):
        self.nt, self.weighted = nt, weighted
        self.young = young = min(nt, size)
        self.rows = np.nonzero(weight)[0]
        self.root = (scale * np.sqrt(weight[self.rows]))[:, None]
        self.region = np.empty(self.rows.size * young)
        self.gram_live = np.zeros((young, young))
        # rows: female spike by terminal age; columns: the live young columns
        self.spike_cross = np.zeros((size, young))

    def add(self, j, l_rows):
        shift = self.nt - j
        # the young columns p <= Nt - j have reached age 0
        live = min(shift + 1, self.young)
        region = self.region[:self.rows.size * live].reshape(-1, live)
        np.multiply(self.root, l_rows[self.rows, :live], out=region)
        gram = self.gram_live[:live, :live]
        np.add(gram, region.T @ region, out=gram)
        # every other terminal age p is a spike in row p - (Nt - j)
        weighted = self.weighted.get(shift)
        if weighted is not None:
            self.spike_cross[shift:, :live] += weighted[:, None] * l_rows[:weighted.size, :live]


class _Renewal:
    """The trace-independent tables of the closed forms, for separable
    fertility beta(a, p) = phi(a) r(p), of one model, grid and geometry.

    The feedback of the backward sweep at level j is then psi c_j q_j: one
    fixed age profile psi = (wa / h) phi times c_j = h bf_j r_j, bf_j the
    level's boundary factor, times the level's birth source
    q_j = (1 - gamma) n_j[0] + gamma l_j[0].  Let T_d psi be psi carried d
    levels down the female rows (``carried``, by ``carry``) and kappa_d its
    age-0 entry.  Apart from the feedbacks, the work entry of terminal age q
    is a spike that the sweep carries down its row: d levels below the
    terminal one it sits in row q - d, times a survival product (the
    operator's ``_spike_lattice``), and at level Nt - q it reaches age 0.
    So the feedback amplitudes alpha_j = c_j q_j of any work pair solve the
    discrete renewal equation (I - gamma diag(c) K) alpha = c e, with
    K[j, k] = kappa_{k-j} for k > j and e_j the birth source of the spikes
    that reach age 0 at level j.  The female row l_j is its spike plus the
    sum over k > j of alpha_k T_{k-j} psi, a Hankel product in alpha, and
    l_eff_j adds alpha_j psi.

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
    Z0 at level 0; the spike terms are the family's ``spike_terms``.  Only
    c depends on the trace (``_Levels``), so everything else is tabulated
    here, once.
    """

    def __init__(self, op):
        na, nt = op.grid.num_age_cells, op.grid.num_time_cells
        h = op.grid.step
        size = na + 1
        self.nt, self.size, self.h, self.gamma = nt, size, h, op.gamma
        self.young = young = min(nt, size)
        self.weights = (h * h * op.region[1], op.wa)

        # carried[:, d] is T_d psi
        self.carried = carried = carry(op.theta * op.age_profile, op.s_f, nt)
        self.lattice_spikes = spikes = op._spike_lattice()

        # K[j, k] = kappa_{k-j} above the diagonal
        lag = np.arange(nt)[None, :] - np.arange(nt)[:, None]
        self.kernel = np.where(lag > 0, carried[0, np.maximum(lag, 0)], 0.0)
        # (s_m, s_f) of each young age at age 0, and its birth source
        self.born, self.births, _ = op._birth_shares()
        self.inject = nt - 1 - np.arange(young)  # row of level Nt - p among levels 1..Nt
        # the birth source of level j = 1..Nt: the spikes of terminal age Nt - j
        # at age 0, in the shares of the birth law
        self.source_spikes = np.array([[1.0 - op.gamma], [op.gamma]]) * spikes[:, 0, 1:]
        # l_eff - spike = carried @ A with the Hankel matrix A[d, j] = alpha_{j+d},
        # read from the amplitudes padded as [0, alpha_1, ..., alpha_Nt, 0];
        # l drops the term d = 0
        self.hankel = np.minimum(np.arange(nt + 1)[:, None] + np.arange(nt + 1), nt + 1)

        # the forward map: the terminal ages >= Nt carry the initial data by the
        # spikes of level 0
        self.old = spikes[:, :size - young, 0]
        self.male_weight, self.s_m = op.wa * op.lam, op.s_m
        self._forward = None
        self._forms = None

    def forward_tables(self):
        """The tables of ``_Levels.observe``, built on first use:
        ``male_carried``, whose column d is wa * lambda ``carry``-ed d levels
        down the male rows, so that its entry r weighs the male trace d
        levels after a value in row r; the level d + k that entry (d, k) of
        a product with a source lattice reaches; and the terminal age
        r + Nt - k that the source in row r at level k reaches."""
        if self._forward is None:
            nt, size = self.nt, self.size
            levels = np.arange(nt + 1)
            self._forward = (carry(self.male_weight, self.s_m, nt),
                             (levels[:, None] + levels).ravel(),
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

    def gramian_forms(self, terms):
        """The (forms, cross) tables of the (control, initial) Gramians, from
        the operator family's ``spike_terms`` ``terms``; built on first use."""
        if self._forms is not None:
            return self._forms
        nt, size = self.nt, self.size
        wq_f, wa = self.weights
        carried = self.carried.T  # carried[d] is T_d psi
        # control: levels j = Nt - d >= 1, spikes in rows r = q - d
        root = carried[:nt] * np.sqrt(wq_f)
        q_ctrl = root @ root.T  # Q[k, k'] = sum_j G[k - j, k' - j], G this Gram matrix
        for k in range(1, nt):
            q_ctrl[k, 1:] += q_ctrl[k - 1, :-1]
        z_ctrl = np.zeros((size, nt))
        for d, weighted in terms[0][1].items():
            z_ctrl[d:, nt - d - 1:] += weighted[:, None] * carried[:d + 1, :size - d].T

        # initial: level 0, spikes of the terminal ages q >= Nt in rows q - Nt
        root = carried[1:] * np.sqrt(wa)
        q_init = root @ root.T
        z_init = np.zeros((size, nt))
        for d, weighted in terms[1][1].items():
            z_init[d:] = weighted[:, None] * carried[1:, :size - d].T
        self._forms = ((q_ctrl, q_init), (z_ctrl, z_init))
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

    def gramian(self, half, terms):
        """The (live, cross, diag) ingredients of the control (``half``
        0) or initial (1) Gramian (see ``FrozenOperator._assemble_gramians``),
        with the operator family's ``spike_terms`` ``terms``; both share the
        young columns' amplitudes, solved on first use."""
        t = self.tables
        with np.errstate(over="ignore", invalid="ignore"):
            if self._amplitudes is None:
                source = np.zeros((t.nt, t.young))
                source[t.inject, np.arange(t.young)] = self.c[t.inject] * t.births
                # the system is unit upper triangular: LU finds no row to swap
                self._amplitudes = np.linalg.solve(self.system, source)
            amplitudes = self._amplitudes
            forms, cross = t.gramian_forms(terms)
            live = amplitudes.T @ (forms[half] @ amplitudes)
            live = 0.5 * (live + live.T)
            return live, cross[half] @ amplitudes, terms[half][0]

    def adjoint(self, work_n, work_l, keep_l):
        """The (n, l, l_eff) lattices, (N+1) x (Nt+1), of the adjoint from
        the (N+1,) work arrays; l is None unless ``keep_l``."""
        t = self.tables
        nt, size = t.nt, t.size
        # the work arrays padded with zeros: row r at level j reads entry
        # r + Nt - j, and level j's birth source entry Nt - j
        padded = np.zeros((2, size + nt + 1))
        padded[0, :size], padded[1, :size] = work_n, work_l
        step = padded.strides[1]
        reach = as_strided(padded[:, nt:], shape=(2, size, nt + 1),
                           strides=(padded.strides[0], step, -step))
        source = padded[:, nt - 1::-1]
        alpha = np.zeros(nt + 2)  # [0, alpha_1, ..., alpha_Nt, 0]
        l = None
        with np.errstate(over="ignore", invalid="ignore"):
            n = t.lattice_spikes[0] * reach[0]
            births = t.source_spikes[0] * source[0] + t.source_spikes[1] * source[1]
            alpha[1:nt + 1] = self.inverse() @ (self.c * births)
            amplitudes = alpha[t.hankel]
            spike_f = t.lattice_spikes[1] * reach[1]
            l_eff = t.carried @ amplitudes
            l_eff += spike_f
            if keep_l:
                l = t.carried[:, 1:] @ amplitudes[1:]
                l += spike_f
                l[:, 0] = l_eff[:, 0]  # no feedback at level 0
        return n, l, l_eff

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
        op = FrozenOperator(model, grid, geom, frozen_trace)
        m, f, male_trace, birth_trace = op.forward(m0, f0, vm, vf)
        frozen_trace = op.trace
    else:
        transport = _Transport(model, grid, geom)
        ages, lam, wa = transport.ages, transport.lam, transport.wa
        fertility, profile = transport.fertility, transport.age_profile

        def fertility_row(j, male):
            # the sweep goes on past a non-finite level and reports it at the
            # end; the rate function only ever sees integrals of finite rows
            if not np.isfinite(male).all():
                return np.full(ages.size, np.nan)
            # level 0 weighs the whole initial profile, later levels the
            # transported interior rows before the births
            cut = 0 if j == 0 else 1
            level_p = float(np.dot(wa[cut:], lam[cut:] * male))
            if profile is None:
                return np.asarray(fertility(ages, level_p), dtype=float)
            # the products phi(a) r(p) of a per-level call, from one scalar
            return profile * fertility.response(np.asarray(level_p, dtype=float))

        m, f, male_trace, birth_trace = transport._step_loop(m0, f0, vm, vf, fertility_row)
    return StateSolution(m=Field2D(grid, m), f=Field2D(grid, f), fertile_male_trace=male_trace,
                         birth_trace=birth_trace, frozen_trace=frozen_trace)

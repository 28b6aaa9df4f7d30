"""Characteristics-aligned age x time lattice and field storage.

The step is shared between age and time (da = dt = h) so characteristics
pass exactly through lattice points.  h is adjusted downward from the
requested target so that it divides both the maximal age and the horizon;
the horizon is never altered because the controllability time thresholds
are strict.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, DimensionError, DomainError

_MAX_CELLS = 50_000_000  # guard against absurd commensurability denominators


@dataclass(frozen=True)
class CharGrid:
    step: float
    num_age_cells: int
    num_time_cells: int

    @property
    def max_age(self):
        return self.step * self.num_age_cells

    @property
    def horizon(self):
        return self.step * self.num_time_cells

    def ages(self):
        return self.step * np.arange(self.num_age_cells + 1)

    def times(self):
        return self.step * np.arange(self.num_time_cells + 1)

    def age_weights(self):
        """Trapezoid weights over age: h at interior nodes, h/2 at the ends."""
        w = np.full(self.num_age_cells + 1, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def time_weights(self):
        w = np.full(self.num_time_cells + 1, self.step)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def build_grid(max_age, horizon, target_h):
    """Largest common step h <= target_h with Na*h = max_age and Nt*h = horizon."""
    # NaN fails every range check below, so it is caught here
    if not all(np.isfinite(x) for x in (max_age, horizon, target_h)):
        raise ConfigurationError(f"max_age={max_age}, horizon={horizon} and "
                                 f"target_h={target_h} must be finite")
    if max_age <= 0 or horizon <= 0:
        raise ConfigurationError("max_age and horizon must be positive")
    if target_h <= 0:
        raise ConfigurationError("target_h must be positive")
    if target_h >= min(max_age, horizon):
        raise ConfigurationError(
            f"target_h={target_h} must be smaller than min(max_age, horizon)="
            f"{min(max_age, horizon)}")
    fa = Fraction(max_age).limit_denominator(10**6)
    ft = Fraction(horizon).limit_denominator(10**6)
    from math import gcd
    num = gcd(fa.numerator * ft.denominator, ft.numerator * fa.denominator)
    den = fa.denominator * ft.denominator
    g = Fraction(num, den)  # exact common divisor of the rational snaps
    splits = int(np.ceil(float(g) / target_h - 1e-12))
    h_frac = g / splits
    na = int(fa / h_frac)
    nt = int(ft / h_frac)
    if na * nt > _MAX_CELLS:
        raise ConfigurationError(
            f"max_age={max_age} and horizon={horizon} are not commensurate at a "
            f"workable resolution (would need {na} x {nt} cells)")
    h = max_age / na
    if abs(nt * h - horizon) > 16 * np.finfo(float).eps * max(1.0, horizon):
        raise ConfigurationError(
            f"cannot represent horizon={horizon} with step {h}")
    return CharGrid(step=h, num_age_cells=na, num_time_cells=nt)


@dataclass
class Field2D:
    """Scalar field on the lattice, indexed [age node, time node]."""

    grid: CharGrid
    values: np.ndarray

    @staticmethod
    def from_values(grid, values):
        values = np.asarray(values, dtype=float)
        expected = (grid.num_age_cells + 1, grid.num_time_cells + 1)
        if values.shape != expected:
            raise DimensionError(f"field shape {values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(values)):
            raise DimensionError("field contains non-finite values")
        return Field2D(grid, values)


def integrate_age(values, grid):
    """Composite trapezoid over one age profile; exact on linear integrands."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_age_cells + 1,):
        raise DimensionError(
            f"age slice has length {values.shape}, expected {grid.num_age_cells + 1}")
    return float(np.dot(grid.age_weights(), values))


def region_mask(grid, lo, hi):
    """Quadrature-consistent indicator of the age window (lo, hi).

    1 strictly inside, 0 outside, 1/2 on nodes lying exactly on the window
    boundary, so that sums weighted by h * mask reproduce trapezoid
    integrals over the window when it is grid-aligned.
    """
    if not (lo < hi):
        raise DomainError(f"region_mask: window ({lo}, {hi}) is inverted or empty")
    ages = grid.ages()
    tol = 1e-9 * max(1.0, grid.max_age)
    mask = np.where((ages > lo + tol) & (ages < hi - tol), 1.0, 0.0)
    mask[np.abs(ages - lo) <= tol] = 0.5
    mask[np.abs(ages - hi) <= tol] = 0.5
    return mask


def region_weights(grid, mask):
    """Lattice weights h^2 mask of ``adjoint.region_inner``; level 0 and the
    age-zero node, which never couple to the state, weigh zero."""
    weights = np.zeros((grid.num_age_cells + 1, grid.num_time_cells + 1))
    weights[1:, 1:] = (grid.step * grid.step * mask[1:])[:, None]
    return weights


def lattice_inner(weights, u, v):
    """sum(weights * u * v) over the lattice, as one fused product."""
    return float(np.vdot(weights * u, v))


def write_field_csv(path, field):
    """Dump as 'age,time,value' rows, time-major then age.

    The bytes are those of ``csv.writer``'s default dialect: no formatted
    number needs quoting, and every line ends in CR LF.  A per-field template
    holds the age strings; each level formats its time and values into it
    with one ``%``.
    """
    grid = field.grid
    ages = grid.ages().tolist()
    template = "".join(f"{a:.17g},%s,%.17g\r\n" for a in ages)
    args = [None] * (2 * len(ages))  # time, value of each row
    with open(path, "w", newline="") as handle:
        handle.write("age,time,value\r\n")
        for t, column in zip(grid.times().tolist(), field.values.T.tolist()):
            args[0::2] = [f"{t:.17g}"] * len(ages)
            args[1::2] = column
            handle.write(template % tuple(args))


def read_field_csv(path, grid):
    """Load a field dumped by write_field_csv back onto ``grid``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["age", "time", "value"]:
            raise DimensionError(f"{path}: expected header age,time,value")
        rows = list(reader)
    expected = (grid.num_age_cells + 1) * (grid.num_time_cells + 1)
    if len(rows) != expected:
        raise DimensionError(f"{path}: {len(rows)} rows, expected {expected}")
    values = np.empty((grid.num_age_cells + 1, grid.num_time_cells + 1))
    k = 0
    for n in range(grid.num_time_cells + 1):
        for i in range(grid.num_age_cells + 1):
            values[i, n] = float(rows[k][2])
            k += 1
    return Field2D.from_values(grid, values)

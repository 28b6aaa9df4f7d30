import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popctrl import Field2D, build_grid, integrate_age, read_field_csv, region_mask, \
    write_field_csv
from popctrl.errors import ConfigurationError, DimensionError, DomainError


class TestBuildGrid:
    def test_exact_division(self):
        g = build_grid(1.0, 2.0, 0.1)
        assert g.step == pytest.approx(0.1)
        assert (g.num_age_cells, g.num_time_cells) == (10, 20)

    def test_incommensurate_shrinks_step(self):
        g = build_grid(1.0, 1.05, 0.1)
        assert g.step == pytest.approx(0.05)
        assert (g.num_age_cells, g.num_time_cells) == (20, 21)

    def test_brute_force_oracle(self):
        # largest h <= target dividing both lengths, by explicit search over
        # candidate cell counts
        max_age, horizon, target = 1.0, 1.05, 0.1
        best = 0.0
        for na in range(1, 2000):
            h = max_age / na
            if h > target + 1e-12:
                continue
            nt = horizon / h
            if abs(nt - round(nt)) < 1e-9:
                best = max(best, h)
        g = build_grid(max_age, horizon, target)
        assert g.step == pytest.approx(best)

    def test_oversized_target_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(1.0, 1.0, 2.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_input_rejected(self, bad, slot):
        # NaN passes every range check, and used to reach int(np.ceil(nan))
        args = [1.0, 0.5, 1.0 / 16]
        args[slot] = bad
        with pytest.raises(ConfigurationError, match="must be finite"):
            build_grid(*args)

    @pytest.mark.parametrize("max_age, horizon, target_h, message", [
        (0.0, 0.35, 0.1, "max_age and horizon must be positive"),
        (1.0, -0.35, 0.1, "max_age and horizon must be positive"),
        (1.0, 0.35, 0.0, "target_h must be positive"),
        (1.0, 0.35, -0.1, "target_h must be positive"),
        # no step of a workable grid divides both lengths
        (1.0, 0.1234567, 0.01, "are not commensurate at a workable resolution"),
        # the snapped horizon 1/3 misses the requested one by 3e-8
        (1.0, 0.3333333, 0.1, "cannot represent horizon=0.3333333"),
    ])
    def test_range_checks(self, max_age, horizon, target_h, message):
        with pytest.raises(ConfigurationError, match=message):
            build_grid(max_age, horizon, target_h)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(na=st.integers(2, 40), nt=st.integers(2, 40),
           splits=st.integers(1, 5))
    def test_commensurate_inputs_are_honored(self, na, nt, splits):
        base = 1.0 / 8
        max_age, horizon = na * base, nt * base
        target = base / splits
        if target >= min(max_age, horizon):
            return
        g = build_grid(max_age, horizon, target)
        assert g.step <= target + 1e-12
        assert g.num_age_cells * g.step == pytest.approx(max_age, rel=1e-12)
        assert g.num_time_cells * g.step == pytest.approx(horizon, rel=1e-12)


class TestIntegrateAge:
    def test_constant(self):
        g = build_grid(1.0, 1.0, 0.1)
        assert integrate_age(np.full(11, 3.0), g) == pytest.approx(3.0)

    def test_exact_on_linear(self):
        g = build_grid(1.0, 1.0, 0.1)
        assert integrate_age(g.ages(), g) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic_second_order(self):
        # Richardson refinement oracle: error drops by ~4x per halving
        errors = []
        for target in (0.1, 0.05, 0.025):
            g = build_grid(1.0, 1.0, target)
            errors.append(abs(integrate_age(g.ages() ** 2, g) - 1.0 / 3.0))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.1)

    def test_length_mismatch(self):
        g = build_grid(1.0, 1.0, 0.1)
        with pytest.raises(DimensionError):
            integrate_age(np.zeros(7), g)


class TestRegionMask:
    def test_full_window(self):
        g = build_grid(1.0, 1.0, 0.1)
        mask = region_mask(g, 0.0, 1.0)
        assert mask[0] == 0.5 and mask[-1] == 0.5
        assert np.all(mask[1:-1] == 1.0)

    def test_single_cell_window(self):
        g = build_grid(1.0, 1.0, 0.1)
        mask = region_mask(g, 0.3, 0.4)
        assert mask[3] == 0.5 and mask[4] == 0.5
        assert np.sum(mask) == 1.0

    def test_mask_integral_approximates_length(self):
        g = build_grid(1.0, 1.0, 1.0 / 64)
        lo, hi = 0.21, 0.87
        mask = region_mask(g, lo, hi)
        assert abs(g.step * float(mask.sum()) - (hi - lo)) <= g.step
        # nodewise monotonicity for nested windows
        outer = region_mask(g, 0.1, 0.95)
        assert np.all(mask <= outer)

    def test_inverted_window(self):
        g = build_grid(1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            region_mask(g, 0.5, 0.5)


def test_field_roundtrip(tmp_path):
    g = build_grid(1.0, 0.5, 0.125)
    rng = np.random.default_rng(0)
    field = Field2D.from_values(g, rng.standard_normal((g.num_age_cells + 1,
                                                        g.num_time_cells + 1)))
    path = os.path.join(tmp_path, "field.csv")
    write_field_csv(path, field)
    loaded = read_field_csv(path, g)
    assert np.array_equal(loaded.values, field.values)


def test_field_csv_checks_header_and_row_count(tmp_path):
    g = build_grid(1.0, 0.5, 0.125)
    path = os.path.join(tmp_path, "field.csv")
    write_field_csv(path, Field2D.from_values(g, np.zeros((g.num_age_cells + 1,
                                                           g.num_time_cells + 1))))
    with open(path) as handle:
        lines = handle.readlines()
    rows = (g.num_age_cells + 1) * (g.num_time_cells + 1)
    for body, message in ((["a,t,v\n", *lines[1:]], "expected header age,time,value"),
                          (lines[:-1], f"{rows - 1} rows, expected {rows}")):
        with open(path, "w") as handle:
            handle.writelines(body)
        with pytest.raises(DimensionError, match=message):
            read_field_csv(path, g)


def test_field_csv_bytes_match_csv_writer(tmp_path):
    g = build_grid(1.0, 0.5, 0.125)
    special = [0.0, -0.0, 1e-5, 5e-324, 1e300, -1e300]
    values = np.random.default_rng(1).standard_normal((g.num_age_cells + 1,
                                                       g.num_time_cells + 1))
    values.flat[:len(special)] = special
    path = os.path.join(tmp_path, "field.csv")
    write_field_csv(path, Field2D.from_values(g, values))
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(["age", "time", "value"])
    for n, t in enumerate(g.times()):
        for i, a in enumerate(g.ages()):
            writer.writerow([f"{a:.17g}", f"{t:.17g}", f"{values[i, n]:.17g}"])
    with open(path, "rb") as handle:
        assert handle.read() == reference.getvalue().encode()


def test_field_rejects_non_finite():
    g = build_grid(1.0, 0.5, 0.125)
    values = np.zeros((g.num_age_cells + 1, g.num_time_cells + 1))
    values[0, 0] = math.nan
    with pytest.raises(DimensionError):
        Field2D.from_values(g, values)


def test_field_rejects_a_wrong_shape():
    g = build_grid(1.0, 0.5, 0.125)
    with pytest.raises(DimensionError, match=r"field shape \(2, 2\) does not match grid \(9, 5\)"):
        Field2D.from_values(g, np.zeros((2, 2)))

import dataclasses

import numpy as np
import pytest

from popctrl import (ControlGeometry, ControlMode, DemographicModel, Fertility,
                     RateFunction, build_grid)


def reference_model(beta_amp=1.3, gamma=0.6, onset=0.15):
    """Separable-fertility model used across the suite and the acceptance runs."""
    return DemographicModel(
        male_mortality=RateFunction.constant(0.2),
        female_mortality=RateFunction.constant(0.3),
        fertility=Fertility.separable_pair(
            RateFunction.expression(f"{beta_amp} * step(a - {onset})", "a"),
            RateFunction.expression("p / (1 + p)", "p"),
            response_lipschitz=1.0),
        male_fertility_weight=RateFunction.expression("4 * a * (1 - a)", "a"),
        female_fraction=gamma,
        fertility_onset=onset,
        max_age=1.0)


def expr_fertility_model(beta_amp=1.3, gamma=0.6, onset=0.15):
    """The reference model with its fertility written as one ``expr`` of (a, p),
    which the frozen-trace operator tabulates level by level and whose
    Gramians it assembles from the adjoint sweep."""
    fertility = Fertility.from_spec(
        {"kind": "expr", "expr": f"{beta_amp} * step(a - {onset}) * p / (1 + p)"},
        "fertility")
    return dataclasses.replace(reference_model(beta_amp, gamma, onset), fertility=fertility)


def reference_geometry(horizon=0.35, mode=ControlMode.BOTH):
    return ControlGeometry(male_window=(0.2, 0.9), female_window=(0.1, 0.95),
                           horizon=horizon, mode=mode)


def reference_data(grid):
    ages = grid.ages()
    m0 = np.sin(np.pi * ages) ** 2
    f0 = 0.5 * np.exp(-30.0 * (ages - 0.55) ** 2)
    return m0, f0


def transport_model():
    """Fertility-free model for closed-form characteristic oracles."""
    return DemographicModel(
        male_mortality=RateFunction.expression("0.1 + 0.2 * a", "a"),
        female_mortality=RateFunction.expression("0.3 + 0.1 * a", "a"),
        fertility=Fertility.separable_pair(
            RateFunction.constant(0.0),
            RateFunction.expression("p / (1 + p)", "p"), 1.0),
        male_fertility_weight=RateFunction.expression("4 * a * (1 - a)", "a"),
        female_fraction=0.5,
        fertility_onset=0.15,
        max_age=1.0)


@pytest.fixture
def model():
    return reference_model()


@pytest.fixture
def geometry():
    return reference_geometry()


@pytest.fixture
def grid():
    return build_grid(1.0, 0.35, 1.0 / 32)


def random_nonneg_model(seed, max_age=1.0):
    """Random tabulated rates; fertility may ignore the onset cutoff so the
    boundary sweep of the birth integral gets exercised."""
    r = np.random.default_rng(seed)
    pts = np.linspace(0.0, max_age, 9)
    return DemographicModel(
        male_mortality=RateFunction.table(pts, r.random(9)),
        female_mortality=RateFunction.table(pts, r.random(9)),
        fertility=Fertility.separable_pair(
            RateFunction.table(pts, 0.2 + r.random(9)),
            RateFunction.expression("p / (1 + 0.5 * p)", "p"), 2.0),
        male_fertility_weight=RateFunction.table(pts, r.random(9)),
        female_fraction=0.4,
        fertility_onset=0.15,
        max_age=max_age)


def random_control(ws, rng):
    """A standard-normal control pair of a penalty workspace, zero off its support."""
    return [np.where(support, rng.standard_normal(support.shape), 0.0)
            for support in ws.support]


class PenaltySystem:
    """The normal equations H x = b of a penalty workspace ``ws``.

    H = I + L* D L and b = L* (-D y0), with L x the terminal state of the
    control x from zero data (``op.observe``), L* the workspace's adjoint
    image (``op.adjoint_images`` on the support), D its penalty weights and
    y0 the uncontrolled terminal state.
    """

    def __init__(self, ws):
        self.ws = ws
        self.zero = np.zeros(ws.m0.size)

    def terminal_map(self, x):
        """L x."""
        return self.ws.op.observe(self.zero, self.zero, *x)[1]

    def rhs(self):
        ws = self.ws
        return ws.adjoint_image(-ws.penalty_weights() * ws.op.uncontrolled_terminal(ws.m0, ws.f0))

    def apply_hessian(self, x):
        image = self.ws.adjoint_image(self.ws.penalty_weights() * self.terminal_map(x))
        return [xi + a for xi, a in zip(x, image)]

"""Exception types shared across the package, and the number rule of every
configuration field."""

import math
import numbers

import numpy as np


class PopctrlError(Exception):
    """Base class for all errors raised by popctrl."""


class ConfigurationError(PopctrlError):
    """A model, geometry, grid or scenario is malformed."""


class DomainError(PopctrlError):
    """An argument is outside the domain an operation is defined on."""


class DimensionError(PopctrlError):
    """Array sizes do not match the grid they are used with."""


class NumericalFailure(PopctrlError):
    """A solve produced NaNs or overflowed; carries the failing step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConsistencyError(PopctrlError):
    """Two objects that must share data (grid, frozen trace) do not."""


# the builtin types come first: they match without the slower ABC check
_KINDS = {False: ("a number", (float, int, numbers.Real)),
          True: ("an integer", (int, numbers.Integral))}


def checked(name, value, *, gt=None, ge=None, lt=None, le=None, integer=False):
    """``value`` as a float (an int if ``integer``) once it is a finite number,
    not a bool, with value > gt, >= ge, < lt and <= le for each bound given.

    Otherwise raises ConfigurationError "<name>: ...", e.g. "start: must be > 0".
    """
    kind, types = _KINDS[integer]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigurationError(f"{name}: expected {kind}")
    try:
        value = int(value) if integer else float(value)
    except OverflowError:  # an int beyond the float range, as JSON may hold
        value = math.inf
    # before the bounds: every comparison is False for NaN, and inf meets a lower bound
    if not integer and not math.isfinite(value):
        raise ConfigurationError(f"{name}: must be finite")
    for op, bound, holds in ((">", gt, gt is None or value > gt),
                             (">=", ge, ge is None or value >= ge),
                             ("<", lt, lt is None or value < lt),
                             ("<=", le, le is None or value <= le)):
        if not holds:
            raise ConfigurationError(f"{name}: must be {op} {bound}")
    return value


def set_checked(config, name, **rule):
    """Replace the field ``name`` of a (possibly frozen) dataclass by its
    ``checked`` value."""
    object.__setattr__(config, name, checked(name, getattr(config, name), **rule))


def checked_list(name, values, **rule):
    """The ``checked`` value of each entry of the list ``values``, named "<name>[k]"."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ConfigurationError(f"{name}: expected a list")
    return [checked(f"{name}[{k}]", v, **rule) for k, v in enumerate(values)]

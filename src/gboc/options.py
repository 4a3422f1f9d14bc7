"""Options declared once. Each field of ``trainer.TrainConfig`` and
``tsdata.SynthParams`` gives its default, its kind and, where the CLI flag is
not ``--field-name``, its flag. From these, construction checks the values,
``model_io`` lays out the config tail and ``cli`` adds the flags."""
from __future__ import annotations

import collections
import dataclasses
import math
import numbers

import numpy as np

from .errors import BadParams

# A kind: the Python type of an option, its model-file slot (None where the
# file stores no such option), and the values it accepts, as text and as a test.
Kind = collections.namedtuple("Kind", "type slot text accepts")


def _integer(accepts):
    """The test of an integer kind: a Python or NumPy integer, not a bool and
    not a float even when integral, that passes accepts."""
    return lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and accepts(v)


def _real(accepts):
    """The test of a float kind: a Python or NumPy real number, not a bool,
    whose float64 value passes accepts. An integer too large for a float64
    fails, as the model file stores the value as one."""

    def test(v):
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            return False
        try:
            return accepts(float(v))
        except OverflowError:
            return False

    return test


COUNT = Kind(int, "u32", "an integer in [1, 2**32)", _integer(lambda v: 1 <= v < 2**32))
LAYERS = Kind(int, "u32", "1, 2 or 3", _integer(lambda v: v in (1, 2, 3)))
SEED = Kind(int, "u64", "an integer in [0, 2**64)", _integer(lambda v: 0 <= v < 2**64))
AT_LEAST_0 = Kind(int, None, "an integer >= 0", _integer(lambda v: v >= 0))
AT_LEAST_1 = Kind(int, None, "an integer >= 1", _integer(lambda v: v >= 1))
POSITIVE = Kind(float, "f64", "finite and > 0", _real(lambda v: math.isfinite(v) and v > 0))
NONNEGATIVE = Kind(float, "f64", "finite and >= 0", _real(lambda v: math.isfinite(v) and v >= 0))
FRACTION = Kind(float, "f64", "in [0, 1]", _real(lambda v: 0 <= v <= 1))
SWITCH = Kind(bool, "flag", "True or False", lambda v: isinstance(v, (bool, np.bool_)))


def option(default, kind, flag: str | None = None, help: str | None = None):
    """The dataclass field of one option; help is that of a switch's flag."""
    return dataclasses.field(default=default, metadata={"kind": kind, "flag": flag, "help": help})


class Options:
    """Base of an options dataclass: construction raises BadParams naming
    the first field, in declaration order, whose kind rejects its value, and
    stores a float kind's value as a Python float (a Fraction or an int would
    otherwise reach NumPy as an object or an integer)."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            kind, value = f.metadata["kind"], getattr(self, f.name)
            if not kind.accepts(value):
                raise BadParams(f"{f.name} must be {kind.text}, got {value!r}")
            if kind.type is float:
                object.__setattr__(self, f.name, float(value))

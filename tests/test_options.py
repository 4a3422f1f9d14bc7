"""Each option is declared once, by its field: the parser, the model file's
config tail and the checks all follow the fields, and the checks accept the
same values as the hand-written ones they replaced."""
import dataclasses
import math
import re
import types

import numpy as np
import pytest

from gboc import cli, model_io, tsdata
from gboc.errors import BadParams
from gboc.trainer import TrainConfig
from oracles import reference_synth_params_check, reference_train_config_check

COMMANDS = {TrainConfig: "train", tsdata.SynthParams: "synth"}
REFERENCES = {TrainConfig: reference_train_config_check, tsdata.SynthParams: reference_synth_params_check}
INTS = (-1, 0, 1, 3, 4, 2**32 - 1, 2**32, 2**64 - 1, 2**64)
FLOATS = (math.nan, math.inf, -math.inf, -1.0, 0.0, 0.5, 1.0, 1.5)
each_options_class = pytest.mark.parametrize("cls", list(COMMANDS), ids=list(COMMANDS.values()))


def _rejection(make) -> str | None:
    """The message of the BadParams that make() raises, None if it raises none."""
    try:
        make()
    except BadParams as exc:
        return str(exc)
    return None


@each_options_class
def test_each_field_has_exactly_one_flag(cls):
    sub = cli.build_parser()._subparsers._group_actions[0].choices[COMMANDS[cls]]
    dests = [action.dest for action in sub._actions]
    assert all(dests.count(f.name) == 1 for f in dataclasses.fields(cls)), dests


def test_config_tail_is_every_field_but_the_header_dims_in_order():
    header_dims = ("window", "stride", "layers", "hidden")
    expected = [f.name for f in dataclasses.fields(TrainConfig) if f.name not in header_dims]
    assert [n for n, _ in model_io._CONFIG_TAIL] == expected


@each_options_class
def test_checks_accept_what_the_hand_written_checks_accepted(cls):
    defaults = dataclasses.asdict(cls())
    differ, misnamed = [], []
    for f in dataclasses.fields(cls):
        for value in INTS + FLOATS:
            values = {**defaults, f.name: value}
            new = _rejection(lambda: cls(**values))
            ref = _rejection(lambda: REFERENCES[cls](types.SimpleNamespace(**values)))
            if (new is None) != (ref is None):
                differ.append((f.name, value, new))
            if new is not None and not new.startswith(f"{f.name} must be "):
                misnamed.append(new)
    # the two agree on every integer and on every value of a float field. A
    # float in an integer field, which neither the CLI nor a model file gives,
    # is now rejected wherever the reference let it through (nan failed every
    # comparison it made, and 0.5, 1.0 and 1.5 passed its range tests)
    int_fields = {f.name for f in dataclasses.fields(cls) if f.metadata["kind"].type is int}
    assert all(name in int_fields and isinstance(value, float) and new is not None
               for name, value, new in differ), differ
    assert not misnamed, misnamed


@each_options_class
def test_integer_fields_take_integers_only(cls):
    int_fields = [f.name for f in dataclasses.fields(cls) if f.metadata["kind"].type is int]
    for name in int_fields:
        default = getattr(cls(), name)
        # 2.0 and True are rejected too: an option is a count, not a number
        for value in (float(default), default + 0.5, True, str(default), None):
            with pytest.raises(BadParams, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
                cls(**{name: value})
        # NumPy integers, as a caller indexing an array would pass them
        for np_int in (np.int64, np.uint32):
            assert getattr(cls(**{name: np_int(default)}), name) == default


@each_options_class
def test_the_first_bad_field_is_named(cls):
    fields = [f.name for f in dataclasses.fields(cls) if f.metadata["kind"].type is not bool]
    with pytest.raises(BadParams, match=f"^{fields[0]} must be "):
        cls(**{name: -1 for name in fields})

"""Each option is declared once, by its field: the parser, the model file's
config tail and the checks all follow the fields, and the checks accept the
same values as the hand-written ones they replaced."""
import dataclasses
import math
import re
import sys
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gboc import cli, model_io, options, tsdata
from gboc.errors import BadParams
from gboc.trainer import TrainConfig, train
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
    # comparison it made, and 0.5, 1.0 and 1.5 passed its range tests), and
    # so is every number in a switch field, which the reference never checked
    int_fields = {f.name for f in dataclasses.fields(cls) if f.metadata["kind"].type is int}
    switches = {f.name for f in dataclasses.fields(cls) if f.metadata["kind"].type is bool}
    assert all((name in int_fields and isinstance(value, float) or name in switches) and new is not None
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


TINY, BIG = 5e-324, sys.float_info.max  # the least positive and the largest float64


def _reals(lo, hi):
    """Python floats, NumPy float64s and Python ints in [lo, hi]."""
    floats = st.floats(lo, hi)
    ints = st.integers(math.ceil(lo), min(math.floor(hi), 2**53))
    return st.one_of(floats, floats.map(np.float64), ints)


# per kind: values inside its range, its edges, and values just outside it
# (an integer past the largest float64 does not fit a float kind's f64 slot)
RANGES = {
    options.COUNT: (st.integers(1, 2**32 - 1), [1, 2**32 - 1], [0, 2**32]),
    options.LAYERS: (st.sampled_from([1, 2, 3]), [1, 3], [0, 4]),
    options.SEED: (st.integers(0, 2**64 - 1), [0, 2**64 - 1], [-1, 2**64]),
    options.AT_LEAST_0: (st.integers(min_value=0), [0], [-1]),
    options.AT_LEAST_1: (st.integers(min_value=1), [1], [0]),
    options.POSITIVE: (_reals(TINY, BIG), [TINY, BIG], [0.0, -0.0, -TINY, math.inf, math.nan, 2**1024]),
    options.NONNEGATIVE: (_reals(0.0, BIG), [0.0, -0.0, BIG], [-TINY, math.inf, math.nan, 2**1024]),
    options.FRACTION: (_reals(0.0, 1.0), [0.0, -0.0, 1.0], [-TINY, math.nextafter(1.0, 2.0), math.nan]),
    options.SWITCH: (st.sampled_from([False, True, np.False_, np.True_]), [False, True], [0, 1]),
}
FIELDS = [(cls, f.name, f.metadata["kind"]) for cls in COMMANDS for f in dataclasses.fields(cls)]
each_field = pytest.mark.parametrize("cls, name, kind", FIELDS, ids=[f"{COMMANDS[c]}.{n}" for c, n, _ in FIELDS])


def _wrong_type(kind):
    """Values of a type the kind does not take: None and strings for every
    kind, bools for the numeric kinds and numbers for the switches."""
    if kind is options.SWITCH:
        other = st.one_of(st.integers(), st.floats())
    else:
        other = st.sampled_from([False, True, np.False_, np.True_])
    return st.one_of(st.none(), st.text(max_size=6), st.sampled_from(["1e-3", "1", "no"]), other)


@each_field
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_values_in_range_and_at_its_edges_are_accepted(cls, name, kind, data):
    inside, edges, _ = RANGES[kind]
    value = data.draw(st.one_of(inside, st.sampled_from(edges)))
    stored = getattr(cls(**{name: value}), name)
    if kind.type is float:  # a float kind stores the Python float of the value
        assert type(stored) is float and stored == value
    else:
        assert stored is value


@each_field
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_values_outside_the_range_or_of_another_type_are_rejected(cls, name, kind, data):
    _, _, outside = RANGES[kind]
    value = data.draw(st.one_of(_wrong_type(kind), st.sampled_from(outside)))
    with pytest.raises(BadParams, match=f"^{name} must be "):
        cls(**{name: value})


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(lr="1e-3"),
    lambda: TrainConfig(lam=None),
    lambda: TrainConfig(lr=True),
    lambda: tsdata.SynthParams(spike_mag=True),
    lambda: TrainConfig(gbc_off="no"),
], ids=["lr_str", "lam_none", "lr_bool", "spike_mag_bool", "gbc_off_str"])
def test_a_value_of_the_wrong_type_is_bad_params(make):
    with pytest.raises(BadParams, match="^(lr|lam|spike_mag|gbc_off) must be "):
        make()


def test_a_fraction_in_a_float_field_trains_synthesizes_and_saves(tmp_path):
    # a Fraction is a real number the float kinds accept; stored as given it
    # reached NumPy as an object and ended in a raw UFuncTypeError
    train_ts, _ = tsdata.synth_scenario("noise", 200, 1, tsdata.SynthParams(noise_std=Fraction(1, 3)))
    model, _ = train(train_ts, TrainConfig(lr=Fraction(1, 1000), epochs=1, hidden=4))
    model_io.save_model(model, tmp_path / "m.gboc")
    assert model_io.load_model(tmp_path / "m.gboc").config == TrainConfig(lr=0.001, epochs=1, hidden=4)

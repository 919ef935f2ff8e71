"""The codec's text writers write exactly what json.dumps writes, and its
generated readers accept, return and reject exactly what the checked
decoder does."""

from __future__ import annotations

import copy
import json
import typing
from collections.abc import Mapping
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from cisched import codec
from cisched.config import RunConfig, SolverSettings
from cisched.domain import ExecutionRecord, HistoryStore, Outcome, Repository
from cisched.execution import AgentResult, OutcomeModel, TestPlan
from cisched.reporting import CampaignSummary, CycleReport
from cisched.workload import WorkloadSpec

# Strings that need escaping: non-ASCII, quote, backslash, control
# characters, a lone surrogate, and JSON's line separators.
TEXT = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n", "\x00\x1f\x7f", "é", " ", "\ud800", "😀", 'a"b\\c\td']
)
# NaN, the infinities, ints in float fields and bools in int fields all
# leave the writer's fast paths.
SCALARS = {
    str: TEXT,
    int: st.integers() | st.booleans(),
    float: st.floats() | st.integers(-3, 3) | st.booleans(),
    bool: st.booleans() | st.integers(0, 1),
}


def values(hint) -> st.SearchStrategy:
    """Values for a field of type hint, well and badly typed."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in SCALARS:
        return SCALARS[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(list(hint))
    if is_dataclass(hint):
        return instances(hint)
    if origin is frozenset:
        return st.frozensets(values(args[0]), max_size=4)
    if origin is tuple:
        items = st.lists(values(args[0]), max_size=4)
        return items.map(tuple) | items
    if origin in (Mapping, dict):
        # int keys, which json.dumps turns into strings, leave the fast path.
        items = values(args[1])
        return st.dictionaries(TEXT, items, max_size=4) | st.dictionaries(
            st.integers(), items, min_size=1, max_size=3
        )
    raise TypeError(hint)


def instances(cls) -> st.SearchStrategy:
    """Instances of cls with any field values, its own checks bypassed."""
    hints = typing.get_type_hints(cls)
    return unchecked(cls, {f.name: values(hints[f.name]) for f in fields(cls)})


def unchecked(cls, strategies: dict) -> st.SearchStrategy:
    """Instances of cls with each field drawn from its strategy, its own checks bypassed."""

    def build(field_values: dict):
        obj = object.__new__(cls)
        for name, value in field_values.items():
            object.__setattr__(obj, name, value)
        return obj

    return st.fixed_dictionaries(strategies).map(build)


SAVED = [TestPlan, AgentResult, CycleReport, CampaignSummary, Repository, OutcomeModel, WorkloadSpec]


@pytest.mark.parametrize("cls", SAVED, ids=lambda cls: cls.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_save_writes_the_bytes_of_json_dumps(cls, data, tmp_path_factory):
    obj = data.draw(instances(cls))
    path = tmp_path_factory.getbasetemp() / f"{cls.__name__}.json"
    codec.save(obj, path)
    assert path.read_bytes() == (
        json.dumps(codec.encode(obj), indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


@pytest.mark.parametrize("cls", [RunConfig, HistoryStore], ids=lambda cls: cls.__name__)
@settings(deadline=None)
@given(data=st.data())
def test_nested_classes_and_mappings_write_the_text_of_json_dumps(cls, data):
    obj = data.draw(instances(cls))
    assert codec.dumps(obj) == json.dumps(codec.encode(obj), indent=2, sort_keys=True)


@given(instances(ExecutionRecord))
def test_record_line_is_the_text_of_json_dumps(record):
    write = codec.line_writer(ExecutionRecord, type="record")
    assert write(record) == json.dumps(
        {"type": "record", **codec.encode_fields(record)}, sort_keys=True
    )


@settings(deadline=None)
@given(reports=st.lists(instances(CycleReport), max_size=3))
def test_save_list_writes_the_bytes_of_json_dumps(reports, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "reports.json"
    codec.save_list(reports, path)
    assert path.read_bytes() == (
        json.dumps([codec.encode(r) for r in reports], indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


def test_line_writer_refuses_a_member_named_like_a_field():
    with pytest.raises(ValueError, match="cycle"):
        codec.line_writer(ExecutionRecord, cycle=1)


# Well-typed values, mostly in ranges where instances pass their classes'
# checks, so that a mutation decides whether a document is accepted.
TYPED = {
    str: TEXT,
    int: st.integers(1, 2**63),
    float: st.sampled_from([0.5, 0.75]) | st.floats(0.5, 0.75),
    bool: st.booleans(),
}
# Fields whose checks an arbitrary value of their type would nearly always fail.
TYPED_FIELDS = {
    (SolverSettings, "backend"): st.sampled_from(["auto", "python", "numba"]),
    (HistoryStore, "fails"): st.dictionaries(TEXT, st.text("fp", max_size=4) | TEXT, max_size=4),
}


def typed_values(hint) -> st.SearchStrategy:
    """Values of exactly hint's type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in TYPED:
        return TYPED[hint]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(list(hint))
    if is_dataclass(hint):
        return typed_instances(hint)
    if origin is frozenset:
        return st.frozensets(typed_values(args[0]), max_size=4)
    if origin is tuple and args[-1] is not Ellipsis:
        return st.tuples(*[typed_values(args[0])] * len(args))
    if origin is tuple:
        return st.lists(typed_values(args[0]), max_size=4).map(tuple)
    if origin in (Mapping, dict):
        return st.dictionaries(TEXT, typed_values(args[1]), max_size=4)
    raise TypeError(hint)


def typed_instances(cls) -> st.SearchStrategy:
    """Well-typed instances of cls, its own checks bypassed."""
    hints = typing.get_type_hints(cls)
    return unchecked(cls, {
        f.name: TYPED_FIELDS[cls, f.name] if (cls, f.name) in TYPED_FIELDS else typed_values(hints[f.name])
        for f in fields(cls)
    })


def typed(value):
    """value with the type of every part, so that 1 and 1.0 differ."""
    if is_dataclass(value):
        return type(value), tuple(typed(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return type(value), tuple(typed(x) for x in value)
    if isinstance(value, frozenset):
        return type(value), frozenset(typed(x) for x in value)
    if isinstance(value, dict):
        return type(value), frozenset((k, typed(x)) for k, x in value.items())
    return type(value), value


def outcome(read):
    """("ok", the typed result) or ("error", the message) of one read."""
    try:
        return "ok", typed(read())
    except ValueError as exc:
        return "error", str(exc)


@dataclass(frozen=True)
class Shapes:
    """Hints no persisted class has, or has only behind a check of its own."""

    pair: tuple[int, int]
    tags: frozenset[str]
    outcomes: Mapping[str, tuple[Outcome, ...]]


# (class, whether its documents carry format_version): artifacts are read by
# decode, a history record line and the merged config by decode_fields.
READ = [
    (Shapes, True),
    (TestPlan, True),
    (AgentResult, True),
    (CycleReport, True),
    (CampaignSummary, True),
    (Repository, True),
    (OutcomeModel, True),
    (WorkloadSpec, True),
    (HistoryStore, True),
    (RunConfig, False),
    (ExecutionRecord, False),
]


def document(obj, versioned: bool) -> dict:
    text = codec.dumps(obj) if versioned else json.dumps(codec.encode_fields(obj))
    return json.loads(text)


def read_both(cls, versioned: bool, doc, version_optional: bool = False):
    """The outcome of the public read and of the checked decoder alone."""
    if versioned:
        return (
            outcome(lambda: codec.decode(cls, doc, version_optional=version_optional)),
            outcome(lambda: codec._checked_decode(cls, doc, version_optional)),
        )
    return (
        outcome(lambda: codec.decode_fields(cls, doc)),
        outcome(lambda: codec._class_codec(cls)[0](doc)),
    )


@pytest.mark.parametrize("cls, versioned", READ, ids=[cls.__name__ for cls, _ in READ])
@settings(deadline=None)
@given(data=st.data())
def test_a_document_reads_back_as_an_equal_object(cls, versioned, data):
    obj = data.draw(typed_instances(cls))
    doc = document(obj, versioned)
    fast, checked = read_both(cls, versioned, doc)
    assert fast == checked
    if checked[0] == "ok":
        # An instance that passes its checks round-trips through the reader
        # itself, not through its fallback.
        assert checked[1] == typed(obj)
        reader = codec._reader(cls, codec._VERSION if versioned else ())
        assert typed(reader(doc)) == typed(obj)


# JSON values of every type, including a bool, an int that no float can
# hold, and strings that do and do not name an enum member.
WRONG = [None, "x", "", [], {}, True, False, 0, 1, -1, 0.5, 10**400, "pass", "greedy"]


def wrong_values(value) -> st.SearchStrategy:
    """Values to put in value's place; most have the wrong type or range."""
    if type(value) is int:
        return st.sampled_from([True, float(value)] + WRONG)  # a bool or a float for an int
    if type(value) is float:
        # An int for a float, or any other float, also out of range.
        return st.sampled_from([int(value)] + WRONG) | st.floats(allow_nan=False)
    if type(value) is list:
        # A wrong length for a fixed-size tuple.
        return st.sampled_from([value[:-1], value + value[-1:]] + WRONG)
    return st.sampled_from(WRONG)


def mutate(data, doc):
    """doc with one value replaced, removed or added, at the top level or nested."""
    doc = copy.deepcopy(doc)
    spots, objects = [], []

    def walk(value):
        if type(value) is dict:
            objects.append(value)
            spots.extend((value, k) for k in value)
            for x in value.values():
                walk(x)
        elif type(value) is list:
            spots.extend((value, i) for i in range(len(value)))
            for x in value:
                walk(x)

    walk(doc)
    kinds = ["add", "version", "missing version"] + (["replace", "remove"] if spots else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "add":
        target = data.draw(st.sampled_from(objects))
        target[data.draw(TEXT | st.sampled_from(["zz_unknown"]))] = data.draw(st.sampled_from(WRONG))
    elif kind == "version":
        doc["format_version"] = data.draw(st.sampled_from([2, 0, "1", True, 1.0, None]))
    elif kind == "missing version":
        doc.pop("format_version", None)
    else:
        parent, key = data.draw(st.sampled_from(spots))
        if kind == "replace":
            parent[key] = data.draw(wrong_values(parent[key]))
        else:
            del parent[key]
    return doc


@pytest.mark.parametrize("cls, versioned", READ, ids=[cls.__name__ for cls, _ in READ])
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_a_mutated_document_reads_as_the_checked_decoder_reads_it(cls, versioned, data):
    # Either both accept and return equal objects, every part of the same
    # type, or both raise with the same message.
    doc = mutate(data, document(data.draw(typed_instances(cls)), versioned))
    version_optional = versioned and data.draw(st.booleans())
    fast, checked = read_both(cls, versioned, doc, version_optional)
    assert fast == checked


def test_an_int_too_large_for_a_float_is_a_decode_error():
    doc = json.loads(codec.dumps(ExecutionRecord("t", "a", 0, Outcome.PASS, 1.0)))
    doc["actual_duration"] = 10**400
    with pytest.raises(codec.DecodeError, match=r"^actual_duration: expected float, got int 1"):
        codec.decode(ExecutionRecord, doc)

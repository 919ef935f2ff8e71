"""The codec's text writers write exactly what json.dumps writes."""

from __future__ import annotations

import json
import typing
from collections.abc import Mapping
from dataclasses import fields, is_dataclass
from enum import Enum

import pytest
from hypothesis import given, settings, strategies as st

from cisched import codec
from cisched.config import RunConfig
from cisched.domain import ExecutionRecord, HistoryStore, Repository
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

    def build(field_values: dict):
        obj = object.__new__(cls)
        for name, value in field_values.items():
            object.__setattr__(obj, name, value)
        return obj

    return st.fixed_dictionaries({f.name: values(hints[f.name]) for f in fields(cls)}).map(build)


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

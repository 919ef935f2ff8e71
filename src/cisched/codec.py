"""One strict JSON form for every persisted dataclass.

A dataclass encodes to an object holding exactly its fields; ``encode``
adds the ``format_version`` stamp that every artifact carries. Decoding
checks each value against the field's type hint and rejects unknown,
missing and wrongly typed fields instead of coercing: a bool is not an
int, an int is accepted for a float, and only a list decodes to a
frozenset or tuple. Fields with a default may be omitted. A ValueError
from the class's own range checks becomes a DecodeError as well, so the
field holding the object names where it failed.

Each class's field table is built once, so a value costs one exact type
check plus a converter only for enums, containers and nested dataclasses.
"""

from __future__ import annotations

import functools
import json
import reprlib
import typing
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable, TypeVar

FORMAT_VERSION = 1

T = TypeVar("T")


class DecodeError(ValueError):
    """A value that does not match its field's type; the message names the field."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message
        self.path: list[str] = []  # ".field" and "[index]" parts, outermost first

    def __str__(self) -> str:
        where = "".join(self.path).lstrip(".")
        return f"{where}: {self.message}" if where else self.message


def encode(obj: Any) -> dict:
    """The versioned JSON document of a dataclass instance."""
    return {"format_version": FORMAT_VERSION, **encode_fields(obj)}


def encode_fields(obj: Any) -> dict:
    """A dataclass instance's fields as a JSON-ready object, without a version."""
    return _class_codec(type(obj))[1](obj)


def decode(cls: type[T], data: Any, *, version_optional: bool = False) -> T:
    """Rebuild ``cls`` from a versioned document.

    ``version_optional`` admits a document without ``format_version``, for
    files people write by hand; a stamp that is present must still match.
    """
    if type(data) is dict and "format_version" in data:
        data = dict(data)
        version = data.pop("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise DecodeError(f"unsupported format_version: {version!r}")
    elif type(data) is dict and not version_optional:
        raise DecodeError("missing field 'format_version'")
    return decode_fields(cls, data)


def decode_fields(cls: type[T], data: Any) -> T:
    """Rebuild ``cls`` from an object of its fields, without a version."""
    return _class_codec(cls)[0](data)


def save(obj: Any, path: str | Path) -> None:
    dump(encode(obj), path)


def load(cls: type[T], path: str | Path, *, version_optional: bool = False) -> T:
    """Read and decode one document; errors name the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return decode(cls, json.loads(text), version_optional=version_optional)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def dump(data: Any, path: str | Path) -> None:
    """Write JSON in the layout every artifact shares: sorted keys, two-space indent."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# A value rule is (JSON type, decoder, encoder, as-is types). The decoder
# runs only after the exact type check passed; None stands for the identity.
# As-is types pass unchanged: an enum's own members, which only Python
# callers such as config overrides can pass.
_Rule = tuple[type, "Callable | None", "Callable | None", tuple]


@functools.cache
def _class_codec(cls: type) -> tuple[Callable, Callable]:
    """The decoder and encoder of one dataclass, built once per class."""
    hints = typing.get_type_hints(cls)
    decoders, encoders = [], []
    for f in fields(cls):
        want, dec, enc, as_is = _rule(hints[f.name])
        decoders.append((f.name, want, dec, as_is, f.default))
        encoders.append((f.name, enc))
    allowed = {f.name for f in fields(cls)}

    def decode_object(data: Any) -> Any:
        if type(data) is not dict:
            raise DecodeError(f"expected an object, got {_describe(data)}")
        args = []
        found = 0
        try:
            for name, want, dec, as_is, default in decoders:
                v = data.get(name, MISSING)
                if v is MISSING:
                    if default is MISSING:
                        raise DecodeError("required field is missing")
                    v = default
                else:
                    found += 1
                    if type(v) is not want:
                        v = _loose(v, want, as_is)
                    elif dec is not None:
                        v = dec(v)
                args.append(v)
        except DecodeError as exc:
            exc.path.insert(0, "." + name)
            raise
        if found != len(data):
            raise DecodeError(f"unknown fields {sorted(data.keys() - allowed)}")
        try:
            return cls(*args)
        except ValueError as exc:
            # A range check in the class: the enclosing field names where.
            raise DecodeError(str(exc)) from exc

    def encode_object(obj: Any) -> dict:
        out = {}
        for name, enc in encoders:
            v = getattr(obj, name)
            out[name] = v if enc is None else enc(v)
        return out

    return decode_object, encode_object


def _rule(hint: Any) -> _Rule:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (str, int, float, bool):
        return hint, None, None, ()
    if isinstance(hint, type) and issubclass(hint, Enum):
        members = {m.value: m for m in hint}

        def member(v: str) -> Enum:
            if v not in members:
                raise DecodeError(f"expected one of {sorted(members)}, got {v!r}")
            return members[v]

        return str, member, lambda m: m.value, (hint,)
    if is_dataclass(hint):
        return dict, *_class_codec(hint), ()
    if origin in (frozenset, tuple):
        item = _rule(args[0])
        size = len(args) if origin is tuple and args[-1] is not Ellipsis else None

        def sequence(v: list) -> Any:
            if size is not None and len(v) != size:
                raise DecodeError(f"expected {size} items, got {len(v)}")
            return origin(_items(v, item))

        enc = item[2]
        # Sets encode sorted, so equal sets always serialize to the same bytes.
        encode_list = list if enc is None else lambda v: [enc(x) for x in v]
        return list, sequence, sorted if origin is frozenset else encode_list, ()
    if origin in (Mapping, dict):
        item = _rule(args[1])
        enc = item[2]
        encode_map = dict if enc is None else lambda v: {k: enc(x) for k, x in v.items()}
        return dict, lambda v: dict(zip(v, _items(v.values(), item, v))), encode_map, ()
    raise TypeError(f"no JSON form for {hint!r}")


def _items(values: Any, rule: _Rule, keys: Any = None) -> list:
    want, dec, _, as_is = rule
    out = []
    try:
        for i, v in enumerate(values):
            if type(v) is not want:
                v = _loose(v, want, as_is)
            elif dec is not None:
                v = dec(v)
            out.append(v)
    except DecodeError as exc:
        exc.path.insert(0, f"[{i if keys is None else repr(list(keys)[i])}]")
        raise
    return out


def _loose(v: Any, want: type, as_is: tuple) -> Any:
    """The only accepted mismatches: an int for a float, and an as-is type."""
    if want is float and type(v) is int:
        return float(v)
    if type(v) in as_is:
        return v
    raise DecodeError(f"expected {want.__name__}, got {_describe(v)}")


def _describe(v: Any) -> str:
    return f"{type(v).__name__} {reprlib.repr(v)}"

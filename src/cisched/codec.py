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

Writing skips the JSON object. Each class also gets a text writer,
generated once as straight-line code over its sorted fields, whose text is
``json.dumps(encode(obj), indent=2, sort_keys=True)``'s. (The stdlib runs
its C encoder only without an indent; with one, it runs a pure-Python
generator per value.) The writer formats a str, int, finite float, bool or
str-valued enum whose type matches its hint exactly, and loops over
tuples, frozensets and str-keyed mappings itself. Any other value, such as
NaN, an int in a float field or a bool in an int field, is written by
``json.dumps`` and re-indented to its place, so the text is the same in
every case.
"""

from __future__ import annotations

import functools
import json
import reprlib
import typing
from collections.abc import Mapping
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii as _esc
from pathlib import Path
from typing import Any, Callable, Sequence, TypeVar

FORMAT_VERSION = 1
_VERSION = (("format_version", FORMAT_VERSION),)  # the stamp, as writer members

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


def dumps(obj: Any) -> str:
    """``json.dumps(encode(obj), indent=2, sort_keys=True)``, written without the dict."""
    return _writer(type(obj), _VERSION)(obj, "\n")


def line_writer(cls: type, **members: Any) -> Callable[[Any], str]:
    """A writer of one ``cls`` instance per line, with constant members.

    Its text for obj is ``json.dumps({**members, **encode_fields(obj)},
    sort_keys=True)``; a member may not share a field's name.
    """
    return _writer(cls, tuple(sorted(members.items())))


def save(obj: Any, path: str | Path) -> None:
    """Write dumps(obj), the layout every artifact shares: sorted keys, two-space indent."""
    _write(path, dumps(obj))


def save_list(objs: Sequence[Any], path: str | Path) -> None:
    """Write a list of versioned documents in the same layout."""
    texts = [_writer(type(obj), _VERSION)(obj, "\n  ") for obj in objs]
    _write(path, _wrap("[", texts, "]", "\n") if texts else "[]")


def load(cls: type[T], path: str | Path, *, version_optional: bool = False) -> T:
    """Read and decode one document; errors name the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return decode(cls, json.loads(text), version_optional=version_optional)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8")


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


# The text writers. A writer takes a value and nl, the newline and indent
# of the value's own line ("\n" at the top), or None for the one-line
# layout, and returns the value's text in that place.

# Exact-type fast paths, as expressions of a value {v} at indent {nl}.
_SCALARS = {
    str: "_esc({v}) if type({v}) is str else _fallback({v}, {nl})",
    int: "_int({v}) if type({v}) is int else _fallback({v}, {nl})",
    # v - v is 0.0 for a finite float only; NaN and infinities fall back.
    float: "_float({v}) if type({v}) is float and {v} - {v} == 0.0 else _fallback({v}, {nl})",
    bool: '("true" if {v} else "false") if type({v}) is bool else _fallback({v}, {nl})',
}


def _fallback(value: Any, nl: str | None) -> str:
    """What json.dumps writes for an encoded value, moved to its indent.

    Escaped strings hold no raw newline, so every newline is a line break
    of the layout.
    """
    if nl is None:
        return json.dumps(value, sort_keys=True)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


def _wrap(open_: str, parts: list[str], close: str, nl: str | None) -> str:
    """A non-empty array or object of the item texts, which sit at nl's indent plus two."""
    if nl is None:
        return open_ + ", ".join(parts) + close
    inner = nl + "  "
    return open_ + inner + ("," + inner).join(parts) + nl + close


def _namespace() -> dict:
    return {
        "_esc": _esc,
        "_int": int.__repr__,
        "_float": float.__repr__,
        "_fallback": _fallback,
        "_wrap": _wrap,
    }


def _value_expr(hint: Any, v: str, nl: str, ns: dict) -> str:
    """Source of an expression writing value v of type hint at indent nl.

    Objects the expression needs are bound in ns under fresh names.
    """
    if hint in _SCALARS:
        return _SCALARS[hint].format(v=v, nl=nl)
    enc = _rule(hint)[2]
    n = len(ns)
    if isinstance(hint, type) and issubclass(hint, Enum):
        ns[f"_t{n}"], ns[f"_e{n}"] = hint, enc
        if any(type(m.value) is not str for m in hint):
            return f"_fallback(_e{n}({v}), {nl})"
        return f"_esc({v}._value_) if type({v}) is _t{n} else _fallback(_e{n}({v}), {nl})"
    if is_dataclass(hint):
        ns[f"_t{n}"], ns[f"_e{n}"], ns[f"_w{n}"] = hint, enc, _writer(hint)
        return f"_w{n}({v}, {nl}) if type({v}) is _t{n} else _fallback(_e{n}({v}), {nl})"
    ns[f"_w{n}"] = _container_writer(hint)
    return f"_w{n}({v}, {nl})"


def _compile(source: str, name: str, ns: dict) -> Callable:
    exec(source, ns)
    return ns[name]


@functools.cache
def _container_writer(hint: Any) -> Callable:
    """The writer of a tuple, frozenset or str-keyed mapping value, one loop over its items."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    ns = _namespace()
    ns["_t"], ns["_e"] = origin if origin is not Mapping else dict, _rule(hint)[2]
    if origin in (frozenset, tuple):
        item = _value_expr(args[0], "x", "inner", ns)
        items = "sorted(v)" if origin is frozenset else "v"
        guard, empty = "type(v) is not _t", "[]"
        body = f'_wrap("[", [{item} for x in {items}], "]", nl)'
    else:
        item = _value_expr(args[1], "x", "inner", ns)
        guard = "type(v) is not _t or not all(type(k) is str for k in v)"
        empty = "{}"
        body = f'_wrap("{{", [_esc(k) + ": " + ({item}) for k, x in sorted(v.items())], "}}", nl)'
    source = (
        "def write(v, nl):\n"
        f"    if {guard}:\n"
        "        return _fallback(_e(v), nl)\n"
        "    if not v:\n"
        f"        return {empty!r}\n"
        '    inner = None if nl is None else nl + "  "\n'
        f"    return {body}\n"
    )
    return _compile(source, "write", ns)


@functools.cache
def _writer(cls: type, members: tuple[tuple[str, Any], ...] = ()) -> Callable:
    """The text writer of a cls instance, plus constant (key, value) members.

    Generated once as one function: each field is read, written by its
    fast path, and placed by one f-string per layout, keys in sorted order.
    """
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls)]
    clash = {k for k, _ in members} & set(names)
    if clash:
        raise ValueError(f"members {sorted(clash)} are fields of {cls.__name__}")
    ns = _namespace()
    lines = ["def write(obj, nl=None):", '    inner = None if nl is None else nl + "  "']
    texts = {}
    for i, name in enumerate(names):
        lines.append(f"    s{i} = obj.{name}")
        lines.append(f"    s{i} = {_value_expr(hints[name], f's{i}', 'inner', ns)}")
        texts[name] = f"{{s{i}}}"
    for i, (key, value) in enumerate(members):
        ns[f"_m{i}"] = json.dumps(value)
        texts[key] = f"{{_m{i}}}"
    if not texts:
        return lambda obj, nl=None: "{}"
    keys = [(_literal(_esc(k) + ": "), texts[k]) for k in sorted(texts)]
    one_line = ", ".join(k + t for k, t in keys)
    indented = ",".join("{inner}" + k + t for k, t in keys)
    lines.append("    if nl is None:")
    lines.append(f"        return f'{{{{{one_line}}}}}'")
    lines.append(f"    return f'{{{{{indented}{{nl}}}}}}'")
    return _compile("\n".join(lines) + "\n", "write", ns)


def _literal(text: str) -> str:
    """text as literal source inside a single-quoted f-string."""
    return (
        text.replace("\\", "\\\\").replace("'", "\\'").replace("{", "{{").replace("}", "}}")
    )

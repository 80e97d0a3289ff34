"""One reader for config sections: each is read by the dataclass that uses
it, whose init fields are its keys, their defaults the defaults and their
annotations the value types.  A value of the wrong kind, or one that the
dataclass refuses, raises ``ConfigError`` naming its key path.  A field whose
metadata holds ``refused`` (a reason) is set by code, never by a key."""
from __future__ import annotations

import dataclasses
import functools
import types
import typing


class ConfigError(ValueError):
    """Unusable experiment configuration."""


def read_section(cls, raw, name: str = "", **given):
    """``cls`` from the mapping ``raw`` (None reads as empty).  A key that is
    not a field raises ``ConfigError``; a dataclass-typed field is read as
    section ``name.key``; ``given`` fields are set by the caller, not by keys.
    Below the top level, any other ``ValueError`` or ``TypeError`` becomes a
    ``ConfigError`` named ``name.key …`` if its message starts with a field
    (up to any ``[``: ``workload.mec_gbps[1] …``), else ``name: …``."""
    readers = _readers(cls, name)
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{name or 'top-level'} config must be a mapping, got {raw!r}")
    if not raw.keys() <= readers.keys() or not raw.keys().isdisjoint(given):
        unknown = sorted(str(k) for k in raw if k not in readers or k in given)
        raise ConfigError(f"unknown {name or 'top-level'} config keys {unknown}")
    try:
        return cls(**given, **{k: readers[k](v) for k, v in raw.items()})
    except (TypeError, ValueError) as exc:
        if not name or isinstance(exc, ConfigError):
            raise
        key = str(exc).split(" ", 1)[0].split("[", 1)[0]
        raise ConfigError(f"{name}{'.' if key in readers else ': '}{exc}") from exc


@functools.cache
def _readers(cls, name: str) -> dict:
    """One reader per field of ``cls``; a field whose metadata holds
    ``refused`` (a reason) is set by code, and a config key for it raises."""
    path = f"{name}." if name else ""
    hints = typing.get_type_hints(cls)
    return {f.name: functools.partial(_refuse, path + f.name, f.metadata["refused"])
            if "refused" in f.metadata else _reader(hints[f.name], path + f.name)
            for f in dataclasses.fields(cls)}


def _refuse(name: str, reason: str, value):
    raise ConfigError(f"{name} is not a config key: {reason}")


def _reader(tp, name: str):
    """A function that reads the config value at key path ``name`` as ``tp``.
    A list or tuple is read from a yaml list only, a dict from a mapping only;
    an int from an int or a whole float, a float from a number or a numeric
    string (PyYAML reads ``1e-3`` as one); neither from a bool."""
    if isinstance(tp, types.UnionType):
        # X | None reads as X; a list type | X (one value per MEC class or
        # one for all) reads a yaml list as the list type, anything else as X
        args = [a for a in tp.__args__ if a is not type(None)]
        listed = [a for a in args if typing.get_origin(a) in (tuple, list)]
        if len(args) == 2 and len(listed) == 1:
            many = _reader(listed[0], name)
            one = _reader(next(a for a in args if a is not listed[0]), name)
            return lambda value: (many if isinstance(value, (list, tuple)) else one)(value)
        read = _reader(args[0], name)
        return lambda value: None if value is None else read(value)
    if dataclasses.is_dataclass(tp):
        return functools.partial(read_section, tp, name=name)
    origin, args = typing.get_origin(tp) or tp, typing.get_args(tp)
    if origin is dict:
        key, val = (_reader(a, name) for a in args) if args else (_same, _same)
        return lambda value: {key(k): val(v) for k, v in _of_kind(dict, name, value).items()}
    if origin in (tuple, list):
        item = _reader(args[0], name)
        return lambda value: origin([item(v) for v in _of_kind((list, tuple), name, value)])
    if tp in (int, float):
        return functools.partial(_number, tp, name)
    return tp


def _same(value):
    return value


def _of_kind(kind, name: str, value):
    """``value`` if it is a ``kind``: a yaml mapping (dict) or list."""
    if not isinstance(value, kind):
        what = "mapping" if kind is dict else "list"
        raise ConfigError(f"{name} must be a {what}, got {value!r}")
    return value


def _number(tp, name: str, value):
    """``value`` as ``tp``, int or float."""
    whole = not isinstance(value, float) or value.is_integer()
    if isinstance(value, bool) or (tp is int and not whole):
        what = "an integer" if tp is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    try:
        return tp(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None

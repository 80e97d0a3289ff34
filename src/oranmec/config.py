"""One reader for config sections: each is read by the dataclass that uses
it, whose init fields are its keys, their defaults the defaults and their
annotations the value types."""
from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing


class ConfigError(ValueError):
    """Unusable experiment configuration."""


def read_section(cls, raw, name: str = "", **given):
    """``cls`` from the mapping ``raw`` (None reads as empty).  A key that is
    not a field raises ``ConfigError``; a dataclass-typed field is read as
    section ``name.key``; ``given`` fields are set by the caller, not by keys."""
    readers = _readers(cls, name)
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{name or 'top-level'} config must be a mapping, got {raw!r}")
    if not raw.keys() <= readers.keys() or not raw.keys().isdisjoint(given):
        unknown = sorted(str(k) for k in raw if k not in readers or k in given)
        raise ConfigError(f"unknown {name or 'top-level'} config keys {unknown}")
    return cls(**given, **{k: readers[k](v) for k, v in raw.items()})


@functools.cache
def _readers(cls, name: str) -> dict:
    # only the init fields' annotations are evaluated: another field's may
    # name what reading a config never uses (numpy.random, for a private RNG)
    init = types.SimpleNamespace(
        __annotations__={f.name: f.type for f in dataclasses.fields(cls) if f.init}
    )
    hints = typing.get_type_hints(init, vars(sys.modules[cls.__module__]))
    path = f"{name}." if name else ""
    return {key: _reader(tp, path + key) for key, tp in hints.items()}


def _reader(tp, name: str):
    """A function that reads the config value at key path ``name`` as ``tp``."""
    if isinstance(tp, types.UnionType):     # X | None reads as X
        args = [a for a in tp.__args__ if a is not type(None)]
        if len(args) > 1:
            return lambda value: value      # any other choice is the field owner's
        read = _reader(args[0], name)
        return lambda value: None if value is None else read(value)
    if dataclasses.is_dataclass(tp):
        return functools.partial(read_section, tp, name=name)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        key, val = _reader(args[0], name), _reader(args[1], name)
        return lambda value: {key(k): val(v) for k, v in value.items()}
    if origin in (tuple, list):
        item = _reader(args[0], name)
        return lambda value: origin([item(v) for v in value])
    return tp

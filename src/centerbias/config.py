"""One dict codec for every record the program reads or writes.

A record is a dataclass whose fields are int, float, str, dict, a record,
`tuple[X, ...]`, `list[X]`, `dict[str, X]`, `X | None`, a numpy array typed
by its dimension count and dtype (`np.ndarray[tuple[int, int],
np.dtype[np.float64]]`, stored as nested lists of numbers) or a union of
records, each variant of which has a class-level `KIND`, written first under
"kind".  Reading rejects unknown keys, gives a missing key its field's
default (a field with a `default_factory` is required) and checks every
value against its field's type (a float field or array element takes an
int; no field takes a bool).  Each error is a ValueError naming the dotted
key, or the element as `key[i][j]`; range checks stay in each record's
`__post_init__`.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

__all__ = ["to_dict", "from_dict"]

_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string"), dict: ((dict,), "a dict")}


def to_dict(value):
    """Records as dicts in field order without None fields, tuples and
    arrays as lists."""
    if dataclasses.is_dataclass(value):
        out = {"kind": value.KIND} if hasattr(value, "KIND") else {}
        for f in dataclasses.fields(value):
            v = getattr(value, f.name)
            if v is not None:
                out[f.name] = to_dict(v)
        return out
    if isinstance(value, (tuple, list)):
        return [to_dict(v) for v in value]
    if isinstance(value, dict):
        return {k: to_dict(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def from_dict(tp, value, where: str = ""):
    """Read `value` as type `tp`; `where` is its dotted key, "" at the top."""
    origin = get_origin(tp)
    if origin in (Union, types.UnionType):
        options = [a for a in get_args(tp) if a is not type(None)]
        if value is None and len(options) < len(get_args(tp)):
            return None
        if len(options) == 1:
            return from_dict(options[0], value, where)
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a dict with a 'kind', "
                             f"got {value!r}")
        kinds = {c.KIND: c for c in options}
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ValueError(f"{_key(where, 'kind')} must be one of "
                             f"{list(kinds)}, got {kind!r}")
        rest = {k: v for k, v in value.items() if k != "kind"}
        return _record(kinds[kind], rest, where)
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return origin(from_dict(get_args(tp)[0], v, f"{where}[{i}]")
                      for i, v in enumerate(value))
    if origin is dict:
        _, item = get_args(tp)
        return {k: from_dict(item, v, _key(where, k))
                for k, v in from_dict(dict, value, where).items()}
    if origin is np.ndarray:
        shape, dtype = get_args(tp)
        nested = float
        for _ in get_args(shape):
            nested = list[nested]
        value = from_dict(nested, value, where)
        try:
            return np.array(value, dtype=get_args(dtype)[0])
        except ValueError:  # ragged
            raise ValueError(f"{where} must be a rectangular array") from None
    if dataclasses.is_dataclass(tp):
        return _record(tp, value, where)
    accepted, name = _SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{where} must be {name}, got {value!r}")
    return value


def _key(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _record(cls, value, where: str):
    if not isinstance(value, dict):
        raise ValueError(f"{where or 'config'} must be a dict, got {value!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(value) - {f.name for f in fields})
    if unknown:
        raise ValueError(
            f"unknown keys {[_key(where, k) for k in unknown]}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in value:
            kwargs[f.name] = from_dict(hints[f.name], value[f.name],
                                       _key(where, f.name))
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"{_key(where, f.name)} is required")
    try:
        return cls(**kwargs)
    except ValueError as e:
        if not where:
            raise
        raise ValueError(f"{where}: {e}") from e

"""Atomic file writes, and the typed reader every input document goes through.

Model JSON, bench configs and DGP configs are read field by field into their
dataclasses by :func:`from_fields`.  Each reader function raises the error
class it is given as ``error(path, reason)``, where ``path`` is the
``$.dotted.path`` of the offending element.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable, Iterable, get_type_hints


def write_text_atomic(path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


def write_bytes_atomic(path, data: bytes) -> None:
    write_chunks_atomic(path, (data,))


def write_chunks_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks in order; the target appears only once all are written.

    The chunks go to a new file with an unpredictable name beside the
    target, which then replaces it.  That file is created with mode 0o666
    less the umask, as ``open(path, "w")`` creates one.  A symlink at
    ``path`` stays: as ``open`` does, the write goes to the file it names.
    """
    path = Path(os.path.realpath(path))
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# --- typed document reader ---------------------------------------------------


def decode_json(text: str, decode: Callable, error):
    """``decode(json.loads(text))``; invalid JSON, or nesting too deep for the
    parser or for ``decode``, raises ``error`` at ``$``."""
    try:
        return decode(json.loads(text))
    except json.JSONDecodeError as e:
        raise error("$", f"invalid JSON: {e}") from None
    except RecursionError:
        raise error("$", "nested too deeply") from None


def expect_dict(v: Any, path: str, error) -> dict:
    if not isinstance(v, dict):
        raise error(path, f"expected an object, got {type(v).__name__}")
    return v


def get(obj: dict, key: str, path: str, error) -> Any:
    if key not in obj:
        raise error(f"{path}.{key}", "missing required field")
    return obj[key]


def reject_unknown(obj: dict, known: Iterable[str], path: str, error) -> None:
    unknown = set(obj) - set(known)
    if unknown:
        raise error(path, f"unknown keys {sorted(unknown)}")


def finite_number(v: Any, where: str, error) -> float:
    """``v``, the value at ``where``, as a float: a finite int or float
    other than a bool; ``error`` otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise error(where, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond float range
        x = math.inf
    if not math.isfinite(x):  # json.loads accepts NaN and +-Infinity
        raise error(where, f"expected a finite number, got {v!r}")
    return x


def number(obj: dict, key: str, path: str, error) -> float:
    return finite_number(get(obj, key, path, error), f"{path}.{key}", error)


def _exactly(t: type, what: str) -> Callable:
    """Checker of a value of type ``t`` exactly, so that a bool is no integer."""
    def check(obj: dict, key: str, path: str, error):
        v = get(obj, key, path, error)
        if type(v) is not t:
            raise error(f"{path}.{key}", f"expected {what}, got {v!r}")
        return v
    return check


def _member(enum_cls: type, obj: dict, key: str, path: str, error):
    v = get(obj, key, path, error)
    values = [m.value for m in enum_cls]
    if v not in values:
        raise error(f"{path}.{key}", f"expected one of {', '.join(values)}, got {v!r}")
    return enum_cls(v)


#: field checker by annotation
CHECKERS = {int: _exactly(int, "an integer"), float: number, bool: _exactly(bool, "a boolean")}


@functools.cache
def _field_readers(cls: type, prefix: str) -> tuple:
    """(name, key, checker, has_default) per field of ``cls``.

    A field typed other than int, float or bool is an Enum, read by value, or
    its value comes in ``given``.
    """
    hints = get_type_hints(cls)
    readers = []
    for f in fields(cls):
        t = hints[f.name]
        check = CHECKERS.get(t) or functools.partial(_member, t)
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        readers.append((f.name, prefix + f.name, check, has_default))
    return tuple(readers)


def from_fields(cls: type, d: Any, path: str, error, *, defaults: bool = False,
                prefix: str = "", **given):
    """Build dataclass ``cls`` from the object ``d``, checking each field's type.

    Field ``name`` is read from key ``prefix + name`` unless ``given`` holds
    it.  With ``defaults`` (configs), an absent key leaves its field's default;
    model documents spell out every field.  A ValueError from the class's own
    validation becomes ``error`` at ``path``.
    """
    d = expect_dict(d, path, error)
    kwargs = dict(given)
    for name, key, check, has_default in _field_readers(cls, prefix):
        if name not in given and not (defaults and has_default and key not in d):
            kwargs[name] = check(d, key, path, error)
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise error(path, str(e)) from None

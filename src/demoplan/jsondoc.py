"""Reading the package's JSON documents and their fields.

Every JSON loader reads its file through load_json, so a missing required
field is reported one way everywhere: a ValueError that names the document
and the field, such as "scenario is missing field 'workspace'".

Loaders then read each field through one of five readers, each of which
returns the checked value or raises one ValueError that names the field:

  number    a finite JSON int or float, as a float; a boolean, a string,
            null, NaN or an int too large for a float is refused.
  positive  a number greater than zero.
  vector    a list of exactly n numbers, as a tuple of floats.
  array     a list, optionally non-empty.
  record    a JSON object.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

_KINDS = ((bool, "a boolean"), (str, "a string"), (list, "a list"), (dict, "an object"), (type(None), "null"))


def load_json(path: str | Path, document: str):
    """Parse a JSON file whose objects raise ValueError when an absent field is looked up."""

    class Fields(dict):
        def __missing__(self, key):
            raise ValueError(f"{document} is missing field {key!r}")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=Fields)


def _kind(value: object) -> str:
    return next((name for t, name in _KINDS if isinstance(value, t)), "a number")


def number(value: object, name: str) -> float:
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, not {_kind(value)}")
    try:
        result = float(value)
    except OverflowError:
        result = math.inf if value > 0 else -math.inf
    if not math.isfinite(result):
        raise ValueError(f"{name} is not finite: {result}")
    return result


def positive(value: object, name: str) -> float:
    result = number(value, name)
    if result <= 0:
        raise ValueError(f"{name} must be positive, not {result}")
    return result


def vector(value: object, n: int, name: str) -> tuple[float, ...]:
    items = array(value, name)
    if len(items) != n:
        raise ValueError(f"{name} must hold exactly {n} numbers, not {len(items)}")
    return tuple(number(v, name) for v in items)


def array(value: object, name: str, nonempty: bool = False) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, not {_kind(value)}")
    if nonempty and not value:
        raise ValueError(f"{name} must not be empty")
    return value


def record(value: object, name: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, not {_kind(value)}")
    return value

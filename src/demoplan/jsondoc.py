"""Reading the package's JSON documents and their fields.

Every JSON loader reads its file through load_json, so a missing required
field is reported one way everywhere: a ValueError that names the document
and the field, such as "scenario is missing field 'workspace'".

Loaders then read each field through one of eight readers, each of which
returns the checked value or raises one ValueError that names the field:

  number    a finite JSON int or float, as a float; a boolean, a string,
            null, NaN or an int too large for a float is refused.
  positive  a number greater than zero.
  vector    a list of exactly n numbers, as a tuple of floats.
  array     a list, optionally non-empty.
  record    a JSON object.
  text      a JSON string; a number, a boolean, null, a list or an object is
            refused, never coerced with str().
  flag      a JSON boolean; a string such as "false", a number, null, a list
            or an object is refused, never coerced with bool().
  primitive a JSON string that is one of the seven action primitive tokens.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .actions import ActionPrimitive

_KINDS = ((bool, "a boolean"), (str, "a string"), (list, "a list"), (dict, "an object"), (type(None), "null"))


def load_json(path: str | Path, document: str):
    """Parse a JSON file whose objects raise ValueError when an absent field is looked up.

    Text that is not JSON, nests too deeply or holds an int too long to
    convert is one ValueError naming the document.
    """

    class Fields(dict):
        def __missing__(self, key):
            raise ValueError(f"{document} is missing field {key!r}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_hook=Fields)
        except RecursionError:
            raise ValueError(f"{document} is nested too deeply") from None
        except ValueError as exc:
            raise ValueError(f"{document} is not valid JSON ({exc})") from None


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


def text(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, not {_kind(value)}")
    return value


def flag(value: object, name: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean, not {_kind(value)}")
    return value


def primitive(value: object, name: str) -> ActionPrimitive:
    token = text(value, name)
    try:
        return ActionPrimitive(token)
    except ValueError:
        raise ValueError(f"{name} must be an action primitive, not {token!r}") from None

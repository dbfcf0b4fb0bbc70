"""Shared exception types, and the one reader of input documents."""

import json
import math


class IncompatibleFieldError(ValueError):
    """The coefficient characteristic p divides the poset parameter q."""


class ResourceLimitError(RuntimeError):
    """An enumeration, search or stabilizer chain exceeded its cap or bound."""


class InternalConsistencyError(RuntimeError):
    """A structural guarantee failed; indicates a bug or bad data, not a user error."""


class DataError(ValueError):
    """Malformed or inconsistent input data (group files, character tables)."""


def _finite(text: str) -> float:
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{text} is not a finite number")


def read_json(text: str, what: str):
    """Decode one input document.  Any fault, including nesting past the
    recursion limit, an integer past the digit limit and a non-finite number,
    raises DataError naming what, so no reader ever sees NaN or Infinity."""
    try:
        return json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from None


def field(value, kind, path: str, *, low=None, default=...):
    """value, if its type is exactly kind, or one of a tuple of kinds, so that
    JSON true is never an integer, and it or a list's length is at least low.
    None (JSON null, or a key dict.get missed) gives default where one is
    given.  Anything else raises DataError naming the path and the value."""
    if value is None and default is not ...:
        return default
    kinds = kind if type(kind) is tuple else (kind,)
    if type(value) in kinds and (low is None or (len(value) if type(value) is list else value) >= low):
        return value
    names = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}
    bound = "" if low is None else f" of length >= {low}" if list in kinds else f" >= {low}"
    raise DataError(f"{path} = {value!r} is not {' or '.join(names[k] for k in kinds)}{bound}")

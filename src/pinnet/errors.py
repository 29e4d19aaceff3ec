"""Exception types shared across the package, the readers of input files
and of typed fields, and `about`, which names where an error came from.

The CLI exits with 2 on any of these; a run whose state blew up is a
`diverged` report row instead, and the CLI exits with 3.
"""

import json
import math
import numbers
import sys
from contextlib import contextmanager


class PinnetError(Exception):
    """Base class for all package-specific errors."""


class InvalidSizeError(PinnetError, ValueError):
    """A topology constructor was given inconsistent or too-small sizes."""


class ContractViolationError(PinnetError, ValueError):
    """An input violates a documented precondition (e.g. asymmetric matrix)."""


class NumericalFailureError(PinnetError, RuntimeError):
    """A numerical routine failed: it did not converge within its cap, or
    its arithmetic overflowed."""


class BoundUndefinedError(PinnetError, ValueError):
    """An analytic gain bound was requested outside its domain of validity."""


class BoundaryCaseError(PinnetError, RuntimeError):
    """Roundoff leaves a minimal uniform gain uncertain beyond its tolerance."""


class RegionShapeError(PinnetError, RuntimeError):
    """A mode system's stable set along the coupling axis is not one half-line
    (-inf, r) with r <= 0: it is stable at 0, stable nowhere, or split."""


class DivergenceError(PinnetError, RuntimeError):
    """Integration produced a non-finite state.

    Attributes
    ----------
    time : float
        Simulation time at which the first non-finite value appeared.
    """

    def __init__(self, time: float):
        super().__init__(f"state diverged (non-finite) at t={time:.6g}")
        self.time = time


class ScenarioDefinitionError(PinnetError, ValueError):
    """A scenario file or definition is internally inconsistent."""


@contextmanager
def about(where):
    """Re-raise a PinnetError or OSError raised inside as "<where>: <message>",
    of the same type and with the original as its cause; nested uses read
    outermost first. Other exceptions pass through untouched."""
    try:
        yield
    except (PinnetError, OSError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def positive(name: str, value, error: type = ContractViolationError) -> None:
    """Refuse `value` with `error`, "<name> must be finite and positive, got
    <repr>", unless it is a finite number above 0; NaN fails `value > 0`."""
    if not (value > 0 and math.isfinite(value)):
        raise error(f"{name} must be finite and positive, got {value!r}")


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def checked(value, kind: type, name: str):
    """`value` as `kind` (int, float, str, list or dict), refusing other types.

    Booleans are no numbers here, and an int field takes no float, so nothing
    is truncated. Raises ScenarioDefinitionError naming the field `name`.
    """
    if kind is int:
        ok = isinstance(value, numbers.Integral)
    elif kind is float:
        ok = isinstance(value, numbers.Real)
    else:
        ok = isinstance(value, kind)
    if not ok or (kind in (int, float) and isinstance(value, bool)):
        raise ScenarioDefinitionError(f"{name} must be {_KINDS[kind]}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioDefinitionError(f"{name} is an integer too large for a float") from None


def _object(d, where: str) -> None:
    if not isinstance(d, dict):
        raise ScenarioDefinitionError(f"{where or 'document'} must be an object, got {d!r}")


def known_keys(d, where: str, keys) -> None:
    """Refuse the JSON object `d` at path `where` if it holds a key not in
    `keys`: a key no reader takes, a misspelt one say, is not ignored."""
    _object(d, where)
    for key in d:
        if key not in keys:
            name = f"{where}.{key}" if where else key
            raise ScenarioDefinitionError(
                f"{name} is not a known key (expected one of {', '.join(keys)})")


def field(d, where: str, key: str, kind: type, default=_REQUIRED):
    """Field `key` of the JSON object `d` at path `where`, checked as `kind`.

    A missing field takes `default`, or is refused when there is none.
    """
    name = f"{where}.{key}" if where else key
    _object(d, where)
    if key not in d:
        if default is _REQUIRED:
            raise ScenarioDefinitionError(f"{name} is missing")
        return default
    return checked(d[key], kind, name)


def read_text(path) -> str:
    """The UTF-8 text of the file `path`; other bytes raise a PinnetError naming it."""
    with open(path, encoding="utf-8") as fh, about(path):
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ContractViolationError(
                f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path):
    """The JSON document in the file `path`; malformed JSON, a repeated key or
    an integer over int()'s digit limit raises a PinnetError naming the file."""
    text = read_text(path)

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ContractViolationError(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    with about(path):
        try:
            return json.loads(text, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise ContractViolationError(f"not JSON ({exc})") from None
        except PinnetError:  # a repeated key
            raise
        except ValueError:  # int() refuses an integer literal over its digit limit
            raise ContractViolationError(
                f"an integer has more than {sys.get_int_max_str_digits()} digits") from None

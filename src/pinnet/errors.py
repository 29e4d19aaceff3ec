"""Exception types shared across the package, and the readers of input files
and of typed fields.

The CLI maps these onto exit codes: scenario/comparison definition
problems exit with 2, simulation divergence with 3.
"""

import json
import numbers


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
    """A definiteness test sits on a knife edge and the outcome is indeterminate."""


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


class ComparisonDefinitionError(ScenarioDefinitionError):
    """A comparison request mixes incompatible scenarios."""


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
    return kind(value)


def field(d, where: str, key: str, kind: type, default=_REQUIRED):
    """Field `key` of the JSON object `d` at path `where`, checked as `kind`.

    A missing field takes `default`, or is refused when there is none.
    """
    name = f"{where}.{key}" if where else key
    if not isinstance(d, dict):
        raise ScenarioDefinitionError(f"{where or 'document'} must be an object, got {d!r}")
    if key not in d:
        if default is _REQUIRED:
            raise ScenarioDefinitionError(f"{name} is missing")
        return default
    return checked(d[key], kind, name)


def read_text(path) -> str:
    """The UTF-8 text of the file `path`; other bytes raise a PinnetError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ContractViolationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def read_json(path):
    """The JSON document in the file `path`; malformed JSON raises a PinnetError naming it."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractViolationError(f"{path}: not JSON ({exc})") from None

"""Exception types shared across the package, and the two input checks that
several modules share: positive integers and finite JSON numbers."""

import math


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class InvalidInputError(ValueError):
    """Malformed or invariant-violating input.

    `field` names the offending field path (e.g. ``points[2][0]``) when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class ResourceError(RuntimeError):
    """A solver cap was exceeded (candidate count, subdivision panels, node budget)."""


class PropertyViolationError(RuntimeError):
    """A checked mathematical property failed to hold."""


def _check_positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return value


def _check_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"expected a number, got {value!r}", field=field)
    value = float(value)
    if not math.isfinite(value):
        # json.loads accepts the NaN and Infinity literals
        raise InvalidInputError("must be finite", field=field)
    return value

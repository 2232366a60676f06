"""Exception types shared across the toolkit, and the input readers and
checks that map malformed files and arrays onto ``InvalidInputError``."""

import json
from contextlib import contextmanager

import numpy as np


class InvalidInputError(ValueError):
    """A caller-supplied argument violates a documented precondition."""


class ConsistencyError(RuntimeError):
    """An internal numerical invariant was violated (e.g. a PSD quadratic
    form evaluated to a significantly negative value)."""


class SolverError(RuntimeError):
    """A numerical solver failed to reach its target accuracy.

    Carries the final residual so callers can report diagnostics.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class SupportBlowupError(RuntimeError):
    """Exact dynamic programming exceeded the configured atom budget."""


@contextmanager
def malformed_as_invalid(what: str):
    """Re-raise a missing key, wrong type or bad value met while decoding
    ``what`` as ``InvalidInputError``."""
    try:
        yield
    except InvalidInputError:
        raise
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed {what}: {exc!r}") from exc


def read_json(path, what: str):
    """Parsed contents of a JSON file; a file that cannot be opened or is
    not JSON raises ``InvalidInputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc


def json_real(value) -> float:
    """A JSON number as a float. Booleans, strings and integers beyond the
    float range raise rather than convert."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"number out of the float range: {value!r}") from None


def json_integer(value) -> int:
    """A JSON integer, or a number with an integral value such as 1e4.
    Booleans, strings, fractions and integers of 2^60 or more, which no
    count can take, raise rather than truncate: numpy refuses an array of
    more than (2^63 - 1) // 8 doubles with a ValueError before it
    allocates."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    if abs(value) >= 2**60:
        raise ValueError(f"integer beyond any array's length: {value!r}")
    return int(value)


def json_field(payload: dict, key: str, cast, what: str):
    """``cast(payload[key])``, where ``cast`` is ``json_real`` or
    ``json_integer``; a missing key or a value the cast rejects raises
    ``InvalidInputError`` naming ``what.key``."""
    with malformed_as_invalid(f"{what}.{key}"):
        return cast(payload[key])


def json_array(value, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float64 array. A string, a boolean
    or ragged lists raise ``InvalidInputError`` naming ``what``, as
    ``json_real`` does."""
    with malformed_as_invalid(what):
        leaves = np.array(value, dtype=object)
        if not set(map(type, leaves.ravel().tolist())) <= {int, float}:
            raise TypeError("expected numbers")
        return leaves.astype(np.float64)


def checked_array(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape``, else ``InvalidInputError``."""
    with malformed_as_invalid(what):
        array = np.asarray(value, dtype=np.float64)
    if array.shape != shape:
        raise InvalidInputError(f"{what} has shape {array.shape}, expected {shape}")
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{what} holds non-finite entries")
    return array

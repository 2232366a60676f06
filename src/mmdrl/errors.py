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
    except (LookupError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed {what}: {exc!r}") from exc


def read_json(path, what: str):
    """Parsed contents of a JSON file; a file that cannot be opened or is
    not JSON raises ``InvalidInputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc


def checked_array(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape``, else ``InvalidInputError``."""
    with malformed_as_invalid(what):
        array = np.asarray(value, dtype=np.float64)
    if array.shape != shape:
        raise InvalidInputError(f"{what} has shape {array.shape}, expected {shape}")
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{what} holds non-finite entries")
    return array

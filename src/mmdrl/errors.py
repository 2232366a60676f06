"""Exception types shared across the toolkit, and the one reader of JSON
input. Config sections and every input document (MDP, support, measure and
return-distribution files) are read by ``read_fields`` and a field table:
numbers are JSON numbers, arrays nested lists of a stated depth, and a
missing field or an unknown key raises ``InvalidInputError`` naming it.
"""

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


def require(cond: bool, message: str) -> None:
    """Raise ``InvalidInputError`` with ``message`` unless ``cond`` holds."""
    if not cond:
        raise InvalidInputError(message)


def read_json(path, what: str):
    """Parsed contents of a JSON file; a file that cannot be opened or is
    not JSON raises ``InvalidInputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """``payload`` as compact JSON. json.dumps runs the C encoder; json.dump
    always takes the pure-Python one. Both write the same bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))


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


def check_doubles(count: int, what: str) -> None:
    """Raise ``InvalidInputError`` naming ``what`` when an array of
    ``count`` doubles passes numpy's largest byte size, where numpy would
    raise a ValueError before allocating."""
    if count * 8 > np.iinfo(np.intp).max:
        raise InvalidInputError(f"{what}: an array of {count} doubles is too big for numpy")


def json_array(form: str):
    """The cast of nested lists of JSON numbers to a float64 array of one
    ``form``: a "vector" (one level of lists), a "matrix" (two), or
    "points", a matrix of one point per row in which a flat list is n
    points at d = 1. Strings, booleans, ragged lists and any other depth
    raise."""
    def cast(value) -> np.ndarray:
        leaves = np.array(value, dtype=object)
        if not set(map(type, leaves.ravel().tolist())) <= {int, float}:
            raise TypeError("expected numbers")
        if form == "points" and leaves.ndim == 1:
            leaves = leaves[:, None]
        if leaves.ndim != (1 if form == "vector" else 2):
            raise ValueError(f"expected a {form} array, got {leaves.ndim} levels of lists")
        return leaves.astype(np.float64)
    return cast


def json_list(cast, what: str):
    """The cast of a JSON list to a tuple, item by item through ``cast``; an
    item it rejects raises ``InvalidInputError`` naming ``what[i]``, also
    when the cast raised that error itself."""
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {value!r}")
        items = []
        for i, item in enumerate(value):
            with malformed_as_invalid(f"{what}[{i}]"):
                try:
                    items.append(cast(item))
                except InvalidInputError as exc:
                    raise InvalidInputError(f"{what}[{i}]: {exc}") from exc
        return tuple(items)
    return read


def checked_array(value, shape: tuple, what: str) -> np.ndarray:
    """``value`` as a finite float64 array of ``shape``, else ``InvalidInputError``."""
    with malformed_as_invalid(what):
        array = np.asarray(value, dtype=np.float64)
    if array.shape != shape:
        raise InvalidInputError(f"{what} has shape {array.shape}, expected {shape}")
    if not np.all(np.isfinite(array)):
        raise InvalidInputError(f"{what} holds non-finite entries")
    return array


# A field table maps each key to its field, in the order the result lists
# them. A field is a (cast, default, bound) triple, or a bare cast for a
# required field with no bound. A field whose default is null also takes
# null, which skips its cast and bound. A nested dict is a subsection; a
# None entry is a key read elsewhere, skipped here. A "kind" entry maps
# each kind to the fields it reads; the first is the default, and a key
# that any kind reads is known to all of them.
_REQUIRED = object()


def _within(value, bound) -> bool:
    """Whether ``value`` lies in ``bound``: an interval such as "[0, 1)" or
    "(0, inf)", or a tuple of choices."""
    if isinstance(bound, tuple):
        return value in bound
    lo, hi = map(float, bound[1:-1].split(","))
    return (lo <= value if bound[0] == "[" else lo < value) and (
        value <= hi if bound[-1] == "]" else value < hi
    )


def read_fields(raw, table: dict, where: str) -> dict:
    """The JSON object ``raw`` read by its field ``table``: every field cast
    and checked against its bound, every default filled in. A value that
    is not an object, an unknown key, a missing field or a value its cast
    or bound rejects raises ``InvalidInputError`` naming ``where.key``."""
    require(isinstance(raw, dict), f"{where} must be a JSON object")
    kinds = table.get("kind", {})
    unknown = sorted(set(raw).difference(table, *kinds.values()))
    require(not unknown, f"{where} has unknown keys {unknown}")
    out = {}
    if kinds:
        kind = out["kind"] = raw.get("kind", next(iter(kinds)))
        # A tuple, as a list or object kind cannot be hashed.
        require(kind in tuple(kinds), f"unknown {where} kind {kind!r}")
        table = kinds[kind]
    for key, field in table.items():
        name = f"{where}.{key}"
        if field is None:
            continue
        if isinstance(field, dict):
            out[key] = read_fields(raw.get(key, {}), field, name)
            continue
        cast, default, bound = field if isinstance(field, tuple) else (field, _REQUIRED, None)
        require(key in raw or default is not _REQUIRED, f"{where} needs {key!r}")
        value = out[key] = raw.get(key, default)
        if value is None and default is None:
            continue
        with malformed_as_invalid(name):
            value = out[key] = cast(value)
        if bound is not None:
            require(_within(value, bound), f"{name} must be in {bound}, got {value!r}")
    return out

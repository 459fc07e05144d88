"""Strict JSON request validation for the aggregation service.

Every request body is validated here *before* anything touches an
engine: wrong types, out-of-range values, unknown keys, and size-guard
violations all become :class:`~repro.serve.http.HTTPError` (400 for
malformed input, 413 for size guards) with messages naming the offending
field.  The validators return plain dicts / numpy arrays ready for the
session and aggregate layers, so the handlers stay declarative.

Label vectors are validated vectorized (no Python-level element loop):
a JSON array round-trips through ``np.asarray`` and anything that is not
integer-dtyped afterwards — floats, strings, nulls, booleans, nesting —
is rejected wholesale.
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np

from ..core.aggregate import available_methods
from ..core.kernels import check_missing_model
from ..core.labels import MISSING
from .http import HTTPError

__all__ = [
    "aggregate_request",
    "observe_labels",
    "session_config",
]

#: Session names: filesystem- and URL-safe (they become checkpoint stems).
_SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_SESSION_KEYS = frozenset(
    {"name", "n", "p", "missing", "decay", "sampling_threshold", "sample_size", "seed"}
)

_AGGREGATE_KEYS = frozenset({"clusterings", "method", "n_shards", "p", "seed"})


def _require_object(payload: Any) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise HTTPError(400, "request body must be a JSON object")
    return payload


def _integer(payload: dict[str, Any], key: str, default: int | None) -> int | None:
    value = payload.get(key, default)
    if value is default:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise HTTPError(400, f"`{key}` must be an integer")
    return value


def _number(payload: dict[str, Any], key: str, default: float) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise HTTPError(400, f"`{key}` must be a number")
    return float(value)


def _check_missing_model(p: float, missing: Any = "coin-flip") -> None:
    try:
        check_missing_model(p, missing)
    except ValueError as exc:
        raise HTTPError(400, str(exc)) from None


def _reject_unknown(payload: dict[str, Any], allowed: frozenset[str], what: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise HTTPError(400, f"unknown {what} field(s): {', '.join(unknown)}")


def session_config(payload: Any, *, max_n: int) -> dict[str, Any]:
    """Validate a session-creation body.

    Returns ``{"name": str, "n": int, "engine": {kwargs for
    StreamingAggregator}}``; the engine kwargs include the ``rng`` seed
    so a restored or fresh engine is reproducible from the request.
    """
    payload = _require_object(payload)
    _reject_unknown(payload, _SESSION_KEYS, "session")
    name = payload.get("name")
    if not isinstance(name, str) or not _SESSION_NAME.match(name):
        raise HTTPError(
            400,
            "`name` must match [A-Za-z0-9][A-Za-z0-9._-]* and be at most 64 characters",
        )
    n = _integer(payload, "n", None)
    if n is None or n < 1:
        raise HTTPError(400, "`n` (number of objects) must be a positive integer")
    if n > max_n:
        raise HTTPError(413, f"n={n} exceeds the server limit max_n={max_n}")
    p = _number(payload, "p", 0.5)
    missing = payload.get("missing", "coin-flip")
    _check_missing_model(p, missing)
    decay = _number(payload, "decay", 1.0)
    if not 0.0 < decay <= 1.0:
        raise HTTPError(400, "`decay` must lie in (0, 1]")
    sampling_threshold = _integer(payload, "sampling_threshold", 5000)
    if sampling_threshold is None or sampling_threshold < 1:
        raise HTTPError(400, "`sampling_threshold` must be a positive integer")
    sample_size = _integer(payload, "sample_size", None)
    if sample_size is not None and sample_size < 1:
        raise HTTPError(400, "`sample_size` must be a positive integer")
    rng_seed = _integer(payload, "seed", 0)
    return {
        "name": name,
        "n": n,
        "engine": {
            "p": p,
            "missing": missing,
            "decay": decay,
            "sampling_threshold": sampling_threshold,
            "sample_size": sample_size,
            "rng": rng_seed,
        },
    }


def _label_vector(raw: Any, n: int | None, what: str) -> np.ndarray:
    """One length-``n`` integer label vector (``-1`` = missing), or 400."""
    if not isinstance(raw, list):
        raise HTTPError(400, f"{what} must be a JSON array of integers")
    column = np.asarray(raw)
    if column.ndim != 1 or not np.issubdtype(column.dtype, np.integer):
        raise HTTPError(400, f"{what} must be a flat array of integers")
    if n is not None and column.shape[0] != n:
        raise HTTPError(400, f"{what} must cover all {n} objects, got {column.shape[0]}")
    if np.any(column < MISSING):
        raise HTTPError(400, f"{what} entries must be >= -1 (-1 marks a missing value)")
    if np.all(column == MISSING):
        raise HTTPError(400, f"{what} is entirely missing and carries no information")
    return column.astype(np.int64, copy=False)


def observe_labels(payload: Any, n: int) -> np.ndarray:
    """Validate an observe body: ``{"labels": [...]}`` of length ``n``."""
    payload = _require_object(payload)
    _reject_unknown(payload, frozenset({"labels"}), "observe")
    return _label_vector(payload.get("labels"), n, "`labels`")


def aggregate_request(payload: Any, *, max_n: int) -> dict[str, Any]:
    """Validate a one-shot aggregate body.

    ``{"clusterings": [[...], ...], "method"?, "n_shards"?, "p"?,
    "seed"?}`` — the clusterings are ``m`` label vectors over the same
    ``n`` objects; ``n_shards`` is only valid with ``method="sharded"``.
    Returns ``{"matrix": (n, m) int64 array, "method", "p", "rng",
    "n_shards"}``.
    """
    payload = _require_object(payload)
    _reject_unknown(payload, _AGGREGATE_KEYS, "aggregate")
    clusterings = payload.get("clusterings")
    if not isinstance(clusterings, list) or not clusterings:
        raise HTTPError(400, "`clusterings` must be a non-empty list of label arrays")
    first = _label_vector(clusterings[0], None, "`clusterings[0]`")
    n = first.shape[0]
    if n > max_n:
        raise HTTPError(413, f"n={n} exceeds the server limit max_n={max_n}")
    columns = [first]
    for j, raw in enumerate(clusterings[1:], start=1):
        columns.append(_label_vector(raw, n, f"`clusterings[{j}]`"))
    method = payload.get("method", "portfolio")
    if method not in available_methods():
        raise HTTPError(
            400, f"unknown method {method!r}; one of {', '.join(available_methods())}"
        )
    p = _number(payload, "p", 0.5)
    _check_missing_model(p)
    rng_seed = _integer(payload, "seed", 0)
    n_shards = _integer(payload, "n_shards", None)
    if n_shards is not None:
        if method != "sharded":
            raise HTTPError(400, "`n_shards` is only valid with method 'sharded'")
        if n_shards < 1:
            raise HTTPError(400, "`n_shards` must be a positive integer")
    return {
        "matrix": np.column_stack(columns),
        "method": method,
        "p": p,
        "rng": rng_seed,
        "n_shards": n_shards,
    }

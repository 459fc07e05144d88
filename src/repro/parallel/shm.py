"""The library-wide worker-count convention.

:func:`resolve_jobs` centralizes the convention used by every ``n_jobs``
parameter in the library: an explicit integer wins, then the
``REPRO_JOBS`` environment variable, then the serial default of 1; zero
or a negative value means "all cores".  Worker pools hand their inputs
over by ``fork`` inheritance, so on a platform without the ``fork``
start method every count resolves to 1 and the serial path runs (with
bit-identical results).
"""

from __future__ import annotations

import multiprocessing
import numbers
import os

__all__ = ["resolve_jobs"]

#: Environment variable consulted when ``n_jobs`` is ``None``.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(n_jobs: int | None = None) -> int:
    """Resolve an ``n_jobs`` parameter to a concrete worker count.

    Precedence: an explicit ``n_jobs`` integer always wins; ``None``
    consults the ``REPRO_JOBS`` environment variable (unset or empty
    means 1, i.e. the serial path); ``0`` or a negative value — whether
    passed explicitly or via the environment — selects every available
    core.  Anything other than ``None`` or an integer (Python or numpy;
    ``bool`` excluded) raises a ValueError.  The result is always at
    least 1, and exactly 1 where ``fork`` is not a start method.
    """
    if n_jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    elif isinstance(n_jobs, bool) or not isinstance(n_jobs, numbers.Integral):
        raise ValueError(f"n_jobs must be an integer or None, got {n_jobs!r}")
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if n_jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return int(n_jobs)

"""Process-parallel execution backend (fork pools).

The paper's run-everything-report-the-best experimental pattern
(:mod:`repro.parallel.portfolio`) runs its members concurrently, and
SAMPLING's assignment phase fans its row blocks out
(:func:`parallel_assign`); shard solves fan out the same way.  All three
go through :func:`repro.parallel.workers.fan_out`, the one place that
picks serial against pooled, forks, and grafts the workers' spans back:
read-only inputs (label matrix, instance) are inherited at fork without
being pickled or copied, and only indices and results cross the pipes.
Every result is bit-identical to its serial counterpart for every worker
count.  The dense build of ``X`` is serial: each of its blocks is one
BLAS product, which already uses every core.

Worker counts follow one convention everywhere, implemented by
:func:`resolve_jobs`: explicit ``n_jobs`` wins, then the ``REPRO_JOBS``
environment variable, then the serial default of 1; zero or negative
means "all cores".  Without ``fork`` every count resolves to 1.
"""

from .portfolio import DEFAULT_PORTFOLIO, AlgorithmRun, PortfolioResult, portfolio
from .workers import JOBS_ENV_VAR, parallel_assign, resolve_jobs

__all__ = [
    "AlgorithmRun",
    "DEFAULT_PORTFOLIO",
    "JOBS_ENV_VAR",
    "PortfolioResult",
    "parallel_assign",
    "portfolio",
    "resolve_jobs",
]

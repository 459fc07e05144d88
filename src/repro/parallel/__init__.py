"""Process-parallel execution backend (fork pools).

The two embarrassingly parallel choke points of the pipeline live here:
the ``O(m n²)`` construction of the disagreement matrix (fanned out over
row blocks by :mod:`repro.parallel.build`) and the paper's
run-everything-report-the-best experimental pattern
(:mod:`repro.parallel.portfolio`).  Every pool is ``fork``-started, so
read-only inputs (label matrix, instance) reach the workers through the
pool's ``initargs`` without being pickled or copied; the pooled build
writes ``X`` into one anonymous shared mapping.  Both are bit-identical
to their serial counterparts for every worker count.

Worker counts follow one convention everywhere, implemented by
:func:`resolve_jobs`: explicit ``n_jobs`` wins, then the ``REPRO_JOBS``
environment variable, then the serial default of 1; zero or negative
means "all cores".  Without ``fork`` every count resolves to 1.
"""

from .build import parallel_assign
from .portfolio import DEFAULT_PORTFOLIO, AlgorithmRun, PortfolioResult, portfolio
from .shm import JOBS_ENV_VAR, resolve_jobs

__all__ = [
    "AlgorithmRun",
    "DEFAULT_PORTFOLIO",
    "JOBS_ENV_VAR",
    "PortfolioResult",
    "parallel_assign",
    "portfolio",
    "resolve_jobs",
]

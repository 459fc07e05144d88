"""Process-parallel execution backend (shared-memory pools).

The two embarrassingly parallel choke points of the pipeline live here:
the ``O(m n²)`` construction of the disagreement matrix (fanned out over
row blocks by :mod:`repro.parallel.build`) and the paper's
run-everything-report-the-best experimental pattern
(:mod:`repro.parallel.portfolio`).  Both exchange data through named
shared-memory segments (:mod:`repro.parallel.shm`) — the quadratic
matrices are never pickled — and both are bit-identical to their serial
counterparts for every worker count.

Worker counts follow one convention everywhere, implemented by
:func:`resolve_jobs`: explicit ``n_jobs`` wins, then the ``REPRO_JOBS``
environment variable, then the serial default of 1; zero or negative
means "all cores".
"""

from .build import parallel_assign
from .portfolio import DEFAULT_PORTFOLIO, AlgorithmRun, PortfolioResult, portfolio
from .shm import JOBS_ENV_VAR, SharedNDArray, resolve_jobs

__all__ = [
    "AlgorithmRun",
    "DEFAULT_PORTFOLIO",
    "JOBS_ENV_VAR",
    "PortfolioResult",
    "SharedNDArray",
    "parallel_assign",
    "portfolio",
    "resolve_jobs",
]

"""Static analysis and runtime contracts for the reproduction.

* :mod:`repro.analysis.lint` — **repolint**, an AST-based linter with
  repository-specific per-file rules (RPR001–RPR009, RPR012, RPR014),
  such as no global-state RNG, no Python-level pair loops in kernel
  packages and explicit dtypes in kernel allocations.  Run as
  ``python -m repro.analysis.lint src tests benchmarks``.
* :mod:`repro.analysis.contracts` — debug-mode runtime contracts
  (``REPRO_CONTRACTS=1``) validating instance symmetry/range/triangle
  inequality, canonical labels, and streaming drift bounds.

``contracts`` is imported eagerly (the core hooks need its flag); the
linter is import-on-demand so library users never pay for it.
"""

from .contracts import (
    ContractViolation,
    check_canonical_labels,
    check_distance_matrix,
    check_stream_drift,
    contracts,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)

__all__ = [
    "ContractViolation",
    "check_canonical_labels",
    "check_distance_matrix",
    "check_stream_drift",
    "contracts",
    "contracts_enabled",
    "disable_contracts",
    "enable_contracts",
]

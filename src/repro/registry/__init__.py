"""Unified method registry — the single dispatch seam of the library.

Every named algorithm the repository exposes — the paper's aggregation
methods, the related-work consensus baselines, and the base clusterers
that feed them — is described by one :class:`MethodSpec` here.  The
layers that previously kept their own hand-rolled method tables
(``aggregate()``, the parallel portfolio, the shard engine's merge
selection, the serve schema validation, the CLI) all resolve names and
validate parameters through this package instead; repolint rule RPR014
keeps it that way.

The package imports nothing from the rest of :mod:`repro` at import time
(see :mod:`repro.registry.store`), so it is safe to import from anywhere.
"""

from .spec import REQUIRED, BaseClusterer, MethodSpec, ParamSpec, SolveContext
from .store import (
    aggregate_method_names,
    all_specs,
    baseline_method_names,
    clusterer_names,
    consumes_x,
    get_clusterer,
    get_method,
    instance_method_names,
    is_stochastic,
    method_names,
    register_clusterer,
    register_method,
    resolve_instance_method,
    stochastic_method_names,
    validate_params,
)

__all__ = [
    "REQUIRED",
    "BaseClusterer",
    "MethodSpec",
    "ParamSpec",
    "SolveContext",
    "aggregate_method_names",
    "all_specs",
    "baseline_method_names",
    "clusterer_names",
    "consumes_x",
    "get_clusterer",
    "get_method",
    "instance_method_names",
    "is_stochastic",
    "method_names",
    "register_clusterer",
    "register_method",
    "resolve_instance_method",
    "stochastic_method_names",
    "validate_params",
]

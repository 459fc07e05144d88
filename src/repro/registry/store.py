"""The method registry: registration decorators, lookups, lazy loading.

The store is deliberately a *leaf* module: it imports nothing from the
rest of :mod:`repro` at import time, so any layer (core, parallel, shard,
serve, CLI, pipeline) can import it without cycles.  The built-in method
modules register themselves via the decorators below when *they* are
imported; :func:`_ensure_loaded` imports them all lazily the first time
anyone performs a lookup, with a re-entrancy guard so a registration
module that itself consults the registry at import time cannot recurse.

Lookup error messages are part of the public behaviour contract — the
``"unknown method ...; choose from ..."`` and ``"unknown inner algorithm
..."`` texts predate the registry and are matched by tests.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from typing import Any

from .spec import REQUIRED, MethodSpec, ParamSpec, SolveContext, derive_params, summary_from

__all__ = [
    "register_method",
    "register_clusterer",
    "get_method",
    "get_clusterer",
    "method_names",
    "aggregate_method_names",
    "baseline_method_names",
    "clusterer_names",
    "stochastic_method_names",
    "consumes_x",
    "instance_method_names",
    "resolve_instance_method",
    "is_stochastic",
    "all_specs",
]

#: (role, name) -> spec.  Populated by the registration decorators.
_REGISTRY: dict[tuple[str, str], MethodSpec] = {}

#: Modules whose import registers the built-in methods.  Order matters
#: only for readability; each module is independent.
_BUILTIN_MODULES = (
    "repro.algorithms",
    "repro.consensus",
    "repro.parallel.portfolio",
    "repro.shard.engine",
    "repro.stream.engine",
    "repro.registry.clusterers",
)

_ROLES = ("aggregate", "baseline", "clusterer")
_KINDS = ("instance", "label-fast", "matrix", "points", "categorical")

_loaded = False
_loading = False


def _ensure_loaded() -> None:
    """Import every built-in registration module exactly once."""
    global _loaded, _loading
    if _loaded or _loading:
        return
    _loading = True
    try:
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)
        _loaded = True
    finally:
        _loading = False


def _register(spec: MethodSpec) -> None:
    if spec.role not in _ROLES:
        raise ValueError(f"unknown registry role {spec.role!r}; one of {_ROLES}")
    if spec.kind not in _KINDS:
        raise ValueError(f"unknown method kind {spec.kind!r}; one of {_KINDS}")
    key = (spec.role, spec.name)
    if key in _REGISTRY and _REGISTRY[key].func is not spec.func:
        raise ValueError(f"duplicate registration for {spec.role} method {spec.name!r}")
    _REGISTRY[key] = spec


def _apply_defaults(
    params: tuple[ParamSpec, ...], defaults: dict[str, Any] | None
) -> tuple[ParamSpec, ...]:
    if not defaults:
        return params
    unknown = set(defaults) - {p.name for p in params}
    if unknown:
        raise ValueError(f"defaults override unknown parameter(s): {sorted(unknown)}")
    return tuple(
        ParamSpec(p.name, p.annotation, defaults.get(p.name, p.default), p.doc)
        for p in params
    )


def register_method(
    name: str,
    *,
    role: str = "aggregate",
    kind: str,
    stochastic: bool = False,
    supports_weights: bool = False,
    supports_missing: bool = True,
    supports_collapse: bool = True,
    needs_instance: bool = False,
    consumes_x: bool = False,
    solver: Callable[[SolveContext], Any] | None = None,
    params_from: Callable[..., Any] | None = None,
    exclude: tuple[str, ...] = (),
    defaults: dict[str, Any] | None = None,
    summary: str | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register the decorated function as a named method.

    The decorated function is returned *unchanged* — registration is pure
    bookkeeping, so decorating an algorithm cannot perturb its behaviour
    (the bit-identity contract).  The parameter schema is derived from the
    signature of ``params_from`` (default: the function itself), minus the
    leading data argument, ``exclude``-ed infrastructure parameters, and
    with ``defaults`` overrides applied (e.g. SAMPLING's ``inner`` is a
    required positional of the raw function but defaults to
    ``"agglomerative"`` at the dispatch layer).
    """

    def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
        source = params_from if params_from is not None else func
        params, accepts_extra = derive_params(source, exclude=exclude)
        _register(
            MethodSpec(
                name=name,
                role=role,
                kind=kind,
                func=func,
                stochastic=stochastic,
                supports_weights=supports_weights,
                supports_missing=supports_missing,
                supports_collapse=supports_collapse,
                needs_instance=needs_instance,
                consumes_x=consumes_x,
                accepts_extra=accepts_extra,
                summary=summary if summary is not None else summary_from(func),
                params=_apply_defaults(params, defaults),
                solver=solver,
            )
        )
        return func

    return decorate


def register_clusterer(
    name: str,
    *,
    data: str = "points",
    stochastic: bool = False,
    params_from: Callable[..., Any] | None = None,
    exclude: tuple[str, ...] = (),
    defaults: dict[str, Any] | None = None,
    summary: str | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a base clusterer (``data`` is ``"points"`` or ``"categorical"``)."""
    return register_method(
        name,
        role="clusterer",
        kind=data,
        stochastic=stochastic,
        params_from=params_from,
        exclude=exclude,
        defaults=defaults,
        summary=summary,
    )


def get_method(name: str, role: str = "aggregate") -> MethodSpec:
    """Look a method up by name, raising the layer's canonical ValueError."""
    _ensure_loaded()
    spec = _REGISTRY.get((role, name))
    if spec is None:
        if role == "aggregate":
            raise ValueError(
                f"unknown method {name!r}; choose from {method_names('aggregate')}"
            )
        if role == "clusterer":
            raise ValueError(
                f"unknown base clusterer {name!r}; choose from {method_names('clusterer')}"
            )
        raise ValueError(
            f"unknown {role} method {name!r}; choose from {method_names(role)}"
        )
    return spec


def get_clusterer(name: str) -> MethodSpec:
    """Look up a registered base clusterer."""
    return get_method(name, role="clusterer")


def method_names(role: str = "aggregate") -> tuple[str, ...]:
    """Sorted names registered under ``role``."""
    _ensure_loaded()
    return tuple(sorted(name for (r, name) in _REGISTRY if r == role))


def aggregate_method_names() -> tuple[str, ...]:
    """Names accepted by :func:`repro.core.aggregate.aggregate`."""
    return method_names("aggregate")


def baseline_method_names() -> tuple[str, ...]:
    """Names of the related-work consensus baselines (§6)."""
    return method_names("baseline")


def clusterer_names() -> tuple[str, ...]:
    """Names of the registered base clusterers."""
    return method_names("clusterer")


def stochastic_method_names() -> tuple[str, ...]:
    """Aggregate-role methods whose output depends on an ``rng`` seed."""
    _ensure_loaded()
    return tuple(
        sorted(
            name
            for (role, name), spec in _REGISTRY.items()
            if role == "aggregate" and spec.stochastic
        )
    )


def instance_method_names() -> tuple[str, ...]:
    """Aggregate-role methods callable on a bare :class:`CorrelationInstance`."""
    _ensure_loaded()
    return tuple(
        sorted(
            name
            for (role, name), spec in _REGISTRY.items()
            if role == "aggregate" and spec.kind in ("instance", "label-fast")
        )
    )


def is_stochastic(name: str, role: str = "aggregate") -> bool:
    """Whether the named method consumes an ``rng`` seed."""
    return get_method(name, role=role).stochastic


def resolve_instance_method(
    inner: str | Callable[..., Any],
) -> Callable[..., Any]:
    """Resolve an instance-level algorithm from a name or callable.

    This is the seam SAMPLING, the portfolio, and the shard engine use to
    turn an ``inner=`` / ``methods=`` / ``shard_method=`` name into a
    callable; arbitrary callables pass through so users can plug in their
    own algorithms.
    """
    if callable(inner):
        return inner
    _ensure_loaded()
    spec = _REGISTRY.get(("aggregate", inner))
    if spec is None or spec.kind not in ("instance", "label-fast"):
        raise ValueError(
            f"unknown inner algorithm {inner!r}; choose from {list(instance_method_names())}"
        )
    return spec.func


def consumes_x(inner: Callable[..., Any]) -> bool:
    """Whether ``inner`` is the function of a registered method declaring ``consumes_x``.

    SAMPLING asks this of its resolved ``inner``: only a registered
    method's own function gets a sub-instance's ``X`` handed over, never
    a wrapper around it that might read ``X`` afterwards.
    """
    _ensure_loaded()
    return any(
        spec.consumes_x and spec.func is inner
        for (role, _), spec in _REGISTRY.items()
        if role == "aggregate"
    )


def all_specs(role: str | None = None) -> tuple[MethodSpec, ...]:
    """Every registered spec (optionally restricted to one role), sorted."""
    _ensure_loaded()
    return tuple(
        spec
        for (r, name), spec in sorted(_REGISTRY.items())
        if role is None or r == role
    )


def validate_params(name: str, params: dict[str, Any], role: str = "aggregate") -> None:
    """Registry-driven keyword validation for ``aggregate(**params)`` et al."""
    get_method(name, role=role).validate_params(params)


# REQUIRED is re-exported so registration modules can declare overrides.
_ = REQUIRED

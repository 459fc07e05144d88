"""Method and parameter specifications — the registry's data model.

A :class:`MethodSpec` is the single source of truth about one named
algorithm: how :func:`repro.core.aggregate.aggregate` must run it (its
*kind*), which keyword parameters it accepts (derived from the function
signature, documented from its numpydoc ``Parameters`` section), whether
it consumes a seed, and what capabilities it offers (weighted atoms,
missing labels, duplicate collapsing).  Every layer that used to keep its
own method table — ``aggregate()``, the portfolio, the shard merge, the
serve schema validation, the CLI — now reads these specs instead.

Three roles share the one registry:

``aggregate``
    Consensus methods runnable through ``aggregate(inputs, method=...)``.
    Kinds: ``"instance"`` (consume a :class:`CorrelationInstance`),
    ``"label-fast"`` (prefer the raw ``(n, m)`` label matrix — no
    quadratic structure is ever built), and ``"matrix"`` (own their whole
    solve via a registered ``solver`` adapter).
``baseline``
    Related-work consensus methods (§6: CSPA, MCLA, evidence
    accumulation, the mixture model) that need ``k`` or other guidance
    the paper's methods do not; they are not exposed through
    ``aggregate()`` (its public method set is frozen by the determinism
    contract) but are first-class in :mod:`repro.pipeline` configs.
``clusterer``
    Base clusterers behind the :class:`BaseClusterer` protocol (k-means,
    DBSCAN, the linkage family, LIMBO, ROCK); the pipeline's base stage
    resolves these.  For clusterers the ``kind`` field records the data
    they consume: ``"points"`` or ``"categorical"``.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    import numpy as np

    from ..core.atoms import AtomCollapse
    from ..core.instance import CorrelationInstance
    from ..core.partition import Clustering

__all__ = [
    "REQUIRED",
    "BaseClusterer",
    "MethodSpec",
    "ParamSpec",
    "SolveContext",
]


class _Required:
    """Sentinel default for parameters that must be supplied."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<required>"


#: Sentinel marking a parameter with no default (the caller must pass it).
REQUIRED = _Required()


class BaseClusterer(Protocol):
    """The calling convention every registered base clusterer satisfies.

    A base clusterer maps a data matrix — ``(n, d)`` float points or an
    ``(n, m)`` categorical/label matrix, per its spec's ``kind`` — to a
    flat integer label vector.  Stochastic clusterers take their
    randomness through the ``rng`` keyword (the repository-wide
    convention, RPR005); deterministic ones simply ignore it.
    """

    def __call__(
        self, data: "np.ndarray", *, rng: Any = None, **params: Any
    ) -> "np.ndarray": ...


@dataclass(frozen=True)
class ParamSpec:
    """One accepted keyword parameter of a registered method."""

    name: str
    annotation: str = ""
    default: Any = REQUIRED
    doc: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def describe(self) -> str:
        """One-line rendering for CLI / error-message output."""
        head = f"{self.name}: {self.annotation}" if self.annotation else self.name
        if not self.required:
            head += f" = {self.default!r}"
        return head


@dataclass
class SolveContext:
    """Everything a ``matrix``-kind solver adapter may consume.

    Built by :func:`repro.core.aggregate.aggregate` once per call and
    handed to the method's registered ``solver``.  ``params`` is the
    (already validated) user parameter dict; solvers may write report
    entries back into it (e.g. ``params["shard"]``) — ``aggregate``
    copies it into ``AggregationResult.params`` afterwards.
    """

    matrix: "np.ndarray | None"
    instance: "CorrelationInstance | None"
    atoms: "AtomCollapse | None"
    p: float
    n_jobs: int | None
    backend: str
    params: dict[str, Any]

    def require_matrix(self, method: str) -> "np.ndarray":
        """The label matrix, or the method's canonical ValueError."""
        if self.matrix is None:
            raise ValueError(
                f"method {method!r} needs the input clusterings, not a raw instance"
            )
        return self.matrix


@dataclass(frozen=True)
class MethodSpec:
    """The registry's record for one named method (see module docstring).

    ``consumes_x`` declares that the method's last read of its instance
    takes ``X`` as its working matrix (``materialize(copy=True)``), so a
    caller that built the instance for this one solve may hand ``X`` over
    instead of paying for a copy (:meth:`~repro.core.backend.DenseBackend.hand_over`).
    """

    name: str
    role: str
    kind: str
    func: Callable[..., Any]
    stochastic: bool = False
    supports_weights: bool = False
    supports_missing: bool = True
    supports_collapse: bool = True
    needs_instance: bool = False
    consumes_x: bool = False
    accepts_extra: bool = False
    summary: str = ""
    params: tuple[ParamSpec, ...] = ()
    solver: Callable[[SolveContext], "Clustering"] | None = field(
        default=None, compare=False
    )

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.params)

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject unknown keyword parameters with an actionable message.

        Methods registered with ``accepts_extra=True`` (they forward
        ``**params`` onward, e.g. ``"sharded"`` to its per-shard solver)
        skip the unknown-name check but still document their named
        parameters.
        """
        if not self.accepts_extra:
            unknown = sorted(set(params) - set(self.param_names))
            if unknown:
                accepted = ", ".join(self.param_names) or "(none)"
                raise ValueError(
                    f"unknown parameter(s) {', '.join(map(repr, unknown))} for "
                    f"method {self.name!r}; accepted: {accepted}"
                )

    def require_params(self, params: Mapping[str, Any]) -> None:
        """Reject calls missing a required parameter (pipeline validation)."""
        missing = [
            spec.name for spec in self.params if spec.required and spec.name not in params
        ]
        if missing:
            raise ValueError(
                f"method {self.name!r} requires parameter(s): {', '.join(missing)}"
            )

    def describe(self) -> str:
        """Multi-line help text (the CLI ``methods --verbose`` rendering)."""
        flags = [self.kind]
        if self.stochastic:
            flags.append("stochastic")
        if self.supports_weights:
            flags.append("weights")
        header = f"{self.name}  [{', '.join(flags)}]"
        lines = [header]
        if self.summary:
            lines.append(f"    {self.summary}")
        for spec in self.params:
            lines.append(f"    --{spec.describe()}")
            if spec.doc:
                lines.append(f"        {spec.doc}")
        if self.accepts_extra:
            lines.append("    ... extra keyword parameters forwarded onward")
        return "\n".join(lines)


def _docstring_param_docs(func: Callable[..., Any]) -> dict[str, str]:
    """First sentence of each numpydoc ``Parameters`` entry, best effort."""
    doc = inspect.getdoc(func) or ""
    lines = doc.splitlines()
    docs: dict[str, str] = {}
    try:
        start = next(
            i for i, line in enumerate(lines) if line.strip().lower() == "parameters"
        )
    except StopIteration:
        return docs
    current: str | None = None
    chunks: dict[str, list[str]] = {}
    for line in lines[start + 2 :]:
        stripped = line.strip()
        if not stripped:
            continue
        if not line.startswith(" ") and stripped.endswith(("-", "=")):
            break  # next underlined section header
        if stripped.lower() in ("returns", "raises", "notes", "examples", "yields"):
            break
        indent = len(line) - len(line.lstrip())
        if indent <= 4 and (stripped.endswith(":") or " : " in stripped):
            current = stripped.rstrip(":").split(" : ")[0].split(":")[0].strip()
            chunks[current] = []
        elif current is not None:
            chunks[current].append(stripped)
    for name, body in chunks.items():
        text = " ".join(body)
        head = text.split(". ")[0].strip()
        if head and not head.endswith("."):
            head += "."
        docs[name] = head
    return docs


def derive_params(
    func: Callable[..., Any],
    exclude: tuple[str, ...] = (),
    skip_leading: int = 1,
) -> tuple[tuple[ParamSpec, ...], bool]:
    """Build :class:`ParamSpec` entries from ``func``'s signature.

    The first ``skip_leading`` positional parameters (the data argument)
    and any names in ``exclude`` (infrastructure parameters supplied by
    the dispatch layer itself — ``p``, ``weights``, ``n_jobs``,
    ``backend`` — or unsafe toggles like ``return_details``) are dropped.
    Returns ``(params, accepts_extra)`` where ``accepts_extra`` records a
    ``**kwargs`` catch-all in the signature.
    """
    signature = inspect.signature(func)
    docs = _docstring_param_docs(func)
    params: list[ParamSpec] = []
    accepts_extra = False
    position = 0
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            accepts_extra = True
            continue
        if parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            continue
        if parameter.name == "self":
            continue
        if position < skip_leading and parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            position += 1
            continue
        position += 1
        if parameter.name in exclude:
            continue
        annotation = (
            ""
            if parameter.annotation is inspect.Parameter.empty
            else str(parameter.annotation)
        )
        default: Any = (
            REQUIRED if parameter.default is inspect.Parameter.empty else parameter.default
        )
        params.append(
            ParamSpec(
                name=parameter.name,
                annotation=annotation,
                default=default,
                doc=docs.get(parameter.name, ""),
            )
        )
    return tuple(params), accepts_extra


def summary_from(func: Callable[..., Any]) -> str:
    """First docstring line, stripped of trailing punctuation-free noise."""
    doc = inspect.getdoc(func)
    if not doc:
        return ""
    return doc.splitlines()[0].strip()

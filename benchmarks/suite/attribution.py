"""Per-layer attribution of one traced operation's span tree.

A span's self time is its duration minus the time its children cover.
Children grafted back from worker processes ran concurrently, so their
durations sum to more than their parent's; such a parent keeps its whole
duration as self time, and its workers' seconds count only as busy time.
Every second of the operation's wall time therefore lands in exactly one
layer.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.obs import Span

#: Layer metric of each span that is not algorithm work; every other span
#: counts to ``solve_s``.  The kernel layer is the label->distance
#: computation in all its forms: dense build, lazy row blocks, streaming
#: accumulation and the count-table assignment of SAMPLING's phase 2.
LAYER_OF = {
    "bench.op": "aggregate.other_s",
    "bench.validate": "labels.validate_s",
    "bench.build": "kernel_s",
    "instance.build": "kernel_s",
    "parallel.build": "kernel_s",
    "instance.block": "kernel_s",
    "stream.observe": "kernel_s",
    "parallel.assign": "kernel_s",
    "bench.score": "score_s",
    "bench.lower_bound": "score_s",
}
LAYERS = ("labels.validate_s", "kernel_s", "solve_s", "score_s", "aggregate.other_s")

#: Spans that evaluate label pairs; they set ``kernel.pairs_per_s``.
_PAIR_KERNELS = frozenset({"instance.build", "parallel.build", "instance.block", "stream.observe"})


def _concurrent(node: Span) -> bool:
    return sum(child.seconds for child in node.children) > node.seconds


def _self_seconds(node: Span) -> float:
    if _concurrent(node):
        return node.seconds
    return node.seconds - sum(child.seconds for child in node.children)


def _busy_seconds(node: Span) -> float:
    """Seconds of work in ``node``'s subtree, summed over processes."""
    if "busy_seconds" in node.attrs:  # the parallel build reports its workers' time
        return float(node.attrs["busy_seconds"])
    below = sum(_busy_seconds(child) for child in node.children)
    return below if _concurrent(node) else _self_seconds(node) + below


def _pairs(node: Span, n: int, m: int) -> int:
    """Label-pair comparisons a kernel span made (computed from its size)."""
    if node.name == "instance.build":
        return int(node.attrs["rows"]) ** 2 * int(node.attrs["m"])
    if node.name == "instance.block":
        return int(node.attrs["rows"]) * n * m
    if node.name == "stream.observe":
        return n * n
    return 0


def attribute(root: Span, n: int, m: int) -> dict[str, Any]:
    """Layer times, kernel work and phase self times of one operation.

    ``root`` is the operation's ``bench.op`` span; ``n`` and ``m`` are the
    operation's input size.  ``layer_sum_s`` is the layers' total, which
    equals the operation's wall time unless attribution lost or doubled
    some of it.
    """
    layers = dict.fromkeys(LAYERS, 0.0)
    phases: dict[str, float] = defaultdict(float)
    pairs = 0
    pair_seconds = 0.0
    blocks = 0

    def walk(node: Span, on_path: bool) -> None:
        nonlocal pairs, pair_seconds, blocks
        concurrent = _concurrent(node)
        own = _self_seconds(node)
        if on_path:
            layers[LAYER_OF.get(node.name, "solve_s")] += own
            if node.name in _PAIR_KERNELS:
                pair_seconds += own
        phases[node.name] += 0.0 if concurrent else own
        pairs += _pairs(node, n, m)
        blocks += node.name == "instance.block"
        for child in node.children:
            walk(child, on_path and not concurrent)

    walk(root, True)
    metrics: dict[str, Any] = dict(layers)
    metrics.update(
        {
            "parallel.busy_s": _busy_seconds(root),
            "kernel.pairs": pairs,
            "kernel.pairs_per_s": pairs / pair_seconds if pair_seconds > 0 else 0.0,
            "backend.blocks": blocks,
        }
    )
    portfolio = _portfolio(root)
    metrics["portfolio.useful_ratio"] = portfolio.pop("useful_ratio", 1.0)
    return {
        "metrics": metrics,
        "phases": {f"{name}_s": seconds for name, seconds in phases.items()},
        "portfolio": portfolio,
        "layer_sum_s": sum(layers.values()),
    }


def _portfolio(root: Span) -> dict[str, float]:
    """Member times, waiting and useful share of the portfolio, if one ran.

    ``wait_s`` is the portfolio span minus its slowest member;
    ``useful_ratio`` is the winner's seconds over all members' seconds.
    """
    found: list[Span] = []

    def find(node: Span) -> None:
        if node.name == "portfolio":
            found.append(node)
        for child in node.children:
            find(child)

    find(root)
    if not found:
        return {}
    node = found[0]
    members = {
        child.attrs.get("method", child.name): child.seconds
        for child in node.children
        if child.name.startswith("member:")
    }
    detail = {f"portfolio.member_s.{name}": seconds for name, seconds in members.items()}
    detail["portfolio.wait_s"] = node.seconds - max(members.values())
    detail["useful_ratio"] = members[node.attrs["winner"]] / sum(members.values())
    return detail

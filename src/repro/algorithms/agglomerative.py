"""AGGLOMERATIVE — bottom-up average-linkage correlation clustering (§4).

Every node starts as a singleton; the pair of clusters with the smallest
*average* inter-cluster distance is merged as long as that average is below
1/2.  When no pair of clusters has average distance < 1/2, merging any pair
would increase the correlation cost, so the algorithm stops.  The produced
clusters have the property that the average distance between any two member
nodes is at most 1/2 — "the opinion of the majority is respected on
average" — and for ``m = 3`` input clusterings the result is a
2-approximation.

This is the average-linkage merge loop of :mod:`repro.cluster.linkage`
on one working matrix (float64 up to 4096 objects, float32 above),
stopped at the first closest pair at the threshold; the labels come from
its merge list.  The working matrix is a copy of ``X``, except on an
instance built for this one solve (by :func:`~repro.core.aggregate.aggregate`
or SAMPLING), whose ``X`` is handed over: the method registers
``consumes_x``, and its last read of the instance is that one.  The ``agglomerative.merge`` span records the ``engine``
that ran (``"c"`` or ``"numpy"``, equal bit for bit) and its counters.

If the user insists on a fixed number of clusters (as the paper notes in
§2), pass ``force_k``: merging then continues past the 1/2 threshold until
``force_k`` clusters remain.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..cluster.linkage import _check_count, _merge_engine, _start, merge_roots
from ..core.instance import CorrelationInstance
from ..core.kernels import default_dtype
from ..core.partition import Clustering
from ..obs.metrics import inc
from ..obs.profile import phase
from ..registry import register_method

__all__ = ["agglomerative"]


@register_method("agglomerative", kind="instance", supports_weights=True, consumes_x=True)
def agglomerative(
    instance: CorrelationInstance,
    threshold: float = 0.5,
    force_k: int | None = None,
) -> Clustering:
    """Run average-linkage agglomeration on a correlation instance.

    Parameters
    ----------
    instance:
        Pairwise distances in [0, 1].
    threshold:
        Merge while the closest pair's average distance is strictly below
        this value (1/2 in the paper).  Must be a finite real number.
    force_k:
        If given, ignore the threshold-based stop and merge (in the same
        closest-first order) until exactly ``force_k`` clusters remain.
        Must be an integer (not a bool) in ``1..n``.
    """
    n = instance.n
    if (
        isinstance(threshold, bool)
        or not isinstance(threshold, numbers.Real)
        or not math.isfinite(threshold)
    ):
        raise ValueError(f"threshold must be a finite real number, got {threshold!r}")
    _check_count("force_k", force_k, n)
    if n == 1:
        return Clustering.single_cluster(1)

    with phase("agglomerative.init", n=n):
        # Working matrix: float64 for exactness on small instances, float32
        # to halve memory at paper scale.  Average linkage mutates the full
        # cluster-distance matrix, so even a lazy instance materializes here;
        # a handed-over dense instance gives X itself.  D is always a
        # C-ordered view of the front of ``buffer``.
        buffer = instance.backend.materialize(default_dtype(n), copy=True).reshape(-1)
        D = buffer.reshape(n, n)
        np.fill_diagonal(D, np.inf)

        # On weighted (atom) instances each node starts as a cluster of its
        # duplicate multiplicity; average linkage then matches the expanded
        # instance (whose duplicates would merge first at height 0).
        state = _start(D, instance.effective_weights().copy())
        merges = np.empty((n - 1, 3), dtype=np.float64)

    target = 1 if force_k is None else force_k
    with phase("agglomerative.merge", n=n) as merge_span:
        engine, run = _merge_engine(D.dtype)
        stop = threshold if force_k is None else None
        state, counts = run(buffer, state, merges, "average", target, stop)
        remaining = int(np.count_nonzero(state.penalty == 0))
        done = n - remaining
        merge_span.set(engine=engine, merges=done, clusters=remaining, **counts)
    inc("agglomerative.merges", done)
    return Clustering(merge_roots(merges[:done], n))

"""Shared fixtures: the paper's running example, small random instances, a
fresh loader of the compiled loops, and the event-loop blocking guard."""

from __future__ import annotations

import pytest

import loopguard

from repro import Clustering
from repro.analysis.contracts import contracts
from repro.core import CorrelationInstance, _native

# Historical home of these helpers; re-exported so the many existing
# ``from conftest import ...`` call sites keep working.  New tests should
# import from tests/strategies.py directly.
from strategies import planted_instance, random_aggregation_instance

__all__ = ["planted_instance", "random_aggregation_instance"]

loopguard.install()


@pytest.fixture(autouse=True)
def _runtime_contracts(request: pytest.FixtureRequest):
    """Run every test with debug-mode runtime contracts enabled.

    The contract layer (repro.analysis.contracts) validates instance
    symmetry/range/triangle-inequality, canonical labels, and streaming
    drift bounds on the fly, so the whole suite doubles as an invariant
    exerciser.  Opt out with ``@pytest.mark.no_contracts`` (e.g. for
    benchmarks where the O(n²) checks would dominate).
    """
    if request.node.get_closest_marker("no_contracts"):
        yield
        return
    with contracts():
        yield


@pytest.fixture(autouse=True)
def _no_blocking_on_event_loop():
    """Fail the test if anything blocked a running event loop's thread.

    The guard (tests/loopguard.py) raises at the blocking call; this
    check also fails a test whose code swallowed that exception.
    """
    yield
    violations = loopguard.take()
    assert not violations, "blocking calls on the event loop:\n" + "\n".join(violations)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The loader of the compiled loops with nothing loaded yet and
    ``tmp_path/cache`` as its only cache directory; the real cache comes
    back afterwards."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "_cache_dirs", lambda source: [cache])
    _native.library.cache_clear()
    yield cache
    _native.library.cache_clear()


@pytest.fixture
def figure1_clusterings() -> list[Clustering]:
    """The three input clusterings of the paper's Figure 1."""
    return [
        Clustering([0, 0, 1, 1, 2, 2]),
        Clustering([0, 1, 0, 1, 2, 3]),
        Clustering([0, 1, 0, 1, 2, 2]),
    ]


@pytest.fixture
def figure1_optimum() -> Clustering:
    """The optimal aggregate of Figure 1 (5 disagreements)."""
    return Clustering([0, 1, 0, 1, 2, 2])


@pytest.fixture
def figure1_instance(figure1_clusterings) -> CorrelationInstance:
    """The Figure 2 correlation instance (distances 1/3, 2/3, 1)."""
    return CorrelationInstance.from_clusterings(figure1_clusterings)

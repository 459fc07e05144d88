"""Tests for the fork-pool parallel backend (repro.parallel)."""

import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.backend as backend_module
import repro.parallel.workers as workers_module
from repro import aggregate
from repro.cli import main
from repro.core.atoms import collapse_duplicates
from repro.core.instance import CorrelationInstance, disagreement_fractions
from repro.core.labels import MISSING
from repro.core.objective import ClusterCountTables
from repro.datasets import generate_votes
from repro.obs.trace import span, tracing
from repro.parallel import (
    DEFAULT_PORTFOLIO,
    JOBS_ENV_VAR,
    parallel_assign,
    portfolio,
    resolve_jobs,
)
from repro.parallel.workers import fan_out
from repro.registry import aggregate_method_names
from repro.shard import shard_aggregate


class TestResolveJobs:
    def test_explicit_value_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_none_consults_environment(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5

    def test_unset_environment_means_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1
        monkeypatch.setenv(JOBS_ENV_VAR, "  ")
        assert resolve_jobs(None) == 1

    def test_invalid_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=JOBS_ENV_VAR):
            resolve_jobs(None)

    @pytest.mark.parametrize("value", [0, -1])
    def test_nonpositive_means_all_cores(self, value):
        assert resolve_jobs(value) == max(1, os.cpu_count() or 1)

    def test_nonpositive_environment_means_all_cores(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "0")
        assert resolve_jobs(None) == max(1, os.cpu_count() or 1)

    @pytest.mark.parametrize("value", [0.5, 2.5, 2.0, True, False, "2", float("nan")])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="n_jobs"):
            resolve_jobs(value)

    def test_accepts_numpy_integers(self):
        jobs = resolve_jobs(np.int64(2))
        assert jobs == 2 and type(jobs) is int

    def test_aggregate_rejects_fractional_jobs(self):
        matrix = generate_votes(n=40, rng=0).label_matrix()
        with pytest.raises(ValueError, match="n_jobs"):
            aggregate(matrix, method="portfolio", n_jobs=0.5, rng=0)

    @pytest.mark.parametrize("value", ["two", 2.5, True])
    @pytest.mark.parametrize("method", aggregate_method_names())
    def test_aggregate_checks_n_jobs_for_every_method(self, method, value):
        matrix = generate_votes(n=30, rng=0).label_matrix()[:, :4]
        with pytest.raises(ValueError, match="n_jobs"):
            aggregate(matrix, method=method, n_jobs=value)

    def test_instance_build_checks_but_ignores_n_jobs(self):
        matrix = build_matrix(40, 3, 3, seed=1)
        serial = CorrelationInstance.from_label_matrix(matrix)
        np.testing.assert_array_equal(
            CorrelationInstance.from_label_matrix(matrix, n_jobs=2).X, serial.X
        )
        with pytest.raises(ValueError, match="n_jobs"):
            CorrelationInstance.from_label_matrix(matrix, n_jobs="two")

    def test_without_fork_everything_runs_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool started without the fork start method")

        matrix = generate_votes(n=120, rng=0).label_matrix()
        serial = portfolio(matrix, rng=7, n_jobs=1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(workers_module, "pool", no_pool)
        assert resolve_jobs(2) == 1
        assert resolve_jobs(0) == 1
        fanned = portfolio(matrix, rng=7, n_jobs=2)
        assert fanned.jobs == 1
        assert fanned.best_method == serial.best_method
        assert fanned.cost == serial.cost
        np.testing.assert_array_equal(fanned.best.labels, serial.best.labels)
        assert [run.cost for run in fanned.runs] == [run.cost for run in serial.runs]


def build_matrix(n, m, k, seed, missing_rate=0.0):
    """A random (n, m) label matrix, optionally with missing entries."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, k, size=(n, m)).astype(np.int32)
    if missing_rate > 0.0:
        matrix[rng.random((n, m)) < missing_rate] = MISSING
        # Validation rejects all-missing columns; re-anchor any.
        for j in np.flatnonzero(np.all(matrix == MISSING, axis=0)):
            matrix[0, j] = 0
    return matrix


build_problems = st.tuples(
    st.integers(min_value=150, max_value=260),  # n: several 64-row blocks
    st.integers(min_value=1, max_value=5),  # m
    st.integers(min_value=1, max_value=4),  # k
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from([0.0, 0.25]),  # missing rate
)


def shrink_grid(monkeypatch) -> None:
    """Drop the row grid to its 64-row floor, so 150+ rows span several blocks."""
    monkeypatch.setattr(backend_module, "_BLOCK_ENTRIES", 1)


def _build_in_worker(state, index):
    matrix, kwargs = state
    return disagreement_fractions(matrix, **kwargs)


def built_in_workers(matrix, jobs=2, **kwargs):
    """X as each of ``jobs`` forked workers builds it from the inherited matrix."""
    built, used = fan_out(_build_in_worker, jobs, (matrix, kwargs), jobs)
    assert used == jobs
    return built


class TestParallelBuild:
    """Shard and portfolio workers build X after the fork; it keeps the serial bits."""

    @settings(max_examples=10, deadline=None)
    @given(
        problem=build_problems,
        missing=st.sampled_from(["coin-flip", "average"]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_bit_identical_to_serial(self, problem, missing, dtype):
        n, m, k, seed, rate = problem
        matrix = build_matrix(n, m, k, seed, missing_rate=rate)
        with pytest.MonkeyPatch.context() as patch:
            shrink_grid(patch)
            serial = disagreement_fractions(matrix, dtype=dtype, missing=missing)
            forked = built_in_workers(matrix, dtype=dtype, missing=missing)
        for X in forked:
            assert X.dtype == serial.dtype
            np.testing.assert_array_equal(X, serial)

    def test_bit_identical_with_nondefault_p(self, monkeypatch):
        shrink_grid(monkeypatch)
        matrix = build_matrix(200, 4, 3, seed=5, missing_rate=0.3)
        serial = disagreement_fractions(matrix, p=0.2)
        for X in built_in_workers(matrix, p=0.2):
            np.testing.assert_array_equal(X, serial)


class TestParallelAssign:
    def test_matches_serial_assign(self):
        matrix = generate_votes(n=200, rng=0).label_matrix()
        sample = np.arange(0, 200, 4)
        sub = CorrelationInstance.from_label_matrix(matrix[sample])
        from repro.algorithms.agglomerative import agglomerative

        clustering = agglomerative(sub)
        tables = ClusterCountTables(matrix, sample, clustering.labels)
        rest = np.setdiff1d(np.arange(200), sample)
        serial = tables.assign(rest)
        for jobs, block in ((1, 7), (2, 7), (3, 16)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(workers_module, "ASSIGN_BLOCK", block)
                fanned = parallel_assign(tables, rest, n_jobs=jobs)
            np.testing.assert_array_equal(fanned, serial)

    def test_empty_rows(self):
        matrix = build_matrix(12, 3, 3, seed=0)
        sample = np.arange(12)
        sub = CorrelationInstance.from_label_matrix(matrix)
        from repro.algorithms.agglomerative import agglomerative

        tables = ClusterCountTables(matrix, sample, agglomerative(sub).labels)
        result = parallel_assign(tables, np.empty(0, dtype=np.int64), n_jobs=2)
        assert result.size == 0 and result.dtype == np.int64


class TaskFailed(Exception):
    """Raised by a fan-out task to check the type survives the pool."""


def _square_with_span(state, index):
    offset, fail_at = state
    with span(f"task:{index}"):
        if index == fail_at:
            raise TaskFailed(f"task {index}")
        return (index + offset) ** 2


def _len_of_state(state, index):
    return len(state)


def _unspawned_states():
    # A generator shared by two tasks advances between them in-process but
    # not across forked copies, so the results would depend on n_jobs.
    child = np.random.default_rng(0).spawn(2)[0]
    root = np.random.default_rng(0)
    return {
        "not-spawned": (0, np.random.default_rng(0)),
        "same-twice": [child, {"rng": child}],
        "two-spawn-calls": (
            np.random.default_rng(0).spawn(1)[0],
            np.random.default_rng(1).spawn(2)[1],
        ),
        "two-spawn-depths": (root.spawn(1)[0], root.spawn(1)[0].spawn(1)[0]),
    }


_UNSPAWNED_STATES = _unspawned_states()


class TestFanOut:
    """``workers.fan_out``: the one serial-or-forked runner."""

    @pytest.mark.parametrize(
        "count, n_jobs, jobs", [(5, 1, 1), (5, 2, 2), (2, 4, 2), (1, 3, 1), (0, 2, 1)]
    )
    def test_results_in_index_order(self, count, n_jobs, jobs):
        results, used = fan_out(_square_with_span, count, (10, -1), n_jobs)
        assert results == [(i + 10) ** 2 for i in range(count)]
        assert used == jobs

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_task_exception_reaches_the_caller(self, n_jobs):
        with pytest.raises(TaskFailed, match="task 2"):
            fan_out(_square_with_span, 4, (0, 2), n_jobs)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_worker_spans_grafted_once_in_index_order(self, n_jobs):
        with tracing() as trace:
            with span("caller"):
                fan_out(_square_with_span, 3, (0, -1), n_jobs)
        (caller,) = trace.roots
        assert [child.name for child in caller.children] == ["task:0", "task:1", "task:2"]

    @pytest.mark.parametrize("value", ["two", 2.5, True])
    def test_bad_n_jobs_names_it(self, value):
        with pytest.raises(ValueError, match="n_jobs"):
            fan_out(_square_with_span, 3, (0, -1), value)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_spawned_children_match_seed_sequence_children(self, seed):
        # The portfolio and the shard engine spawn their per-position
        # streams from default_rng(rng); for an int seed that is the
        # SeedSequence(seed).spawn construction, draw for draw.
        spawned = np.random.default_rng(seed).spawn(3)
        expected = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
        for child, reference in zip(spawned, expected):
            np.testing.assert_array_equal(child.random(8), reference.random(8))
        generator = np.random.default_rng(seed)
        assert np.random.default_rng(generator) is generator

    @pytest.mark.parametrize("name", sorted(_UNSPAWNED_STATES))
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_rejects_generators_not_from_one_spawn(self, name, n_jobs):
        with pytest.raises(ValueError, match="`state`"):
            fan_out(_len_of_state, 0, _UNSPAWNED_STATES[name], n_jobs)

    def test_accepts_spawned_children_and_skips_arrays(self):
        children = np.random.default_rng(0).spawn(3)
        state = (np.zeros(3), [children[0], (children[1],)], {"rng": children[2]})
        assert fan_out(_len_of_state, 2, state, 1) == ([3, 3], 1)

    def test_accepts_the_real_states(self, monkeypatch):
        from repro.algorithms.agglomerative import agglomerative

        states = []
        check = workers_module._check_spawned

        def recording(state):
            states.append(state)
            check(state)

        monkeypatch.setattr(workers_module, "_check_spawned", recording)
        matrix = generate_votes(n=90, rng=0).label_matrix()
        portfolio(matrix, methods=("local-search", "balls", "annealing"), rng=1, n_jobs=1)
        shard_aggregate(matrix, n_shards=2, rng=0, n_jobs=1)
        sample = np.arange(0, 90, 3)
        sub = CorrelationInstance.from_label_matrix(matrix[sample])
        tables = ClusterCountTables(matrix, sample, agglomerative(sub).labels)
        parallel_assign(tables, np.setdiff1d(np.arange(90), sample), n_jobs=1)
        portfolio_state, shard_state, assign_state = states
        assert [spec[2] is not None for spec in portfolio_state[1]] == [True, False, True]
        assert len(shard_state[2]) == 2
        assert isinstance(assign_state[0], ClusterCountTables)


class TestPortfolio:
    def test_parallel_matches_serial(self):
        matrix = generate_votes(n=120, rng=0).label_matrix()
        serial = portfolio(matrix, rng=7, n_jobs=1)
        fanned = portfolio(matrix, rng=7, n_jobs=3)
        assert fanned.best_method == serial.best_method
        assert fanned.cost == serial.cost
        np.testing.assert_array_equal(fanned.best.labels, serial.best.labels)
        assert [run.cost for run in fanned.runs] == [run.cost for run in serial.runs]
        assert [run.method for run in fanned.runs] == list(DEFAULT_PORTFOLIO)
        assert serial.jobs == 1 and fanned.jobs == 3

    def test_parallel_matches_serial_on_weighted_atoms(self):
        matrix = generate_votes(n=150, rng=1).label_matrix()
        atoms = collapse_duplicates(matrix)
        instance = CorrelationInstance.from_label_matrix(
            atoms.matrix, weights=atoms.weights
        )
        serial = portfolio(instance, rng=3, n_jobs=1)
        fanned = portfolio(instance, rng=3, n_jobs=2)
        assert fanned.cost == serial.cost
        np.testing.assert_array_equal(fanned.best.labels, serial.best.labels)
        assert [run.cost for run in fanned.runs] == [run.cost for run in serial.runs]

    def test_stochastic_members_bit_identical_across_jobs(self):
        # Every stochastic position draws its own spawned child.  Handing
        # each member the root generator instead passes serially (the
        # members draw from it in turn) and diverges forked (each worker
        # draws from a copy): the second local-search then ends 4867.17
        # serially against 4868.17 with two workers.
        matrix = np.random.default_rng(3).integers(0, 4, size=(200, 6))
        methods = ("local-search", "local-search", "annealing")
        serial = portfolio(matrix, methods=methods, rng=7, n_jobs=1)
        fanned = portfolio(matrix, methods=methods, rng=7, n_jobs=2)
        assert [run.cost for run in fanned.runs] == [run.cost for run in serial.runs]
        assert fanned.best_method == serial.best_method
        np.testing.assert_array_equal(fanned.best.labels, serial.best.labels)

    def test_repeated_stochastic_entries_are_independent_restarts(self):
        matrix = generate_votes(n=80, rng=2).label_matrix()
        methods = ("local-search", "local-search", "local-search")
        serial = portfolio(matrix, methods=methods, rng=11, n_jobs=1)
        fanned = portfolio(matrix, methods=methods, rng=11, n_jobs=2)
        assert [run.cost for run in fanned.runs] == [run.cost for run in serial.runs]
        np.testing.assert_array_equal(fanned.best.labels, serial.best.labels)

    def test_finds_figure1_optimum(self, figure1_clusterings, figure1_optimum):
        result = portfolio(figure1_clusterings, rng=0)
        assert result.best == figure1_optimum
        assert result.cost == pytest.approx(5.0 / 3.0)
        assert result.best_method in DEFAULT_PORTFOLIO
        assert "winner" in result.summary()
        report = result.to_dict()
        assert report["best_method"] == result.best_method
        assert len(report["runs"]) == len(DEFAULT_PORTFOLIO)

    def test_per_method_params_forwarded(self, figure1_clusterings):
        result = portfolio(
            figure1_clusterings,
            methods=("balls",),
            params={"balls": {"alpha": 0.4}},
            rng=0,
        )
        assert result.runs[0].method == "balls"

    def test_rejects_bad_configuration(self, figure1_clusterings):
        with pytest.raises(ValueError, match="at least one"):
            portfolio(figure1_clusterings, methods=())
        with pytest.raises(ValueError, match="unknown inner"):
            portfolio(figure1_clusterings, methods=("sampling",))
        with pytest.raises(ValueError, match="not in the portfolio"):
            portfolio(
                figure1_clusterings, methods=("balls",), params={"furthest": {}}
            )

    def test_aggregate_method_registered(self):
        matrix = generate_votes(n=100, rng=0).label_matrix()
        serial = aggregate(matrix, method="portfolio", rng=5, n_jobs=1)
        fanned = aggregate(matrix, method="portfolio", rng=5, n_jobs=2)
        assert serial.clustering == fanned.clustering
        record = serial.params["portfolio"]
        assert record["best_method"] in DEFAULT_PORTFOLIO
        assert len(record["runs"]) == len(DEFAULT_PORTFOLIO)
        assert serial.cost == pytest.approx(record["cost"])


class TestSamplingNJobs:
    def test_sampling_bit_identical_across_jobs(self):
        from repro.algorithms.agglomerative import agglomerative
        from repro.algorithms.sampling import sampling

        matrix = generate_votes(n=300, rng=0).label_matrix()
        serial = sampling(matrix, agglomerative, sample_size=60, rng=9, n_jobs=1)
        fanned = sampling(matrix, agglomerative, sample_size=60, rng=9, n_jobs=2)
        assert serial == fanned


class TestCliPortfolio:
    @pytest.fixture
    def votes_csv(self, tmp_path):
        path = tmp_path / "votes.csv"
        generate_votes(n=100, rng=0).to_csv(path)
        return str(path)

    def test_table_output(self, votes_csv, capsys):
        assert main(["portfolio", votes_csv, "--seed", "3", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for method in DEFAULT_PORTFOLIO:
            assert method in out
        assert "*" in out  # winner marker

    def test_json_output_matches_serial(self, votes_csv, capsys, tmp_path):
        out_path = tmp_path / "labels.txt"
        assert (
            main(
                [
                    "portfolio",
                    votes_csv,
                    "--seed",
                    "3",
                    "--jobs",
                    "2",
                    "--json",
                    "--out",
                    str(out_path),
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["jobs"] == 2
        assert {run["method"] for run in report["runs"]} == set(DEFAULT_PORTFOLIO)

        labels = np.loadtxt(out_path, dtype=np.int64)
        dataset_matrix = generate_votes(n=100, rng=0).label_matrix()
        serial = portfolio(dataset_matrix, rng=3, n_jobs=1)
        assert report["best_method"] == serial.best_method
        assert report["cost"] == pytest.approx(serial.cost)
        np.testing.assert_array_equal(labels, serial.best.labels)


DEV_SHM = Path("/dev/shm")


@pytest.fixture
def shm_watch(monkeypatch):
    """Fail if ``/dev/shm`` gains an entry while a pool runs or afterwards.

    Every pool start is intercepted: the listing is taken once the
    workers exist, when a named segment would be live.
    """
    if not DEV_SHM.is_dir():
        pytest.skip("/dev/shm is absent on this platform")
    before = set(os.listdir(DEV_SHM))
    gained: set[str] = set()
    started = []
    real_pool = workers_module.pool

    def watched_pool(*args, **kwargs):
        workers = real_pool(*args, **kwargs)
        started.append(args[0])
        gained.update(set(os.listdir(DEV_SHM)) - before)
        return workers

    monkeypatch.setattr(workers_module, "pool", watched_pool)
    yield
    gained.update(set(os.listdir(DEV_SHM)) - before)
    assert started, "no pool was started"
    assert gained == set()


class TestNoNamedSharedMemory:
    """No pool path creates a named segment: inputs are fork-inherited."""

    @pytest.mark.parametrize("backend", ["dense", "lazy"])
    def test_portfolio(self, shm_watch, backend):
        matrix = generate_votes(n=80, rng=0).label_matrix()
        assert portfolio(matrix, rng=1, n_jobs=2, backend=backend).jobs == 2

    def test_shard_aggregate(self, shm_watch):
        matrix = generate_votes(n=90, rng=0).label_matrix()
        assert shard_aggregate(matrix, n_shards=2, rng=0, n_jobs=2).jobs == 2

    def test_parallel_assign(self, shm_watch, monkeypatch):
        from repro.algorithms.agglomerative import agglomerative

        monkeypatch.setattr(workers_module, "ASSIGN_BLOCK", 16)
        matrix = generate_votes(n=120, rng=0).label_matrix()
        sample = np.arange(0, 120, 4)
        sub = CorrelationInstance.from_label_matrix(matrix[sample])
        tables = ClusterCountTables(matrix, sample, agglomerative(sub).labels)
        rest = np.setdiff1d(np.arange(120), sample)
        np.testing.assert_array_equal(parallel_assign(tables, rest, n_jobs=2), tables.assign(rest))

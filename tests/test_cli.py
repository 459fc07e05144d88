"""Tests for the command-line interface (repro.cli)."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import CategoricalDataset, generate_votes


@pytest.fixture
def votes_csv(tmp_path):
    path = tmp_path / "votes.csv"
    generate_votes(n=120, rng=0).to_csv(path)
    return str(path)


class TestCli:
    def test_methods_listing(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "agglomerative" in out and "balls" in out

    def test_generate_and_aggregate(self, tmp_path, capsys):
        csv = str(tmp_path / "data.csv")
        assert main(["generate", "votes", csv, "--rows", "100"]) == 0
        assert main(["aggregate", csv, "--method", "agglomerative"]) == 0
        out = capsys.readouterr().out
        assert "clusters" in out
        assert "E_C" in out

    def test_aggregate_with_balls_alpha(self, votes_csv, capsys):
        assert main(["aggregate", votes_csv, "--method", "balls", "--alpha", "0.4"]) == 0
        assert "balls" in capsys.readouterr().out

    def test_aggregate_sampling(self, votes_csv, capsys):
        code = main(
            [
                "aggregate",
                votes_csv,
                "--method",
                "sampling",
                "--inner",
                "furthest",
                "--sample-size",
                "60",
            ]
        )
        assert code == 0
        assert "sampling" in capsys.readouterr().out

    def test_labels_written(self, votes_csv, tmp_path, capsys):
        out_path = tmp_path / "labels.txt"
        assert main(["aggregate", votes_csv, "--out", str(out_path)]) == 0
        labels = np.loadtxt(out_path, dtype=int)
        assert labels.shape == (120,)

    def test_no_class_column(self, tmp_path, capsys):
        data = CategoricalDataset(
            "noclass", np.array([[0, 1], [1, 0], [0, 1]], dtype=np.int32), ["a", "b"]
        )
        path = tmp_path / "noclass.csv"
        data.to_csv(path)
        assert main(["aggregate", str(path), "--no-class"]) == 0
        out = capsys.readouterr().out
        assert "E_C" not in out

    def test_generate_mushrooms(self, tmp_path, capsys):
        csv = str(tmp_path / "mush.csv")
        assert main(["generate", "mushrooms", csv, "--rows", "200"]) == 0
        assert "200 rows" in capsys.readouterr().out

    def test_unknown_method_rejected(self, votes_csv):
        with pytest.raises(SystemExit):
            main(["aggregate", votes_csv, "--method", "nope"])

    def test_generate_census_and_movies(self, tmp_path, capsys):
        for dataset in ("census", "movies"):
            csv = str(tmp_path / f"{dataset}.csv")
            assert main(["generate", dataset, csv, "--rows", "150"]) == 0
        out = capsys.readouterr().out
        assert out.count("150 rows") == 2

    def test_annealing_available(self, capsys):
        main(["methods"])
        assert "annealing" in capsys.readouterr().out

    def test_custom_p(self, votes_csv, capsys):
        assert main(["aggregate", votes_csv, "--p", "0.3"]) == 0
        assert "clusters" in capsys.readouterr().out

    def test_collapse_flag(self, votes_csv, capsys):
        assert main(["aggregate", votes_csv, "--collapse"]) == 0
        assert "clusters" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ("local-search", "annealing", "sampling"))
    def test_seed_plumbed_to_stochastic_methods(self, votes_csv, capsys, method):
        """--seed reaches every stochastic method and makes reruns identical."""
        outputs = []
        for _ in range(2):
            assert main(["aggregate", votes_csv, "--method", method, "--seed", "5", "--json"]) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0]["seed"] == 5
        assert outputs[0]["disagreements"] == outputs[1]["disagreements"]

    def test_genetic_method_available(self, votes_csv, capsys):
        code = main(["aggregate", votes_csv, "--method", "genetic", "--seed", "1", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "genetic"

    def test_aggregate_json_report(self, votes_csv, capsys):
        assert main(["aggregate", votes_csv, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dataset"]["rows"] == 120
        assert report["k"] >= 1
        assert report["disagreements"] > 0
        assert 0.0 <= report["class_error"] <= 1.0
        assert report["seed"] is None  # agglomerative is deterministic

    @pytest.mark.parametrize(
        "method, has_bound", [("sampling", False), ("pivot", False), ("agglomerative", True)]
    )
    def test_json_lower_bound_only_with_an_instance(self, votes_csv, capsys, method, has_bound):
        assert main(["aggregate", votes_csv, "--method", method, "--seed", "1", "--json"]) == 0
        bound = json.loads(capsys.readouterr().out)["lower_bound"]
        if has_bound:
            assert isinstance(bound, float) and bound > 0.0
        else:
            assert bound is None


class TestStreamCli:
    def test_stream_replays_and_reports(self, votes_csv, capsys):
        assert main(["stream", votes_csv]) == 0
        out = capsys.readouterr().out
        assert "update" in out
        assert "consensus" in out
        assert "E_C" in out

    def test_stream_json(self, votes_csv, capsys):
        assert main(["stream", votes_csv, "--json", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["updates"]) == 16  # one per votes attribute
        assert report["updates"][0]["index"] == 1
        assert report["disagreements"] == report["updates"][-1]["disagreements"]
        assert report["seed"] == 3

    def test_stream_checkpoint_and_resume(self, votes_csv, tmp_path, capsys):
        checkpoint = str(tmp_path / "engine.npz")
        assert main(["stream", votes_csv, "--checkpoint", checkpoint, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["stream", votes_csv, "--resume", checkpoint, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["resumed_from"] == checkpoint
        assert second["updates"][0]["index"] == first["updates"][-1]["index"] + 1

    def test_stream_resume_size_mismatch(self, votes_csv, tmp_path, capsys):
        checkpoint = str(tmp_path / "engine.npz")
        assert main(["stream", votes_csv, "--checkpoint", checkpoint]) == 0
        other = str(tmp_path / "other.csv")
        generate_votes(n=60, rng=1).to_csv(other)
        assert main(["stream", other, "--resume", checkpoint]) == 2
        assert "checkpoint covers" in capsys.readouterr().err

    def test_stream_decay_and_labels_out(self, votes_csv, tmp_path, capsys):
        out_path = tmp_path / "labels.txt"
        assert main(["stream", votes_csv, "--decay", "0.95", "--out", str(out_path)]) == 0
        labels = np.loadtxt(out_path, dtype=int)
        assert labels.shape == (120,)

    def test_stream_sampling_threshold(self, votes_csv, capsys):
        assert main(["stream", votes_csv, "--sampling-threshold", "50", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(update["used_sampling"] for update in report["updates"])


class TestObservabilityFlags:
    """The --trace / --metrics-out surface shared by aggregate, portfolio
    and stream."""

    @staticmethod
    def _span_millis(rendered: str, prefix: str) -> list[float]:
        import re

        out = []
        for line in rendered.splitlines():
            stripped = line.strip()
            if stripped.startswith(prefix):
                match = re.search(r"(\d+(?:\.\d+)?)ms", stripped)
                assert match is not None, f"span line without a timing: {line!r}"
                out.append(float(match.group(1)))
        return out

    def test_portfolio_trace_member_totals_cover_the_root(self, votes_csv, capsys):
        assert main(["portfolio", votes_csv, "--jobs", "1", "--trace"]) == 0
        out = capsys.readouterr().out
        roots = self._span_millis(out, "portfolio ")
        members = self._span_millis(out, "member:")
        assert len(roots) == 1
        assert members, "no member spans rendered"
        member_total = sum(members)
        # Acceptance bound: members account for the root to within 5%
        # (plus a 2ms absolute floor for tiny instances).
        assert abs(roots[0] - member_total) <= max(0.05 * roots[0], 2.0), out

    def test_aggregate_trace_renders_build_and_solve(self, votes_csv, capsys):
        assert main(["aggregate", votes_csv, "--method", "balls", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        assert "build" in out
        assert "solve" in out
        assert "balls.sweep" in out

    def test_trace_with_json_report_keeps_stdout_parseable(self, votes_csv, capsys):
        assert main(["portfolio", votes_csv, "--jobs", "1", "--trace", "--json"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # tree went to stderr, not stdout
        assert report["best_method"]
        assert "portfolio" in captured.err

    def test_metrics_out_writes_a_valid_snapshot(self, votes_csv, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["portfolio", votes_csv, "--jobs", "1", "--metrics-out", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["portfolio.runs"] == 1
        assert snapshot["counters"]["instance.builds"] >= 1
        assert "portfolio.member.seconds" in snapshot["histograms"]
        assert f"metrics written  {metrics_path}" in capsys.readouterr().out

    def test_metrics_out_flag_does_not_leak_global_state(self, votes_csv, tmp_path, capsys):
        from repro.obs import get_registry

        metrics_path = tmp_path / "metrics.json"
        assert main(["aggregate", votes_csv, "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        assert not get_registry().enabled

    def test_stream_supports_observability_flags(self, votes_csv, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(["stream", votes_csv, "--trace", "--metrics-out", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stream.observe" in out
        snapshot = json.loads(metrics_path.read_text())
        update_counters = [
            count
            for name, count in snapshot["counters"].items()
            if name in ("stream.warm_updates", "stream.rebuilds", "stream.sampling_updates")
        ]
        assert sum(update_counters) >= 1

"""Command-line interface: ``python -m repro`` / ``repro-aggregate``.

Subcommands
-----------
``aggregate``
    Cluster a categorical CSV (every column an input clustering) with any
    of the paper's algorithms and print the consensus summary — plus the
    per-cluster breakdown against a class column when one is present.
``portfolio``
    Run several algorithms concurrently against one shared instance
    (:mod:`repro.parallel`) and report the argmin-cost consensus plus a
    per-algorithm cost/time table.  ``--jobs`` (or the ``REPRO_JOBS``
    environment variable) sets the worker count.
``shard``
    Divide-and-merge aggregation (:mod:`repro.shard`): partition the
    rows into shards, aggregate each shard in a forked worker, then
    merge the shard consensus clusterings by re-aggregating a small
    weighted-atom instance (exactly when the atom count permits).
``stream``
    Replay the CSV's attribute columns one at a time through the
    streaming engine (:mod:`repro.stream`), printing per-update cost,
    cluster count, moves, and wall-time; optionally checkpoint the final
    engine state to ``.npz`` or resume from one.
``serve``
    Run the HTTP aggregation service (:mod:`repro.serve`): named
    streaming sessions with micro-batched writes, non-blocking consensus
    reads, checkpoint persistence, and one-shot ``/aggregate`` — until
    SIGINT/SIGTERM, then drain and checkpoint.  ``--json`` prints a
    machine-readable startup banner with the actually bound port.
``generate``
    Write one of the built-in datasets (votes, mushrooms, census) to CSV.
``pipeline``
    Run (or just validate) a declarative TOML pipeline config
    (:mod:`repro.pipeline`): dataset → base clusterings → aggregation →
    metrics, with ``--json``/``--out`` reports and ``--trace`` spans.
``methods``
    List the available aggregation algorithms.  ``--role`` switches to
    the consensus baselines or base clusterers; ``--verbose`` adds each
    method's parameter documentation, straight from the registry.

``--json`` (on ``aggregate``, ``portfolio``, ``shard``, ``stream`` and
``pipeline run``) switches the report to a single machine-readable JSON
object for service integration.

``--trace`` (on ``aggregate``, ``portfolio``, ``shard``, ``stream`` and
``pipeline run``) prints an indented span tree of the run from
:mod:`repro.obs` — on stderr when combined with ``--json`` so stdout
stays machine-readable.
``--metrics-out PATH`` enables the metrics registry for the run and
writes its snapshot JSON to ``PATH``.

Examples
--------
::

    repro-aggregate generate votes /tmp/votes.csv
    repro-aggregate aggregate /tmp/votes.csv --method agglomerative
    repro-aggregate aggregate /tmp/votes.csv --method balls --alpha 0.4
    repro-aggregate aggregate big.csv --method sampling --inner furthest --sample-size 1000
    repro-aggregate portfolio /tmp/votes.csv --jobs 4 --seed 7
    repro-aggregate portfolio /tmp/votes.csv --trace --metrics-out /tmp/metrics.json
    repro-aggregate shard big.csv --shards 4 --jobs 4 --seed 7 --json
    repro-aggregate stream /tmp/votes.csv --decay 0.99 --checkpoint /tmp/engine.npz
    repro-aggregate aggregate /tmp/votes.csv --method local-search --seed 7 --json
    repro-aggregate pipeline run examples/fig3_robustness.toml --trace
    repro-aggregate methods --role clusterer --verbose
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Sequence

import numpy as np

from .core.aggregate import STOCHASTIC_METHODS, aggregate, available_methods
from .core.distance import total_disagreement
from .parallel.portfolio import DEFAULT_PORTFOLIO, portfolio
from .shard import (
    DEFAULT_MAX_EXACT_ATOMS,
    MERGE_METHODS,
    PARTITION_MODES,
    shard_aggregate,
)
from .datasets import (
    CategoricalDataset,
    generate_census,
    generate_movies,
    generate_mushrooms,
    generate_votes,
)
from .metrics import classification_error, cluster_size_summary, confusion_matrix
from .obs import disable_metrics, enable_metrics, get_registry, tracing

_GENERATORS = {
    "votes": generate_votes,
    "mushrooms": generate_mushrooms,
    "census": generate_census,
    "movies": generate_movies,
}


def _add_observability_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--trace",
        action="store_true",
        help="print an indented span tree of the run (stderr when --json)",
    )
    sub.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="collect repro.obs metrics and write the snapshot JSON to PATH",
    )


def _run_observed(args: argparse.Namespace, body: Callable[[argparse.Namespace], int]) -> int:
    """Run a subcommand body under the requested observability surfaces.

    ``--trace`` wraps the body in :func:`repro.obs.tracing` and prints the
    rendered span tree — to stdout normally, to stderr under ``--json`` so
    the machine-readable object stays alone on stdout.  ``--metrics-out``
    enables the process-wide registry for the duration of the body and
    writes its snapshot JSON to the given path.
    """
    want_trace = bool(getattr(args, "trace", False))
    metrics_out = getattr(args, "metrics_out", None)
    if not want_trace and not metrics_out:
        return body(args)
    if metrics_out:
        enable_metrics()
        get_registry().reset()
    try:
        if want_trace:
            with tracing() as trace:
                code = body(args)
            out = sys.stderr if getattr(args, "json", False) else sys.stdout
            print(file=out)
            print(trace.render(), file=out)
        else:
            code = body(args)
        if metrics_out:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                handle.write(get_registry().to_json())
                handle.write("\n")
            report = sys.stderr if getattr(args, "json", False) else sys.stdout
            print(f"metrics written  {metrics_out}", file=report)
    finally:
        if metrics_out:
            disable_metrics()
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-aggregate",
        description="Clustering aggregation (Gionis, Mannila, Tsaparas, ICDE 2005)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("aggregate", help="aggregate a categorical CSV")
    run.add_argument("csv", help="input CSV with a header row; '?' marks missing values")
    run.add_argument("--method", default="agglomerative", choices=available_methods())
    run.add_argument("--class-column", default="class", help="evaluation column name")
    run.add_argument("--no-class", action="store_true", help="treat every column as data")
    run.add_argument("--alpha", type=float, default=None, help="BALLS acceptance threshold")
    run.add_argument(
        "--threshold", type=float, default=None, help="PIVOT join radius (default 0.5)"
    )
    run.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="PIVOT/CMSY: keep the cheapest of this many sweeps (default 1)",
    )
    run.add_argument("--inner", default="agglomerative", help="SAMPLING inner algorithm")
    run.add_argument("--sample-size", type=int, default=None, help="SAMPLING sample size")
    run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed, forwarded to every stochastic method "
        f"({', '.join(STOCHASTIC_METHODS)})",
    )
    run.add_argument("--p", type=float, default=0.5, help="missing-value coin-flip probability")
    run.add_argument(
        "--collapse",
        action="store_true",
        help="collapse duplicate rows into weighted atoms before clustering",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the parallel backend "
        "(default: REPRO_JOBS or serial; 0 = all cores)",
    )
    run.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "dense", "lazy"),
        help="pair-distance storage: dense materializes X, lazy computes row "
        "blocks from the labels (O(n*m) memory); auto flips to lazy above "
        "REPRO_LAZY_THRESHOLD rows (default 10000)",
    )
    run.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    run.add_argument("--out", default=None, help="write consensus labels to this file")
    _add_observability_arguments(run)

    port = subparsers.add_parser(
        "portfolio", help="run several algorithms concurrently, keep the best"
    )
    port.add_argument("csv", help="input CSV with a header row; '?' marks missing values")
    port.add_argument(
        "--methods",
        default=",".join(DEFAULT_PORTFOLIO),
        help="comma-separated algorithm names to race (instance methods only)",
    )
    port.add_argument("--class-column", default="class", help="evaluation column name")
    port.add_argument("--no-class", action="store_true", help="treat every column as data")
    port.add_argument("--p", type=float, default=0.5, help="missing-value coin-flip probability")
    port.add_argument("--seed", type=int, default=0, help="root seed for stochastic members")
    port.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_JOBS or serial; 0 = all cores)",
    )
    port.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "dense", "lazy"),
        help="pair-distance storage (lazy shares only the label matrix with "
        "workers; auto flips to lazy above REPRO_LAZY_THRESHOLD rows)",
    )
    port.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    port.add_argument("--out", default=None, help="write consensus labels to this file")
    _add_observability_arguments(port)

    shard = subparsers.add_parser(
        "shard", help="divide-and-merge aggregation over object shards"
    )
    shard.add_argument("csv", help="input CSV with a header row; '?' marks missing values")
    shard.add_argument("--shards", type=int, default=4, help="number of shards")
    shard.add_argument(
        "--partition",
        default="contiguous",
        choices=PARTITION_MODES,
        help="shard assignment: row order pieces, or a seeded permutation",
    )
    shard.add_argument(
        "--shard-method",
        default="sampling",
        help="per-shard aggregation algorithm (sampling or any instance method)",
    )
    shard.add_argument("--inner", default="agglomerative", help="SAMPLING inner algorithm")
    shard.add_argument(
        "--sample-size", type=int, default=None, help="per-shard SAMPLING sample size"
    )
    shard.add_argument(
        "--merge",
        default="auto",
        choices=MERGE_METHODS,
        help="atom re-aggregation strategy (auto = exact when small)",
    )
    shard.add_argument(
        "--max-exact-atoms",
        type=int,
        default=DEFAULT_MAX_EXACT_ATOMS,
        help="merge=auto switches from exact to local-search above this many atoms",
    )
    shard.add_argument("--class-column", default="class", help="evaluation column name")
    shard.add_argument("--no-class", action="store_true", help="treat every column as data")
    shard.add_argument("--p", type=float, default=0.5, help="missing-value coin-flip probability")
    shard.add_argument("--seed", type=int, default=0, help="root seed (partition + shard solves)")
    shard.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard worker processes (default: REPRO_JOBS or serial; 0 = all cores)",
    )
    shard.add_argument(
        "--backend",
        default="auto",
        choices=("auto", "dense", "lazy"),
        help="pair-distance storage for instance-consuming shard methods",
    )
    shard.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    shard.add_argument("--out", default=None, help="write consensus labels to this file")
    _add_observability_arguments(shard)

    stream = subparsers.add_parser(
        "stream", help="replay a CSV column-by-column through the streaming engine"
    )
    stream.add_argument("csv", help="input CSV with a header row; '?' marks missing values")
    stream.add_argument("--class-column", default="class", help="evaluation column name")
    stream.add_argument("--no-class", action="store_true", help="treat every column as data")
    stream.add_argument("--p", type=float, default=0.5, help="missing-value coin-flip probability")
    stream.add_argument(
        "--decay",
        type=float,
        default=1.0,
        help="exponential decay per update in (0, 1]; 1.0 = exact batch semantics",
    )
    stream.add_argument(
        "--sampling-threshold",
        type=int,
        default=5000,
        help="above this many rows, refine with SAMPLING instead of full LOCALSEARCH",
    )
    stream.add_argument("--sample-size", type=int, default=None, help="SAMPLING sample size")
    stream.add_argument("--seed", type=int, default=0, help="random seed for the engine")
    stream.add_argument(
        "--checkpoint", default=None, help="write the final engine state to this .npz file"
    )
    stream.add_argument(
        "--resume", default=None, help="resume from an engine checkpoint (.npz) before replaying"
    )
    stream.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")
    stream.add_argument("--out", default=None, help="write consensus labels to this file")
    _add_observability_arguments(stream)

    serve = subparsers.add_parser(
        "serve", help="run the HTTP aggregation service (repro.serve)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765, help="bind port (0 picks a free one)")
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist each session to <dir>/<name>.npz (restored on re-create)",
    )
    serve.add_argument(
        "--max-sessions", type=int, default=64, help="concurrent named sessions (503 beyond)"
    )
    serve.add_argument(
        "--max-n", type=int, default=100_000, help="largest accepted object count (413 beyond)"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="pending observes per session before 429 backpressure",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        help="micro-batch coalescing window in seconds (0 disables the wait)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="repro.parallel worker budget for /aggregate (default: REPRO_JOBS)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="machine-readable startup banner and shutdown summary on stdout",
    )

    gen = subparsers.add_parser("generate", help="write a built-in dataset to CSV")
    gen.add_argument("dataset", choices=sorted(_GENERATORS))
    gen.add_argument("path", help="output CSV path")
    gen.add_argument("--rows", type=int, default=None, help="override the dataset size")
    gen.add_argument("--seed", type=int, default=0)

    pipe = subparsers.add_parser(
        "pipeline", help="run or validate a declarative TOML pipeline config"
    )
    pipe_sub = pipe.add_subparsers(dest="pipeline_command", required=True)
    pipe_run = pipe_sub.add_parser(
        "run", help="execute a pipeline config end-to-end and print its report"
    )
    pipe_run.add_argument("config", help="path to the TOML pipeline config")
    pipe_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for the aggregation stage (default: REPRO_JOBS)",
    )
    pipe_run.add_argument(
        "--json", action="store_true", help="print the full report as one JSON object"
    )
    pipe_run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="also write the JSON report to PATH",
    )
    _add_observability_arguments(pipe_run)
    pipe_validate = pipe_sub.add_parser(
        "validate", help="check a pipeline config without running it"
    )
    pipe_validate.add_argument("config", help="path to the TOML pipeline config")

    methods = subparsers.add_parser(
        "methods", help="list available aggregation algorithms"
    )
    methods.add_argument(
        "--role",
        choices=("aggregate", "baseline", "clusterer"),
        default="aggregate",
        help="which registry role to list (default: aggregation algorithms)",
    )
    methods.add_argument(
        "--verbose",
        action="store_true",
        help="include each method's parameters and documentation",
    )
    return parser


def _command_aggregate(args: argparse.Namespace) -> int:
    class_column = None if args.no_class else args.class_column
    dataset = CategoricalDataset.from_csv(args.csv, class_column=class_column)
    params: dict = {}
    if args.method == "balls" and args.alpha is not None:
        params["alpha"] = args.alpha
    if args.method == "pivot" and args.threshold is not None:
        params["threshold"] = args.threshold
    if args.method in ("pivot", "cmsy") and args.repeats is not None:
        params["repeats"] = args.repeats
    if args.method == "sampling":
        params["inner"] = args.inner
        if args.sample_size is not None:
            params["sample_size"] = args.sample_size
    if args.method in STOCHASTIC_METHODS:
        params["rng"] = args.seed
    # aggregate() skips the lower bound for methods that build no instance.
    result = aggregate(
        dataset.label_matrix(),
        method=args.method,
        p=args.p,
        collapse=args.collapse,
        n_jobs=args.jobs,
        backend=args.backend,
        **params,
    )

    if args.json:
        report = {
            "dataset": {
                "name": dataset.name,
                "rows": dataset.n,
                "attributes": dataset.m,
                "missing": dataset.missing_count(),
            },
            "method": result.method,
            "seed": args.seed if args.method in STOCHASTIC_METHODS else None,
            "k": result.k,
            "cluster_sizes": {
                key: int(value) for key, value in cluster_size_summary(result.clustering).items()
            },
            "disagreements": result.disagreements,
            "cost": result.cost,
            "lower_bound": result.disagreement_lower_bound,
            "class_error": (
                None
                if dataset.classes is None
                else classification_error(result.clustering, dataset.classes)
            ),
            "elapsed_seconds": result.elapsed_seconds,
            "build_seconds": result.build_seconds,
        }
        print(json.dumps(report))
        if args.out:
            np.savetxt(args.out, result.clustering.labels, fmt="%d")
        return 0

    print(f"dataset          {dataset.name}: {dataset.n} rows x {dataset.m} attributes, "
          f"{dataset.missing_count()} missing")
    print(f"method           {result.method}")
    print(f"clusters         {result.k}")
    sizes = cluster_size_summary(result.clustering)
    print(f"cluster sizes    largest={sizes['largest']} smallest={sizes['smallest']} "
          f"singletons={sizes['singletons']}")
    print(f"disagreements    D(C) = {result.disagreements:,.1f} "
          f"(d(C) = {result.cost:,.1f} per input clustering)")
    if result.disagreement_lower_bound is not None:
        print(f"lower bound      {result.disagreement_lower_bound:,.1f}")
    if dataset.classes is not None:
        error = classification_error(result.clustering, dataset.classes)
        print(f"class error      E_C = {error * 100:.1f}%")
        table = confusion_matrix(result.clustering, dataset.classes)
        names = dataset.class_names or [str(i) for i in range(table.shape[0])]
        shown = min(table.shape[1], 12)
        print("confusion (rows = classes, columns = largest clusters):")
        order = np.argsort(-table.sum(axis=0))[:shown]
        for class_index, name in enumerate(names):
            cells = " ".join(f"{table[class_index, c]:6d}" for c in order)
            print(f"  {name:>12s} {cells}")
    print(f"time             {result.elapsed_seconds:.3f}s "
          f"(+{result.build_seconds:.3f}s building the instance)")

    if args.out:
        np.savetxt(args.out, result.clustering.labels, fmt="%d")
        print(f"labels written   {args.out}")
    return 0


def _command_portfolio(args: argparse.Namespace) -> int:
    class_column = None if args.no_class else args.class_column
    dataset = CategoricalDataset.from_csv(args.csv, class_column=class_column)
    methods = tuple(name.strip() for name in args.methods.split(",") if name.strip())
    result = portfolio(
        dataset.label_matrix(),
        methods=methods,
        p=args.p,
        n_jobs=args.jobs,
        rng=args.seed,
        backend=args.backend,
    )
    class_error = (
        None if dataset.classes is None else classification_error(result.best, dataset.classes)
    )

    if args.json:
        report = {
            "dataset": {
                "name": dataset.name,
                "rows": dataset.n,
                "attributes": dataset.m,
                "missing": dataset.missing_count(),
            },
            "seed": args.seed,
            "class_error": class_error,
            **result.to_dict(),
        }
        print(json.dumps(report))
    else:
        print(f"dataset          {dataset.name}: {dataset.n} rows x {dataset.m} attributes, "
              f"{dataset.missing_count()} missing")
        print(f"jobs             {result.jobs}")
        print("method           d(C)          k      time")
        for run in result.runs:
            marker = " *" if run.method == result.best_method else ""
            print(f"{run.method:<16s} {run.cost:12,.2f}  {run.k:5d}  "
                  f"{run.elapsed_seconds:.3f}s{marker}")
        print(f"winner           {result.best_method}  (k={result.best.k}, "
              f"total {result.elapsed_seconds:.3f}s)")
        if class_error is not None:
            print(f"class error      E_C = {class_error * 100:.1f}%")

    if args.out:
        np.savetxt(args.out, result.best.labels, fmt="%d")
        if not args.json:
            print(f"labels written   {args.out}")
    return 0


def _command_shard(args: argparse.Namespace) -> int:
    class_column = None if args.no_class else args.class_column
    dataset = CategoricalDataset.from_csv(args.csv, class_column=class_column)
    matrix = dataset.label_matrix()
    params: dict = {}
    if args.sample_size is not None:
        params["sample_size"] = args.sample_size
    result = shard_aggregate(
        matrix,
        n_shards=args.shards,
        partition=args.partition,
        shard_method=args.shard_method,
        inner=args.inner,
        merge=args.merge,
        max_exact_atoms=args.max_exact_atoms,
        p=args.p,
        rng=args.seed,
        n_jobs=args.jobs,
        backend=args.backend,
        **params,
    )
    disagreements = total_disagreement(matrix, result.clustering, p=args.p)
    class_error = (
        None
        if dataset.classes is None
        else classification_error(result.clustering, dataset.classes)
    )

    if args.json:
        report = {
            "dataset": {
                "name": dataset.name,
                "rows": dataset.n,
                "attributes": dataset.m,
                "missing": dataset.missing_count(),
            },
            "seed": args.seed,
            "disagreements": disagreements,
            "cost": disagreements / dataset.m,
            "class_error": class_error,
            **result.to_dict(),
        }
        print(json.dumps(report))
    else:
        print(f"dataset          {dataset.name}: {dataset.n} rows x {dataset.m} attributes, "
              f"{dataset.missing_count()} missing")
        print(f"shards           {len(result.shards)} ({args.partition})  jobs={result.jobs}")
        print("shard    rows      d(C)       k      time")
        for run in result.shards:
            print(f"{run.index:5d} {run.size:7d} {run.cost:10,.2f} {run.k:6d}  "
                  f"{run.elapsed_seconds:.3f}s")
        print(f"merge            {result.merge_method} over {result.n_atoms} atoms "
              f"-> k={result.clustering.k}")
        print(f"disagreements    D(C) = {disagreements:,.1f} "
              f"(d(C) = {disagreements / dataset.m:,.1f} per input clustering)")
        if class_error is not None:
            print(f"class error      E_C = {class_error * 100:.1f}%")
        print(f"time             {result.elapsed_seconds:.3f}s")

    if args.out:
        np.savetxt(args.out, result.clustering.labels, fmt="%d")
        if not args.json:
            print(f"labels written   {args.out}")
    return 0


def _command_stream(args: argparse.Namespace) -> int:
    from .stream import StreamingAggregator, load_checkpoint, save_checkpoint

    class_column = None if args.no_class else args.class_column
    dataset = CategoricalDataset.from_csv(args.csv, class_column=class_column)
    matrix = dataset.label_matrix()
    if args.resume:
        try:
            engine = load_checkpoint(args.resume, n=matrix.shape[0])
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        engine = StreamingAggregator(
            matrix.shape[0],
            p=args.p,
            decay=args.decay,
            sampling_threshold=args.sampling_threshold,
            sample_size=args.sample_size,
            rng=args.seed,
        )

    if not args.json:
        print(f"dataset          {dataset.name}: {dataset.n} rows x {dataset.m} attributes, "
              f"{dataset.missing_count()} missing")
        if args.resume:
            print(f"resumed          {args.resume} ({engine.count} updates already applied)")
        print("update  D(C)          k      moves  sweeps  time")
    updates = []
    for j in range(matrix.shape[1]):
        update = engine.observe(matrix[:, j])
        updates.append(update)
        if not args.json:
            seconds = update.observe_seconds + update.refine_seconds
            mode = "  (sampling)" if update.used_sampling else ""
            print(f"{update.index:6d}  {update.disagreements:12,.1f}  {update.k:5d}  "
                  f"{update.moves:5d}  {update.sweeps:6d}  {seconds:.3f}s{mode}")

    stats = engine.stats()
    class_error = (
        None
        if dataset.classes is None
        else classification_error(engine.consensus, dataset.classes)
    )
    if args.json:
        report = {
            "dataset": {
                "name": dataset.name,
                "rows": dataset.n,
                "attributes": dataset.m,
                "missing": dataset.missing_count(),
            },
            "seed": args.seed,
            "decay": args.decay,
            "resumed_from": args.resume,
            "updates": [
                {
                    "index": update.index,
                    "disagreements": update.disagreements,
                    "cost": update.cost,
                    "k": update.k,
                    "moves": update.moves,
                    "sweeps": update.sweeps,
                    "used_sampling": update.used_sampling,
                    "observe_seconds": update.observe_seconds,
                    "refine_seconds": update.refine_seconds,
                }
                for update in updates
            ],
            "k": engine.consensus.k,
            "disagreements": engine.disagreements(),
            "cost": engine.cost(),
            "class_error": class_error,
            "total_moves": stats.total_moves,
        }
        print(json.dumps(report))
    else:
        print(f"consensus        k={engine.consensus.k}  D(C) = {engine.disagreements():,.1f}")
        if class_error is not None:
            print(f"class error      E_C = {class_error * 100:.1f}%")
        print(f"engine           {stats.summary()}")

    if args.checkpoint:
        save_checkpoint(engine, args.checkpoint)
        if not args.json:
            print(f"checkpoint       {args.checkpoint}")
    if args.out:
        np.savetxt(args.out, engine.consensus.labels, fmt="%d")
        if not args.json:
            print(f"labels written   {args.out}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        checkpoint_dir=args.checkpoint_dir,
        max_sessions=args.max_sessions,
        max_n=args.max_n,
        queue_limit=args.queue_limit,
        batch_window=args.batch_window,
        n_jobs=args.jobs,
    )

    def banner(service: object) -> None:
        port = service.port  # type: ignore[attr-defined]
        if args.json:
            # flush so scripted callers (and the SIGTERM test) can read the
            # bound port before sending any request
            print(
                json.dumps(
                    {
                        "event": "serve.start",
                        "host": args.host,
                        "port": port,
                        "checkpoint_dir": args.checkpoint_dir,
                        "max_sessions": args.max_sessions,
                    }
                ),
                flush=True,
            )
        else:
            print(f"serving          http://{args.host}:{port}/", flush=True)
            if args.checkpoint_dir:
                print(f"checkpoints      {args.checkpoint_dir}", flush=True)

    summary = run_server(config, ready=banner)
    if args.json:
        print(json.dumps({"event": "serve.stop", **summary}), flush=True)
    else:
        print(
            f"stopped          drained {summary['sessions']} session(s), "
            f"wrote {len(summary['checkpoints'])} checkpoint(s)"
        )
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    generator = _GENERATORS[args.dataset]
    dataset = generator(n=args.rows, rng=args.seed)
    dataset.to_csv(args.path)
    print(f"wrote {dataset.n} rows x {dataset.m} attributes to {args.path}")
    return 0


def _command_pipeline(args: argparse.Namespace) -> int:
    from .pipeline import PipelineConfigError, PipelineError, load_config, run_pipeline

    try:
        config = load_config(args.config)
    except PipelineConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.pipeline_command == "validate":
        jobs = sum(len(stage.expand()) for stage in config.bases)
        print(
            f"ok               {config.source_path or args.config}\n"
            f"pipeline         {config.name}\n"
            f"dataset          {config.dataset.source}\n"
            f"base jobs        {jobs}\n"
            f"method           {config.aggregate.method}\n"
            f"metrics          {', '.join(config.metrics)}"
        )
        return 0

    try:
        result = run_pipeline(config, n_jobs=args.jobs)
    except PipelineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = result.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(report))
    else:
        print(result.render())
        if args.out:
            print(f"report written   {args.out}")
    return 0


def _command_methods(args: argparse.Namespace) -> int:
    from .registry import all_specs

    for spec in all_specs(role=args.role):
        if args.verbose:
            print(spec.describe())
            print()
        else:
            print(spec.name)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "aggregate":
        return _run_observed(args, _command_aggregate)
    if args.command == "portfolio":
        return _run_observed(args, _command_portfolio)
    if args.command == "shard":
        return _run_observed(args, _command_shard)
    if args.command == "stream":
        return _run_observed(args, _command_stream)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "generate":
        return _command_generate(args)
    if args.command == "pipeline":
        if args.pipeline_command == "run":
            return _run_observed(args, _command_pipeline)
        return _command_pipeline(args)
    if args.command == "methods":
        return _command_methods(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

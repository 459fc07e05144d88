"""The repository benchmark: five seeded workloads on the default ``aggregate()`` path.

``python -m benchmarks.suite run`` times them, ``run --trace`` attributes
their time to layers, and ``compare`` diffs two result files against the
bounds in ``BENCHMARK.json``.  See ``benchmarks/suite/README.md``.
"""

"""The ``run`` subcommand: each workload in fresh worker processes.

``setup_s`` is timed from outside: from starting a worker process to its
``ready`` line, which covers interpreter start, imports, input generation
and one warm-up operation.  An untraced run also starts
``SETUP_SAMPLES - 1`` workers that exit after set-up, half of them before
the measuring worker and half after it, and reports the median set-up
time.  Each set-up is scaled to the reference speed by the calibration
task timed just before it and just after it (for the measuring worker,
the worker's own first timing of the task).  A traced run starts one
worker.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any

from repro.obs import span

from .calibration import Calibration, scaled
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "reports" / "bench" / "BENCH_suite.json"

#: Set-up samples per untraced run; their median is ``setup_s``.  Even, so
#: that the median averages a sample from each end of the run.
SETUP_SAMPLES = 6
#: A worker still running this long after its set-up is killed.
WORKER_TIMEOUT_S = 150
#: Every worker runs single-threaded and without the debug contracts:
#: contracts add O(n^3) triangle checks, and BLAS threads would compete
#: with the portfolio's two workers for the two cores.
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
UNSET_ENV = ("REPRO_LAZY_THRESHOLD", "REPRO_CONTRACTS")


def _worker(config: dict[str, Any], env: dict[str, str]) -> tuple[str, float]:
    """Run one worker to its end; returns its output and its set-up time."""
    with span("bench.setup") as setup_span:
        worker = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.suite.worker", json.dumps(config)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = worker.stdout.readline().strip()
    try:
        output, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise RuntimeError(f"{config['workload']}: worker ran past {WORKER_TIMEOUT_S} s") from None
    if ready != "ready" or worker.returncode != 0:
        raise RuntimeError(f"{config['workload']}: worker exited with code {worker.returncode}")
    return output, setup_span.seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict[str, Any]:
    """One run of one workload: the worker's result plus ``setup_s``.

    Cores drift apart, so the calibration task must run where the work
    does.  A one-process workload runs on one CPU: the runner, which times
    the task around the set-ups, pins itself there and its workers inherit
    that.  The portfolio's workers keep every CPU, and the task runs on
    each in turn.
    """
    config = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke}
    env = {key: value for key, value in os.environ.items() if key not in UNSET_ENV}
    env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
    cpus = os.sched_getaffinity(0)
    if WORKLOADS[name].n_jobs == 1:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        if trace:
            return json.loads(_worker(config, env)[0].strip().splitlines()[-1])
        return _measured_run(config, env)
    finally:
        os.sched_setaffinity(0, cpus)


def _measured_run(config: dict[str, Any], env: dict[str, str]) -> dict[str, Any]:
    setup_only = {**config, "setup_only": True}
    calibration = Calibration()
    walls: list[float] = []
    setups: list[float] = []
    before = calibration.time()
    for position in range(SETUP_SAMPLES):
        if position == (SETUP_SAMPLES - 1) // 2:
            output, wall = _worker(config, env)
            result = json.loads(output.strip().splitlines()[-1])
            # The worker times the task first thing after its set-up.
            after, following = result["calibration_s"][0], calibration.time()
        else:
            wall = _worker(setup_only, env)[1]
            after = following = calibration.time()
        walls.append(wall)
        setups.append(scaled(wall, before, after))
        before = following
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"]["setup_wall_s"] = statistics.median(walls)
    result["setup_s"] = setups
    result["setup_wall_s"] = walls
    return result


def baseline_match(name: str, seed: int, disagreements: float) -> bool | None:
    """Whether D(C) equals the committed baseline's (``None``: no baseline at this seed)."""
    if not BASELINE.exists():
        return None
    baseline = json.loads(BASELINE.read_text())
    entry = baseline["workloads"].get(name)
    if entry is None or baseline["env"]["seed"] != seed or baseline["env"]["smoke"]:
        return None
    return entry["runs"][0]["metrics"]["disagreements"] == disagreements


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def environment(seed: int, seconds: float, trace: bool, smoke: bool) -> dict[str, Any]:
    """What a result depends on besides the code: recorded in every result file."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "pinned_env": PINNED_ENV,
        "unset_env": list(UNSET_ENV),
    }

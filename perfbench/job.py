"""One benchmark child process: set up, run the job, report as JSON.

Started by ``run.py`` with the BLAS thread count and ``PYTHONPATH`` already
in its environment.  Modes:

- ``setup``: interpreter start, ``import starbath`` and a warm-up run of the
  job at N=48; reports the set-up time only.
- ``measure``: set-up, then untraced runs of the full-size job until the
  time budget is spent; reports each run's wall time and the peak RSS.
- ``trace``: set-up, untraced runs for half the budget, then runs under the
  span tracer for the other half.

Every run writes into its own output directory, which ``run.py`` checks
after this process has exited.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import WARMUP_N, WORKLOADS  # noqa: E402

MAX_RUNS = 200


def _run_job(main, argv: list[str]) -> tuple[float, str | None]:
    """Wall time of ``main(argv)`` and an error description, if any."""
    t0 = time.perf_counter()
    try:
        rc = main(argv)
        error = None if rc == 0 else f"exit code {rc}"
    except Exception:  # a failing job is a failed operation, not a crash
        error = traceback.format_exc(limit=5)
    return time.perf_counter() - t0, error


def _runs_until(budget: float, run_once) -> list[dict]:
    """Repeat ``run_once(i)`` while the next run is expected to end within
    ``budget`` seconds; always at least one run, stop at the first failure."""
    start = time.perf_counter()
    runs: list[dict] = []
    while len(runs) < MAX_RUNS:
        runs.append(run_once(len(runs)))
        if runs[-1]["error"]:
            break
        typical = statistics.median(r["wall_s"] for r in runs)
        if time.perf_counter() - start + typical > budget:
            break
    return runs


def dgemm_gflops(n: int = 2000, repeats: int = 5) -> float:
    """Best rate of a plain n x n DGEMM at the process's BLAS thread count."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    c = a @ b  # warm the thread pool
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def provenance() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass

    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:  # glibc reads the cache size from cpuid
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        llc = int(out.stdout) if out.returncode == 0 else None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        llc = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--budget", type=float, default=0.0, help="seconds of full-size runs")
    parser.add_argument("--work", required=True, help="directory for configs, outputs and result.json")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    work = Path(args.work)
    result: dict = {}

    import starbath
    from starbath.cli import main as cli_main

    result["starbath_file"] = starbath.__file__
    result["warmup_out"] = str(work / "warmup")
    _, error = _run_job(cli_main, w.argv((WARMUP_N,), str(work / "warmup.json"), result["warmup_out"]))
    result["setup_s"] = time.monotonic() - args.spawned_at
    result["warmup_error"] = error

    if args.mode != "setup" and error is None:
        config = str(work / "config.json")

        def untraced(i: int) -> dict:
            out = work / f"run{i}"
            wall, err = _run_job(cli_main, w.argv(w.n_values, config, str(out)))
            return {"out": str(out), "wall_s": wall, "error": err}

        share = 0.5 if args.mode == "trace" else 1.0
        result["runs"] = _runs_until(args.budget * share, untraced)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.mode == "trace" and not any(r["error"] for r in result["runs"]):
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()

            def traced(i: int) -> dict:
                out = work / f"trace{i}"
                _, err = _run_job(lambda a: tracer.trace(cli_main, a), w.argv(w.n_values, config, str(out)))
                values, absent = layer_metrics(tracer.spans, tracer.present)
                return {
                    "out": str(out),
                    "wall_s": tracer.spans[0].duration,
                    "error": err,
                    "metrics": values,
                    "absent": sorted(absent),
                    "spans": [vars(s) for s in tracer.spans],
                }

            try:
                result["traced_runs"] = _runs_until(args.budget * share, traced)
            finally:
                tracer.uninstall()
        result["dgemm_gflops"] = dgemm_gflops()
        result["provenance"] = provenance()

    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

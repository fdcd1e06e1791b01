"""Job-level benchmark of starbath.

Runs one workload (a real ``starbath`` job, see ``workloads.py``) in fresh
child processes through the stable CLI entry ``starbath.cli.main``, checks
every output curve, and prints each metric by name with its unit.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run from the root of a source checkout (the program is imported from
``src/``):

    python3 perfbench/run.py --workload simulate_full --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median job time,
tracing off), ``setup_s`` (median over several processes of interpreter
start + ``import starbath`` + a warm-up run at N=48), ``peak_rss_mb``
(``ru_maxrss`` of the measuring process).  ``failed_frac`` (failed curves /
checked curves) is printed with them and carried by ``attempted`` and
``failed``.  ``--trace 1`` reports the per-layer metrics of a traced run
(``spans.py``) next to an untraced one, and writes the spans of the median
traced run to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WARMUP_N, WORKLOADS, time_grid, warmup_grid  # noqa: E402

# Two BLAS threads (= nproc on the 2-core box this was tuned on): jobs take
# about half the one-thread time, so a 30 s run holds more of them, and one
# thread was not steadier across runs on every workload (see README.md).
# Fixed here so every commit runs the same.
BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6  # set-up-only processes per run, besides the measuring one
CHILD_TIMEOUT_S = 170
SUM_TOLERANCE_S = 1e-6  # self times must add up to the traced wall time
TAIL_PERMILLES = (750, 900, 950, 990, 999)  # candidate tail percentiles, x10


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a child crashed)."""


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and sample count, plus the highest tail percentile
    that has at least ten samples beyond it (none below 40 samples)."""
    xs = sorted(samples)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n > 1 else (xs[0], xs[0], xs[0])
    out = {"n": n, "median": statistics.median(xs), "q1": q1, "q3": q3, "tail": None}
    for pm in reversed(TAIL_PERMILLES):
        if n * (1000 - pm) >= 10 * 1000:  # at least ten samples beyond
            out["tail"] = (pm / 10.0, xs[round(pm * (n - 1) / 1000)])
            break
    return out


def _median_run(runs: list[dict]) -> dict:
    ordered = sorted(runs, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool):
        self.root = root
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = root / ".bench_out"
        self.work = self.out / f"work-{os.getpid()}"
        self.grid = time_grid(seed, self.w.points, self.w.t_max_us)
        self.warmup_grid = warmup_grid(seed)
        self.env = dict(os.environ)
        self.env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
        self.env["PYTHONPATH"] = str(root / "src")

    def child(self, name: str, mode: str, budget: float = 0.0) -> dict:
        work = self.work / name
        work.mkdir(parents=True)
        (work / "config.json").write_text(json.dumps({"times_us": self.grid}))
        (work / "warmup.json").write_text(json.dumps({"times_us": self.warmup_grid}))
        cmd = [
            sys.executable, str(HERE / "job.py"),
            "--workload", self.w.name, "--mode", mode, "--budget", repr(budget),
            "--work", str(work), "--spawned-at", repr(time.monotonic()),
        ]  # fmt: skip
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name} timed out after {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        result = json.loads((work / "result.json").read_text())
        starbath_file = Path(result["starbath_file"]).resolve()
        if (self.root / "src") not in starbath_file.parents:
            raise BenchError(f"{name} imported starbath from {starbath_file}, not from this checkout")
        return result

    def run(self) -> dict:
        children = []
        if not self.trace:
            children += [self.child(f"setup{i}", "setup") for i in range(SETUP_PROBES)]
        measuring = self.child("main", "trace" if self.trace else "measure", self.seconds)
        children.append(measuring)

        sys.path.insert(0, str(self.root / "src"))
        from checker import Checker

        reference = HERE / "reference" / self.w.name if self.seed == DEFAULT_SEED else None
        checker = Checker(self.w, self.grid, self.warmup_grid, reference)
        curves = []
        for c in children:
            if c["warmup_error"]:
                curves += checker.failed_run((WARMUP_N,), c["warmup_error"])
            else:
                curves += checker.check_warmup(Path(c["warmup_out"]))
        for r in measuring.get("runs", []) + measuring.get("traced_runs", []):
            if r["error"]:
                curves += checker.failed_run(self.w.n_values, r["error"])
            else:
                curves += checker.check_run(Path(r["out"]))
        return {"children": children, "main": measuring, "curves": curves}


def report(bench: Bench, res: dict) -> tuple[dict, bool, list[str]]:
    """Metrics, extra correctness condition, and human-readable lines."""
    main = res["main"]
    lines = []
    if not main.get("runs"):
        return {}, False, ["no full-size run completed (warm-up failed)"]
    walls = [r["wall_s"] for r in main["runs"] if not r["error"]] or [r["wall_s"] for r in main["runs"]]
    wall = summarize(walls)
    dgemm = main["dgemm_gflops"]
    if not bench.trace:
        setup = summarize([c["setup_s"] for c in res["children"]])
        metrics = {
            "wall_s": (wall["median"], "s"),
            "setup_s": (setup["median"], "s"),
            "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
        }
        for name, s in (("wall_s", wall), ("setup_s", setup)):
            tail = f"; p{s['tail'][0]:g} {s['tail'][1]:.4f}" if s["tail"] else "; no tail percentile (needs >= 40 samples)"
            lines.append(f"{name:<12} {s['median']:.4f} s  median of {s['n']} (q1 {s['q1']:.4f}, q3 {s['q3']:.4f}{tail})")
        lines.append(f"{'peak_rss_mb':<12} {main['peak_rss_mb']:.1f} MiB  ru_maxrss of the measuring process")
        return metrics, True, lines

    from spans import GROUP_METRICS

    traced_runs = [r for r in main.get("traced_runs", []) if not r["error"]]
    if not traced_runs:
        return {}, False, ["no traced run completed"]
    traced = _median_run(traced_runs)
    values, absent = traced["metrics"], set(traced["absent"])
    metrics = {name: (values[name], unit) for name, (_, _, unit) in GROUP_METRICS.items()}
    kernel_rate = values["kernels.gflop"] / values["kernels.s"] if values["kernels.s"] > 0 else 0.0
    metrics["kernels.gflops_per_s"] = (kernel_rate, "GFLOP/s")
    metrics["kernels.peak_frac"] = (kernel_rate / dgemm, "1")
    metrics["machine.dgemm_gflops"] = (dgemm, "GFLOP/s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - wall["median"], "s")
    if "kernels.s" in absent:
        absent |= {"kernels.gflops_per_s", "kernels.peak_frac"}

    self_sum = sum(values[m] for m, (_, f, _) in GROUP_METRICS.items() if f == "s")
    ok = abs(self_sum - traced["wall_s"]) <= SUM_TOLERANCE_S
    lines.append(f"untraced wall_s {wall['median']:.4f} s (median of {wall['n']}); traced wall_s {traced['wall_s']:.4f} s")
    lines.append(f"layer self times sum to {self_sum:.6f} s (traced wall {traced['wall_s']:.6f} s)")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<34} {value:>14.6g} {unit}" + ("  (absent: not in this program)" if name in absent else ""))

    bench.out.mkdir(exist_ok=True)
    spans_path = bench.out / f"spans-{bench.w.name}-seed{bench.seed}.json"
    spans_path.write_text(json.dumps({"workload": bench.w.name, "seed": bench.seed, "spans": traced["spans"]}))
    lines.append(f"spans written to {spans_path.relative_to(bench.root)}")
    return metrics, ok, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="starbath job-level benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="time spent on full-size job runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "starbath" / "cli.py").is_file():
        print("perfbench: no src/starbath/cli.py in the current directory; run from a source checkout", file=sys.stderr)
        return 2
    for k in BLAS_ENV:  # the checker's numpy in this process uses the same count
        os.environ[k] = str(BLAS_THREADS)

    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        res = bench.run()
        metrics, ok, lines = report(bench, res)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    curves = res["curves"]
    failed = [c for c in curves if not c.ok]
    main_child = res["main"]
    provenance = {
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root / "src"),
        **main_child.get("provenance", {}),
        "machine.dgemm_gflops": main_child.get("dgemm_gflops"),
        "blas_threads_reason": "fixed at 2: half the 1-thread job time, and 1 thread was not steadier on every workload",
    }
    print(f"workload {bench.w.name}  seed {bench.seed}  trace {int(bench.trace)}  grid {len(bench.grid)} points")
    for line in lines:
        print(line)
    frac = len(failed) / len(curves) if curves else 1.0
    print(f"{'failed_frac':<12} {frac:.4f} 1  ({len(failed)} of {len(curves)} checked curves failed)")
    for c in failed[:20]:
        print(f"  FAILED {c.file}:{c.column}: {c.detail}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    correct = ok and bool(curves) and not failed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(curves),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

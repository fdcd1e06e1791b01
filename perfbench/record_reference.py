"""Record the reference outputs the checker compares against.

Runs each workload's full-size job once on the default-seed grid and copies
its CSV files to ``perfbench/reference/<workload>/``.  Run from the root of
a source checkout, only at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BLAS_ENV, BLAS_THREADS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, time_grid  # noqa: E402


def main(argv: list[str]) -> int:
    root = Path.cwd()
    for k in BLAS_ENV:
        os.environ[k] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    from starbath.cli import main as cli_main

    work = root / ".bench_out" / f"record-{os.getpid()}"
    try:
        for name in argv or sorted(WORKLOADS):
            w = WORKLOADS[name]
            work.mkdir(parents=True, exist_ok=True)
            config = work / f"{name}.json"
            config.write_text(json.dumps({"times_us": time_grid(DEFAULT_SEED, w.points, w.t_max_us)}))
            out = work / name
            if cli_main(w.argv(w.n_values, str(config), str(out))) != 0:
                print(f"{name}: job failed", file=sys.stderr)
                return 1
            dest = HERE / "reference" / name
            shutil.rmtree(dest, ignore_errors=True)
            dest.mkdir(parents=True)
            for file in w.expected_files(w.n_values):
                shutil.copyfile(out / file, dest / file)
                print(f"recorded {dest / file}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

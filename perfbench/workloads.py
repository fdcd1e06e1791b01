"""Workload definitions and seeded time grids.

Each workload is one real ``starbath`` job driven through ``starbath.cli.main``.
The job, its N values and its window define the workload; the benchmark
draws only the time grid from the seed and hands it to the program as
``times_us`` in a ``--config`` file.  The kernel cost of a time point does
not depend on its value, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The seed the committed reference outputs were recorded for.
DEFAULT_SEED = 0

# Warm-up: the same job at N=48 on a short grid that stays inside the N=48
# recurrence time t1 = 2*pi*47 / 19.974 MHz = 14.8 us.
WARMUP_N = 48
WARMUP_POINTS = 5
WARMUP_T_MAX_US = 12.0

SIMULATE_COLUMNS = (
    "t[us]",
    "sigma11_exact[1]",
    "sigma11_gksl[1]",
    "S_tot[kB]",
    "dS_tot[kB]",
    "Pi_tot[kB/ms]",
    "Pi_vN[kB/ms]",
    "dS_vN[kB]",
    "dEA_dt[J/s]",
    "dEB_dt[J/s]",
    "dEI_dt[J/s]",
)
FIG1_COLUMNS = ("t[us]", "sigma11_exact[1]")
FIG1_GKSL_COLUMNS = ("t[us]", "sigma11_gksl[1]")
FIG5_COLUMNS = ("j[1]", "omega_j[MHz]", "t[us]", "T_j[uK]", "dEj_dt[J/s]")


@dataclass(frozen=True)
class Workload:
    name: str
    job: str
    n_values: tuple[int, ...]
    window_mhz: float | None
    points: int  # time points per job run
    t_max_us: float  # grid upper end, below t1 of the smallest N

    def argv(self, n_values: tuple[int, ...], config: str, out: str) -> list[str]:
        """CLI arguments for one run of the job on ``n_values``."""
        args = [self.job, "--config", config, "--out", out]
        if self.job == "simulate":
            (n,) = n_values
            args += ["--n", str(n)]
        else:
            args += ["--n-list", ",".join(str(n) for n in n_values)]
        if self.window_mhz is not None:
            args += ["--window", repr(self.window_mhz)]
        return args

    def expected_files(self, n_values: tuple[int, ...]) -> dict[str, tuple[str, ...]]:
        """CSV file name -> header columns the job must write."""
        if self.job == "simulate":
            return {"simulate.csv": SIMULATE_COLUMNS}
        if self.job == "fig1":
            files = {f"fig1_sigma11_N{n}.csv": FIG1_COLUMNS for n in n_values}
            files["fig1_sigma11_gksl.csv"] = FIG1_GKSL_COLUMNS
            return files
        if self.job == "fig5":
            return {f"fig5_modes_N{n}.csv": FIG5_COLUMNS for n in n_values}
        raise ValueError(f"no output layout for job {self.job!r}")


# Recurrence times t1 = 2*pi*(N-1) / 19.974 MHz: 629 us at N=2000 and
# 944 us at N=3000; each grid ends below the t1 of its smallest N.  Grid
# lengths keep one job run well inside a 30 s benchmark run.
WORKLOADS = {
    w.name: w
    for w in (
        # Full snapshots at every time: the full-diagonal kernel dominates and
        # eigh is small, so a per-time kernel change shows here.
        Workload(
            name="simulate_full",
            job="simulate",
            n_values=(2000,),
            window_mhz=None,
            points=9,
            t_max_us=600.0,
        ),
        # System row only: one eigh per N dominates and the N=4000 basis
        # (128 MB) exceeds the LLC, so an eigensolver or basis-memory change
        # shows here and a kernel change does not.
        Workload(
            name="fig1_multi_n",
            job="fig1",
            n_values=(2000, 3000, 4000),
            window_mhz=None,
            points=31,
            t_max_us=600.0,
        ),
        # A 120-row kernel window, cross_term_series on every time, eigh and
        # the largest long-format CSV: a change that batches all rows to speed
        # simulate_full can slow this one.
        Workload(
            name="fig5_window",
            job="fig5",
            n_values=(3000,),
            window_mhz=0.4,
            points=41,
            t_max_us=900.0,
        ),
    )
}


def time_grid(seed: int, points: int, t_max_us: float) -> list[float]:
    """``points`` sorted times in [0, t_max_us] microseconds drawn from ``seed``.

    Uses the standard library generator, whose output for an integer seed is
    fixed across Python versions, and rounds to 1 ns so the grid prints
    exactly in config files and CSV output.
    """
    rng = random.Random(seed)
    return sorted(round(rng.uniform(0.0, t_max_us), 3) for _ in range(points))


def warmup_grid(seed: int) -> list[float]:
    return time_grid(seed, WARMUP_POINTS, WARMUP_T_MAX_US)

"""Correctness gate: every output curve of every run is checked.

An operation is one CSV column of one file.  It fails when the job failed,
the file is missing or malformed, or the column is out of tolerance in one
of these checks:

- warm-up outputs at N=48 against the dense oracle ``dense_oracle_at``,
  to 1e-9 relative to the column's scale;
- full-size outputs for the default seed against the reference outputs
  recorded at the commit that introduced the benchmark, to 1e-10 relative
  to the column's scale (outputs differ by ~1e-12 between BLAS thread
  counts, so byte equality is not a valid check);
- invariants that need no reference: finite values, the requested time
  grid, c_j >= 1 (T_j >= 0), and dE_A + dE_B + dE_I = 0 in simulate.csv.

Runs in the benchmark's parent process, outside every timed interval.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from starbath.config import ExperimentConfig
from starbath.constants import HBAR, KB, MHZ, UK, US
from starbath.evolve import CovarianceSnapshot
from starbath.model import discretize_ohmic_bath
from starbath.oracle import dense_oracle_at
from starbath.thermo import inverse_temperature, totals

from workloads import WARMUP_N, Workload

ORACLE_RTOL = 1e-9
REFERENCE_RTOL = 1e-10
GRID_RTOL = 1e-12
INVARIANT_RTOL = 1e-9


@dataclass
class Curve:
    file: str
    column: str
    ok: bool
    detail: str = ""


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty file")
    data = np.array([[float(v) for v in row] for row in rows[1:]], dtype=float)
    return rows[0], data.reshape(len(rows) - 1, len(rows[0]))


def scaled_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """max |actual - expected| relative to max |expected| (absolute when the
    expected column is all zero)."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    if actual.shape != expected.shape:
        return float("inf")
    scale = float(np.max(np.abs(expected), initial=0.0))
    err = float(np.max(np.abs(actual - expected), initial=0.0))
    return err / scale if scale > 0 else err


class Checker:
    """Checks the outputs of one workload at one seed."""

    def __init__(self, workload: Workload, grid: list[float], warmup_grid: list[float], reference: Path | None):
        self.w = workload
        self.grid = np.asarray(grid, float)
        self.warmup_grid = np.asarray(warmup_grid, float)
        self.reference = reference

    # --- entry points -----------------------------------------------------

    def failed_run(self, n_values: tuple[int, ...], reason: str) -> list[Curve]:
        """Every expected curve of a run whose job raised or exited non-zero."""
        return [
            Curve(name, col, False, reason)
            for name, cols in self.w.expected_files(n_values).items()
            for col in cols
        ]

    def check_run(self, out_dir: Path) -> list[Curve]:
        """Full-size outputs: invariants, plus the reference at the default seed."""
        curves = []
        for name, cols in self.w.expected_files(self.w.n_values).items():
            table = self._load(out_dir / name, cols)
            if isinstance(table, str):
                curves += [Curve(name, c, False, table) for c in cols]
                continue
            problems = self._invariants(name, table, self.grid)
            if self.reference is not None:
                self._compare_reference(name, table, problems)
            curves += [Curve(name, c, not problems.get(c), "; ".join(problems.get(c, []))) for c in cols]
        return curves

    def check_warmup(self, out_dir: Path) -> list[Curve]:
        """Warm-up outputs at N=48: invariants and the dense oracle."""
        curves = []
        for name, cols in self.w.expected_files((WARMUP_N,)).items():
            table = self._load(out_dir / name, cols)
            if isinstance(table, str):
                curves += [Curve(name, c, False, table) for c in cols]
                continue
            problems = self._invariants(name, table, self.warmup_grid)
            for col, err in self._oracle_errors(name, table).items():
                if not err <= ORACLE_RTOL:
                    problems.setdefault(col, []).append(f"oracle error {err:.2e}")
            curves += [Curve(name, c, not problems.get(c), "; ".join(problems.get(c, []))) for c in cols]
        return curves

    # --- pieces -------------------------------------------------------------

    @staticmethod
    def _load(path: Path, cols: tuple[str, ...]) -> dict[str, np.ndarray] | str:
        try:
            header, data = read_csv(path)
        except (OSError, ValueError) as exc:
            return f"unreadable {path.name}: {exc}"
        if tuple(header) != cols:
            return f"header {header} != {list(cols)}"
        return {c: data[:, i] for i, c in enumerate(cols)}

    def _invariants(self, name: str, t: dict[str, np.ndarray], grid: np.ndarray) -> dict[str, list[str]]:
        problems: dict[str, list[str]] = {}

        def fail(col: str, msg: str) -> None:
            problems.setdefault(col, []).append(msg)

        for col, values in t.items():
            if not np.all(np.isfinite(values)):
                fail(col, "non-finite values")
        times = t["t[us]"]
        if len(times) % len(grid) or len(times) == 0:
            fail("t[us]", f"{len(times)} rows for a {len(grid)}-point grid")
        elif scaled_error(times, np.tile(grid, len(times) // len(grid))) > GRID_RTOL:
            fail("t[us]", "times differ from the requested grid")
        for col in ("sigma11_exact[1]", "sigma11_gksl[1]"):
            if col in t and np.any(t[col] < 1.0):
                fail(col, f"c < 1 (min {t[col].min()!r})")
        if "T_j[uK]" in t and np.any(t["T_j[uK]"] < 0.0):
            fail("T_j[uK]", "negative temperature (c_j < 1)")
        fluxes = ("dEA_dt[J/s]", "dEB_dt[J/s]", "dEI_dt[J/s]")
        if all(c in t for c in fluxes):
            total = sum(t[c] for c in fluxes)
            scale = max(float(np.max(np.abs(t[c]), initial=0.0)) for c in fluxes)
            if scale > 0 and float(np.max(np.abs(total))) > INVARIANT_RTOL * scale:
                for c in fluxes:
                    fail(c, "energy fluxes do not sum to zero")
        return problems

    def _compare_reference(self, name: str, t: dict[str, np.ndarray], problems: dict[str, list[str]]) -> None:
        ref = self._load(self.reference / name, tuple(t))
        if isinstance(ref, str):
            for col in t:
                problems.setdefault(col, []).append(f"reference {ref}")
            return
        for col, values in t.items():
            err = scaled_error(values, ref[col])
            if not err <= REFERENCE_RTOL:
                problems.setdefault(col, []).append(f"reference error {err:.2e}")

    def _oracle_errors(self, name: str, t: dict[str, np.ndarray]) -> dict[str, float]:
        """Scaled error of each oracle-checkable column of a warm-up file."""
        cfg = ExperimentConfig(n_modes=WARMUP_N)
        model = discretize_ohmic_bath(cfg.bath_spec(), cfg.omega1)
        init = cfg.initial_temperatures()

        snapshots: dict[float, CovarianceSnapshot] = {}

        def oracle(t_us: float) -> CovarianceSnapshot:
            if t_us not in snapshots:
                d = dense_oracle_at(model, init, t_us * US, oracle_cap=WARMUP_N)
                snapshots[t_us] = CovarianceSnapshot(t_us * US, d.diagonal_coefficients(), d.cross_terms(), model)
            return snapshots[t_us]

        if name == "simulate.csv":
            base = oracle(0.0)
            recs = [totals(oracle(tu), base) for tu in t["t[us]"]]
            expected = {
                "S_tot[kB]": [r.S_tot / KB for r in recs],
                "dS_tot[kB]": [r.dS_tot / KB for r in recs],
                "Pi_tot[kB/ms]": [r.Pi_tot / KB * 1e-3 for r in recs],
                "dEA_dt[J/s]": [r.dEA_dt for r in recs],
                "dEB_dt[J/s]": [r.dEB_dt for r in recs],
                "dEI_dt[J/s]": [r.dEI_dt for r in recs],
            }
            expected["sigma11_exact[1]"] = [oracle(tu).c[0] for tu in t["t[us]"]]
        elif name.startswith("fig1_sigma11_N"):
            expected = {"sigma11_exact[1]": [oracle(tu).c[0] for tu in t["t[us]"]]}
        elif name.startswith("fig5_modes_N"):
            temps, fluxes = [], []
            for j, tu in zip(t["j[1]"], t["t[us]"]):
                k = int(j) - 2  # bath index; oscillator j = k + 2 in 1-based numbering
                snap = oracle(tu)
                omega = model.bath_omegas[k]
                temps.append(inverse_temperature(snap.c[k + 1], omega)[1] / UK)
                fluxes.append(-HBAR * omega * model.bath_couplings[k] * snap.x[k])
            expected = {
                "omega_j[MHz]": [model.bath_omegas[int(j) - 2] / MHZ for j in t["j[1]"]],
                "T_j[uK]": temps,
                "dEj_dt[J/s]": fluxes,
            }
        else:
            return {}
        return {col: scaled_error(t[col], np.asarray(vals, float)) for col, vals in expected.items()}

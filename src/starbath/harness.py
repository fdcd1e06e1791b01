"""Experiment runner: figure-data jobs, N-sweeps, and the validation suite.

Figure jobs emit data (one CSV per curve plus a JSON manifest), never
images; plotting is left to external tools.  Identical configs produce
bit-identical CSV bytes on the same build.

Every figure job runs one pipeline: for each N it builds a ``_Run`` (model,
closed-form rates, mode basis and the shared time grid) and hands it to the
job's curve function, which returns ``{table key: (file name, table)}``.
The pipeline writes the CSVs, collects the derived constants per N and
writes the manifest; a job is a ``_Job`` declaration of that curve function
and its defaults.  Evaluated data stay on the time grid throughout: time on
the first axis, oscillators on the last.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks
from .config import ExperimentConfig
from .constants import HBAR, KB, MHZ, UK, US
from .evolve import (
    EVALUATION_PATH, CovarianceSnapshot, ModeBasis, evaluate, initial_coefficients, mode_basis,
    snapshot_series,
)
from .gksl import (
    GkslParams, ep_difference, epr_difference, gksl_sigma11, gksl_system_temperature, von_neumann_ep,
    von_neumann_epr,
)
from .model import (
    discretize_ohmic_bath, mean_occupation, recurrence_time, relaxation_rate, thermal_coefficient,
)
from .table import ResultTable, write_manifest
from .thermo import ThermoRecord, fluxes_from_cross_terms, inverse_temperature, totals

__all__ = ["run_job", "run_validate", "JOB_INPUTS", "derived_constants", "proportional_fit", "affine_fit"]

# Config fields recorded in every manifest's ``parameters``.
_PARAMETERS = (
    "omega1_mhz",
    "omega_c_mhz",
    "omega_min_mhz",
    "omega_max_mhz",
    "eta",
    "n_modes",
    "T_A0_uk",
    "T_B0_uk",
    "pivn_mode",
)


def derived_constants(basis: ModeBasis, params: GkslParams) -> dict:
    """Derived quantities recorded in every manifest, with the evaluation
    path and two O(N) invariants of its eigenvalue refinement: the
    completeness residual |sum_k Q_1k^2 - 1| and the relative Newton step
    left at the final shifts."""
    model = basis.model
    return {
        "delta_omega_rad_per_s": model.delta_omega,
        "Gamma_per_s": params.Gamma,
        "relaxation_time_us": 1.0 / (2.0 * params.Gamma) / US if params.Gamma > 0 else None,
        "recurrence_time_us": recurrence_time(model) / US,
        "nbar": mean_occupation(model.omega1, params.T_B0),
        "sigma11_initial": thermal_coefficient(model.omega1, params.T_A0),
        "sigma11_equilibrium": thermal_coefficient(model.omega1, params.T_B0),
        "evaluation_path": EVALUATION_PATH,
        "weight_sum_residual": abs(float(np.sum(basis.weights)) - 1.0),
        "newton_step": basis.newton_step,
    }


class _Run:
    """One N of a figure job: model, closed-form rates, mode basis and the
    time grid, with the exact evaluations built on first use."""

    def __init__(self, cfg: ExperimentConfig, n: int, times: np.ndarray, last: bool) -> None:
        self.cfg, self.n, self.times, self.last = cfg, n, times, last
        spec = cfg.bath_spec(n)
        self.model = discretize_ohmic_bath(spec, cfg.omega1)
        self.init = cfg.initial_temperatures()
        self.params = GkslParams(
            omega1=cfg.omega1,
            Gamma=relaxation_rate(spec, cfg.omega1),
            T_A0=self.init.T_A0,
            T_B0=self.init.T_B0,
        )
        t1 = recurrence_time(self.model)
        if np.any(times > t1):
            warnings.warn(
                f"time grid extends beyond the recurrence time t1 = {t1 / US:.1f} us "
                f"(N = {n}); the uniformly spaced bath rephases there and "
                "recurrence-like behavior invalidates the Markovian comparison",
                RuntimeWarning,
                stacklevel=2,
            )
        self.basis = mode_basis(self.model)

    @cached_property
    def series(self) -> CovarianceSnapshot:
        """Grid snapshot at t = 0 (the baseline) followed by the grid times."""
        return snapshot_series(self.basis, self.init, np.r_[0.0, self.times])

    @cached_property
    def record(self) -> ThermoRecord:
        """Thermo record of ``series``; its first time is the baseline."""
        return totals(self.series, self.series.at(0))

    def evaluate(self, rows, cross: bool = True):
        """(c, x) on the grid for oscillator ``rows``; see ``evolve.evaluate``."""
        c0 = initial_coefficients(self.basis.frequencies, self.init)
        return evaluate(self.basis, c0, self.times, rows, cross)

    @property
    def sigma11(self) -> np.ndarray:
        """Exact system coefficient c_1 on the grid, from ``series``."""
        return self.series.c[1:, 0]

    @property
    def pivn(self) -> np.ndarray:
        """Conventional rate Pi_vN on the grid, from the configured sigma11."""
        exact = self.sigma11 if self.cfg.pivn_mode == "exact" else None
        return np.asarray(von_neumann_epr(self.params, self.times, exact))

    @property
    def window(self) -> tuple[int, int]:
        """Contiguous bath-index range with |w_j - w_1| <= the mode window."""
        bath = self.model.bath_omegas
        idx = np.flatnonzero(np.abs(bath - self.model.omega1) <= self.cfg.mode_window_mhz * MHZ)
        return (int(idx[0]), int(idx[-1]) + 1) if len(idx) else (0, 0)


def _grid_table(run: _Run, columns: dict) -> ResultTable:
    """Table with the grid times in us as its first column."""
    return ResultTable.from_columns({"t[us]": run.times / US, **columns})


# --- curve functions: _Run -> {table key: (file name, table)} ---------------


def _simulate_curves(run: _Run) -> dict:
    """Full observable table on the configured grid."""
    rec = run.record
    table = _grid_table(run, {
        "sigma11_exact[1]": run.sigma11,
        "sigma11_gksl[1]": gksl_sigma11(run.params, run.times),
        "S_tot[kB]": rec.S_tot[1:] / KB,
        "dS_tot[kB]": rec.dS_tot[1:] / KB,
        "Pi_tot[kB/ms]": rec.Pi_tot[1:] / KB * 1e-3,
        "Pi_vN[kB/ms]": run.pivn / KB * 1e-3,
        "dS_vN[kB]": von_neumann_ep(run.params, rec.entropies[:, 0], rec.energies[:, 0])[1:] / KB,
        "dEA_dt[J/s]": rec.dEA_dt[1:],
        "dEB_dt[J/s]": rec.dEB_dt[1:],
        "dEI_dt[J/s]": rec.dEI_dt[1:],
    })
    return {"simulate": ("simulate.csv", table)}


def _fig1_curves(run: _Run) -> dict:
    """System coefficient sigma11(t) per N; the N-independent closed-form
    curve comes last."""
    c1 = run.evaluate([0], cross=False)[0][:, 0]
    curves = {f"N{run.n}": (f"fig1_sigma11_N{run.n}.csv", _grid_table(run, {"sigma11_exact[1]": c1}))}
    if run.last:
        gksl = _grid_table(run, {"sigma11_gksl[1]": gksl_sigma11(run.params, run.times)})
        curves["gksl"] = ("fig1_sigma11_gksl.csv", gksl)
    return curves


def _fig2_curves(run: _Run) -> dict:
    """Energy-flux triple dE_A/dt, dE_B/dt, dE_I/dt over the grid."""
    fluxes = fluxes_from_cross_terms(run.evaluate(range(1, run.n + 1))[1], run.model)
    names = ("dEA_dt", "dEB_dt", "dEI_dt")
    table = _grid_table(run, {f"{name}[J/s]": getattr(fluxes, name) for name in names})
    return {"fluxes": ("fig2_fluxes.csv", table)}


def _fig3_curves(run: _Run) -> dict:
    """Entropy production rates Pi_tot and Pi_vN and their exact gap."""
    table = _grid_table(run, {
        "Pi_tot[kB/ms]": run.record.Pi_tot[1:] / KB * 1e-3,
        "Pi_vN[kB/ms]": run.pivn / KB * 1e-3,
        "Pi_gap[kB/ms]": epr_difference(run.record, run.params)[1:] / KB * 1e-3,
    })
    return {f"N{run.n}": (f"fig3_rates_N{run.n}.csv", table)}


def _mode_map(run: _Run, c: np.ndarray, x: np.ndarray | None = None) -> ResultTable:
    """Long-format temperatures of the bath modes in ``run.window``, and
    their fluxes when cross terms ``x`` are given; column i of ``c`` and
    ``x`` belongs to window mode i."""
    lo, hi = run.window
    omegas, couplings = run.model.bath_omegas[lo:hi], run.model.bath_couplings[lo:hi]
    nt = len(run.times)
    _, T = inverse_temperature(c, omegas)
    columns = {
        "j[1]": np.repeat(np.arange(lo, hi) + 2, nt),
        "omega_j[MHz]": np.repeat(omegas / MHZ, nt),
        "t[us]": np.tile(run.times / US, hi - lo),
        "T_j[uK]": (T / UK).T.ravel(),
    }
    if x is not None:
        columns["dEj_dt[J/s]"] = (-HBAR * omegas * couplings * x).T.ravel()
    return ResultTable.from_columns(columns)


def _fig4_curves(run: _Run) -> dict:
    """System temperature, exact and closed form, plus the bath temperatures
    in the mode window."""
    lo, hi = run.window
    c, _ = run.evaluate(np.r_[0, lo + 1 : hi + 1], cross=False)
    _, T_exact = inverse_temperature(c[:, 0], run.model.omega1)
    T_gksl = gksl_system_temperature(run.params, run.times)
    system = _grid_table(run, {"T_A_exact[uK]": T_exact / UK, "T_A_gksl[uK]": T_gksl / UK})
    return {
        "system": ("fig4_system_temperature.csv", system),
        "bath": ("fig4_bath_temperatures.csv", _mode_map(run, c[:, 1:])),
    }


def _fig5_curves(run: _Run) -> dict:
    """Per-mode temperature and flux maps in the mode window."""
    lo, hi = run.window
    c, x = run.evaluate(range(lo + 1, hi + 1))
    return {f"N{run.n}": (f"fig5_modes_N{run.n}.csv", _mode_map(run, c, x))}


def _sweep_curves(run: _Run) -> dict:
    """Entropy-production gap dS_vN - dS_tot at the sweep times."""
    gap = ep_difference(run.record, run.params)[1:]
    dS_tot = run.record.dS_tot[1:]
    table = ResultTable.from_columns({
        "N[1]": run.n,
        "invN[1]": 1.0 / run.n,
        "t[us]": run.times / US,
        "ep_gap[kB]": gap / KB,
        "dS_vN[kB]": (dS_tot + gap) / KB,
        "dS_tot[kB]": dS_tot / KB,
    })
    return {"sweep": ("sweep_n.csv", table)}


def proportional_fit(x: np.ndarray, y: np.ndarray) -> dict:
    """Least-squares fit through the origin, y = slope * x, with the
    uncentered coefficient of determination."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope = float(np.sum(x * y) / np.sum(x * x))
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum(y * y))
    return {"slope": slope, "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0}


def affine_fit(x: np.ndarray, y: np.ndarray) -> dict:
    """Ordinary least-squares line with intercept and centered R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


def _sweep_fits(table: ResultTable) -> dict:
    """Proportional and affine fits of the gap against 1/N, per sweep time."""
    t_us, inv_n, gap = (table.column(name) for name in ("t[us]", "invN[1]", "ep_gap[kB]"))
    fits = {}
    for t in dict.fromkeys(t_us.tolist()):
        at_t = t_us == t
        fits[f"t_us={t:g}"] = {
            "proportional": proportional_fit(inv_n[at_t], gap[at_t]),
            "affine": affine_fit(inv_n[at_t], gap[at_t]),
        }
    return fits


# --- the pipeline -------------------------------------------------------------


@dataclass(frozen=True)
class _Job:
    """A figure job: manifest stem, curve function and defaults.

    ``n_default`` None runs the single configured ``n_modes`` with flat
    manifest ``derived``; a tuple is the N list used when the config sets
    none, with ``derived`` nested per N.  ``params`` names extra config
    fields for the manifest.  A ``sweep`` job evaluates at the sweep times,
    stacks its per-N rows into one table and fits the gap against 1/N.
    """

    stem: str
    curves: Callable[[_Run], dict]
    n_default: tuple[int, ...] | None = None
    params: tuple[str, ...] = ()
    sweep: bool = False


def _run_figure(job: _Job, cfg: ExperimentConfig) -> dict:
    multi_n = job.n_default is not None
    n_values = list(cfg.n_list or job.n_default) if multi_n else [cfg.n_modes]
    times = cfg.sweep_times() if job.sweep else cfg.times()
    curves, derived = {}, {}
    for i, n in enumerate(n_values):
        run = _Run(cfg, n, times, last=i == len(n_values) - 1)
        for key, (name, table) in job.curves(run).items():
            if key in curves:  # one table gathers the rows of every N
                curves[key][1].rows.extend(table.rows)
            else:
                curves[key] = (name, table)
        derived[f"N{n}"] = derived_constants(run.basis, run.params)

    out_dir = Path(cfg.out_dir)
    files = [table.write_csv(out_dir / name) for name, table in curves.values()]
    tables = {key: table for key, (_, table) in curves.items()}
    parameters = {name: getattr(cfg, name) for name in _PARAMETERS + job.params}
    if multi_n:
        parameters["n_list"] = n_values
    result = {"files": files, "tables": tables}
    if job.sweep:
        parameters["sweep_times_us"] = [float(t) for t in cfg.sweep_times_us]
        result["fits"] = _sweep_fits(tables["sweep"])
    result["manifest"] = write_manifest(
        out_dir / f"{job.stem}_manifest.json",
        files=[f.name for f in files],
        parameters=parameters,
        derived=derived if multi_n else derived[f"N{cfg.n_modes}"],
        extra={"fits": result["fits"]} if job.sweep else None,
    )
    return result


def run_validate(cfg: ExperimentConfig) -> dict:
    """Execute the invariant suites of all modules; nonzero exit on failure."""
    results = checks.default_suite(seed=cfg.seed)
    report = {
        "passed": all(r.passed for r in results),
        "seed": cfg.seed,
        "checks": [r.as_dict() for r in results],
    }
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "validate_report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {"files": [path], "report": report}


_SWEEP = _Job("sweep_n", _sweep_curves, (1000, 2000, 3000, 4000), sweep=True)
_FIGURES = {
    "simulate": _Job("simulate", _simulate_curves),
    "fig1": _Job("fig1", _fig1_curves, (4000, 6000, 8000)),
    "fig2": _Job("fig2", _fig2_curves),
    "fig3": _Job("fig3", _fig3_curves, (1000, 2000, 4000)),
    "fig4": _Job("fig4", _fig4_curves, params=("mode_window_mhz",)),
    "fig5": _Job("fig5", _fig5_curves, (4000, 6000, 8000), params=("mode_window_mhz",)),
    "fig6": _SWEEP,  # the N-sweep presented in the figure pipeline
    "sweep-n": _SWEEP,
}


# The config fields each job reads for its N values and its times.
JOB_INPUTS = {"validate": ()} | {
    job: ("n_modes" if spec.n_default is None else "n_list", "sweep_times_us" if spec.sweep else "times_us")
    for job, spec in _FIGURES.items()
}


def run_job(cfg: ExperimentConfig) -> dict:
    """Run ``cfg.job`` and return its files, tables and manifest (or, for
    ``validate``, its report)."""
    if cfg.job == "validate":
        return run_validate(cfg)
    return _run_figure(_FIGURES[cfg.job], cfg)

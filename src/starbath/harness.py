"""Experiment runner: figure-data jobs, N-sweeps, and the validate job.

Jobs emit data (one CSV per curve plus a JSON manifest), never images;
plotting is left to external tools.  Identical configs produce bit-identical
CSV bytes on the same build.

Every job runs one pipeline, ``run_job``: for each N it builds a ``_Run``
(model, closed-form rates, mode basis and the shared time grid) and hands it
to the job's curve function in ``_CURVES``, which returns ``{table key:
(file name, table)}``.  The pipeline writes the CSVs and builds every key of
the manifest: the files, the parameters, the derived constants per N and a
sweep's fits; ``write_manifest`` only serializes it.  A job is its curve
function plus the config fields it reads (``config.JOB_INPUTS``), which are
exactly the manifest's ``parameters`` and the fields the CLI takes flags
for.  Evaluated data stay on the time grid throughout: time on the first
axis, oscillators on the last.  ``_Run.pivn`` alone picks the system
coefficient that Pi_vN is scored on, exact or closed-form.  The validate
job's table holds the invariant residuals of the configured run with their
tolerances.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from pathlib import Path

import numpy as np

from .checks import flux_sum_residual, oracle_equivalence_residual, unitarity_residual
from .config import JOB_INPUTS, ExperimentConfig
from .constants import HBAR, KB, MHZ, UK, US
from .evolve import (
    EVALUATION_PATH, CovarianceSnapshot, ModeBasis, evaluate, initial_coefficients, mode_basis,
    snapshot_series,
)
from .gksl import GkslParams, ep_difference, epr_difference, gksl_sigma11, von_neumann_ep, von_neumann_epr
from .model import (
    discretize_ohmic_bath, mean_occupation, recurrence_time, relaxation_rate, thermal_coefficient,
)
from .oracle import ORACLE_CAP_DEFAULT
from .table import ResultTable, write_manifest
from .thermo import ThermoRecord, entropy_kb, fluxes_from_cross_terms, inverse_temperature, totals

__all__ = ["run_job", "derived_constants", "proportional_fit", "affine_fit"]


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
    """One N of a job: model, closed-form rates, mode basis and the
    time grid, with the exact evaluations built on first use."""

    def __init__(self, cfg: ExperimentConfig, n: int, times: np.ndarray) -> None:
        self.cfg, self.n, self.times = cfg, n, times
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
                stacklevel=3,  # the caller of run_job
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

    def evaluate(self, bath):
        """(c, x) on the grid for the system and the span ``bath`` of bath
        indices, one x column per span mode; see ``evolve.evaluate``."""
        c0 = initial_coefficients(self.basis.frequencies, self.init)
        return evaluate(self.basis, c0, self.times, bath)

    @property
    def sigma11(self) -> np.ndarray:
        """Exact system coefficient c_1 on the grid, from ``series``."""
        return self.series.c[1:, 0]

    @property
    def pivn(self) -> np.ndarray:
        """Conventional rate Pi_vN on the grid, scored on the exact sigma11
        or on the closed form, as ``pivn_mode`` says."""
        exact = self.cfg.pivn_mode == "exact"
        return von_neumann_epr(self.params, self.sigma11 if exact else gksl_sigma11(self.params, self.times))

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
    c1 = run.evaluate((0, 0))[0][:, 0]
    curves = {f"N{run.n}": (f"fig1_sigma11_N{run.n}.csv", _grid_table(run, {"sigma11_exact[1]": c1}))}
    if run.n == run.cfg.n_values()[-1]:
        gksl = _grid_table(run, {"sigma11_gksl[1]": gksl_sigma11(run.params, run.times)})
        curves["gksl"] = ("fig1_sigma11_gksl.csv", gksl)
    return curves


def _fig2_curves(run: _Run) -> dict:
    """Energy-flux triple dE_A/dt, dE_B/dt, dE_I/dt over the grid."""
    fluxes = fluxes_from_cross_terms(run.evaluate((0, run.n))[1], run.model)
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
    c, _ = run.evaluate(run.window)
    _, T_exact = inverse_temperature(c[:, 0], run.model.omega1)
    _, T_gksl = inverse_temperature(gksl_sigma11(run.params, run.times), run.model.omega1)
    system = _grid_table(run, {"T_A_exact[uK]": T_exact / UK, "T_A_gksl[uK]": T_gksl / UK})
    return {
        "system": ("fig4_system_temperature.csv", system),
        "bath": ("fig4_bath_temperatures.csv", _mode_map(run, c[:, 1:])),
    }


def _fig5_curves(run: _Run) -> dict:
    """Per-mode temperature and flux maps in the mode window."""
    c, x = run.evaluate(run.window)
    return {f"N{run.n}": (f"fig5_modes_N{run.n}.csv", _mode_map(run, c[:, 1:], x))}


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


def _validate_curves(run: _Run) -> dict:
    """Invariant residuals of the configured run against their tolerances:
    the reduced path against the dense oracle on the N = 64 model of the
    same bath and temperatures, at the grid times below its t1 (or the first
    time, when none is); then, at the configured N on the grid, the
    unitarity and flux sum rules, the floor c_j >= 1, S_tot(t) >= S_tot(0),
    Pi_vN >= 0 and the basis's completeness and Newton step.  Entropies need
    c_j >= 1, so S_tot is judged (nan, a failure) only where the floor holds."""
    small = discretize_ohmic_bath(run.cfg.bath_spec(ORACLE_CAP_DEFAULT), run.cfg.omega1)
    spot = run.times[run.times < recurrence_time(small)]
    c = run.series.c
    floor = 1.0 - float(np.min(c))
    entropy_drop = np.nan
    if floor <= 0.0:
        s_tot = np.sum(entropy_kb(c), axis=-1)  # the t = 0 baseline first
        entropy_drop = max(0.0, s_tot[0] - float(np.min(s_tot)))
    pivn = von_neumann_epr(run.params, gksl_sigma11(run.params, run.times))
    derived = derived_constants(run.basis, run.params)
    checks = {  # name: (residual, tolerance)
        f"oracle_equivalence_N{ORACLE_CAP_DEFAULT}": (
            oracle_equivalence_residual(small, run.init, spot if len(spot) else run.times[:1]), 1e-9
        ),
        "unitarity_sum_rule": (unitarity_residual(run.basis, run.times), 1e-9),
        "flux_sum_rule": (flux_sum_residual(run.series), 1e-12),
        "coefficient_floor": (max(0.0, floor), 0.0),
        "entropy_drop[kB]": (entropy_drop, 0.0),
        "pivn_floor[kB/s]": (max(0.0, -float(np.min(pivn)) / KB), 1e-15),
        "weight_sum_residual": (derived["weight_sum_residual"], 1e-12),
        "newton_step": (derived["newton_step"], 1e-12),
    }
    residual, tolerance = zip(*checks.values())
    table = ResultTable.from_columns({"check": list(checks), "residual": residual, "tolerance": tolerance})
    return {"checks": ("validate_checks.csv", table)}


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
        fits[f"t_us={np.format_float_positional(t, trim='-')}"] = {  # the shortest decimal that reads back as t
            "proportional": proportional_fit(inv_n[at_t], gap[at_t]),
            "affine": affine_fit(inv_n[at_t], gap[at_t]),
        }
    return fits


# --- the pipeline -------------------------------------------------------------


_CURVES = {
    "simulate": _simulate_curves,
    "fig1": _fig1_curves,
    "fig2": _fig2_curves,
    "fig3": _fig3_curves,
    "fig4": _fig4_curves,
    "fig5": _fig5_curves,
    "sweep-n": _sweep_curves,
    "validate": _validate_curves,
}


def run_job(cfg: ExperimentConfig) -> dict:
    """Run ``cfg.job`` and return its files, tables and manifest.

    Everything but the curve function (``_CURVES``) follows from the fields
    the job reads, ``JOB_INPUTS``.  A job that reads ``n_list`` runs each of
    its N (``cfg.n_values()``) with manifest ``derived`` nested per N;
    otherwise it runs ``n_modes`` with flat ``derived``.  A job that reads
    ``sweep_times_us`` evaluates there, stacks its per-N rows into one table,
    fits the gap against 1/N and writes ``sweep_n_manifest.json``; any other
    job writes ``<job>_manifest.json``.  The manifest's ``parameters`` hold
    exactly the fields the job read, with ``n_list`` resolved to the N
    values run.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # first, so an unusable directory fails before any evaluation
    reads = JOB_INPUTS[cfg.job]
    multi_n, sweep = "n_list" in reads, "sweep_times_us" in reads
    n_values = cfg.n_values()
    times = cfg.sweep_times() if sweep else cfg.times()
    curves, derived = {}, {}
    for n in n_values:
        run = _Run(cfg, n, times)
        for key, (name, table) in _CURVES[cfg.job](run).items():
            if key in curves:  # one table gathers the rows of every N, column by column
                curves[key][1].data = {c: np.concatenate([a, table.data[c]]) for c, a in curves[key][1].data.items()}
            else:
                curves[key] = (name, table)
        derived[f"N{n}"] = derived_constants(run.basis, run.params)

    files = [table.write_csv(out_dir / name) for name, table in curves.values()]
    tables = {key: table for key, (_, table) in curves.items()}
    parameters = {name: getattr(cfg, name) for name in reads}
    if multi_n:
        parameters["n_list"] = n_values
    manifest = {
        "files": [f.name for f in files],
        "parameters": parameters,
        "derived": derived if multi_n else derived[f"N{cfg.n_modes}"],
    }
    result = {"files": files, "tables": tables}
    if sweep:
        result["fits"] = manifest["fits"] = _sweep_fits(tables["sweep"])
    result["manifest"] = write_manifest(out_dir / f"{'sweep_n' if sweep else cfg.job}_manifest.json", manifest)
    return result

"""Experiment runner: figure-data jobs, N-sweeps, and the validation suite.

Figure jobs emit data (one CSV per curve plus a JSON manifest), never
images; plotting is left to external tools.  Identical configs produce
bit-identical CSV bytes on the same build.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from . import checks
from .config import ConfigError, ExperimentConfig
from .constants import HBAR, KB, MHZ, UK, US
from .evolve import (
    EVALUATION_PATH,
    ModeBasis,
    cross_term_series,
    evaluate,
    initial_coefficients,
    mode_basis,
    snapshot_series,
    system_coefficient_series,
)
from .gksl import (
    GkslParams,
    ep_difference,
    epr_difference,
    gksl_sigma11,
    von_neumann_ep,
    von_neumann_epr,
)
from .model import (
    StarModel,
    discretize_ohmic_bath,
    mean_occupation,
    recurrence_time,
    relaxation_rate,
    thermal_coefficient,
)
from .table import ResultTable, write_manifest
from .thermo import fluxes_from_cross_terms, inverse_temperature, totals

__all__ = [
    "run_simulate",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_sweep_n",
    "run_validate",
    "run_job",
    "derived_constants",
    "proportional_fit",
    "affine_fit",
]


def _context(cfg: ExperimentConfig, n_modes: int | None = None):
    spec = cfg.bath_spec(n_modes)
    model = discretize_ohmic_bath(spec, cfg.omega1)
    init = cfg.initial_temperatures()
    params = GkslParams(
        omega1=cfg.omega1,
        Gamma=relaxation_rate(model, spec),
        T_A0=init.T_A0,
        T_B0=init.T_B0,
    )
    return spec, model, init, params


def derived_constants(cfg: ExperimentConfig, basis: ModeBasis, params: GkslParams) -> dict:
    """Derived quantities recorded in every manifest, with the evaluation
    path and two O(N) invariants of its eigenvalue refinement: the
    completeness residual |sum_k Q_1k^2 - 1| and the relative Newton step
    left at the final shifts."""
    model = basis.model
    return {
        "delta_omega_rad_per_s": model.delta_omega,
        "Gamma_per_s": params.Gamma,
        "relaxation_time_us": 1.0 / (2.0 * params.Gamma) / US if params.Gamma > 0 else float("inf"),
        "recurrence_time_us": recurrence_time(model) / US,
        "nbar": mean_occupation(model.omega1, params.T_B0),
        "sigma11_initial": thermal_coefficient(model.omega1, params.T_A0),
        "sigma11_equilibrium": thermal_coefficient(model.omega1, params.T_B0),
        "evaluation_path": EVALUATION_PATH,
        "weight_sum_residual": abs(float(np.sum(basis.weights)) - 1.0),
        "newton_step": basis.newton_step,
    }


def _warn_beyond_recurrence(times: np.ndarray, model: StarModel) -> None:
    t1 = recurrence_time(model)
    if np.any(times > t1):
        warnings.warn(
            f"time grid extends beyond the recurrence time t1 = {t1 / US:.1f} us "
            f"(N = {model.n_modes}); the uniformly spaced bath rephases there and "
            "recurrence-like behavior invalidates the Markovian comparison",
            RuntimeWarning,
            stacklevel=3,
        )


def _parameters_dict(cfg: ExperimentConfig, n_modes: int | None = None) -> dict:
    return {
        "omega1_mhz": cfg.omega1_mhz,
        "omega_c_mhz": cfg.omega_c_mhz,
        "omega_min_mhz": cfg.omega_min_mhz,
        "omega_max_mhz": cfg.omega_max_mhz,
        "eta": cfg.eta,
        "n_modes": cfg.n_modes if n_modes is None else n_modes,
        "T_A0_uk": cfg.T_A0_uk,
        "T_B0_uk": cfg.T_B0_uk,
        "pivn_mode": cfg.pivn_mode,
    }


def _pivn_series(cfg, params, times, c1_exact) -> np.ndarray:
    if cfg.pivn_mode == "exact":
        return np.asarray(von_neumann_epr(params, times, mode="exact", exact_sigma11=c1_exact))
    return np.asarray(von_neumann_epr(params, times))


def _mode_window(model: StarModel, window: float) -> tuple[int, int]:
    """Contiguous bath-index range with |w_j - w_1| <= window (rad/s)."""
    mask = np.abs(model.bath_omegas - model.omega1) <= window
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return 0, 0
    return int(idx[0]), int(idx[-1]) + 1


# --- jobs -------------------------------------------------------------------


def run_simulate(cfg: ExperimentConfig) -> dict:
    """Full observable table on the configured grid for a single N."""
    out_dir = Path(cfg.out_dir)
    spec, model, init, params = _context(cfg)
    times = cfg.times()
    _warn_beyond_recurrence(times, model)
    basis = mode_basis(model)

    baseline, *snapshots = snapshot_series(basis, init, np.r_[0.0, times])
    base_record = totals(baseline, baseline)
    records = [totals(s, baseline) for s in snapshots]

    c1_exact = np.array([s.c[0] for s in snapshots])
    c1_gksl = np.asarray(gksl_sigma11(params, times))
    pivn = _pivn_series(cfg, params, times, c1_exact)
    entropy_a = np.concatenate(([base_record.entropies[0]], [r.entropies[0] for r in records]))
    energy_a = np.concatenate(([base_record.energies[0]], [r.energies[0] for r in records]))
    ds_vn = von_neumann_ep(params, entropy_a, energy_a)[1:]

    table = ResultTable(
        columns=[
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
        ]
    )
    for i, (t, rec) in enumerate(zip(times, records)):
        table.append(
            t / US,
            c1_exact[i],
            c1_gksl[i],
            rec.S_tot / KB,
            rec.dS_tot / KB,
            rec.Pi_tot / KB * 1e-3,
            pivn[i] / KB * 1e-3,
            ds_vn[i] / KB,
            rec.dEA_dt,
            rec.dEB_dt,
            rec.dEI_dt,
        )
    files = [table.write_csv(out_dir / "simulate.csv")]
    tables = {"simulate": table}

    if cfg.emit_modes:
        lo, hi = _mode_window(model, cfg.mode_window_mhz * MHZ)
        c = np.array([s.c[lo + 1 : hi + 1] for s in snapshots])
        x = np.array([s.x[lo:hi] for s in snapshots])
        mode_table = _mode_map_table(model, lo, times, c, x)
        files.append(mode_table.write_csv(out_dir / "simulate_modes.csv"))
        tables["modes"] = mode_table

    manifest = write_manifest(
        out_dir / "simulate_manifest.json",
        files=[f.name for f in files],
        parameters=_parameters_dict(cfg),
        derived=derived_constants(cfg, basis, params),
    )
    return {"files": files, "manifest": manifest, "tables": tables}


def run_fig1(cfg: ExperimentConfig) -> dict:
    """System coefficient sigma11(t): exact curves per N plus the closed-form
    reference curve."""
    out_dir = Path(cfg.out_dir)
    n_values = cfg.n_list or [4000, 6000, 8000]
    times = cfg.times()
    files, tables = [], {}
    derived = {}
    for n in n_values:
        spec, model, init, params = _context(cfg, n)
        _warn_beyond_recurrence(times, model)
        basis = mode_basis(model)
        series = system_coefficient_series(basis, init, times)
        table = ResultTable(columns=["t[us]", "sigma11_exact[1]"])
        for t, value in zip(times, series):
            table.append(t / US, value)
        files.append(table.write_csv(out_dir / f"fig1_sigma11_N{n}.csv"))
        tables[f"N{n}"] = table
        derived[f"N{n}"] = derived_constants(cfg, basis, params)

    _, model, init, params = _context(cfg, n_values[0])
    gksl_curve = np.asarray(gksl_sigma11(params, times))
    table = ResultTable(columns=["t[us]", "sigma11_gksl[1]"])
    for t, value in zip(times, gksl_curve):
        table.append(t / US, value)
    files.append(table.write_csv(out_dir / "fig1_sigma11_gksl.csv"))
    tables["gksl"] = table

    manifest = write_manifest(
        out_dir / "fig1_manifest.json",
        files=[f.name for f in files],
        parameters={**_parameters_dict(cfg), "n_list": list(n_values)},
        derived=derived,
    )
    return {"files": files, "manifest": manifest, "tables": tables}


def run_fig2(cfg: ExperimentConfig) -> dict:
    """Energy-flux triple dE_A/dt, dE_B/dt, dE_I/dt over the grid."""
    out_dir = Path(cfg.out_dir)
    spec, model, init, params = _context(cfg)
    times = cfg.times()
    _warn_beyond_recurrence(times, model)
    basis = mode_basis(model)
    xs = cross_term_series(basis, init, times)

    table = ResultTable(columns=["t[us]", "dEA_dt[J/s]", "dEB_dt[J/s]", "dEI_dt[J/s]"])
    for t, x in zip(times, xs):
        fluxes = fluxes_from_cross_terms(x, model)
        table.append(t / US, fluxes.dEA_dt, fluxes.dEB_dt, fluxes.dEI_dt)
    files = [table.write_csv(out_dir / "fig2_fluxes.csv")]
    manifest = write_manifest(
        out_dir / "fig2_manifest.json",
        files=[f.name for f in files],
        parameters=_parameters_dict(cfg),
        derived=derived_constants(cfg, basis, params),
    )
    return {"files": files, "manifest": manifest, "tables": {"fluxes": table}}


def run_fig3(cfg: ExperimentConfig) -> dict:
    """Entropy production rates Pi_tot and Pi_vN per N."""
    out_dir = Path(cfg.out_dir)
    n_values = cfg.n_list or [1000, 2000, 4000]
    times = cfg.times()
    files, tables, derived = [], {}, {}
    for n in n_values:
        spec, model, init, params = _context(cfg, n)
        _warn_beyond_recurrence(times, model)
        basis = mode_basis(model)
        baseline, *snapshots = snapshot_series(basis, init, np.r_[0.0, times])
        records = [totals(s, baseline) for s in snapshots]
        c1_exact = np.array([s.c[0] for s in snapshots])
        pivn = _pivn_series(cfg, params, times, c1_exact)
        table = ResultTable(columns=["t[us]", "Pi_tot[kB/ms]", "Pi_vN[kB/ms]", "Pi_gap[kB/ms]"])
        for i, (t, rec) in enumerate(zip(times, records)):
            table.append(
                t / US,
                rec.Pi_tot / KB * 1e-3,
                pivn[i] / KB * 1e-3,
                epr_difference(rec, params) / KB * 1e-3,
            )
        files.append(table.write_csv(out_dir / f"fig3_rates_N{n}.csv"))
        tables[f"N{n}"] = table
        derived[f"N{n}"] = derived_constants(cfg, basis, params)
    manifest = write_manifest(
        out_dir / "fig3_manifest.json",
        files=[f.name for f in files],
        parameters={**_parameters_dict(cfg), "n_list": list(n_values)},
        derived=derived,
    )
    return {"files": files, "manifest": manifest, "tables": tables}


def run_fig4(cfg: ExperimentConfig) -> dict:
    """System temperature, exact and closed form, plus near-resonant bath
    temperatures in the configured frequency window."""
    out_dir = Path(cfg.out_dir)
    spec, model, init, params = _context(cfg)
    times = cfg.times()
    _warn_beyond_recurrence(times, model)
    basis = mode_basis(model)

    lo, hi = _mode_window(model, cfg.mode_window_mhz * MHZ)
    c0 = initial_coefficients(basis.frequencies, init)
    coeffs, _ = evaluate(basis, c0, times, np.r_[0, lo + 1 : hi + 1], cross=False)
    _, T_exact = inverse_temperature(coeffs[:, 0], model.omega1)
    _, T_gksl = inverse_temperature(np.asarray(gksl_sigma11(params, times)), model.omega1)
    system = ResultTable(columns=["t[us]", "T_A_exact[uK]", "T_A_gksl[uK]"])
    for t, te, tg in zip(times, T_exact, T_gksl):
        system.append(t / US, te / UK, tg / UK)

    bath = ResultTable(columns=["j[1]", "omega_j[MHz]", "t[us]", "T_j[uK]"])
    for k in range(lo, hi):
        omega_j = model.bath_omegas[k]
        _, T_j = inverse_temperature(coeffs[:, 1 + k - lo], omega_j)
        for t, temp in zip(times, np.atleast_1d(T_j)):
            bath.append(k + 2, omega_j / MHZ, t / US, temp / UK)

    files = [
        system.write_csv(out_dir / "fig4_system_temperature.csv"),
        bath.write_csv(out_dir / "fig4_bath_temperatures.csv"),
    ]
    manifest = write_manifest(
        out_dir / "fig4_manifest.json",
        files=[f.name for f in files],
        parameters={**_parameters_dict(cfg), "mode_window_mhz": cfg.mode_window_mhz},
        derived=derived_constants(cfg, basis, params),
    )
    return {"files": files, "manifest": manifest, "tables": {"system": system, "bath": bath}}


def _mode_map_table(model: StarModel, lo: int, times, c: np.ndarray, x: np.ndarray) -> ResultTable:
    """Long-format temperatures and fluxes of bath modes lo, lo+1, ...; column
    i of ``c`` and ``x`` belongs to bath mode lo + i."""
    table = ResultTable(columns=["j[1]", "omega_j[MHz]", "t[us]", "T_j[uK]", "dEj_dt[J/s]"])
    for k in range(lo, lo + c.shape[1]):
        omega_j = model.bath_omegas[k]
        g_j = model.bath_couplings[k]
        _, T_j = inverse_temperature(c[:, k - lo], omega_j)
        flux = -HBAR * omega_j * g_j * x[:, k - lo]
        for t, temp, de in zip(times, np.atleast_1d(T_j), flux):
            table.append(k + 2, omega_j / MHZ, t / US, temp / UK, de)
    return table


def run_fig5(cfg: ExperimentConfig) -> dict:
    """Long-format per-mode temperature and flux maps in the near-resonant
    window, one file per N."""
    out_dir = Path(cfg.out_dir)
    n_values = cfg.n_list or [4000, 6000, 8000]
    times = cfg.times()
    files, tables, derived = [], {}, {}
    for n in n_values:
        spec, model, init, params = _context(cfg, n)
        _warn_beyond_recurrence(times, model)
        basis = mode_basis(model)
        lo, hi = _mode_window(model, cfg.mode_window_mhz * MHZ)
        c0 = initial_coefficients(basis.frequencies, init)
        c, x = evaluate(basis, c0, times, range(lo + 1, hi + 1))
        table = _mode_map_table(model, lo, times, c, x)
        files.append(table.write_csv(out_dir / f"fig5_modes_N{n}.csv"))
        tables[f"N{n}"] = table
        derived[f"N{n}"] = derived_constants(cfg, basis, params)
    manifest = write_manifest(
        out_dir / "fig5_manifest.json",
        files=[f.name for f in files],
        parameters={**_parameters_dict(cfg), "n_list": list(n_values), "mode_window_mhz": cfg.mode_window_mhz},
        derived=derived,
    )
    return {"files": files, "manifest": manifest, "tables": tables}


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


def run_sweep_n(cfg: ExperimentConfig) -> dict:
    """Entropy-production gap dS_vN - dS_tot against 1/N at the configured
    sweep times, with proportional and affine fits per time."""
    out_dir = Path(cfg.out_dir)
    n_values = cfg.n_list or [1000, 2000, 3000, 4000]
    if len(n_values) < 3:
        raise ConfigError("sweep-n needs at least 3 N values")
    sweep_times = cfg.sweep_times()

    table = ResultTable(
        columns=["N[1]", "invN[1]", "t[us]", "ep_gap[kB]", "dS_vN[kB]", "dS_tot[kB]"]
    )
    gaps: dict[float, list[tuple[int, float]]] = {t: [] for t in sweep_times}
    derived = {}
    for n in n_values:
        spec, model, init, params = _context(cfg, n)
        _warn_beyond_recurrence(sweep_times, model)
        basis = mode_basis(model)
        baseline, *snapshots = snapshot_series(basis, init, np.r_[0.0, sweep_times])
        records = [totals(baseline, baseline)] + [totals(s, baseline) for s in snapshots]
        derived[f"N{n}"] = derived_constants(cfg, basis, params)
        diffs = ep_difference(records, params)[1:]
        for t, rec, gap in zip(sweep_times, records[1:], diffs):
            ds_vn = rec.dS_tot + gap
            table.append(n, 1.0 / n, t / US, gap / KB, ds_vn / KB, rec.dS_tot / KB)
            gaps[t].append((n, gap / KB))

    fits = {}
    for t, pairs in gaps.items():
        inv_n = np.array([1.0 / n for n, _ in pairs])
        y = np.array([gap for _, gap in pairs])
        fits[f"t_us={t / US:g}"] = {
            "proportional": proportional_fit(inv_n, y),
            "affine": affine_fit(inv_n, y),
        }

    files = [table.write_csv(out_dir / "sweep_n.csv")]
    manifest = write_manifest(
        out_dir / "sweep_n_manifest.json",
        files=[f.name for f in files],
        parameters={**_parameters_dict(cfg), "n_list": list(n_values), "sweep_times_us": list(np.asarray(cfg.sweep_times_us, dtype=float))},
        derived=derived,
        extra={"fits": fits},
    )
    return {"files": files, "manifest": manifest, "tables": {"sweep": table}, "fits": fits}


def run_fig6(cfg: ExperimentConfig) -> dict:
    """The N-sweep presented in the figure pipeline."""
    return run_sweep_n(cfg)


def run_validate(cfg: ExperimentConfig) -> dict:
    """Execute the invariant suites of all modules; nonzero exit on failure."""
    results = checks.default_suite(seed=cfg.seed, oracle_cap=cfg.oracle_cap)
    report = {
        "passed": all(r.passed for r in results),
        "seed": cfg.seed,
        "oracle_cap": cfg.oracle_cap,
        "checks": [r.as_dict() for r in results],
    }
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "validate_report.json"
    import json

    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {"files": [path], "report": report}


JOB_RUNNERS = {
    "simulate": run_simulate,
    "fig1": run_fig1,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "sweep-n": run_sweep_n,
    "validate": run_validate,
}


def run_job(cfg: ExperimentConfig) -> dict:
    return JOB_RUNNERS[cfg.job](cfg)

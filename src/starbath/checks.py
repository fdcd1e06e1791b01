"""Invariant checks shared by the validate job and the test suite.

Each check computes a residual and compares it against the tolerance the
corresponding invariant carries; ``default_suite`` runs them all on small
models with a seeded generator and reports machine-readable results.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .constants import HBAR, KB
from .evolve import (
    CovarianceSnapshot,
    InitialTemperatures,
    ModeBasis,
    evaluate,
    mode_basis,
    snapshot_series,
)
from .gksl import GkslParams, epr_difference, von_neumann_epr, von_neumann_epr_from_fluxes
from .model import (
    OhmicBathSpec,
    StarModel,
    discretize_ohmic_bath,
    recurrence_time,
    relaxation_rate,
)
from .oracle import (
    ORACLE_CAP_DEFAULT, arrowhead_matrix, dense_oracle_at, dense_oracle_series, full_hamiltonian,
)
from .thermo import (
    entropy_kb,
    fluxes_from_cross_terms,
    free_energy,
    inverse_temperature,
    mean_energy,
    partition_function,
    total_epr,
    totals,
)

__all__ = ["CheckResult", "default_suite", "random_star_model"]


@dataclass
class CheckResult:
    module: str
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        d = asdict(self)
        d["residual"] = float(d["residual"])
        d["tolerance"] = float(d["tolerance"])
        d["passed"] = bool(d["passed"])
        return d


def _result(module: str, name: str, residual: float, tolerance: float, note: str = "") -> CheckResult:
    return CheckResult(
        module=module,
        name=name,
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        note=note,
    )


def random_star_model(rng: np.random.Generator, n_modes: int) -> tuple[StarModel, OhmicBathSpec]:
    """Random Ohmic discretization used by the oracle-comparison checks."""
    spec = OhmicBathSpec(
        eta=10.0 ** rng.uniform(-4, -2),
        omega_c=rng.uniform(1.0, 5.0) * 1e6,
        omega_min=rng.uniform(0.01, 0.2) * 1e6,
        omega_max=rng.uniform(8.0, 25.0) * 1e6,
        n_modes=n_modes,
    )
    omega1 = rng.uniform(0.5, 8.0) * 1e6
    return discretize_ohmic_bath(spec, omega1), spec


def random_temperatures(rng: np.random.Generator) -> InitialTemperatures:
    return InitialTemperatures(
        T_A0=rng.uniform(5.0, 40.0) * 1e-6, T_B0=rng.uniform(5.0, 80.0) * 1e-6
    )


# --- model ----------------------------------------------------------------


def coupling_sum_rule_residual(model: StarModel, spec: OhmicBathSpec) -> float:
    """Sum of g_j^2 against the midpoint-rule sum it is built from."""
    lhs = float(np.sum(model.bath_couplings**2))
    rhs = float(
        np.sum(spec.eta * spec.delta_omega * model.bath_omegas * np.exp(-model.bath_omegas / spec.omega_c))
    )
    return abs(lhs - rhs) / abs(rhs)


def ohmic_window_integral(spec: OhmicBathSpec) -> float:
    """Continuum integral of J over the half-cell-extended window
    [a, b] = [w_min - dw/2, w_max + dw/2], in closed form:
    eta w_c^2 [(1 + u) e^-u - (1 + v) e^-v] with u = a/w_c and v = b/w_c,
    evaluated as eta w_c^2 e^-u [-(1 + u) expm1(-d) - d e^-d], d = v - u."""
    half = 0.5 * spec.delta_omega
    lo, hi = spec.omega_min - half, spec.omega_max + half
    u, d = lo / spec.omega_c, (hi - lo) / spec.omega_c
    return spec.eta * spec.omega_c**2 * math.exp(-u) * (-(1.0 + u) * math.expm1(-d) - d * math.exp(-d))


def coupling_integral_error(spec: OhmicBathSpec, omega1: float) -> float:
    """Relative error of sum g_j^2 against ``ohmic_window_integral``.

    The coupling sum is exactly the midpoint rule on that half-cell-extended
    window, hence O(N^-2); against the bare [w_min, w_max] window the
    uncovered boundary half-cells would degrade the rate to O(N^-1)."""
    model = discretize_ohmic_bath(spec, omega1)
    integral = ohmic_window_integral(spec)
    return abs(float(np.sum(model.bath_couplings**2)) - integral) / integral


def tensor_expansion_residual(model: StarModel) -> float:
    """Reduced arrowhead matrix expanded into 2x2 identity blocks against the
    full quadrature matrix, exact element-by-element."""
    expanded = np.kron(arrowhead_matrix(model), np.eye(2))
    return float(np.max(np.abs(expanded - full_hamiltonian(model))))


# --- evolve / oracle ------------------------------------------------------


def closed_form_vectors(basis: ModeBasis) -> np.ndarray:
    """Dense eigenvectors Q_1k = sqrt(weight_k), Q_jk = g_j Q_1k / (l_k - w_j)
    as columns, deflated modes as unit vectors.  Quadratic memory, so only
    for N up to the oracle cap."""
    n = basis.dimension - 1
    if n > ORACLE_CAP_DEFAULT:
        raise ValueError(f"dense eigenvectors refused for N={n} above cap {ORACLE_CAP_DEFAULT}")
    w, g, q1 = basis.frequencies[1:], basis.couplings, np.sqrt(basis.weights)
    live, act, dead = np.flatnonzero(q1), np.flatnonzero(g), np.flatnonzero(q1 == 0)
    Q = np.zeros((basis.dimension, basis.dimension))
    Q[0] = q1
    gap = (w[basis.poles[live], None] - w[act]) + basis.shifts[live, None]  # l_k - w_j
    Q[np.ix_(1 + act, live)] = (g[act] * q1[live, None] / gap).T
    Q[1 + basis.poles[dead], dead] = 1.0
    return Q


def orthonormality_residual(basis: ModeBasis) -> float:
    Q = closed_form_vectors(basis)
    return float(np.max(np.abs(Q.T @ Q - np.eye(basis.dimension))))


def reconstruction_residual(basis: ModeBasis) -> float:
    h = arrowhead_matrix(basis.model)
    Q = closed_form_vectors(basis)
    rebuilt = (Q * basis.eigenvalues) @ Q.T
    return float(np.linalg.norm(rebuilt - h) / np.linalg.norm(h))


def unitarity_residual(basis: ModeBasis, t: float) -> float:
    """The row sums sum_m |U_jm|^2 must all equal 1."""
    row_sums, _ = evaluate(basis, np.ones(basis.dimension), [t], cross=False)
    return float(np.max(np.abs(row_sums - 1.0)))


def oracle_equivalence_residual(model: StarModel, init: InitialTemperatures, times) -> float:
    """Max abs difference of reduced-path c_j, x_j against the dense oracle."""
    times = np.sort(np.atleast_1d(times))
    dense = dense_oracle_series(model, init, times)
    snap = snapshot_series(mode_basis(model), init, times)
    c = np.array([d.diagonal_coefficients() for d in dense])
    x = np.array([d.cross_terms() for d in dense])
    return float(max(np.max(np.abs(snap.c - c)), np.max(np.abs(snap.x - x))))


def gibbs_block_residual(dense) -> float:
    """Each 2x2 block must be a scalar multiple of the identity, with the
    mirrored cross term sigma_{2,2j-1} = -sigma_{1,2j}."""
    sigma = dense.sigma
    diag = np.diag(sigma)
    off = sigma[0::2, 1::2].diagonal()  # sigma_{2j-1,2j}
    r1 = float(np.max(np.abs(off)))
    r2 = float(np.max(np.abs(diag[0::2] - diag[1::2])))
    r3 = float(np.max(np.abs(sigma[1, 2::2] + sigma[0, 3::2])))
    return max(r1, r2, r3)


def positivity_floor(dense) -> float:
    """Most negative eigenvalue of sigma + i*Omega (>= 0 for physical states)."""
    herm = dense.sigma + 1j * dense.Omega
    return float(np.min(np.linalg.eigvalsh(herm)))


def energy_conservation_residual(model: StarModel, init: InitialTemperatures, times) -> float:
    e0, *et = (d.total_energy() for d in dense_oracle_series(model, init, np.r_[0.0, np.atleast_1d(times)]))
    return max(abs(e - e0) / abs(e0) for e in et)


# --- thermo ---------------------------------------------------------------


def flux_sum_residual(snapshot: CovarianceSnapshot, model: StarModel) -> float:
    """|dE_A + dE_B + dE_I| relative to the largest flux magnitude."""
    fx = fluxes_from_cross_terms(snapshot.x, model)
    scale = max(abs(fx.dEA_dt), abs(fx.dEB_dt), abs(fx.dEI_dt), 1e-300)
    return abs(fx.dEA_dt + fx.dEB_dt + fx.dEI_dt) / scale


def flux_finite_difference_residual(
    basis: ModeBasis,
    init: InitialTemperatures,
    t: float,
    dt: float = 1.0e-9,
    x_override: np.ndarray | None = None,
) -> float:
    """Per-mode fluxes dE_j/dt against a central finite difference of E_j(t),
    normalized by the largest analytic flux magnitude.  ``x_override`` lets
    the validate suite demonstrate that corrupted cross terms are caught."""
    model = basis.model
    series = snapshot_series(basis, init, [t - dt, t, t + dt])
    x = series.x[1] if x_override is None else x_override
    analytic = fluxes_from_cross_terms(x, model).mode_fluxes
    fd = 0.5 * HBAR * model.bath_omegas * (series.c[2, 1:] - series.c[0, 1:]) / (2.0 * dt)
    scale = float(np.max(np.abs(analytic)))
    return float(np.max(np.abs(fd - analytic))) / scale


def epr_rearrangement_residual(snapshot: CovarianceSnapshot, model: StarModel) -> float:
    """Pi_tot against sum_j (1/T_j) dE_j/dt assembled from the other ops."""
    pi = total_epr(snapshot, model)
    fx = fluxes_from_cross_terms(snapshot.x, model)
    _, T = inverse_temperature(snapshot.c, model.frequencies)
    assembled = fx.dEA_dt / T[0] + float(np.sum(fx.mode_fluxes / T[1:]))
    return abs(pi - assembled) / max(abs(pi), 1e-300)


def epr_finite_difference_residual(
    basis: ModeBasis, init: InitialTemperatures, t: float, dt: float = 1.0e-9
) -> float:
    """Pi_tot against the central finite difference of S_tot(t)."""
    series = snapshot_series(basis, init, [t - dt, t, t + dt])
    pi = total_epr(series, basis.model)[1]
    s_before, _, s_after = KB * np.sum(entropy_kb(series.c), axis=-1)
    fd = (s_after - s_before) / (2.0 * dt)
    return abs(fd - pi) / abs(pi)


def thermo_consistency_residual(c: np.ndarray, omega: float = 4.0e6) -> float:
    """S from the closed form against (E - F)/T composed from the other three
    operations, relative to S."""
    c = np.asarray(c, dtype=float)
    s = entropy_kb(c)
    _, T = inverse_temperature(c, omega)
    Z = partition_function(c)
    composed = (mean_energy(c, omega) - free_energy(Z, T)) / T / KB
    return float(np.max(np.abs(composed - s) / s))


def entropy_energy_slope_residual(c: float, omega: float = 4.0e6, rel_step: float = 1e-6) -> float:
    """dS/dE against 1/T by central finite differences in c."""
    dc = c * rel_step
    s_plus = entropy_kb(c + dc) * KB
    s_minus = entropy_kb(c - dc) * KB
    de = mean_energy(c + dc, omega) - mean_energy(c - dc, omega)
    slope = (s_plus - s_minus) / de
    _, T = inverse_temperature(c, omega)
    return abs(slope - 1.0 / T) * T


# --- gksl -----------------------------------------------------------------


def pivn_nonnegativity_floor(p: GkslParams, times) -> float:
    """Most negative Pi_vN over the grid, in kB/s (>= -1e-15 expected)."""
    return float(np.min(np.asarray(von_neumann_epr(p, times)) / KB))


def epr_identity_residual(record, p: GkslParams) -> float:
    """Flux-form Pi_vN minus Pi_tot against the closed difference formula."""
    lhs = von_neumann_epr_from_fluxes(
        record.temperatures[0], record.dEA_dt, record.dEB_dt, p.T_B0
    ) - record.Pi_tot
    rhs = epr_difference(record, p)
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


# --- suite ----------------------------------------------------------------


def default_suite(seed: int = 0) -> list[CheckResult]:
    """Run every invariant on seeded small models; used by the validate job."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    cfg = ExperimentConfig(n_modes=128)  # the production bath at a validation size
    spec, omega1, init = cfg.bath_spec(), cfg.omega1, cfg.initial_temperatures()
    model = discretize_ohmic_bath(spec, omega1)

    results.append(
        _result("model", "coupling_sum_rule", coupling_sum_rule_residual(model, spec), 1e-13)
    )
    err_n = coupling_integral_error(spec, omega1)
    err_2n = coupling_integral_error(replace(spec, n_modes=2 * spec.n_modes), omega1)
    ratio = err_n / err_2n
    results.append(
        CheckResult(
            module="model",
            name="coupling_integral_convergence",
            residual=ratio,
            tolerance=5.0,
            passed=bool(3.0 < ratio < 5.0),
            note="error(N)/error(2N), expected near 4 for O(N^-2)",
        )
    )
    t1 = recurrence_time(model)
    results.append(
        _result(
            "model",
            "recurrence_spacing_identity",
            abs(t1 * model.delta_omega - 2.0 * np.pi) / (2.0 * np.pi),
            1e-12,
        )
    )
    small, _ = random_star_model(rng, 5)
    results.append(_result("model", "tensor_expansion", tensor_expansion_residual(small), 0.0))

    capped = discretize_ohmic_bath(replace(spec, n_modes=ORACLE_CAP_DEFAULT), omega1)
    capped_basis = mode_basis(capped)
    note = f"closed-form eigenvectors at N={capped.n_modes}"
    ortho = orthonormality_residual(capped_basis)
    rebuilt = reconstruction_residual(capped_basis)
    results.append(_result("evolve", "orthonormality", ortho, 1e-10, note))
    results.append(_result("evolve", "reconstruction", rebuilt, 1e-9, note))
    basis = mode_basis(model)
    results.append(
        _result("evolve", "unitarity_sum_rule", unitarity_residual(basis, 137e-6), 1e-9)
    )

    oracle_model, _ = random_star_model(rng, 16)
    oracle_init = random_temperatures(rng)
    times = rng.uniform(0.0, 50e-6, size=20)
    results.append(
        _result(
            "evolve",
            "oracle_equivalence",
            oracle_equivalence_residual(oracle_model, oracle_init, times),
            1e-9,
            note="N=16 random model, 20 random times",
        )
    )
    dense = dense_oracle_at(oracle_model, oracle_init, 17e-6)
    results.append(_result("evolve", "symplecticity", dense.symplectic_defect(), 1e-9))
    results.append(_result("evolve", "gibbs_blocks", gibbs_block_residual(dense), 1e-10))
    floor = positivity_floor(dense)
    results.append(_result("evolve", "uncertainty_positivity", -floor, 1e-9, "minus the min eigenvalue of sigma + i*Omega"))
    cons_model, _ = random_star_model(rng, 32)
    results.append(
        _result(
            "evolve",
            "energy_conservation",
            energy_conservation_residual(cons_model, oracle_init, rng.uniform(0, 50e-6, 5)),
            1e-9,
        )
    )

    mid_basis = mode_basis(discretize_ohmic_bath(replace(spec, n_modes=512), omega1))
    snap = snapshot_series(mid_basis, init, [100e-6]).at(0)
    results.append(
        _result("thermo", "flux_sum_rule", flux_sum_residual(snap, mid_basis.model), 1e-12)
    )
    results.append(
        _result(
            "thermo",
            "flux_finite_difference",
            flux_finite_difference_residual(mid_basis, init, 100e-6),
            1e-6,
            note="N=512, t=100us, dt=1ns, scaled by max |dE_j/dt|",
        )
    )
    results.append(
        _result(
            "thermo",
            "epr_rearrangement",
            epr_rearrangement_residual(snap, mid_basis.model),
            1e-12,
        )
    )
    results.append(
        _result(
            "thermo",
            "epr_finite_difference",
            epr_finite_difference_residual(mid_basis, init, 100e-6),
            1e-4,
            note="N=512, smooth region",
        )
    )
    ladder = 1.0 + np.logspace(-10, 0, 41)
    entropies = entropy_kb(ladder)
    monotone = bool(np.all(np.diff(entropies) > 0)) and entropies[0] < 1e-8
    results.append(
        CheckResult(
            module="thermo",
            name="third_law_ladder",
            residual=float(entropies[0]),
            tolerance=1e-8,
            passed=monotone,
            note="entropy decreasing to 0 as c -> 1+",
        )
    )
    results.append(
        _result(
            "thermo",
            "consistency_square",
            thermo_consistency_residual(1.0 + np.logspace(-5, 2, 29)),
            1e-10,
        )
    )
    results.append(
        _result("thermo", "entropy_energy_slope", entropy_energy_slope_residual(2.7), 1e-6)
    )

    p = GkslParams(omega1=omega1, Gamma=relaxation_rate(spec, omega1), T_A0=init.T_A0, T_B0=init.T_B0)
    floor = pivn_nonnegativity_floor(p, np.linspace(0, 1200e-6, 241))
    results.append(_result("gksl", "pivn_nonnegative", -floor, 1e-15, note="minus the min Pi_vN over the grid in kB/s"))
    baseline = snapshot_series(mid_basis, init, [0.0]).at(0)
    record = totals(snap, baseline)
    results.append(
        _result("gksl", "epr_difference_identity", epr_identity_residual(record, p), 1e-10)
    )
    return results

"""Invariant residuals that only the test suite computes.

Each returns a float that a test compares against the tolerance its
invariant carries; the residuals the validate job computes on a configured
run live in ``starbath.checks``.  ``traced_peak`` measures the memory a
block of code allocates, for the tests that bound it.
"""

from __future__ import annotations

import math
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from starbath.constants import HBAR, KB
from starbath.evolve import CovarianceSnapshot, InitialTemperatures, ModeBasis, initial_coefficients, snapshot_series
from starbath.gksl import GkslParams, epr_difference
from starbath.model import OhmicBathSpec, StarModel, discretize_ohmic_bath
from starbath.oracle import ORACLE_CAP_DEFAULT, arrowhead_matrix
from starbath.thermo import entropy_kb, fluxes_from_cross_terms, inverse_temperature, mean_energy, total_epr


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


# --- the 2(N+1) quadrature build -----------------------------------------
#
# The complete real quadrature matrices in the ordering (q_1, p_1, q_2, ...):
# the symmetric Hamiltonian matrix H with its 2x2-identity block pattern, the
# symplectic form Omega, the propagator V(t) = cos(Ht) + Omega sin(Ht) and the
# evolved covariance sigma(t) = V sigma(0) V^T.  ``starbath.oracle`` reduces
# this to the (N+1) mode space; these checks validate that reduction.


def symplectic_form(n_oscillators: int) -> np.ndarray:
    """Block-diagonal antisymmetric form, one [[0, 1], [-1, 0]] block per mode."""
    omega = np.zeros((2 * n_oscillators, 2 * n_oscillators))
    idx = np.arange(n_oscillators)
    omega[2 * idx, 2 * idx + 1] = 1.0
    omega[2 * idx + 1, 2 * idx] = -1.0
    return omega


def full_hamiltonian(model: StarModel) -> np.ndarray:
    """Dense 2(N+1) quadrature matrix: frequency on each mode's diagonal
    pair, couplings linking the system pair to each bath pair."""
    n_total = model.n_modes + 1
    H = np.zeros((2 * n_total, 2 * n_total))
    H[0::2, 0::2] = H[1::2, 1::2] = arrowhead_matrix(model)  # the position and the momentum blocks
    return H


@dataclass(frozen=True, eq=False)
class DenseSymplectic:
    """Full-space matrices at one time, used only for validation."""

    time: float
    H: np.ndarray
    Omega: np.ndarray
    V: np.ndarray
    sigma: np.ndarray

    def diagonal_coefficients(self) -> np.ndarray:
        """sigma_{2j-1,2j-1}(t) for every oscillator (1-based pairing)."""
        return np.diag(self.sigma)[0::2].copy()

    def cross_terms(self) -> np.ndarray:
        """sigma_{1,2j}(t) for the bath modes j = 2..N+1."""
        return self.sigma[0, 3::2].copy()


def symplectic_oracle_series(model: StarModel, init: InitialTemperatures, times) -> list[DenseSymplectic]:
    """Evolve the full covariance matrix exactly to each time of ``times``
    (any order), from one eigendecomposition of H."""
    H = full_hamiltonian(model)
    Omega = symplectic_form(model.n_modes + 1)
    w, P = np.linalg.eigh(H)
    sigma0 = np.repeat(initial_coefficients(model.frequencies, init), 2)  # one c per quadrature pair
    out = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        V = (P * np.cos(w * t)) @ P.T + Omega @ ((P * np.sin(w * t)) @ P.T)
        out.append(DenseSymplectic(time=float(t), H=H, Omega=Omega, V=V, sigma=(V * sigma0) @ V.T))
    return out


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
    g, q1 = basis.couplings, np.sqrt(basis.weights)
    live, act, dead = np.flatnonzero(q1), np.flatnonzero(g), np.flatnonzero(q1 == 0)
    Q = np.zeros((basis.dimension, basis.dimension))
    Q[0] = q1
    gap = basis.model.delta_omega * (basis.poles[live, None] - act) + basis.shifts[live, None]  # l_k - w_j
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


def total_energy(dense) -> float:
    """Conserved mean energy (hbar/4) Tr(H sigma)."""
    return 0.25 * HBAR * float(np.sum(dense.H * dense.sigma))


def symplectic_defect(dense) -> float:
    """max |(V Omega V^T - Omega)_ij|; zero for exact symplectic V."""
    return float(np.max(np.abs(dense.V @ dense.Omega @ dense.V.T - dense.Omega)))


def energy_conservation_residual(model: StarModel, init: InitialTemperatures, times) -> float:
    e0, *et = (total_energy(d) for d in symplectic_oracle_series(model, init, np.r_[0.0, np.atleast_1d(times)]))
    return max(abs(e - e0) / abs(e0) for e in et)


# --- thermo ---------------------------------------------------------------


def flux_finite_difference_residual(
    basis: ModeBasis,
    init: InitialTemperatures,
    t: float,
    dt: float = 1.0e-9,
    x_override: np.ndarray | None = None,
) -> float:
    """Per-mode fluxes dE_j/dt against a central finite difference of E_j(t),
    normalized by the largest analytic flux magnitude.  ``x_override`` lets
    a test show that corrupted cross terms are caught."""
    model = basis.model
    series = snapshot_series(basis, init, [t - dt, t, t + dt])
    x = series.x[1] if x_override is None else x_override
    analytic = fluxes_from_cross_terms(x, model).mode_fluxes
    fd = 0.5 * HBAR * model.bath_omegas * (series.c[2, 1:] - series.c[0, 1:]) / (2.0 * dt)
    scale = float(np.max(np.abs(analytic)))
    return float(np.max(np.abs(fd - analytic))) / scale


def epr_rearrangement_residual(snapshot: CovarianceSnapshot) -> float:
    """Pi_tot against sum_j (1/T_j) dE_j/dt assembled from the other ops."""
    model = snapshot.model
    pi = total_epr(snapshot)
    fx = fluxes_from_cross_terms(snapshot.x, model)
    _, T = inverse_temperature(snapshot.c, model.frequencies)
    assembled = fx.dEA_dt / T[0] + float(np.sum(fx.mode_fluxes / T[1:]))
    return abs(pi - assembled) / max(abs(pi), 1e-300)


def epr_finite_difference_residual(
    basis: ModeBasis, init: InitialTemperatures, t: float, dt: float = 1.0e-9
) -> float:
    """Pi_tot against the central finite difference of S_tot(t)."""
    series = snapshot_series(basis, init, [t - dt, t, t + dt])
    pi = total_epr(series)[1]
    s_before, _, s_after = KB * np.sum(entropy_kb(series.c), axis=-1)
    fd = (s_after - s_before) / (2.0 * dt)
    return abs(fd - pi) / abs(pi)


def partition_function(c) -> float | np.ndarray:
    """Z = sqrt(c^2 - 1) / 2, factored as sqrt((c-1)(c+1)) for accuracy;
    Z = 0 at the c = 1 boundary."""
    c = np.asarray(c, dtype=float)
    return 0.5 * np.sqrt((c - 1.0) * (c + 1.0))


def free_energy(Z, T) -> float | np.ndarray:
    """F = -kB * T * ln(Z), for Z > 0."""
    return -KB * np.asarray(T, dtype=float) * np.log(np.asarray(Z, dtype=float))


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


def von_neumann_epr_from_fluxes(T_A, dEA_dt, dEB_dt, T_B0: float) -> float | np.ndarray:
    """Conventional rate in its defining flux form,
    (1/T_A) dE_A/dt + (1/T_B0) dE_B/dt, before any weak-coupling reduction.

    With exact fluxes this satisfies the identity
    Pi_vN - Pi_tot = sum_j (1/T_B0 - 1/T_j) dE_j/dt to machine precision.
    """
    return np.asarray(dEA_dt) / np.asarray(T_A, dtype=float) + np.asarray(dEB_dt) / T_B0


def epr_identity_residual(record, p: GkslParams) -> float:
    """Flux-form Pi_vN minus Pi_tot against the closed difference formula."""
    lhs = von_neumann_epr_from_fluxes(
        record.temperatures[0], record.dEA_dt, record.dEB_dt, p.T_B0
    ) - record.Pi_tot
    rhs = epr_difference(record, p)
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


@contextmanager
def traced_peak():
    """Traces the Python allocations of a ``with`` block; on exit, the yielded
    namespace holds ``held``, the bytes traced then, and ``peak``, the most
    traced at any point in the block, both above what was traced at entry.
    Inside another traced block it traces on and restarts that block's peak."""
    memory, nested = SimpleNamespace(), tracemalloc.is_tracing()
    if not nested:
        tracemalloc.start()
    entry = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        yield memory
    finally:
        held, peak = tracemalloc.get_traced_memory()
        memory.held, memory.peak = held - entry, peak - entry
        if not nested:
            tracemalloc.stop()

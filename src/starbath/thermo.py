"""Per-oscillator thermodynamics from covariance snapshots.

Oscillators run along the last axis, so every function here serves one time
and a whole time grid (time on the first axis) alike.

Every oscillator stays in a Gibbs state with time-dependent temperature, so
its diagonal coefficient c = sigma_{2j-1,2j-1} >= 1 fixes all equilibrium
quantities: E = hbar*w*c/2, beta = ln((c+1)/(c-1))/(hbar*w),
Z = sqrt(c^2-1)/2, F = -kB*T*ln(Z), and S/kB in the x*ln(x) form below.

Boundary policy: c in [1, 1+1e-12] is the T -> 0+ limit; entropy returns 0,
temperatures return a flagged 0.0 (beta = inf), and the total entropy
production rate refuses (divergent 1/T).  Double precision cannot resolve
beta beyond ~ln(2/(c-1)) there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import HBAR, KB
from .evolve import CovarianceSnapshot
from .model import StarModel

__all__ = [
    "BOUNDARY_EPS",
    "ThermoRecord",
    "EnergyFluxes",
    "mean_energy",
    "inverse_temperature",
    "partition_function",
    "free_energy",
    "entropy_kb",
    "entropy",
    "log_coth_ratio",
    "fluxes_from_cross_terms",
    "total_epr",
    "totals",
]

BOUNDARY_EPS = 1e-12


def _as_coeff(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if np.any(c < 1.0):
        raise ValueError("diagonal coefficient c < 1 is unphysical")
    return c


def _scalar_or_array(value: np.ndarray, like) -> float | np.ndarray:
    return float(value) if np.ndim(like) == 0 else value


def _row_sum(values: np.ndarray) -> float | np.ndarray:
    """Sum over the oscillators (last axis): a float at one time."""
    total = np.sum(values, axis=-1)
    return float(total) if total.ndim == 0 else total


def log_coth_ratio(c) -> float | np.ndarray:
    """ln((c+1)/(c-1)) = beta*hbar*w, computed cancellation-free; inf at the
    c -> 1+ boundary."""
    c = _as_coeff(c)
    with np.errstate(divide="ignore"):
        value = np.log1p(2.0 / (c - 1.0))
    return _scalar_or_array(value, c)


def mean_energy(c, omega) -> float | np.ndarray:
    """Mean oscillator energy E = hbar * w * c / 2 (c >= 1)."""
    c = _as_coeff(c)
    return _scalar_or_array(0.5 * HBAR * np.asarray(omega, dtype=float) * c, c)


def inverse_temperature(c, omega) -> tuple:
    """(beta, T) of the Gibbs state with coefficient c.

    beta is in 1/J.  The boundary c <= 1 + 1e-12 yields the one-sided limit
    (inf, 0.0) rather than an error.
    """
    c = _as_coeff(c)
    omega = np.asarray(omega, dtype=float)
    lnr = np.asarray(log_coth_ratio(c))
    beta = lnr / (HBAR * omega)
    boundary = np.asarray(c - 1.0 <= BOUNDARY_EPS)
    beta = np.where(boundary, np.inf, beta)
    with np.errstate(divide="ignore"):
        T = np.where(boundary, 0.0, 1.0 / (KB * beta))
    return _scalar_or_array(beta, c), _scalar_or_array(T, c)


def partition_function(c) -> float | np.ndarray:
    """Z = sqrt(c^2 - 1) / 2, factored as sqrt((c-1)(c+1)) for accuracy;
    Z = 0 at the c = 1 boundary."""
    c = _as_coeff(c)
    return _scalar_or_array(0.5 * np.sqrt((c - 1.0) * (c + 1.0)), c)


def free_energy(Z, T) -> float | np.ndarray:
    """F = -kB * T * ln(Z); undefined (raises) for Z <= 0."""
    Z = np.asarray(Z, dtype=float)
    if np.any(Z <= 0):
        raise ValueError("free energy undefined at the Z = 0 boundary")
    return _scalar_or_array(-KB * np.asarray(T, dtype=float) * np.log(Z), Z)


def entropy_kb(c) -> float | np.ndarray:
    """Thermodynamic entropy in units of kB,

        S/kB = ((c+1)/2) ln((c+1)/2) - ((c-1)/2) ln((c-1)/2),

    with the c = 1 limit defined as 0.  Equals the von Neumann entropy of a
    thermal mode with nbar = (c-1)/2."""
    c = _as_coeff(c)
    e = 0.5 * (c - 1.0)
    positive = e > 0
    safe = np.where(positive, e, 1.0)
    value = (1.0 + e) * np.log1p(e) - np.where(positive, safe * np.log(safe), 0.0)
    return _scalar_or_array(value, c)


def entropy(c) -> float | np.ndarray:
    """Thermodynamic entropy in J/K."""
    return KB * entropy_kb(c)


class EnergyFluxes(NamedTuple):
    """Time derivatives of the mean energies (J/s), floats at one time and
    arrays over a grid."""

    dEA_dt: float | np.ndarray
    mode_fluxes: np.ndarray  # dE_j/dt for each bath mode
    dEB_dt: float | np.ndarray
    dEI_dt: float | np.ndarray


def fluxes_from_cross_terms(x: np.ndarray, model: StarModel) -> EnergyFluxes:
    """Heat fluxes from the cross terms (bath modes on the last axis):

        dE_A/dt = hbar*w_1 * sum_j g_j x_j
        dE_j/dt = -hbar*w_j * g_j * x_j
        dE_I/dt = sum_j hbar*(w_j - w_1) * g_j * x_j

    which sum to zero exactly (total energy conservation)."""
    gx = model.bath_couplings * x
    mode_fluxes = -HBAR * model.bath_omegas * gx
    return EnergyFluxes(
        dEA_dt=HBAR * model.omega1 * _row_sum(gx),
        mode_fluxes=mode_fluxes,
        dEB_dt=_row_sum(mode_fluxes),
        dEI_dt=HBAR * _row_sum((model.bath_omegas - model.omega1) * gx),
    )


def total_epr(snapshot: CovarianceSnapshot, model: StarModel) -> float | np.ndarray:
    """Total thermodynamic entropy production rate (J/K/s),

        Pi_tot = kB * sum_j g_j x_j [ln((c_1+1)/(c_1-1)) - ln((c_j+1)/(c_j-1))].

    Refuses when any coefficient sits at the c = 1 boundary (1/T diverges).
    """
    c = snapshot.c
    if np.any(c - 1.0 <= BOUNDARY_EPS):
        raise ValueError("total entropy production rate undefined at the T = 0 boundary")
    lnr = log_coth_ratio(c)
    return KB * _row_sum(model.bath_couplings * snapshot.x * (lnr[..., :1] - lnr[..., 1:]))


@dataclass(frozen=True, eq=False)
class ThermoRecord:
    """Per-oscillator thermodynamics plus totals, at one time or on a grid.

    Per-mode quantities are arrays with the oscillators (system first) on the
    last axis; on a grid, time runs along the first axis of every field and
    the totals are arrays of shape (T,).
    """

    time: float | np.ndarray
    energies: np.ndarray
    temperatures: np.ndarray
    entropies: np.ndarray
    S_tot: float | np.ndarray
    dS_tot: float | np.ndarray
    Pi_tot: float | np.ndarray
    dEA_dt: float | np.ndarray
    dEB_dt: float | np.ndarray
    dEI_dt: float | np.ndarray
    mode_fluxes: np.ndarray


def totals(snapshot: CovarianceSnapshot, baseline: CovarianceSnapshot) -> ThermoRecord:
    """Assemble the full thermodynamic record of ``snapshot`` (one time or a
    grid) relative to the one-time t = 0 ``baseline`` of the same model."""
    model = snapshot.model
    if baseline.model != model:
        raise ValueError("baseline was computed for a different model")
    if np.ndim(baseline.time) != 0 or baseline.time != 0.0:
        raise ValueError("baseline must be the t = 0 snapshot")
    if baseline.c.shape[-1] != snapshot.c.shape[-1]:
        raise ValueError("baseline and snapshot sizes disagree")

    freqs = model.frequencies
    _, T = inverse_temperature(snapshot.c, freqs)
    S = entropy(snapshot.c)
    S_tot = _row_sum(S)
    dS_tot = S_tot - _row_sum(entropy(baseline.c))
    fluxes = fluxes_from_cross_terms(snapshot.x, model)
    return ThermoRecord(
        time=snapshot.time,
        energies=mean_energy(snapshot.c, freqs),
        temperatures=T,
        entropies=S,
        S_tot=S_tot,
        dS_tot=dS_tot,
        Pi_tot=total_epr(snapshot, model),
        dEA_dt=fluxes.dEA_dt,
        dEB_dt=fluxes.dEB_dt,
        dEI_dt=fluxes.dEI_dt,
        mode_fluxes=fluxes.mode_fluxes,
    )

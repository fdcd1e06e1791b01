"""Per-oscillator thermodynamics from covariance snapshots.

Oscillators run along the last axis, so every function here serves one time
and a whole time grid (time on the first axis) alike, through the same numpy
expressions: a one-time result is a numpy float64, which is a ``float``.

Every oscillator stays in a Gibbs state with time-dependent temperature, so
its diagonal coefficient c = sigma_{2j-1,2j-1} >= 1 fixes all equilibrium
quantities: E = hbar*w*c/2, beta = ln((c+1)/(c-1))/(hbar*w), and S/kB in
the x*ln(x) form of ``entropy_kb`` (records hold S in J/K).

Boundary policy: c in [1, 1+1e-12] is the T -> 0+ limit; entropy is 0,
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
    "entropy_kb",
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


def log_coth_ratio(c) -> float | np.ndarray:
    """ln((c+1)/(c-1)) = beta*hbar*w, computed cancellation-free; inf at the
    c -> 1+ boundary."""
    c = _as_coeff(c)
    with np.errstate(divide="ignore"):
        return np.log1p(2.0 / (c - 1.0))


def mean_energy(c, omega) -> float | np.ndarray:
    """Mean oscillator energy E = hbar * w * c / 2 (c >= 1)."""
    c = _as_coeff(c)
    return 0.5 * HBAR * np.asarray(omega, dtype=float) * c


def inverse_temperature(c, omega) -> tuple:
    """(beta, T) of the Gibbs state with coefficient c.

    beta is in 1/J.  The boundary c <= 1 + 1e-12 yields the one-sided limit
    (inf, 0.0) rather than an error.
    """
    c = _as_coeff(c)
    omega = np.asarray(omega, dtype=float)
    boundary = c - 1.0 <= BOUNDARY_EPS
    beta = np.where(boundary, np.inf, log_coth_ratio(c) / (HBAR * omega))
    with np.errstate(divide="ignore"):
        T = np.where(boundary, 0.0, 1.0 / (KB * beta))
    return beta[()], T[()]  # np.where gives 0-d arrays at one time


def entropy_kb(c) -> float | np.ndarray:
    """Thermodynamic entropy in units of kB,

        S/kB = ((c+1)/2) ln((c+1)/2) - ((c-1)/2) ln((c-1)/2),

    with the c = 1 limit defined as 0.  Equals the von Neumann entropy of a
    thermal mode with nbar = (c-1)/2."""
    c = _as_coeff(c)
    e = 0.5 * (c - 1.0)
    positive = e > 0
    safe = np.where(positive, e, 1.0)
    return (1.0 + e) * np.log1p(e) - np.where(positive, safe * np.log(safe), 0.0)


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
        dEA_dt=HBAR * model.omega1 * np.sum(gx, axis=-1),
        mode_fluxes=mode_fluxes,
        dEB_dt=np.sum(mode_fluxes, axis=-1),
        dEI_dt=HBAR * np.sum((model.bath_omegas - model.omega1) * gx, axis=-1),
    )


def total_epr(snapshot: CovarianceSnapshot) -> float | np.ndarray:
    """Total thermodynamic entropy production rate (J/K/s),

        Pi_tot = kB * sum_j g_j x_j [ln((c_1+1)/(c_1-1)) - ln((c_j+1)/(c_j-1))].

    Refuses when any coefficient sits at the c = 1 boundary (1/T diverges).
    """
    c = snapshot.c
    if np.any(c - 1.0 <= BOUNDARY_EPS):
        raise ValueError("total entropy production rate undefined at the T = 0 boundary")
    lnr = log_coth_ratio(c)
    return KB * np.sum(snapshot.model.bath_couplings * snapshot.x * (lnr[..., :1] - lnr[..., 1:]), axis=-1)


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

    freqs = model.frequencies
    _, T = inverse_temperature(snapshot.c, freqs)
    S = KB * entropy_kb(snapshot.c)
    S_tot = np.sum(S, axis=-1)
    dS_tot = S_tot - np.sum(KB * entropy_kb(baseline.c), axis=-1)
    return ThermoRecord(
        time=snapshot.time,
        energies=mean_energy(snapshot.c, freqs),
        temperatures=T,
        entropies=S,
        S_tot=S_tot,
        dS_tot=dS_tot,
        Pi_tot=total_epr(snapshot),
        **fluxes_from_cross_terms(snapshot.x, model)._asdict(),
    )

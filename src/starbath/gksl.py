"""Closed-form damped-oscillator reference dynamics and the conventional
entropy production.

In the weak-coupling Markovian regime the system coefficient obeys

    c_1(t) = coth(hw1/2kT_A0) e^{-2 Gamma t} + coth(hw1/2kT_B0) (1 - e^{-2 Gamma t}),

the analytic solution used here directly (the generator itself is never
integrated numerically; the system stays diagonal in its own Hamiltonian so
the commutator term drops).  The conventional rate built on the fixed
initial bath temperature is non-negative for all t; its gap to the total
thermodynamic rate is carried by the bath-temperature drifts.  That rate
takes the system coefficient it is scored on, closed-form or exact, from
its caller.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .constants import HBAR
from .model import thermal_coefficient
from .thermo import ThermoRecord, inverse_temperature

__all__ = [
    "GkslParams",
    "gksl_sigma11",
    "von_neumann_epr",
    "von_neumann_ep",
    "epr_difference",
    "ep_difference",
]


@dataclass(frozen=True)
class GkslParams:
    """Parameters of the damped-oscillator closed form."""

    omega1: float
    Gamma: float
    T_A0: float
    T_B0: float

    def __post_init__(self) -> None:
        if self.omega1 <= 0:
            raise ValueError("omega1 must be positive")
        if self.Gamma < 0:
            raise ValueError("Gamma must be non-negative")
        if self.T_A0 <= 0 or self.T_B0 <= 0:
            raise ValueError("temperatures must be positive")

    @property
    def coth_a(self) -> float:
        return thermal_coefficient(self.omega1, self.T_A0)

    @property
    def coth_b(self) -> float:
        return thermal_coefficient(self.omega1, self.T_B0)


def gksl_sigma11(p: GkslParams, t) -> float | np.ndarray:
    """System coefficient c_1(t) under the closed-form solution."""
    t = np.asarray(t, dtype=float)
    return p.coth_b + (p.coth_a - p.coth_b) * np.exp(-2.0 * p.Gamma * t)


def von_neumann_epr(p: GkslParams, sigma11) -> float | np.ndarray:
    """Conventional entropy production rate (J/K/s) at each system
    coefficient c_1(t) of ``sigma11``,

        Pi_vN = hbar*w1*Gamma (1/T_B0 - 1/T_A(t)) [c_1(t) - coth(hw1/2kT_B0)],

    a product of two same-sign factors, hence >= 0 for all t.
    """
    c1 = np.asarray(sigma11, dtype=float)
    _, T_A = inverse_temperature(c1, p.omega1)
    with np.errstate(divide="ignore"):
        return HBAR * p.omega1 * p.Gamma * (1.0 / p.T_B0 - 1.0 / T_A) * (c1 - p.coth_b)


def von_neumann_ep(p: GkslParams, entropy_A, energy_A) -> np.ndarray:
    """Conventional entropy production

        dS_vN(t) = S_A(t) - S_A(0) - (E_A(t) - E_A(0)) / T_B0

    from a system series whose first entry is t = 0."""
    S_A = np.asarray(entropy_A, dtype=float)
    E_A = np.asarray(energy_A, dtype=float)
    if S_A.shape != E_A.shape:
        raise ValueError("entropy and energy series must align")
    return (S_A - S_A[0]) - (E_A - E_A[0]) / p.T_B0


def epr_difference(record: ThermoRecord, p: GkslParams) -> float | np.ndarray:
    """Exact gap Pi_vN - Pi_tot = sum_j (1/T_B0 - 1/T_j(t)) dE_j/dt over the
    bath modes (J/K/s), at each time of ``record``."""
    T_j = record.temperatures[..., 1:]
    return np.sum((1.0 / p.T_B0 - 1.0 / T_j) * record.mode_fluxes, axis=-1)


def ep_difference(record: ThermoRecord, p: GkslParams) -> np.ndarray:
    """Exact gap dS_vN - dS_tot at each time of the grid ``record``,

        (E_A(0) - E_A(t)) / T_B0 + sum_j [S_j(0) - S_j(t)],

    whose first time is the t = 0 baseline."""
    if np.ndim(record.time) != 1 or record.time[0] != 0.0:
        raise ValueError("record must be a grid whose first time is the t = 0 baseline")
    E_A, S_bath = record.energies[:, 0], record.entropies[:, 1:]
    return (E_A[0] - E_A) / p.T_B0 + np.sum(S_bath[0] - S_bath, axis=-1)

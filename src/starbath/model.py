"""Star-configuration model construction.

One central harmonic oscillator (mode 1) is coupled pairwise to N bath
oscillators with no bath-bath couplings.  The bath is a uniformly spaced
discretization of an Ohmic spectral density J(w) = eta * w * exp(-w/w_c),
with couplings fixed by the midpoint rule g_j^2 = eta * dw * w_j * exp(-w_j/w_c).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR, KB

__all__ = [
    "OhmicBathSpec",
    "StarModel",
    "discretize_ohmic_bath",
    "relaxation_rate",
    "mean_occupation",
    "thermal_coefficient",
    "recurrence_time",
]

def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OhmicBathSpec:
    """Parameters of the Ohmic bath discretization.

    Frequencies are angular (rad/s); ``eta`` is dimensionless.
    """

    eta: float
    omega_c: float
    omega_min: float
    omega_max: float
    n_modes: int

    def __post_init__(self) -> None:
        for name in ("eta", "omega_c", "omega_min", "omega_max"):
            _require_finite(name, getattr(self, name))
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.omega_c <= 0:
            raise ValueError("omega_c must be positive")
        if not 0 < self.omega_min < self.omega_max:
            raise ValueError("require 0 < omega_min < omega_max")
        if not isinstance(self.n_modes, numbers.Integral):
            raise ValueError(f"n_modes must be an integer, got {self.n_modes!r}")
        if self.n_modes < 2:
            raise ValueError("n_modes must be at least 2 (bath spacing undefined otherwise)")
        # g_j^2 = eta * dw * w_j * exp(-w_j/w_c) is formed left to right
        if not math.isfinite(self.eta * self.delta_omega * self.omega_max):
            raise ValueError(f"eta = {self.eta!r} is too large: the bath couplings overflow")

    @property
    def delta_omega(self) -> float:
        return (self.omega_max - self.omega_min) / (self.n_modes - 1)


@dataclass(frozen=True, eq=False)
class StarModel:
    """Frequencies and couplings defining the star Hamiltonian.

    The bath is exactly uniform: mode j has frequency omega_min + j *
    delta_omega, j = 0 ... N-1, with N = len(bath_couplings).
    ``bath_omegas`` holds those frequencies rounded to within 1 ulp; it and
    ``bath_couplings`` are frozen read-only after construction so the model
    can be shared across threads.
    """

    omega1: float
    omega_min: float
    delta_omega: float
    bath_couplings: np.ndarray
    bath_omegas: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("omega1", "omega_min", "delta_omega"):
            _require_finite(name, getattr(self, name))
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        couplings = np.array(self.bath_couplings, dtype=np.float64)
        if couplings.ndim != 1 or len(couplings) < 2:
            raise ValueError("a star model needs a 1-d array of at least 2 bath couplings")
        if not np.all(np.isfinite(couplings)):
            raise ValueError("bath couplings must be finite")
        if np.any(couplings < 0):
            raise ValueError("bath couplings must be non-negative")
        if not math.isfinite(self.omega_min + self.delta_omega * (len(couplings) - 1)):
            raise ValueError("the top bath frequency overflows")
        omegas = self.omega_min + self.delta_omega * np.arange(len(couplings))
        for name, arr in (("bath_couplings", couplings), ("bath_omegas", omegas)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarModel):
            return NotImplemented
        return (
            (self.omega1, self.omega_min, self.delta_omega) == (other.omega1, other.omega_min, other.delta_omega)
            and np.array_equal(self.bath_couplings, other.bath_couplings)
        )

    @property
    def n_modes(self) -> int:
        """Number of bath oscillators N."""
        return len(self.bath_couplings)

    @property
    def frequencies(self) -> np.ndarray:
        """All N+1 oscillator frequencies, system first."""
        return np.concatenate(([self.omega1], self.bath_omegas))


def discretize_ohmic_bath(spec: OhmicBathSpec, omega1: float) -> StarModel:
    """Place N bath modes uniformly on [omega_min, omega_max] and set the
    couplings by the midpoint rule g_j = sqrt(eta * dw * w_j * exp(-w_j/w_c))."""
    dw = spec.delta_omega
    omegas = spec.omega_min + dw * np.arange(spec.n_modes)
    couplings = np.sqrt(spec.eta * dw * omegas * np.exp(-omegas / spec.omega_c))
    return StarModel(omega1, spec.omega_min, dw, couplings)


def relaxation_rate(spec: OhmicBathSpec, omega1: float) -> float:
    """System relaxation rate Gamma = pi * J(omega1) with the continuum Ohmic J."""
    _require_finite("omega1", omega1)
    if omega1 <= 0:
        raise ValueError("omega1 must be positive")
    rate = math.pi * spec.eta * omega1 * math.exp(-omega1 / spec.omega_c)
    if not math.isfinite(rate):
        raise ValueError(f"eta = {spec.eta!r} is too large: the relaxation rate overflows")
    return rate


def mean_occupation(omega: float, temperature: float) -> float:
    """Thermal mean excitation number 1 / (exp(hbar*w / kB*T) - 1)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    arg = HBAR * omega / (KB * temperature)
    if arg > 700.0:  # expm1 would overflow; the occupation underflows to exp(-arg)
        return math.exp(-arg)
    return 1.0 / math.expm1(arg)


def thermal_coefficient(omega, temperature):
    """Diagonal covariance coefficient of a thermal mode,
    c = coth(hbar*w / (2*kB*T)) = 2*nbar + 1.  Vectorized over ``omega``."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    if np.any(np.asarray(temperature) <= 0):
        raise ValueError("temperature must be positive")
    return 1.0 / np.tanh(HBAR * omega / (2.0 * KB * temperature))


def recurrence_time(model: StarModel) -> float:
    """Rephasing time of the uniformly spaced bath, t1 = 2*pi / dw.

    Beyond t1 the finite bath no longer mimics a Markovian reservoir.
    """
    return 2.0 * math.pi / model.delta_omega

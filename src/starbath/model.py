"""Star-configuration model construction.

One central harmonic oscillator (mode 1) is coupled pairwise to N bath
oscillators with no bath-bath couplings.  The bath is a uniformly spaced
discretization of an Ohmic spectral density J(w) = eta * w * exp(-w/w_c),
with couplings fixed by the midpoint rule g_j^2 = eta * dw * w_j * exp(-w_j/w_c).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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

# Uniform bath spacing holds to 1e-12 relative, or to a few ulps of the top
# frequency, which bound the rounding of omega_min + dw * k at large N.
_SPACING_RTOL = 1e-12
_SPACING_ULPS = 4


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

    ``bath_omegas`` must be strictly increasing and uniformly spaced; both
    arrays are frozen read-only after construction so the model can be shared
    across threads.
    """

    omega1: float
    bath_omegas: np.ndarray
    bath_couplings: np.ndarray

    def __post_init__(self) -> None:
        omegas = np.ascontiguousarray(self.bath_omegas, dtype=np.float64)
        couplings = np.ascontiguousarray(self.bath_couplings, dtype=np.float64)
        object.__setattr__(self, "bath_omegas", omegas)
        object.__setattr__(self, "bath_couplings", couplings)

        _require_finite("omega1", self.omega1)
        if self.omega1 <= 0:
            raise ValueError("omega1 must be positive")
        if omegas.ndim != 1 or couplings.ndim != 1:
            raise ValueError("bath arrays must be one-dimensional")
        if len(omegas) != len(couplings):
            raise ValueError("bath_omegas and bath_couplings must have equal length")
        if len(omegas) < 2:
            raise ValueError("a star model needs at least 2 bath modes")
        if not np.all(np.isfinite(omegas)) or not np.all(np.isfinite(couplings)):
            raise ValueError("bath parameters must be finite")
        if np.any(omegas <= 0):
            raise ValueError("bath frequencies must be strictly positive")
        if np.any(couplings < 0):
            raise ValueError("bath couplings must be non-negative")
        spacing = (omegas[-1] - omegas[0]) / (len(omegas) - 1)
        if spacing <= 0:
            raise ValueError("bath frequencies must be strictly increasing")
        diffs = np.diff(omegas)
        tol = max(_SPACING_RTOL * spacing, _SPACING_ULPS * float(np.spacing(omegas[-1])))
        if np.any(diffs <= 0) or np.max(np.abs(diffs - spacing)) > tol:
            raise ValueError("bath frequencies must be uniformly spaced (to 1e-12 relative or 4 ulps)")

        omegas.setflags(write=False)
        couplings.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StarModel):
            return NotImplemented
        return (
            self.omega1 == other.omega1
            and np.array_equal(self.bath_omegas, other.bath_omegas)
            and np.array_equal(self.bath_couplings, other.bath_couplings)
        )

    @property
    def n_modes(self) -> int:
        """Number of bath oscillators N."""
        return len(self.bath_omegas)

    @property
    def delta_omega(self) -> float:
        """Uniform bath spacing dw."""
        return (self.bath_omegas[-1] - self.bath_omegas[0]) / (self.n_modes - 1)

    @property
    def frequencies(self) -> np.ndarray:
        """All N+1 oscillator frequencies, system first."""
        return np.concatenate(([self.omega1], self.bath_omegas))


def discretize_ohmic_bath(spec: OhmicBathSpec, omega1: float) -> StarModel:
    """Place N bath modes uniformly on [omega_min, omega_max] and set the
    couplings by the midpoint rule g_j = sqrt(eta * dw * w_j * exp(-w_j/w_c))."""
    _require_finite("omega1", omega1)
    dw = spec.delta_omega
    omegas = spec.omega_min + dw * np.arange(spec.n_modes)
    couplings = np.sqrt(spec.eta * dw * omegas * np.exp(-omegas / spec.omega_c))
    return StarModel(omega1=omega1, bath_omegas=omegas, bath_couplings=couplings)


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

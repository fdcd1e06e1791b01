"""Experiment configuration.

The CLI boundary speaks MHz / us / uK; everything downstream is SI.  Config
files are flat JSON with exactly the field names below; unknown keys are
rejected with a diagnostic.  ``times_us`` is the time grid, which ``--grid``
sets through ``parse_grid``; the N-sweep reads ``sweep_times_us`` instead.
Evolve's grid validator checks both lists.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .constants import MHZ, UK, US
from .evolve import InitialTemperatures, validated_grid
from .model import OhmicBathSpec, relaxation_rate

__all__ = ["JOBS", "PIVN_MODES", "ConfigError", "ExperimentConfig", "load_config", "parse_grid"]

JOBS = ("simulate", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "sweep-n", "validate")
PIVN_MODES = ("gksl", "exact")


class ConfigError(ValueError):
    """Invalid configuration; maps to CLI exit code 2."""


@dataclass
class ExperimentConfig:
    job: str = "simulate"
    omega1_mhz: float = 4.0
    omega_c_mhz: float = 3.0
    omega_min_mhz: float = 0.026
    omega_max_mhz: float = 20.0
    eta: float = 1.0e-3
    n_modes: int = 4000
    n_list: list[int] | None = None
    T_A0_uk: float = 10.0
    T_B0_uk: float = 50.0
    times_us: list[float] = field(default_factory=lambda: np.linspace(0.0, 1200.0, 121).tolist())
    sweep_times_us: list[float] = field(default_factory=lambda: [100.0, 200.0, 300.0, 400.0])
    out_dir: str = "out"
    pivn_mode: str = "gksl"
    mode_window_mhz: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check the rules only config knows.  The time lists go through
        evolve's grid validator; the physical ranges are the domain types'
        own, so build those for every N a job can run."""
        if self.job not in JOBS:
            raise ConfigError(f"unknown job {self.job!r}; expected one of {JOBS}")
        if self.pivn_mode not in PIVN_MODES:
            raise ConfigError(f"pivn_mode must be one of {PIVN_MODES}")
        if self.n_list is not None:
            if len(self.n_list) == 0:
                raise ConfigError("n_list must not be empty")
            if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
                raise ConfigError("n_list must be strictly ascending")
            if self.job in ("sweep-n", "fig6") and len(self.n_list) < 3:
                raise ConfigError("sweep-n needs at least 3 N values")
        if not 0 < self.mode_window_mhz < math.inf:
            raise ConfigError("mode_window_mhz must be positive and finite")
        for name in ("times_us", "sweep_times_us"):
            try:
                validated_grid(getattr(self, name))
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        try:
            for n in [self.n_modes, *(self.n_list or ())]:
                relaxation_rate(self.bath_spec(n), self.omega1)
            self.initial_temperatures()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    # --- SI accessors -----------------------------------------------------

    def bath_spec(self, n_modes: int | None = None) -> OhmicBathSpec:
        return OhmicBathSpec(
            eta=self.eta,
            omega_c=self.omega_c_mhz * MHZ,
            omega_min=self.omega_min_mhz * MHZ,
            omega_max=self.omega_max_mhz * MHZ,
            n_modes=self.n_modes if n_modes is None else n_modes,
        )

    @property
    def omega1(self) -> float:
        return self.omega1_mhz * MHZ

    def initial_temperatures(self) -> InitialTemperatures:
        return InitialTemperatures(T_A0=self.T_A0_uk * UK, T_B0=self.T_B0_uk * UK)

    def times(self) -> np.ndarray:
        """Output time grid in seconds."""
        return np.asarray(self.times_us, dtype=float) * US

    def sweep_times(self) -> np.ndarray:
        return np.asarray(self.sweep_times_us, dtype=float) * US


_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a JSON config file, rejecting unknown keys."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def parse_grid(text: str) -> list[float]:
    """Expand a ``start:end:points`` grid spec in microseconds into the
    ``times_us`` list; the config's validation judges the times."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must look like start:end:points, got {text!r}")
    try:
        # a non-finite end gives nan/inf times, which the validation rejects
        with np.errstate(invalid="ignore", over="ignore"):
            return np.linspace(float(parts[0]), float(parts[1]), int(parts[2])).tolist()
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}: {exc}") from exc

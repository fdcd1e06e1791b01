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
import numbers
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .constants import MHZ, UK, US
from .evolve import _PHASE_RANGE, InitialTemperatures, validated_grid
from .model import OhmicBathSpec, discretize_ohmic_bath, relaxation_rate

__all__ = ["JOBS", "JOB_INPUTS", "PIVN_MODES", "ConfigError", "ExperimentConfig", "load_config", "parse_grid"]

# The config fields each job reads.  Validation checks the ranges of these
# alone, the CLI refuses flags for any other field, and a manifest records
# exactly these.  A job that reads n_list runs each of those N (or its
# _N_DEFAULTS when the config sets none); one that reads sweep_times_us is an
# N-sweep and needs 3 N at least.
_BATH = ("omega1_mhz", "omega_c_mhz", "omega_min_mhz", "omega_max_mhz", "eta", "T_A0_uk", "T_B0_uk")
JOB_INPUTS = {
    "simulate": _BATH + ("n_modes", "times_us", "pivn_mode"),
    "fig1": _BATH + ("n_list", "times_us"),
    "fig2": _BATH + ("n_modes", "times_us"),
    "fig3": _BATH + ("n_list", "times_us", "pivn_mode"),
    "fig4": _BATH + ("n_modes", "times_us", "mode_window_mhz"),
    "fig5": _BATH + ("n_list", "times_us", "mode_window_mhz"),
    "fig6": _BATH + ("n_list", "sweep_times_us"),
    "sweep-n": _BATH + ("n_list", "sweep_times_us"),
    "validate": _BATH + ("n_modes", "times_us"),
}
_N_DEFAULTS = {
    "fig1": (4000, 6000, 8000),
    "fig3": (1000, 2000, 4000),
    "fig5": (4000, 6000, 8000),
    "fig6": (1000, 2000, 3000, 4000),
    "sweep-n": (1000, 2000, 3000, 4000),
}
JOBS = tuple(JOB_INPUTS)
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

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every field's type, and the ranges of the fields the job
        reads.  The time lists go through evolve's grid validator; the
        physical ranges are the domain types' own, so build those for every N
        the job runs, and with them cap the time lists below evolve's phase
        range: last time x (max(w1, w_max) + 2 |g|), which bounds every
        eigenfrequency, < 2^31 2 pi.  On the default bath that refuses grids
        of 668.3 to 674.65 s, which evaluate alone would accept."""
        for f in fields(self):  # JSON true/false arrive as bools, which Python counts as ints
            base = f.type.removeprefix("list[").partition("]")[0]
            kind = {"float": numbers.Real, "int": numbers.Integral, "str": str}.get(base)
            value, listed = getattr(self, f.name), f.type.startswith("list[")
            if kind is None or (value is None and f.type.endswith("None")):
                continue
            if listed and not isinstance(value, (list, tuple, np.ndarray)):
                raise ConfigError(f"{f.name}: expected a list of numbers, got {value!r}")
            for item in value if listed else [value]:
                if isinstance(item, bool) or not isinstance(item, kind):
                    noun = {numbers.Real: "a number", numbers.Integral: "an integer", str: "a string"}[kind]
                    raise ConfigError(f"{f.name}: expected {noun}, got {item!r}")
                if isinstance(item, numbers.Integral) and abs(item) > sys.float_info.max:  # no float holds it
                    raise ConfigError(f"{f.name}: integer too large for a float")
        if self.job not in JOBS:
            raise ConfigError(f"unknown job {self.job!r}; expected one of {JOBS}")
        reads = JOB_INPUTS[self.job]
        if "pivn_mode" in reads and self.pivn_mode not in PIVN_MODES:
            raise ConfigError(f"pivn_mode must be one of {PIVN_MODES}")
        if "n_list" in reads and self.n_list is not None:
            if len(self.n_list) == 0:
                raise ConfigError("n_list must not be empty")
            if any(a >= b for a, b in zip(self.n_list, self.n_list[1:])):
                raise ConfigError("n_list must be strictly ascending")
            if "sweep_times_us" in reads and len(self.n_list) < 3:
                raise ConfigError(f"{self.job} needs at least 3 N values")
        if "mode_window_mhz" in reads and not 0 < self.mode_window_mhz < math.inf:
            raise ConfigError("mode_window_mhz must be positive and finite")
        for name in ("times_us", "sweep_times_us"):
            if name not in reads:
                continue
            try:
                validated_grid(getattr(self, name))
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        try:
            for n in self.n_values():
                spec = self.bath_spec(n)
                relaxation_rate(spec, self.omega1)
                g = discretize_ohmic_bath(spec, self.omega1).bath_couplings
                limit = _PHASE_RANGE / US / (max(self.omega1, spec.omega_max) + 2.0 * float(np.linalg.norm(g)))
                for name in ("times_us", "sweep_times_us"):
                    if name in reads and max(getattr(self, name)) >= limit:
                        raise ConfigError(f"{name}: times must stay below {limit:.6g} us at N = {n}, the phase range")
            self.initial_temperatures()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def n_values(self) -> list[int]:
        """The bath sizes the job runs, in order."""
        if "n_list" in JOB_INPUTS[self.job]:
            return list(self.n_list or _N_DEFAULTS[self.job])
        return [self.n_modes]

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


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Parse a JSON config file, rejecting unknown keys; ``overrides`` replace
    its fields before the config is validated."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        return ExperimentConfig(**(raw | overrides))
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

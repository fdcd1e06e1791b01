"""Shared fixtures.

The production-parameter eigenbases and grid thermodynamic records are
expensive at N = 4000, so a session-scoped cache hands them to every test
that needs them (most acceptance criteria share the same grids).
"""

from __future__ import annotations

import numpy as np
import pytest

import starbath as sb
from starbath.evolve import evaluate, initial_coefficients
from starbath.thermo import totals


class ProductionContext:
    """Lazy per-N caches of the production-parameter pipeline."""

    def __init__(self) -> None:
        self.init = sb.InitialTemperatures(T_A0=10e-6, T_B0=50e-6)
        self._models: dict[int, sb.StarModel] = {}
        self._bases: dict[int, sb.ModeBasis] = {}
        self._records: dict[tuple, sb.ThermoRecord] = {}
        self._c1: dict[tuple, np.ndarray] = {}

    def config(self, n: int) -> sb.ExperimentConfig:
        return sb.ExperimentConfig(n_modes=n)

    def spec(self, n: int) -> sb.OhmicBathSpec:
        return self.config(n).bath_spec()

    def model(self, n: int) -> sb.StarModel:
        if n not in self._models:
            self._models[n] = sb.discretize_ohmic_bath(self.spec(n), self.config(n).omega1)
        return self._models[n]

    def params(self, n: int) -> sb.GkslParams:
        return sb.GkslParams(
            omega1=self.config(n).omega1,
            Gamma=sb.relaxation_rate(self.spec(n), self.config(n).omega1),
            T_A0=self.init.T_A0,
            T_B0=self.init.T_B0,
        )

    def basis(self, n: int) -> sb.ModeBasis:
        if n not in self._bases:
            self._bases[n] = sb.mode_basis(self.model(n))
        return self._bases[n]

    def record(self, n: int, times_us: tuple[float, ...]) -> sb.ThermoRecord:
        """Grid thermo record whose first time is the t = 0 baseline,
        followed by the grid."""
        key = (n, times_us)
        if key not in self._records:
            grid = np.concatenate(([0.0], np.asarray(times_us) * 1e-6))
            series = sb.snapshot_series(self.basis(n), self.init, grid)
            self._records[key] = totals(series, series.at(0))
        return self._records[key]

    def c1_series(self, n: int, times_us: tuple[float, ...]) -> np.ndarray:
        key = (n, times_us)
        if key not in self._c1:
            basis = self.basis(n)
            c0 = initial_coefficients(basis.frequencies, self.init)
            c, _ = evaluate(basis, c0, np.asarray(times_us) * 1e-6, (0, 0))
            self._c1[key] = c[:, 0]
        return self._c1[key]


@pytest.fixture(scope="session")
def production() -> ProductionContext:
    return ProductionContext()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)

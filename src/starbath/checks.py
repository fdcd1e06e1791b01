"""Invariant residuals that the validate job computes on the configured run.

Each returns a float that the job compares against its tolerance; the test
suite imports them too.
"""

from __future__ import annotations

import numpy as np

from .evolve import CovarianceSnapshot, InitialTemperatures, ModeBasis, evaluate, mode_basis, snapshot_series
from .model import StarModel
from .oracle import dense_oracle_series
from .thermo import fluxes_from_cross_terms

__all__ = ["flux_sum_residual", "oracle_equivalence_residual", "unitarity_residual"]


def oracle_equivalence_residual(model: StarModel, init: InitialTemperatures, times) -> float:
    """Max abs difference of reduced-path c_j, x_j against the dense mode-space
    reference."""
    times = np.sort(np.atleast_1d(times))
    dense = dense_oracle_series(model, init, times)
    snap = snapshot_series(mode_basis(model), init, times)
    c = np.array([d.diagonal_coefficients() for d in dense])
    x = np.array([d.cross_terms() for d in dense])
    return float(max(np.max(np.abs(snap.c - c)), np.max(np.abs(snap.x - x))))


def unitarity_residual(basis: ModeBasis, times) -> float:
    """Largest deviation of the row sums sum_m |U_jm|^2 from 1 over ``times``."""
    row_sums, _ = evaluate(basis, np.ones(basis.dimension), np.atleast_1d(times))
    return float(np.max(np.abs(row_sums - 1.0)))


def flux_sum_residual(snapshot: CovarianceSnapshot) -> float:
    """Largest |dE_A + dE_B + dE_I| over the snapshot's times, relative to
    the largest flux magnitude there."""
    fx = fluxes_from_cross_terms(snapshot.x, snapshot.model)
    scale = max(float(np.max(np.abs([fx.dEA_dt, fx.dEB_dt, fx.dEI_dt]))), 1e-300)
    return float(np.max(np.abs(fx.dEA_dt + fx.dEB_dt + fx.dEI_dt))) / scale


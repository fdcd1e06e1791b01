"""Dense mode-space reference for small N, and the invariant residuals that
the validate job computes on the configured run.

The quadrature matrices carry a 2x2-identity block structure, so the
dynamics closes on the (N+1)-dimensional mode space (the ``evolve`` module
docstring).  One dense eigendecomposition of the arrowhead matrix,
h = Q diag(w) Q^T, gives the propagator U(t) = Q exp(-iwt) Q^T and the
mode covariance M(t) = U C0 U^dagger with C0 = diag(c_m(0)); its diagonal
holds the c_j(t) and its system row the cross terms x_j = -Im M_1j, returned
as a ``CovarianceSnapshot`` like the one ``evolve.snapshot_series`` returns.
This path is O(N^3) time and O(N^2) memory, shares no sum with
``evolve.evaluate`` and exists only to validate it, so it refuses N above a
configurable cap.

Each residual returns a float that the validate job compares against its
tolerance; the test suite imports them too.
"""

from __future__ import annotations

import numpy as np

from .evolve import (
    CovarianceSnapshot, InitialTemperatures, ModeBasis, evaluate, initial_coefficients, mode_basis, snapshot_series,
)
from .model import StarModel
from .thermo import fluxes_from_cross_terms

__all__ = [
    "ORACLE_CAP_DEFAULT",
    "arrowhead_matrix",
    "dense_oracle_at",
    "dense_oracle_series",
    "flux_sum_residual",
    "oracle_equivalence_residual",
    "unitarity_residual",
]

ORACLE_CAP_DEFAULT = 64


def arrowhead_matrix(model: StarModel) -> np.ndarray:
    """Dense (N+1) x (N+1) reduced matrix: frequencies on the diagonal,
    couplings in the first row and column."""
    h = np.diag(model.frequencies)
    h[0, 1:] = h[1:, 0] = model.bath_couplings
    return h


def dense_oracle_series(
    model: StarModel,
    init: InitialTemperatures,
    times,
    oracle_cap: int = ORACLE_CAP_DEFAULT,
) -> CovarianceSnapshot:
    """Evolve the mode covariance exactly to each time of ``times`` (any
    order, kept), from one eigendecomposition of the arrowhead matrix."""
    if model.n_modes > oracle_cap:
        raise ValueError(
            f"dense oracle refuses N={model.n_modes} above cap {oracle_cap} "
            "(quadratic memory, cubic time)"
        )
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("time must be finite and non-negative")
    w, Q = np.linalg.eigh(arrowhead_matrix(model))
    c0 = initial_coefficients(model.frequencies, init)
    c = np.empty((len(times), model.n_modes + 1))
    x = np.empty((len(times), model.n_modes))
    for i, t in enumerate(times):
        U = (Q * np.exp(-1j * w * t)) @ Q.T
        M = (U * c0) @ U.conj().T
        c[i], x[i] = M.diagonal().real, -M[0, 1:].imag
    return CovarianceSnapshot(times, c, x, model)


def dense_oracle_at(
    model: StarModel,
    init: InitialTemperatures,
    t: float,
    oracle_cap: int = ORACLE_CAP_DEFAULT,
) -> CovarianceSnapshot:
    """Evolve the mode covariance exactly to time ``t``."""
    return dense_oracle_series(model, init, [t], oracle_cap).at(0)


def oracle_equivalence_residual(model: StarModel, init: InitialTemperatures, times) -> float:
    """Max abs difference of reduced-path c_j, x_j against the dense mode-space
    reference."""
    times = np.sort(np.atleast_1d(times))
    dense = dense_oracle_series(model, init, times)
    snap = snapshot_series(mode_basis(model), init, times)
    return float(max(np.max(np.abs(snap.c - dense.c)), np.max(np.abs(snap.x - dense.x))))


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

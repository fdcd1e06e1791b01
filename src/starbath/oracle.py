"""Dense mode-space reference for small N.

The quadrature matrices carry a 2x2-identity block structure, so the
dynamics closes on the (N+1)-dimensional mode space (the ``evolve`` module
docstring).  One dense eigendecomposition of the arrowhead matrix,
h = Q diag(w) Q^T, gives the propagator U(t) = Q exp(-iwt) Q^T and the
mode covariance M(t) = U C0 U^dagger with C0 = diag(c_m(0)); its diagonal
holds the c_j(t) and its system row the cross terms x_j = -Im M_1j.  This
path is O(N^3) time and O(N^2) memory, shares no sum with
``evolve.evaluate`` and exists only to validate it, so it refuses N above a
configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import InitialTemperatures, initial_coefficients
from .model import StarModel

__all__ = [
    "ORACLE_CAP_DEFAULT",
    "DenseReference",
    "arrowhead_matrix",
    "dense_oracle_at",
    "dense_oracle_series",
]

ORACLE_CAP_DEFAULT = 64


def arrowhead_matrix(model: StarModel) -> np.ndarray:
    """Dense (N+1) x (N+1) reduced matrix: frequencies on the diagonal,
    couplings in the first row and column."""
    h = np.diag(model.frequencies)
    h[0, 1:] = h[1:, 0] = model.bath_couplings
    return h


@dataclass(frozen=True, eq=False)
class DenseReference:
    """Mode-space covariance data at one time, used only for validation."""

    time: float
    c: np.ndarray
    x: np.ndarray

    def diagonal_coefficients(self) -> np.ndarray:
        """c_j(t) for every oscillator, the system first."""
        return self.c.copy()

    def cross_terms(self) -> np.ndarray:
        """x_j(t) for the bath modes j = 2..N+1."""
        return self.x.copy()


def dense_oracle_series(
    model: StarModel,
    init: InitialTemperatures,
    times,
    oracle_cap: int = ORACLE_CAP_DEFAULT,
) -> list[DenseReference]:
    """Evolve the mode covariance exactly to each time of ``times`` (any
    order), from one eigendecomposition of the arrowhead matrix."""
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
    out = []
    for t in times:
        U = (Q * np.exp(-1j * w * t)) @ Q.T
        M = (U * c0) @ U.conj().T
        out.append(DenseReference(time=float(t), c=M.diagonal().real.copy(), x=-M[0, 1:].imag))
    return out


def dense_oracle_at(
    model: StarModel,
    init: InitialTemperatures,
    t: float,
    oracle_cap: int = ORACLE_CAP_DEFAULT,
) -> DenseReference:
    """Evolve the mode covariance exactly to time ``t``."""
    return dense_oracle_series(model, init, [t], oracle_cap)[0]

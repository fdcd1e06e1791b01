"""Dense full-symplectic oracle for small N.

Builds the complete 2(N+1)-dimensional quadrature matrices: the symmetric
Hamiltonian matrix H with its 2x2-identity block pattern, the symplectic
form Omega, the propagator V(t) = cos(Ht) + Omega sin(Ht), and the evolved
covariance sigma(t) = V sigma(0) V^T.  This path is O(N^3) time and O(N^2)
memory on 2(N+1)-dimensional matrices and exists only to validate the
reduced fast path, so it refuses N above a configurable cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve import InitialTemperatures, initial_coefficients
from .model import StarModel

__all__ = [
    "ORACLE_CAP_DEFAULT",
    "DenseSymplectic",
    "symplectic_form",
    "arrowhead_matrix",
    "full_hamiltonian",
    "dense_oracle_at",
    "dense_oracle_series",
]

ORACLE_CAP_DEFAULT = 64


def symplectic_form(n_oscillators: int) -> np.ndarray:
    """Block-diagonal antisymmetric form, one [[0, 1], [-1, 0]] block per mode."""
    omega = np.zeros((2 * n_oscillators, 2 * n_oscillators))
    idx = np.arange(n_oscillators)
    omega[2 * idx, 2 * idx + 1] = 1.0
    omega[2 * idx + 1, 2 * idx] = -1.0
    return omega


def arrowhead_matrix(model: StarModel) -> np.ndarray:
    """Dense (N+1) x (N+1) reduced matrix: frequencies on the diagonal,
    couplings in the first row and column.  Tensor-expanding each entry into
    a 2x2 identity block gives ``full_hamiltonian``."""
    h = np.diag(model.frequencies)
    h[0, 1:] = h[1:, 0] = model.bath_couplings
    return h


def full_hamiltonian(model: StarModel) -> np.ndarray:
    """Dense 2(N+1) quadrature matrix: frequency on each mode's diagonal
    pair, couplings linking the system pair to each bath pair."""
    n_total = model.n_modes + 1
    H = np.zeros((2 * n_total, 2 * n_total))
    H[0::2, 0::2] = H[1::2, 1::2] = arrowhead_matrix(model)  # the position and the momentum blocks
    return H


@dataclass(frozen=True, eq=False)
class DenseSymplectic:
    """Full-space matrices at one time, used only for validation."""

    time: float
    H: np.ndarray
    Omega: np.ndarray
    V: np.ndarray
    sigma: np.ndarray

    def diagonal_coefficients(self) -> np.ndarray:
        """sigma_{2j-1,2j-1}(t) for every oscillator (1-based pairing)."""
        return np.diag(self.sigma)[0::2].copy()

    def cross_terms(self) -> np.ndarray:
        """sigma_{1,2j}(t) for the bath modes j = 2..N+1."""
        return self.sigma[0, 3::2].copy()


def dense_oracle_series(
    model: StarModel,
    init: InitialTemperatures,
    times,
    oracle_cap: int = ORACLE_CAP_DEFAULT,
) -> list[DenseSymplectic]:
    """Evolve the full covariance matrix exactly to each time of ``times``
    (any order), from one eigendecomposition of H."""
    if model.n_modes > oracle_cap:
        raise ValueError(
            f"dense oracle refuses N={model.n_modes} above cap {oracle_cap} "
            "(quadratic memory, cubic time)"
        )
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("time must be non-negative")
    H = full_hamiltonian(model)
    Omega = symplectic_form(model.n_modes + 1)
    w, P = np.linalg.eigh(H)
    sigma0 = np.repeat(initial_coefficients(model.frequencies, init), 2)  # one c per quadrature pair
    out = []
    for t in times:
        V = (P * np.cos(w * t)) @ P.T + Omega @ ((P * np.sin(w * t)) @ P.T)
        out.append(DenseSymplectic(time=float(t), H=H, Omega=Omega, V=V, sigma=(V * sigma0) @ V.T))
    return out


def dense_oracle_at(
    model: StarModel,
    init: InitialTemperatures,
    t: float,
    oracle_cap: int = ORACLE_CAP_DEFAULT,
) -> DenseSymplectic:
    """Evolve the full covariance matrix exactly to time ``t``."""
    return dense_oracle_series(model, init, [t], oracle_cap)[0]

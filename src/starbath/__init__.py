"""starbath: exact Gaussian dynamics and thermodynamics of one harmonic
oscillator coupled to a finite star-configured bath.

The covariance matrix of the whole star is evolved exactly through the
closed-form spectral data of the reduced arrowhead matrix; every oscillator
stays in a Gibbs state with a time-dependent temperature, which makes per-mode
thermodynamic entropies, energy fluxes, and the total entropy production
rate well defined at all times.  The jobs in ``harness`` (run from ``cli``)
write figure data, and the validate job checks those invariants on the
configured run.
"""

from .constants import HBAR, KB
from .model import (
    OhmicBathSpec,
    StarModel,
    discretize_ohmic_bath,
    mean_occupation,
    recurrence_time,
    relaxation_rate,
    thermal_coefficient,
)
from .evolve import (
    CovarianceSnapshot,
    InitialTemperatures,
    ModeBasis,
    evaluate,
    initial_coefficients,
    mode_basis,
    snapshot_series,
)
from .oracle import dense_oracle_at
from .thermo import (
    EnergyFluxes,
    ThermoRecord,
    entropy_kb,
    fluxes_from_cross_terms,
    inverse_temperature,
    mean_energy,
    total_epr,
    totals,
)
from .gksl import (
    GkslParams,
    ep_difference,
    epr_difference,
    gksl_sigma11,
    von_neumann_ep,
    von_neumann_epr,
)
from .config import ExperimentConfig, ConfigError, load_config

__version__ = "0.1.0"

"""Energy-weighted flow matching and diffusion with exact analytic references,
plus Q-weighted iterative policy optimization on tractable offline-RL tasks."""

from .energies import EnergySpec, tilt_mixture
from .grids import DensityGrid, grid_sample, grid_tv_distance
from .metrics import sliced_wasserstein
from .mixtures import GaussianMixture, gmm_density, gmm_sample, path_marginal
from .oracle import GuidedOracle
from .paths import PathSchedule, T_EPS
from .rng import Rng

__all__ = [
    "EnergySpec",
    "DensityGrid",
    "GaussianMixture",
    "GuidedOracle",
    "PathSchedule",
    "Rng",
    "T_EPS",
    "gmm_density",
    "gmm_sample",
    "grid_sample",
    "grid_tv_distance",
    "path_marginal",
    "sliced_wasserstein",
    "tilt_mixture",
]

__version__ = "0.1.0"

"""Dirac cat states in relativistic Landau levels.

Construction of symmetric/antisymmetric bispinor cat states, their
spectral content, unitary evolution with the full fractional-revival
hierarchy (classical, revival, super-revival scales), spatial probability
densities, and the spin-parity correlation observables built from the
Hermitian generators of the Dirac algebra.
"""

from .catstate import (A_MAX, CatExpansion, CatSpec, LevelFit, SpectralFunction,
                       expand, expand_oracle, gaussian_fit, initial_profile,
                       spectral_function)
from .density import SpatialGrid2D, density_closed_form, density_grid, probability_density
from .evolution import (TimeScales, TimeSeries, autocorrelation_series,
                        evolve_profile, kz_for_ab_ratio,
                        survival_amplitude, survival_series, time_scales)
from .landau import (LevelIndex, OneParticleParams, PhysicalParams, energy,
                     energy_derivatives, one_particle_params, spinor)
from .numerics import HermiteScale, find_peaks, hermite_fn, hermite_table
from .observables import (GeneratorId, ObservableSeries, closed_form_series,
                          concurrence_sq, correlation_series, expectation_series,
                          expectation_values, generator_matrix, matrix_element,
                          matrix_elements, mutual_information)

__version__ = "0.1.0"

__all__ = [
    "A_MAX", "CatExpansion", "CatSpec", "LevelFit", "SpectralFunction",
    "expand", "expand_oracle", "gaussian_fit", "initial_profile", "spectral_function",
    "SpatialGrid2D", "density_closed_form", "density_grid", "probability_density",
    "TimeScales", "TimeSeries", "autocorrelation_series", "evolve_profile",
    "kz_for_ab_ratio", "survival_amplitude", "survival_series",
    "time_scales",
    "LevelIndex", "OneParticleParams", "PhysicalParams", "energy",
    "energy_derivatives", "one_particle_params", "spinor",
    "HermiteScale", "find_peaks", "hermite_fn", "hermite_table",
    "GeneratorId", "ObservableSeries", "closed_form_series", "concurrence_sq",
    "correlation_series", "expectation_series", "expectation_values",
    "generator_matrix", "matrix_element", "matrix_elements", "mutual_information",
]

"""Dirac cat states in relativistic Landau levels.

Construction of symmetric/antisymmetric bispinor cat states, their
spectral content, unitary evolution with the full fractional-revival
hierarchy (classical, revival, super-revival scales), spatial probability
densities, and the spin-parity correlation observables built from the
Hermitian generators of the Dirac algebra.  Public names are imported from
their submodules on first use (PEP 562): importing the package loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it, in the order of __all__
_SUBMODULE = {name: module for module, names in {
    "catstate": "A_MAX CatExpansion CatSpec LevelFit SpectralFunction expand gaussian_fit "
                "initial_profile spectral_function",
    "density": "SpatialGrid2D density_closed_form density_grid probability_density",
    "evolution": "TimeScales TimeSeries autocorrelation_series evolve_profile kz_for_ab_ratio "
                 "survival_amplitude survival_series time_scales",
    "landau": "PhysicalParams energy energy_derivatives",
    "numerics": "find_peaks hermite_table",
    "observables": "GeneratorId ObservableSeries closed_form_series concurrence_sq "
                   "correlation_series expectation_series expectation_values mutual_information",
    "oracle": "expand_oracle matrix_elements",
}.items() for name in names.split()}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    # looked up on every use, not cached: a rebound submodule name shows here too
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)

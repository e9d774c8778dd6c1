"""Three-mode optical parametric amplification, three independent ways.

The package simulates the pump/signal/idler three-wave-mixing system with

* exact unitary evolution on a truncated Fock space (:mod:`opasim.quantum`),
* mean-field complex-amplitude dynamics integrated with RK4
  (:mod:`opasim.meanfield`),
* a time-sliced coherent-state propagator product
  (:mod:`opasim.pathintegral`),

plus Boltzmann-seeded ensembles (:mod:`opasim.thermal`) and a config-driven
command line runner (:mod:`opasim.cli`).  The three routes are built to be
checked against one another; the test suite does exactly that.
"""

from .errors import (
    CoarseStepWarning,
    ConfigError,
    DivergenceError,
    OpaSimError,
    ResourceLimitError,
    TruncationWarning,
)
from .fockspace import (
    ModeParams,
    TruncationDims,
    build_annihilation,
    build_hamiltonian,
    build_hamiltonian_sparse,
    coherent_state,
    product_coherent_state,
)
from .meanfield import (
    MeanFieldState,
    Trajectory,
    integrate_rk4,
    manley_rowe,
    undepleted_pump_solution,
)
from .pathintegral import (
    SlicedPath,
    classical_action,
    path_from_trajectory,
    product_propagator,
    stationary_propagator,
)
from .quantum import (
    EvolutionResult,
    evolve_state,
    fluorescence_from_vacuum,
    propagator_exact,
)
from .thermal import (
    EnsembleStats,
    ThermalParams,
    fluorescence_ensemble,
    mean_occupancy,
    sample_thermal_amplitude,
)

__version__ = "0.1.0"

__all__ = [
    "CoarseStepWarning",
    "ConfigError",
    "DivergenceError",
    "EnsembleStats",
    "EvolutionResult",
    "MeanFieldState",
    "ModeParams",
    "OpaSimError",
    "ResourceLimitError",
    "SlicedPath",
    "ThermalParams",
    "Trajectory",
    "TruncationDims",
    "TruncationWarning",
    "build_annihilation",
    "build_hamiltonian",
    "build_hamiltonian_sparse",
    "classical_action",
    "coherent_state",
    "evolve_state",
    "fluorescence_ensemble",
    "fluorescence_from_vacuum",
    "integrate_rk4",
    "manley_rowe",
    "mean_occupancy",
    "path_from_trajectory",
    "product_coherent_state",
    "product_propagator",
    "propagator_exact",
    "sample_thermal_amplitude",
    "stationary_propagator",
    "undepleted_pump_solution",
]

"""Exact reduced dynamics of one or two qubits coupled to a finite spin bath.

The bath Hamiltonian and the coupling commute, so the full evolution splits
over bath spin configurations. Each configuration contributes a known
single- or two-qubit rotation with a thermal weight; summing those closed
forms gives numerically exact trajectories for both product and thermally
correlated initial states, at a cost set by the number of configuration
classes rather than the full Hilbert space.
"""

# set before the submodule imports: experiments reads it for the CSV echo
__version__ = "0.1.0"

from .configspace import Backend, collapse_classes, reduce_weighted
from .errors import (CapacityError, NumericError, ParameterError, SpinbathError,
                     UsageError)
from .experiments import (ExperimentConfig, OracleReport, ResultTable, TimeGrid,
                          list_presets, oracle_check, parse_config_file, preset, run)
from .model import (BathParams, Boundary, ConfigQuantities, SystemParams, Thermal,
                    TwoQubitParams, bath_sums, bloch_components, class_quantities,
                    config_quantities, log_correlation_factor, pure_state)
from .numerics import RandomSpec, gaussian_draw, hermitian_eig
from .oracle import build_hamiltonian, evolve_and_reduce, initial_state
from .single_qubit import bloch_trajectory
from .two_qubit import (bell_state, concurrence, density_trajectory, product_state,
                        validate_density)

__all__ = [
    "__version__",
    "Backend", "collapse_classes", "reduce_weighted",
    "CapacityError", "NumericError", "ParameterError", "SpinbathError", "UsageError",
    "ExperimentConfig", "OracleReport", "ResultTable", "TimeGrid",
    "list_presets", "oracle_check", "parse_config_file", "preset", "run",
    "BathParams", "Boundary", "ConfigQuantities", "SystemParams", "Thermal",
    "bath_sums", "bloch_components", "class_quantities", "config_quantities",
    "log_correlation_factor", "pure_state",
    "RandomSpec", "gaussian_draw", "hermitian_eig",
    "build_hamiltonian", "evolve_and_reduce", "initial_state",
    "bloch_trajectory",
    "TwoQubitParams", "bell_state", "concurrence", "density_trajectory",
    "product_state", "validate_density",
]

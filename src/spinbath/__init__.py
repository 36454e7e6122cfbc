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

from .configspace import Backend
# not public: benchmark/workloads.py imports collapse_classes from the package
from .configspace import collapse_classes
from .errors import (CapacityError, NumericError, ParameterError, SpinbathError,
                     UsageError)
from .experiments import (ExperimentConfig, OracleReport, ResultTable, TimeGrid,
                          list_presets, oracle_check, parse_config_file, preset, run)
from .model import (BathParams, Boundary, SystemParams, Thermal, TwoQubitParams,
                    bloch_components, pure_state)
from .numerics import RandomSpec, gaussian_draw
from .oracle import build_hamiltonian, evolve_and_reduce, initial_state
from .single_qubit import bloch_trajectory
from .two_qubit import bell_state, concurrence, density_trajectory, product_state

# what a user of the model calls; other module-level names are internal
__all__ = [
    "__version__",
    "Backend",
    "CapacityError", "NumericError", "ParameterError", "SpinbathError", "UsageError",
    "ExperimentConfig", "OracleReport", "ResultTable", "TimeGrid",
    "list_presets", "oracle_check", "parse_config_file", "preset", "run",
    "BathParams", "Boundary", "SystemParams", "Thermal", "TwoQubitParams",
    "bloch_components", "pure_state",
    "RandomSpec", "gaussian_draw",
    "build_hamiltonian", "evolve_and_reduce", "initial_state",
    "bloch_trajectory",
    "bell_state", "concurrence", "density_trajectory", "product_state",
]

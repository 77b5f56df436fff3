"""Learning and online estimation of coupled disturbances.

The package separates a disturbance delta(x, t) into constant
coefficients and known Chebyshev tensor structures, identifies the
coefficients by regularized least squares on trajectory data, and
estimates the disturbance online with a higher-order observer whose
error dynamics carry prescribed eigenvalues.
"""

from .basis import BasisConfig, cheb_series, flat_to_multi, structure_matrices
from .errors import ConfigError, CoupledDoError, DataError, NumericalError
from .learner import (FitReport, LearningConfig, SeparatedModel, SweepCell, SweepConfig,
                      TrajectoryDataset, evaluate, fit_rls, rng_stream, split_dataset,
                      sweep, synthesize_dataset, targets_from_trajectory)
from .observer import Hodo, UnobservableError
from .oracles import ackermann_gain, rk4_step
from .sim import (ScenarioConfig, ScenarioResult, disturbance, disturbance_box,
                  generate_training_run, newton_velocity_channel, pd_control,
                  registered_disturbances, run_scenario)

__version__ = "0.1.0"

__all__ = [
    "BasisConfig", "cheb_series", "flat_to_multi", "structure_matrices",
    "ConfigError", "CoupledDoError", "DataError", "NumericalError",
    "FitReport", "LearningConfig", "SeparatedModel", "SweepCell", "SweepConfig",
    "TrajectoryDataset", "evaluate", "fit_rls", "rng_stream",
    "split_dataset", "sweep", "synthesize_dataset", "targets_from_trajectory",
    "Hodo", "UnobservableError", "ackermann_gain",
    "ScenarioConfig", "ScenarioResult", "disturbance",
    "disturbance_box", "generate_training_run", "newton_velocity_channel",
    "pd_control", "registered_disturbances", "rk4_step", "run_scenario",
    "__version__",
]

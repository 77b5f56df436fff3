"""Learning and online estimation of coupled disturbances.

The package separates a disturbance delta(x, t) of one state channel
into constant coefficients and known Chebyshev structures in the state
and in time, identifies the coefficients by regularized least squares on
trajectory data, and estimates the disturbance online with a
higher-order observer whose error dynamics carry prescribed eigenvalues.

Each module imports only modules listed before it: ``errors``, ``basis``,
``learner`` (with the disturbance registry), ``observer`` (on ``errors``
alone), ``sim``, ``csvblocks``, ``fileio``, ``cli``.  ``oracles``, the
reference checks that ``verify`` loads, is imported by no other module:
take ``ackermann_gain`` and ``rk4_step`` from :mod:`coupled_do.oracles`.
"""

from .basis import BasisConfig, cheb_series, structure_matrices
from .errors import ConfigError, CoupledDoError, DataError, NumericalError
from .learner import (FitReport, LearningConfig, SeparatedModel, SweepCell,
                      TrajectoryDataset, disturbance, disturbance_box, evaluate, fit_rls,
                      rng_stream, split_dataset, sweep, synthesize_dataset,
                      targets_from_trajectory)
from .observer import Hodo, UnobservableError
from .sim import (ScenarioConfig, ScenarioResult, generate_training_run,
                  newton_velocity_channel, run_scenario)

__version__ = "0.1.0"

__all__ = [
    "BasisConfig", "cheb_series", "structure_matrices",
    "ConfigError", "CoupledDoError", "DataError", "NumericalError",
    "FitReport", "LearningConfig", "SeparatedModel", "SweepCell",
    "TrajectoryDataset", "disturbance", "disturbance_box", "evaluate", "fit_rls",
    "rng_stream", "split_dataset", "sweep", "synthesize_dataset",
    "targets_from_trajectory",
    "Hodo", "UnobservableError",
    "ScenarioConfig", "ScenarioResult", "generate_training_run",
    "newton_velocity_channel", "run_scenario",
    "__version__",
]

"""4-compartment permeability-limited brain PBPK model with inverse-PINN
and differential-evolution parameter estimation."""

from .params import DrugParams, ModelVariant, SystemParams
from .dataio import ConcentrationSeries, PlasmaProfile
from .model import assemble_matrix
from .solvers import (InitialState, Method, PlasmaSpec, SolveConfig,
                      expm_propagate, solve, synthesize_dataset)
from .training import (BoundedParam, EstimationSpec, LossWeights, TrainConfig,
                       default_estimation_spec, train)
from .defit import DEConfig, differential_evolution, fit_de

__all__ = [
    "DrugParams", "SystemParams", "ModelVariant",
    "ConcentrationSeries", "PlasmaProfile",
    "assemble_matrix",
    "InitialState", "Method", "PlasmaSpec", "SolveConfig",
    "expm_propagate", "solve", "synthesize_dataset",
    "BoundedParam", "EstimationSpec", "LossWeights", "TrainConfig",
    "default_estimation_spec", "train",
    "DEConfig", "differential_evolution", "fit_de",
]

__version__ = "0.1.0"

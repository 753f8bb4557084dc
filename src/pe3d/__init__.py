"""pe3d: a desk-scale simulator and property-test harness for the simplified
3D primitive equations with physical boundary conditions.

Submodules:
    grid         grid geometry, difference operators, quadrature weights
    fields       horizontal velocity fields, boundary conditions, diagnostics
    norms        H / V / L6 norms and norm reports
    projection   constraint projection onto the discrete space H
    sampling     smooth constraint-compatible field construction
    dynamics     nonlinear term, IMEX stepper, the integration loop, S(t)
    verification manufactured-solution convergence ladders
    estimates    growth control, absorbing ball, decay times, continuity
    kicks        kick-forced Markov chain and Wasserstein distance
    config       run configuration parsing/serialization
    experiments  experiment drivers
    cli          command-line entry point
"""

__version__ = "0.1.0"

from .grid import GridSpec
from .fields import HorizontalField
from .dynamics import SimulationParams, integrate, solve_S
from .config import RunConfig, parse_config, serialize_config
from .experiments import run_experiment

__all__ = ["GridSpec", "HorizontalField", "SimulationParams", "integrate", "solve_S",
           "RunConfig", "parse_config", "serialize_config", "run_experiment",
           "__version__"]

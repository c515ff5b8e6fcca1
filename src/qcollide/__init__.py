"""Collision-model simulation of open quantum dynamics driven by bosonic
baths with structured (colored) couplings, including delayed coherent
feedback, with exact continuous-time references and CP-divisibility
diagnostics.

The package namespace holds the user-facing API.  Engine internals
(``CollisionPlan``, ...) are importable from ``qcollide.engine``.
"""

from .config import ConfigError, CouplingConfig, SimulationConfig, load_config, parse_config
from .coupling import (
    CouplingSpec,
    WeightMatrix,
    collision_weights,
    coupling_strengths,
    custom_coupling,
    mirror_coupling,
    white_coupling,
)
from .divisibility import DivisibilityReport, analyze
from .engine import Representation, Stepper, Trajectory, run
from .reference import DdeSolution, solve_dde, white_amplitude

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CouplingConfig",
    "SimulationConfig",
    "load_config",
    "parse_config",
    "CouplingSpec",
    "WeightMatrix",
    "collision_weights",
    "coupling_strengths",
    "custom_coupling",
    "mirror_coupling",
    "white_coupling",
    "DivisibilityReport",
    "analyze",
    "Representation",
    "Stepper",
    "Trajectory",
    "run",
    "DdeSolution",
    "solve_dde",
    "white_amplitude",
]

"""Collision-model simulation of open quantum dynamics driven by bosonic
baths with structured (colored) couplings, including delayed coherent
feedback, with exact continuous-time references and CP-divisibility
diagnostics."""

from .config import ConfigError, CouplingConfig, SimulationConfig, load_config, parse_config, serialize_config
from .coupling import (
    CouplingSpec,
    WeightMatrix,
    collision_weights,
    coupling_strengths,
    custom_coupling,
    mirror_coupling,
    white_coupling,
)
from .divisibility import (
    DivisibilityReport,
    IntermediateMap,
    QubitChannel,
    analyze,
    channel_from_amplitude,
    choi_matrix,
    intermediate_map,
)
from .engine import (
    CollisionPlan,
    Representation,
    Stepper,
    Trajectory,
    build_plan,
    run,
    step_full,
    step_single_excitation,
)
from .reference import DdeSolution, dde_numeric_oracle, solve_dde, white_amplitude
from .states import (
    QubitDensityMatrix,
    SingleExcitationState,
    TruncatedFockState,
    embed_single_excitation,
    init_single_excitation,
    reduced_qubit_state,
)

__version__ = "0.1.0"

__all__ = [
    "CollisionPlan",
    "ConfigError",
    "CouplingConfig",
    "CouplingSpec",
    "DdeSolution",
    "DivisibilityReport",
    "IntermediateMap",
    "QubitChannel",
    "QubitDensityMatrix",
    "Representation",
    "SimulationConfig",
    "SingleExcitationState",
    "Stepper",
    "Trajectory",
    "TruncatedFockState",
    "WeightMatrix",
    "analyze",
    "build_plan",
    "channel_from_amplitude",
    "choi_matrix",
    "collision_weights",
    "coupling_strengths",
    "custom_coupling",
    "dde_numeric_oracle",
    "embed_single_excitation",
    "init_single_excitation",
    "intermediate_map",
    "load_config",
    "mirror_coupling",
    "parse_config",
    "reduced_qubit_state",
    "run",
    "serialize_config",
    "solve_dde",
    "step_full",
    "step_single_excitation",
    "white_amplitude",
    "white_coupling",
]

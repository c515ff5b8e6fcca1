"""The package surface: the user-facing names, and none of the test oracles."""

import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil

import pytest

import qcollide
from qcollide.config import SimulationConfig
from qcollide.engine import CollisionPlan

PUBLIC = {
    "ConfigError", "CouplingConfig", "SimulationConfig", "load_config", "parse_config",
    "CouplingSpec", "WeightMatrix", "collision_weights", "coupling_strengths",
    "custom_coupling", "mirror_coupling", "white_coupling",
    "DivisibilityReport", "analyze",
    "Representation", "Stepper", "Trajectory", "run",
    "DdeSolution", "solve_dde", "white_amplitude",
}

# oracles that live in tests/conftest.py, and code that no longer exists
NOT_IN_PACKAGE = (
    "_apply_factor", "choi_matrix", "QubitChannel", "channel_from_amplitude",
    "IntermediateMap", "intermediate_map", "QubitDensityMatrix", "reduced_qubit_state",
    "dde_numeric_oracle", "serialize_config", "samples_csv", "fmt",
    "TruncatedFockState", "embed_single_excitation", "step_full",
    "SingleExcitationState", "init_single_excitation", "touched", "dense_propagator",
    "step_single_excitation", "BLOCK_MIN_GAP", "_collide", "_collide_steps", "_collide_blocks",
    "build_plan", "_exact_strengths", "_smooth_lag_weight",
)

MODULES = [
    importlib.import_module(f"qcollide.{info.name}")
    for info in pkgutil.iter_modules(qcollide.__path__)
]


def test_top_level_exports_are_the_public_api():
    assert len(qcollide.__all__) == len(PUBLIC) == 21
    assert set(qcollide.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(qcollide, name) is not None


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module", [qcollide, *MODULES], ids=lambda m: m.__name__)
def test_test_oracles_are_not_in_the_package(module):
    for name in NOT_IN_PACKAGE:
        assert not hasattr(module, name), f"{module.__name__} still defines {name!r}"


def test_deleted_plan_property():
    for name in ("min_ancilla", "propagator", "touched", "delay_gap"):
        assert not hasattr(CollisionPlan, name), name


def test_plan_is_a_record_of_lags_and_strengths():
    assert [f.name for f in dataclasses.fields(CollisionPlan)] == [
        "lags", "gs", "omega0", "dt", "n_steps"]
    for name in ("strengths", "couplings", "_propagators"):
        assert not hasattr(CollisionPlan, name), name
    for name in ("check_window", "check_run_budget", "check_strengths", "check_fock_budget"):
        assert not hasattr(SimulationConfig, name), name


def test_trajectory_stores_eps_and_norms():
    # steps, times and excited_population are properties computed from these
    assert [f.name for f in dataclasses.fields(qcollide.Trajectory)] == [
        "eps", "norms", "dt", "wall_time_s", "config", "notes"]
    for name in ("steps", "times", "excited_population"):
        assert isinstance(getattr(qcollide.Trajectory, name), property), name


def test_deleted_module():
    assert importlib.util.find_spec("qcollide.states") is None


def test_window_and_mirror_recursion_are_not_options():
    # both stay JSON spellings that parse_config reads and drops; see test_benchmark_configs
    assert [m.value for m in qcollide.Representation] == ["single_excitation", "full_fock"]
    assert "window" not in [f.name for f in dataclasses.fields(SimulationConfig)]
    with pytest.raises(TypeError, match="window"):
        SimulationConfig(qcollide.CouplingConfig("white", 1.0), dt=0.1, n_steps=3, window=3)


def test_weight_matrix_holds_only_what_is_read():
    assert [f.name for f in dataclasses.fields(qcollide.WeightMatrix)] == [
        "dt", "lags", "w", "warnings"]
    for name in ("n_steps", "max_lag", "scaled", "entry", "lags_present"):
        assert not hasattr(qcollide.WeightMatrix, name), name


def test_analyze_reads_the_cp_tolerance_directly():
    assert list(inspect.signature(qcollide.analyze).parameters) == ["trajectory"]

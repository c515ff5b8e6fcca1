"""The benchmark's configs parse, and the two old spellings they write change no run.

``perfbench/workloads.py`` (read here, never changed) writes two JSON keys
that no longer change a run: ``window`` into every windowed ``fock_oracle``
config, and ``"representation": "mirror_recursion"`` into two
``feedback_sweep`` tasks a cycle.  The benchmark parses every config before
its first task, so a refusal of either key would fail whole benchmark runs.
That is the one reason ``parse_config`` still reads both and drops them.
Once the benchmark stops writing them (see ROADMAP.md),
``test_the_benchmark_still_writes_both_spellings`` fails, and both spellings
can become refusals that name the key.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qcollide import parse_config, run

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEEDS = (1, 2, 3)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
CONFIGS = [
    data
    for name in ("feedback_sweep", "fock_oracle")
    for seed in SEEDS
    for data in workloads.configs_of(workloads.build(name, seed))
] + list(workloads.CLI_CONFIGS.values())
RECURSION = [data for data in CONFIGS if data.get("representation") == "mirror_recursion"]
WINDOWED = [data for data in CONFIGS if "window" in data]


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


def test_every_config_parses():
    for data in CONFIGS:
        parse_config(data)


def test_the_benchmark_still_writes_both_spellings():
    assert len(RECURSION) == 2 * len(SEEDS)
    assert len(WINDOWED) == 15 * len(SEEDS) + 1  # the cli pass's fock_oracle config too


@pytest.mark.parametrize("key,configs", [("representation", RECURSION), ("window", WINDOWED)])
def test_dropped_spelling_changes_no_run(key, configs):
    for data in configs:
        spelled, plain = run(parse_config(data)), run(parse_config(_without(data, key)))
        assert spelled.eps.tobytes() == plain.eps.tobytes()
        assert spelled.norms.tobytes() == plain.norms.tobytes()

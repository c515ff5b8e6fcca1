"""Spans around the calls into each qcollide layer, recorded from outside.

Each public function is wrapped where its caller looks it up: engine imports
``collision_weights`` by name, so the span sits on
``qcollide.engine.collision_weights``; the benchmark's own tasks call through
module attributes (``engine.run``, ``reference.solve_dde``, ...), so those
spans sit on the defining module.  A name that a later version of the package
no longer has is reported as absent instead of failing the run.

Spans are kept in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

# (object path, attribute, layer).  The layer "engine.eigh" is numpy's eigh,
# called from engine._expm_hermitian to build the collision unitaries.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("qcollide.config", "parse_config", "config"),
    ("qcollide.engine", "run", "engine"),
    ("qcollide.engine", "step_single_excitation", "engine"),
    ("qcollide.engine", "step_full", "engine"),
    ("qcollide.engine", "mirror_recursion_step", "engine"),
    ("qcollide.engine", "collision_weights", "coupling"),
    ("qcollide.engine", "coupling_strengths", "coupling"),
    ("qcollide.engine", "time_kernel", "coupling"),
    ("qcollide.engine", "init_single_excitation", "states"),
    ("qcollide.states.TruncatedFockState", "add_mode", "states.fock"),
    ("qcollide.states.TruncatedFockState", "retire_mode", "states.fock"),
    ("numpy.linalg", "eigh", "engine.eigh"),
    ("qcollide.coupling", "collision_weights", "coupling"),
    ("qcollide.coupling", "time_kernel", "coupling"),
    ("qcollide.reference", "solve_dde", "reference.solve"),
    ("qcollide.reference.DdeSolution", "__call__", "reference.eval"),
    ("qcollide.reference", "white_amplitude", "reference.eval"),
    ("qcollide.divisibility", "analyze", "divisibility"),
    ("qcollide.export", "weights_csv", "export.format"),
    ("qcollide.export", "trajectory_csv", "export.format"),
    ("qcollide.export", "trajectory_summary", "export.format"),
    ("qcollide.export", "summary_json", "export.format"),
    ("qcollide.export", "report_json", "export.format"),
    ("qcollide.export", "write_text", "export.write"),
)

TASK = "task"  # root span of one task; its self time is the benchmark's own checks


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` plus attribute ``C`` where needed."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records (name, layer, parent, start, end) spans and per-call counts."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, str, int, float, float]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, layer, parent, 0.0, 0.0))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, layer, parent, start, end)

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, layer, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for path, attr, layer in PATCHES:
            name = f"{path}.{attr}"
            try:
                owner = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.absent:
                    self.absent.append(name)
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """Self time and call count per layer, and the summed task time."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        task_s = 0.0
        for i, (_, layer, parent, start, end) in enumerate(self.spans):
            self_s[layer] += end - start - child[i]
            calls[layer] += 1
            if layer == TASK:
                task_s += end - start
        return self_s, calls, task_s


def _count_run(counts, args, traj) -> None:
    config = args[0]
    steps = len(traj.eps) - 1
    counts["engine.steps"] += steps
    if config.representation.value == "full_fock" or (
        config.representation.value == "single_excitation" and config.stepper.value == "exact"
    ):
        counts["unitary_steps"] += steps


def _count_weights(counts, args, weights) -> None:
    counts["coupling.tables"] += 1
    counts["coupling.lags"] += len(weights.lags_present)


def _count_register(counts, args, result) -> None:
    counts["states.register_peak_amplitudes"] = max(
        counts["states.register_peak_amplitudes"], args[0].amplitudes.size
    )


def _count_points(counts, args, values) -> None:
    counts["reference.eval_points"] += np.size(values)


def _count_scanned(counts, args, report) -> None:
    counts["divisibility.steps_scanned"] += len(report.cp_flags)


def _count_bytes(counts, args, path) -> None:
    counts["export.bytes"] += os.path.getsize(path)


_COUNTERS: Dict[str, Callable] = {
    "qcollide.engine.run": _count_run,
    "qcollide.engine.collision_weights": _count_weights,
    "qcollide.states.TruncatedFockState.add_mode": _count_register,
    "qcollide.reference.DdeSolution.__call__": _count_points,
    "qcollide.reference.white_amplitude": _count_points,
    "qcollide.divisibility.analyze": _count_scanned,
    "qcollide.export.write_text": _count_bytes,
}


def layer_metrics(tracer: Tracer, n_tasks: int) -> Tuple[Dict[str, tuple], float]:
    """Per-task means of each layer's self time and counts, as (value, unit).

    Also returns the share of the summed task time that the layer spans
    account for (the rest is the benchmark's own checks between calls).
    """
    self_s, calls, task_s = tracer.self_times()
    counts = tracer.counts
    per = 1.0 / n_tasks
    steps = counts["engine.steps"]
    eigh_calls = calls.get("engine.eigh", 0)
    unitary_steps = counts["unitary_steps"]
    out = {
        "coupling.discretize_s": (self_s["coupling"] * per, "s"),
        "coupling.lags": (counts["coupling.lags"] / max(counts["coupling.tables"], 1), "count"),
        "engine.self_s": (self_s["engine"] * per, "s"),
        "engine.steps": (steps * per, "count"),
        "engine.step_us": (1e6 * self_s["engine"] / max(steps, 1), "us"),
        "engine.eigh_calls": (eigh_calls * per, "count"),
        "engine.eigh_s": (self_s["engine.eigh"] * per, "s"),
        "engine.unitary_hit_ratio": (
            1.0 - eigh_calls / unitary_steps if unitary_steps else 0.0, "1"),
        "states.fock_mode_ops": (calls.get("states.fock", 0) * per, "count"),
        "states.fock_mode_s": (self_s["states.fock"] * per, "s"),
        "states.register_peak_amplitudes": (int(counts["states.register_peak_amplitudes"]),
                                            "count"),
        "reference.solve_s": (self_s["reference.solve"] * per, "s"),
        "reference.eval_s": (self_s["reference.eval"] * per, "s"),
        "reference.eval_points": (counts["reference.eval_points"] * per, "count"),
        "divisibility.analyze_s": (self_s["divisibility"] * per, "s"),
        "divisibility.steps_scanned": (counts["divisibility.steps_scanned"] * per, "count"),
        "export.format_s": (self_s["export.format"] * per, "s"),
        "export.write_s": (self_s["export.write"] * per, "s"),
        "export.bytes": (counts["export.bytes"] * per, "count"),
    }
    layers = sum(v for k, v in self_s.items() if k not in (TASK, "config"))
    accounted = layers / task_s if task_s > 0 else 0.0
    return out, accounted


def config_parse_seconds(tracer: Tracer) -> float:
    self_s, _, _ = tracer.self_times()
    return self_s["config"]

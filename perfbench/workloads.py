"""Seeded task lists and the per-task work of each benchmark workload.

A task is one user job.  It makes the public qcollide calls, in the order the
``qcollide`` subcommands make them, and then checks its own output.  A
workload's task list (its *cycle*) has a fixed structure: step sizes, run
lengths, steppers and register sizes are the same for every seed, so the cost
of a cycle does not depend on the seed.  The seed draws the physics (rates
and phases) and the order of the cycle.

Each workload also has a *corner* task with fixed physics: the parameter
corner with the largest discretization error on that workload.  Every seed
therefore contains the worst case, and ``max_err`` measures the program, not
the luck of the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional

import numpy as np

from qcollide import coupling, divisibility, engine, export, reference

# |eps - exact reference| <= C * dt, per stepper.  Worst observed over the
# parameter ranges below: 0.46 (exact) and 4.6 (second order, phi = 0).
ERROR_PER_DT = {"exact": 1.0, "second_order": 10.0}
NORM_DRIFT_MAX = 1e-9  # exact stepper only; the second-order map is not unitary
FOCK_GAP_MAX = 1e-9


class GateFailure(Exception):
    """A task ran but its output missed a correctness gate."""


@dataclass(frozen=True)
class Task:
    """One job of a workload cycle.

    ``kind`` names the structural class: tasks of one kind differ only in
    seeded physics, so they cost the same and use the same memory.
    """

    kind: str
    config: dict
    oracle_of: Optional[dict] = None  # fock_oracle: config of the sector run


@dataclass
class Outcome:
    """What a task reports back: collision steps run and its reference error."""

    steps: int
    err: float


@dataclass
class Workload:
    """A cycle of tasks, the function that runs one, and the memory-pass kinds.

    ``memory_kinds`` are the kinds whose tasks hold the workload's largest
    allocations; ``None`` means every kind.
    """

    tasks: List[Task]
    run_task: Callable[[Task, dict, Path], Outcome]
    memory_kinds: Optional[FrozenSet[str]] = None


# --------------------------------------------------------------- generators


def _mirror(gamma: float, phi: float, d: int, t_max: float, stepper: str,
            representation: str = "single_excitation") -> dict:
    return {
        "coupling": {"shape": "mirror", "gamma": gamma, "phi": phi, "tau": 1.0},
        "dt": 1.0 / d, "t_max": t_max, "stepper": stepper,
        "representation": representation,
    }


def _white(gamma: float, dt: float, t_max: float, stepper: str) -> dict:
    return {"coupling": {"shape": "white", "gamma": gamma}, "dt": dt, "t_max": t_max,
            "stepper": stepper}


def _feedback_tasks(rng: random.Random) -> List[Task]:
    """Mirror feedback (tau = 1) over the delay ladder d = 64..512, plus white.

    Runs last 20 tau at d = 64 and 128 and 10 tau at d = 256 and 512.  In
    cost order: the six d = 64 tasks (corner included) and the d = 512
    recursion, then seven tasks of near-equal cost (exact at d = 128 and 256,
    second order at d = 128) that hold the median with at least one task of
    margin on either side, then the four single-excitation tasks at d = 512
    (near-equal in cost), which are the slowest.
    """
    slots = [
        (64, "exact"), (64, "second"), (64, "recursion"), (64, "white_exact"),
        (64, "white_second"),
        (128, "exact"), (128, "second"),
        (256, "exact"), (256, "exact"), (256, "exact"), (256, "exact"), (256, "exact"),
        (512, "exact"), (512, "second"), (512, "second"), (512, "second"), (512, "recursion"),
    ]
    tasks = []
    for d, form in slots:
        t_max = 20.0 if d <= 128 else 10.0
        gamma = rng.uniform(0.25, 2.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if form.startswith("white"):
            stepper = "exact" if form == "white_exact" else "second_order"
            cfg = _white(gamma, 1.0 / d, t_max, stepper)
        elif form == "recursion":
            cfg = _mirror(gamma, phi, d, t_max, "second_order", "mirror_recursion")
        else:
            cfg = _mirror(gamma, phi, d, t_max, "exact" if form == "exact" else "second_order")
        tasks.append(Task(kind=f"{form}-d{d}", config=cfg))
    # corner: gamma*tau = 2 and phi = 0 at the coarsest step is the largest
    # error over the sampled ranges (second order; the recursion matches it)
    tasks.append(Task("second-d64", _mirror(2.0, 0.0, 64, 20.0, "second_order")))
    rng.shuffle(tasks)
    return tasks


def _fock_task(kind: str, sector: dict, window: Optional[int], n_max: int) -> Task:
    fock = dict(sector, representation="full_fock", n_max=n_max)
    if window is not None:
        fock["window"] = window
    return Task(kind=kind, config=fock, oracle_of=sector)


def _fock_tasks(rng: random.Random) -> List[Task]:
    """Full-Fock oracle runs, each against the sector run of the same config.

    Mirror tasks use tau = 1 and dt = 1/(window - 1) for t_max = 3 tau.  The
    three window-7 tasks hold the median, and the window-8 and window-9 tasks
    (six a cycle) are the slowest.  The corner (window 4, so the coarsest dt,
    gamma = 2, phi = pi) has the largest reference error of the exact stepper.
    """
    tasks = []
    for window, n_max in ((4, 1), (5, 1), (6, 1), (7, 1), (7, 1), (7, 1), (9, 1),
                          (8, 1), (8, 1), (8, 1), (8, 1), (8, 1), (4, 2), (5, 2)):
        sector = _mirror(rng.uniform(0.25, 2.0), rng.uniform(0.0, 2.0 * math.pi),
                         window - 1, 3.0, "exact")
        tasks.append(_fock_task(f"w{window}-n{n_max}", sector, window, n_max))
    for n_max in (1, 2):
        sector = _white(rng.uniform(0.25, 2.0), 1 / 16, 8.0, "exact")
        tasks.append(_fock_task(f"white-n{n_max}", sector, None, n_max))
    tasks.append(_fock_task("w4-n1", _mirror(2.0, math.pi, 3, 3.0, "exact"), 4, 1))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------- task work


def weight_table(spec, dt: float, n_steps: int):
    """Collision weights of a coupling, as ``qcollide kernel`` computes them."""
    kernel = coupling.time_kernel(spec) if hasattr(coupling, "time_kernel") else spec
    return coupling.collision_weights(kernel, dt, n_steps)


def reference_on_grid(config, times: np.ndarray) -> np.ndarray:
    """Exact amplitude on the trajectory grid, as ``qcollide converge`` builds it."""
    c = config.coupling
    omega0 = 0.0 if config.rotating_frame else config.omega0
    if c.shape == "mirror":
        solution = reference.solve_dde(omega0, c.gamma, c.phi, c.tau, float(times[-1]))
        return np.asarray(solution(times))
    return np.asarray(reference.white_amplitude(omega0, c.gamma, times))


def _check_run(traj, config) -> None:
    if not np.all(np.isfinite(traj.eps)):
        raise GateFailure("non-finite eps")
    if config.stepper.value == "exact" and traj.max_norm_drift > NORM_DRIFT_MAX:
        raise GateFailure(f"norm drift {traj.max_norm_drift:.3g} > {NORM_DRIFT_MAX}")


def _reference_error(traj, config) -> float:
    ref = reference_on_grid(config, traj.times)
    err = float(np.max(np.abs(traj.eps - ref)))
    bound = ERROR_PER_DT[config.stepper.value] * config.dt
    if not err <= bound:
        raise GateFailure(f"|eps - reference| = {err:.3g} > {bound:.3g}")
    return err


def feedback_task(task: Task, parsed: dict, outdir: Path) -> Outcome:
    """simulate + witness: run, reference, analyze, then CSV and two JSON files."""
    config = parsed[id(task.config)]
    traj = engine.run(config)
    err = _reference_error(traj, config)
    report = divisibility.analyze(traj)
    export.write_text(outdir / "trajectory.csv", export.trajectory_csv(traj))
    export.write_text(outdir / "summary.json",
                      export.summary_json(export.trajectory_summary(traj)))
    export.write_text(outdir / "witness.json", export.report_json(report, traj.config))
    _check_run(traj, config)
    return Outcome(steps=len(traj.eps) - 1, err=err)


def fock_task(task: Task, parsed: dict, outdir: Path) -> Outcome:
    """Full-Fock run cross-checked against the sector run and the reference."""
    config, sector = parsed[id(task.config)], parsed[id(task.oracle_of)]
    fock = engine.run(config)
    traj = engine.run(sector)
    gap = float(np.max(np.abs(fock.eps - traj.eps)))
    err = _reference_error(fock, config)
    report = divisibility.analyze(fock)
    export.write_text(outdir / "witness.json", export.report_json(report, fock.config))
    if not gap <= FOCK_GAP_MAX:
        raise GateFailure(f"Fock and sector trajectories differ by {gap:.3g}")
    _check_run(fock, config)
    _check_run(traj, sector)
    return Outcome(steps=len(fock.eps) + len(traj.eps) - 2, err=err)


# ------------------------------------------------------------ CLI configs

# one fixed, small config per workload, and a custom kernel with a smooth
# tail, for the in-process CLI pass
CLI_CONFIGS: Dict[str, dict] = {
    "feedback_sweep": _mirror(1.0, 0.7, 64, 5.0, "exact"),
    "custom_kernel": {
        "coupling": {
            "shape": "custom", "gamma": 0.8, "deltas": [[0.0, 0.7, 0.0], [1.0, -0.4, 0.2]],
            "smooth": {"form": "exponential", "kappa": 2.0, "support": 2.0},
        },
        "dt": 1 / 32, "t_max": 10.0, "stepper": "exact",
    },
    "fock_oracle": dict(_mirror(1.0, 0.7, 4, 3.0, "exact"), representation="full_fock",
                        n_max=1, window=5),
}
CONVERGE_DT_LIST = "0.0625,0.03125,0.015625"  # converge runs on feedback_sweep's config


# Every feedback_sweep kind allocates in proportion to its step count
# (trajectory arrays, CSV and JSON text), so the longest runs, at d = 512,
# hold the peak.  fock_oracle measures every kind.
_FEEDBACK_MEMORY = frozenset({"exact-d512", "second-d512", "recursion-d512"})


def build(name: str, seed: int) -> Workload:
    """The workload's cycle for ``seed``; the same seed gives the same tasks."""
    rng = random.Random(f"{name}:{seed}")
    if name == "feedback_sweep":
        return Workload(_feedback_tasks(rng), feedback_task, _FEEDBACK_MEMORY)
    if name == "fock_oracle":
        return Workload(_fock_tasks(rng), fock_task)
    raise ValueError(f"unknown workload {name!r}")


def configs_of(workload: Workload) -> List[dict]:
    """Every config a cycle parses, oracle sector configs included."""
    out = []
    for task in workload.tasks:
        out.append(task.config)
        if task.oracle_of is not None:
            out.append(task.oracle_of)
    return out

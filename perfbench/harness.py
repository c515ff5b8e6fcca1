"""Passes of one benchmark run: set-up, memory, timed, traced and CLI.

``run.py`` pins BLAS threads and puts the checkout's ``src`` on the path
before this module is imported.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import tracing
import workloads
from qcollide import config as qconfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
# The slower half of at least five cycles keeps three.  Each workload puts its
# slowest kinds in four or more tasks a cycle, so the ten slowest kept samples
# are of those kinds.
MIN_CYCLES = 5
WARM_UP_S = 5.0  # the end-to-end run warms up in its memory pass instead

# Time to import qcollide in a fresh interpreter and parse the cycle's configs.
SETUP_CODE = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
text = open(sys.argv[2]).read()
start = time.perf_counter()
import qcollide
from qcollide.config import parse_config
for data in json.loads(text):
    parse_config(data)
print(time.perf_counter() - start)
"""


@dataclass
class Cycle:
    """One pass over a workload's task list: wall time and steps of each task."""

    times: List[float] = field(default_factory=list)
    steps: List[int] = field(default_factory=list)  # 0 for a failed task


@dataclass
class PassResult:
    cycles: List[Cycle] = field(default_factory=list)
    errs: List[float] = field(default_factory=list)  # reference error of each passed task
    failed: int = 0

    @property
    def times(self) -> List[float]:
        return [t for cycle in self.cycles for t in cycle.times]

    @property
    def steps(self) -> int:
        return sum(sum(cycle.steps) for cycle in self.cycles)

    def slower_half(self) -> "PassResult":
        """The slower half of the cycles, by cycle wall time.

        The host is shared.  Its slow spells recur in every run at a steady
        level, while the share of fast spells varies from run to run, so
        statistics over the slower cycles repeat better between runs.  Whole
        cycles are kept, so the task mix is unchanged.
        """
        ordered = sorted(self.cycles, key=lambda cycle: sum(cycle.times))
        return PassResult(cycles=ordered[len(ordered) // 2:])


def _fail(what: str, exc: BaseException) -> None:
    print(f"FAILED {what}: {exc}", file=sys.stderr)
    if not isinstance(exc, workloads.GateFailure):
        traceback.print_exc(file=sys.stderr)


def run_one(workload, task, parsed, outdir: Path, result: PassResult, cycle: Cycle,
            tracer=None) -> None:
    steps = 0
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workload.run_task(task, parsed, outdir)
        else:
            outcome = tracer.span(task.kind, tracing.TASK, workload.run_task, task, parsed, outdir)
    except Exception as exc:  # noqa: BLE001 - a failed task is counted, the run goes on
        result.failed += 1
        _fail(f"task {task.kind} {json.dumps(task.config)}", exc)
    else:
        steps = outcome.steps
        result.errs.append(outcome.err)
    cycle.times.append(time.perf_counter() - start)
    cycle.steps.append(steps)


def run_cycle(workload, parsed, outdir: Path, result: PassResult, tracer=None) -> None:
    cycle = Cycle()
    for task in workload.tasks:
        run_one(workload, task, parsed, outdir, result, cycle, tracer)
    result.cycles.append(cycle)


def timed_pass(workload, parsed, outdir: Path, seconds: float) -> PassResult:
    """Whole cycles until ``seconds`` have passed and at least MIN_CYCLES ran."""
    result = PassResult()
    start = time.perf_counter()
    while len(result.cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        run_cycle(workload, parsed, outdir, result)
    return result


def memory_pass(workload, parsed, outdir: Path) -> tuple:
    """Largest tracemalloc peak of one task of each memory kind, in MB.

    Tasks of one kind have the same structure, so they allocate the same.
    This pass is separate from the timed ones: tracemalloc slows the step loop.
    """
    result = PassResult(cycles=[Cycle()])
    peak = 0
    kinds = {}
    for task in workload.tasks:
        if workload.memory_kinds is None or task.kind in workload.memory_kinds:
            kinds.setdefault(task.kind, task)
    tracemalloc.start()
    try:
        for task in kinds.values():
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            run_one(workload, task, parsed, outdir, result, result.cycles[0])
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20, result


def setup_seconds(configs: List[dict], tmp: Path) -> float:
    """Median over fresh interpreters of import + parse of the workload's configs."""
    path = tmp / "setup_configs.json"
    path.write_text(json.dumps(configs))
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(path)]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                             text=True, timeout=120, check=True)
        if i > 0:  # the first interpreter warms the bytecode and file caches
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def cli_pass(tmp: Path) -> tuple:
    """Run ``qcollide.cli.main`` in process on each workload's fixed config.

    Checks exit code 0 and that trajectory.csv and weights.csv are
    byte-identical to the benchmark's own export of the same config.
    Returns seconds per subcommand (summed over the configs), checks made and
    checks failed.
    """
    from qcollide import cli, engine, export

    seconds: Dict[str, float] = {s: 0.0 for s in ("kernel", "simulate", "witness", "converge")}
    attempted = failed = 0
    for name, data in workloads.CLI_CONFIGS.items():
        where = tmp / f"cli-{name}"
        where.mkdir(parents=True, exist_ok=True)
        config_path = where / "config.json"
        config_path.write_text(json.dumps(data))
        subcommands = ["kernel", "simulate", "witness"]
        if name == "feedback_sweep":
            subcommands.append("converge")
        for sub in subcommands:
            argv = [sub, "--config", str(config_path), "--output", str(where / sub), "--quiet"]
            if sub == "converge":
                argv += ["--dt-list", workloads.CONVERGE_DT_LIST]
            start = time.perf_counter()
            code = cli.main(argv)
            seconds[sub] += time.perf_counter() - start
            attempted += 1
            if code != 0:
                failed += 1
                print(f"FAILED cli {sub} on {name}: exit code {code}", file=sys.stderr)
        config = qconfig.parse_config(data)
        n_steps, _ = config.effective_steps()
        expected = {
            where / "simulate" / "trajectory.csv": export.trajectory_csv(engine.run(config)),
            where / "kernel" / "weights.csv": export.weights_csv(
                workloads.weight_table(config.coupling_spec(), config.dt, n_steps)
            ),
        }
        for path, text in expected.items():
            attempted += 1
            if not path.is_file() or path.read_bytes() != text.encode():
                failed += 1
                print(f"FAILED cli {name}: {path.name} differs from export", file=sys.stderr)
    return seconds, attempted, failed


def tail(times: List[float]) -> tuple:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def end_to_end(workload, parsed, tmp: Path, seconds: float) -> tuple:
    """Memory pass, which also warms up, then the timed pass."""
    peak_mb, mem = memory_pass(workload, parsed, tmp)
    timed = timed_pass(workload, parsed, tmp, seconds)
    kept = timed.slower_half()
    times = kept.times
    value, pct, n = tail(times)
    print(f"timed pass: {len(timed.cycles)} cycles of {len(workload.tasks)} tasks; statistics "
          f"over the slower {len(kept.cycles)} cycles, {n} samples; task_tail_s is p{pct:.1f} "
          f"({TAIL_BEYOND} samples above it)")
    print(f"memory pass: {len(mem.times)} tasks, one per memory kind")
    metrics = {
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (value, "s"),
        "steps_per_s": (kept.steps / sum(times), "1/s"),
        "peak_mem_mb": (peak_mb, "MB"),
        "max_err": (float(max(timed.errs, default=0.0)), "1"),
    }
    return metrics, [timed, mem]


def warm_up(workload, parsed, outdir: Path) -> PassResult:
    """Untimed tasks for WARM_UP_S: the host runs a freshly started process slowly."""
    result = PassResult(cycles=[Cycle()])
    start = time.perf_counter()
    while time.perf_counter() - start < WARM_UP_S:
        task = workload.tasks[len(result.cycles[0].times) % len(workload.tasks)]
        run_one(workload, task, parsed, outdir, result, result.cycles[0])
    return result


def per_layer(workload, parsed, configs, tmp: Path, seconds: float) -> tuple:
    """Untraced and traced cycles, alternating, so both see the same host speed."""
    warm = warm_up(workload, parsed, tmp)
    plain, traced = PassResult(), PassResult()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for data in configs:
            qconfig.parse_config(data)
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    while len(traced.cycles) < 2 or time.perf_counter() - start < seconds:
        run_cycle(workload, parsed, tmp, plain)
        tracer.install()
        try:
            run_cycle(workload, parsed, tmp, traced, tracer)
        finally:
            tracer.uninstall()
    layers, accounted = tracing.layer_metrics(tracer, len(traced.times))
    overhead = statistics.median(traced.times) / statistics.median(plain.times) - 1.0
    print(f"traced pass: {len(traced.times)} tasks in {len(traced.cycles)} cycles, alternating "
          f"with as many untraced ones; {len(tracer.spans)} spans; layer spans cover "
          f"{accounted:.4f} of traced task time (unaccounted {1 - accounted:.4f}, "
          f"trace_overhead_frac {overhead:.4f})")
    print("absent spans: " + (", ".join(tracer.absent) or "none"))
    metrics = {"config.parse_s": (tracing.config_parse_seconds(tracer), "s"), **layers}
    return metrics, overhead, [warm, plain, traced]


def run(workload_name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = workloads.build(workload_name, seed)
    configs = workloads.configs_of(workload)
    parsed = {id(data): qconfig.parse_config(data) for data in configs}
    print("env: " + json.dumps(environment(seed)))
    if trace:
        metrics, overhead, passes = per_layer(workload, parsed, configs, tmp, seconds)
    else:
        metrics, passes = end_to_end(workload, parsed, tmp, seconds)
    cli_seconds, cli_attempted, cli_failed = cli_pass(tmp)
    if trace:
        for sub, value in cli_seconds.items():
            metrics[f"cli.{sub}_s"] = (value, "s")
        metrics["trace_overhead_frac"] = (overhead, "1")
    else:  # last, on a warm processor, like the timed pass
        metrics["setup_s"] = (setup_seconds(configs, tmp), "s")

    attempted = cli_attempted + sum(len(p.times) for p in passes)
    failed = cli_failed + sum(p.failed for p in passes)
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} tasks and CLI checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }

"""Command line front end: kernel tables, simulation runs, convergence sweeps
and divisibility reports, driven by a JSON config file.

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import export
from .config import ConfigError, SimulationConfig, load_config
from .coupling import collision_weights
from .divisibility import analyze
from .engine import run
from .reference import solve_dde, white_amplitude

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_kernel(config: SimulationConfig, outdir: Path, quiet: bool) -> int:
    spec = config.coupling_spec()
    n_steps, _ = config.effective_steps()
    weights = collision_weights(spec, config.dt, n_steps)
    for warning in weights.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    path = export.write_text(
        outdir / config.output_path("weights_csv", "weights.csv"), export.weights_csv(weights)
    )
    _say(quiet, f"wrote {path} ({len(weights.lags_present)} lags)")
    return EXIT_OK


def cmd_simulate(config: SimulationConfig, outdir: Path, quiet: bool) -> int:
    traj = run(config)
    csv_path = export.write_text(
        outdir / config.output_path("trajectory_csv", "trajectory.csv"),
        export.trajectory_csv(traj),
    )
    summary = export.trajectory_summary(traj)
    json_path = export.write_text(
        outdir / config.output_path("summary_json", "summary.json"),
        export.summary_json(summary),
    )
    _say(
        quiet,
        f"wrote {csv_path} and {json_path}; final |eps| = {abs(traj.final_eps):.6g}, "
        f"max norm drift = {traj.max_norm_drift:.3g}",
    )
    return EXIT_OK


def _reference_on_grid(config: SimulationConfig, times: np.ndarray) -> np.ndarray:
    coupling = config.coupling
    omega0 = 0.0 if config.rotating_frame else config.omega0
    if coupling.shape == "mirror":
        return np.asarray(
            solve_dde(omega0, coupling.gamma, coupling.phi, coupling.tau, float(times[-1]))(times)
        )
    if coupling.shape == "white":
        return np.asarray(white_amplitude(omega0, coupling.gamma, times))
    raise ConfigError("coupling.shape", "converge needs a coupling with a closed-form reference")


def cmd_converge(config: SimulationConfig, dt_list: List[float], outdir: Path, quiet: bool) -> int:
    if config.t_max is None:
        raise ConfigError("t_max", "converge sweeps need t_max (n_steps would change the horizon)")
    if not dt_list:
        raise ConfigError("dt_list", "no step sizes given")
    coupling = config.coupling
    for dt in dt_list:
        if dt <= 0:
            raise ConfigError("dt_list", f"step sizes must be positive, got {dt}")
        if coupling.shape == "mirror" and coupling.tau > 0:
            ratio = coupling.tau / dt
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(
                    "dt_list", f"dt={dt!r} does not divide the delay tau={coupling.tau!r} exactly"
                )

    rows = []
    errors = []
    for dt in sorted(dt_list, reverse=True):
        cfg = SimulationConfig(
            coupling=config.coupling, dt=dt, omega0=config.omega0, t_max=config.t_max,
            stepper=config.stepper, representation=config.representation,
            n_max=config.n_max, window=config.window, beta=config.beta,
            rotating_frame=config.rotating_frame,
        )
        traj = run(cfg)
        ref = _reference_on_grid(cfg, traj.times)
        err = float(np.max(np.abs(traj.eps - ref)))
        order = math.nan if not errors else math.log2(errors[-1] / err) if err > 0 else math.inf
        errors.append(err)
        rows.append((dt, err, order))

    path = export.write_text(
        outdir / config.output_path("convergence_csv", "convergence.csv"),
        export.convergence_csv(rows),
    )
    _say(quiet, f"wrote {path} ({len(rows)} step sizes)")
    return EXIT_OK


def cmd_witness(config: SimulationConfig, outdir: Path, quiet: bool) -> int:
    traj = run(config)
    report = analyze(traj)
    path = export.write_text(
        outdir / config.output_path("witness_json", "witness.json"),
        export.report_json(report, traj.config),
    )
    _say(
        quiet,
        f"wrote {path}; witness = {report.witness:.6g}, "
        f"first non-CP step = {report.first_violation_step}",
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollide",
        description="Collision-model simulator for colored system-bath couplings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "kernel": "compute the discrete collision-weight table",
        "simulate": "run one trajectory and export CSV + JSON summary",
        "converge": "sweep step sizes and tabulate errors against the exact reference",
        "witness": "simulate and report the CP-divisibility diagnosis",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
        cmd.add_argument("--output", default=".", metavar="DIR", help="output directory")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress messages")
        if name == "converge":
            cmd.add_argument(
                "--dt-list", required=True, metavar="DT,DT,...",
                help="comma-separated step sizes to sweep",
            )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        outdir = Path(args.output)
        if args.command == "kernel":
            return cmd_kernel(config, outdir, args.quiet)
        if args.command == "simulate":
            return cmd_simulate(config, outdir, args.quiet)
        if args.command == "converge":
            try:
                dt_list = [float(part) for part in args.dt_list.split(",") if part.strip()]
            except ValueError:
                raise ConfigError("dt_list", f"not a comma-separated float list: {args.dt_list!r}")
            return cmd_converge(config, dt_list, outdir, args.quiet)
        if args.command == "witness":
            return cmd_witness(config, outdir, args.quiet)
        raise RuntimeError(f"unhandled command {args.command!r}")  # pragma: no cover
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

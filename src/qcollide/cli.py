"""Command line front end: kernel tables, simulation runs, convergence sweeps
and divisibility reports, driven by a JSON config file.

Exit codes: 0 success, 2 invalid configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import export
from .config import ConfigError, SimulationConfig, load_config
from .coupling import GRID_MATCH_RTOL, collision_weights
from .divisibility import analyze
from .engine import run
from .reference import solve_dde, white_amplitude

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _write(config: SimulationConfig, outdir: Path, key: str, text: str) -> Path:
    """Write output ``key`` under the file name the config gives it."""
    return export.write_text(outdir / config.output_path(key), text)


def cmd_kernel(config: SimulationConfig, outdir: Path, quiet: bool) -> int:
    spec = config.coupling_spec()
    n_steps, _ = config.effective_steps()
    weights = collision_weights(spec, config.dt, n_steps)  # raises on a weight that overflowed
    for warning in weights.warnings:  # after the refusal: its message is the error alone
        print(f"warning: {warning}", file=sys.stderr)
    path = _write(config, outdir, "weights_csv", export.weights_csv(weights))
    _say(quiet, f"wrote {path} ({len(weights.lags)} lags)")
    return EXIT_OK


def cmd_simulate(config: SimulationConfig, outdir: Path, quiet: bool) -> int:
    traj = run(config)
    csv_path = _write(config, outdir, "trajectory_csv", export.trajectory_csv(traj))
    json_path = _write(config, outdir, "summary_json",
                       export.summary_json(export.trajectory_summary(traj)))
    _say(
        quiet,
        f"wrote {csv_path} and {json_path}; final |eps| = {abs(traj.final_eps):.6g}, "
        f"max norm drift = {traj.max_norm_drift:.3g}",
    )
    return EXIT_OK


def _reference_on_grid(config: SimulationConfig, times: np.ndarray) -> np.ndarray:
    """The exact amplitude on ``times``: beta times the eps(0) = 1 solution.

    The one-excitation amplitude is linear in beta, since |g, vac> never evolves.
    """
    coupling = config.coupling
    omega0 = 0.0 if config.rotating_frame else config.omega0
    if coupling.shape == "mirror":
        solution = solve_dde(omega0, coupling.gamma, coupling.phi, coupling.tau, float(times[-1]))
        unit = solution(times)
    elif coupling.shape == "white":
        unit = white_amplitude(omega0, coupling.gamma, times)
    else:
        raise ConfigError("coupling.shape",
                          "converge needs a coupling with a closed-form reference")
    return config.beta * np.asarray(unit)


def cmd_converge(config: SimulationConfig, dt_list: List[float], outdir: Path, quiet: bool) -> int:
    if config.t_max is None:
        raise ConfigError("t_max", "converge sweeps need t_max (n_steps would change the horizon)")
    if not dt_list:
        raise ConfigError("dt_list", "no step sizes given")
    coupling = config.coupling
    for dt in dt_list:
        if not (dt > 0 and math.isfinite(dt)):
            raise ConfigError("dt_list", f"step sizes must be finite and positive, got {dt}")
        if coupling.shape == "mirror":
            ratio = coupling.tau / dt
            # the delay equation needs a delay of whole steps; below half a step
            # the kernel merges into lag 0, and the reference would sum t_max / tau terms
            if not ratio > 0.5:
                raise ConfigError(
                    "coupling.tau", f"converge needs a delay of at least one step, got "
                    f"tau={coupling.tau!r} at dt={dt!r}"
                )
            if math.isfinite(ratio) and abs(ratio - round(ratio)) > GRID_MATCH_RTOL:
                raise ConfigError(
                    "dt_list", f"dt={dt!r} does not divide the delay tau={coupling.tau!r} exactly"
                )

    rows = []  # (dt, error, observed order)
    for dt in sorted(dt_list, reverse=True):
        cfg = dataclasses.replace(config, dt=dt)  # __post_init__ checks it again
        traj = run(cfg)
        err = float(np.max(np.abs(traj.eps - _reference_on_grid(cfg, traj.times))))
        previous = rows[-1][1] if rows else 0.0  # an order needs two nonzero errors
        order = math.log2(previous / err) if previous > 0 and err > 0 else math.nan
        rows.append((dt, err, order))

    path = _write(config, outdir, "convergence_csv", export.convergence_csv(rows))
    _say(quiet, f"wrote {path} ({len(rows)} step sizes)")
    return EXIT_OK


def cmd_witness(config: SimulationConfig, outdir: Path, quiet: bool) -> int:
    traj = run(config)
    report = analyze(traj)
    path = _write(config, outdir, "witness_json", export.report_json(report, traj.config))
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

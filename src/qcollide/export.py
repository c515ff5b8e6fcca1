"""Bit-stable file output: CSV tables and JSON summaries.

Floats are written with 17 significant digits (full round-trip precision) and
a fixed column order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Tuple, Union

from .coupling import WeightMatrix
from .divisibility import DivisibilityReport
from .engine import Trajectory

__all__ = [
    "fmt",
    "weights_csv",
    "trajectory_csv",
    "trajectory_summary",
    "convergence_csv",
    "report_json",
    "summary_json",
    "write_text",
]


def fmt(x: float) -> str:
    """Full-precision decimal form of a float."""
    return format(float(x), ".17g")


def write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path``, overwriting any old content in place.

    The file is not truncated to zero before the write, only cut to the new
    length after it.  On ext4 (``auto_da_alloc``, the default) a file truncated
    to zero and rewritten starts a writeback when it is closed; for a file
    rewritten at every run that cost about 1 ms a close, with a long tail.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as handle:
        handle.write(text)
        handle.truncate()
    return path


def weights_csv(weights: WeightMatrix) -> str:
    lines = ["lag,re_w,im_w"]
    for lag in weights.lags_present:
        w = weights.w(lag)
        lines.append(f"{lag},{fmt(w.real)},{fmt(w.imag)}")
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    lines = ["n,t,re_eps,im_eps,abs_eps,pop_e,norm"]
    for k in range(len(traj.steps)):
        e = traj.eps[k]
        lines.append(
            f"{int(traj.steps[k])},{fmt(traj.times[k])},{fmt(e.real)},{fmt(e.imag)},"
            f"{fmt(abs(e))},{fmt(traj.excited_population[k])},{fmt(traj.norms[k])}"
        )
    return "\n".join(lines) + "\n"


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-ready run summary; carries the config snapshot for provenance."""
    final = traj.final_eps
    return {
        "config": traj.config,
        "n_steps": traj.n_steps,
        "final": {
            "n": int(traj.steps[-1]),
            "t": float(traj.times[-1]),
            "re_eps": final.real,
            "im_eps": final.imag,
            "abs_eps": abs(final),
            "pop_e": float(traj.excited_population[-1]),
            "norm": float(traj.norms[-1]),
        },
        "max_norm_drift": traj.max_norm_drift,
        "wall_time_s": traj.wall_time_s,
        "notes": list(traj.notes),
    }


def convergence_csv(rows: Iterable[Tuple[float, float, float]]) -> str:
    """Table of (dt, max_abs_error, observed_order); order is nan on the first row."""
    lines = ["dt,max_abs_error,observed_order"]
    for dt, err, order in rows:
        lines.append(f"{fmt(dt)},{fmt(err)},{fmt(order)}")
    return "\n".join(lines) + "\n"


def report_json(report: DivisibilityReport, config: dict) -> str:
    payload = {"config": config, **report.to_dict()}
    return json.dumps(payload, indent=2) + "\n"


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2) + "\n"

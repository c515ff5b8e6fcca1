"""Bit-stable file output: CSV tables and JSON summaries.

Floats are written as ``%.17g`` (full round-trip precision) and in a fixed
column order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Tuple, Union

import numpy as np

from .coupling import WeightMatrix
from .divisibility import DivisibilityReport
from .engine import Trajectory

__all__ = [
    "weights_csv",
    "trajectory_csv",
    "trajectory_summary",
    "convergence_csv",
    "report_json",
    "summary_json",
    "write_text",
]


_CHUNK_ROWS = 512  # rows turned into Python numbers at a time; bounds the peak memory


def _table(header: str, row: str, *columns: np.ndarray) -> str:
    """CSV text: ``header``, then one ``row % fields`` line per row of the columns."""
    parts = [header + "\n"]
    for lo in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [column[lo:lo + _CHUNK_ROWS].tolist() for column in columns]
        parts.append("".join(map(row.__mod__, zip(*chunk))))
    return "".join(parts)


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
    lags = weights.lags_present
    w = np.array([weights.w(lag) for lag in lags], dtype=complex)
    return _table("lag,re_w,im_w", "%d,%.17g,%.17g\n", np.array(lags, dtype=int), w.real, w.imag)


def trajectory_csv(traj: Trajectory) -> str:
    eps = traj.eps
    # hypot is what abs(complex) computes; np.abs(eps) differs from it in the last bit
    return _table("n,t,re_eps,im_eps,abs_eps,pop_e,norm", "%d" + ",%.17g" * 6 + "\n",
                  traj.steps, traj.times, eps.real, eps.imag, np.hypot(eps.real, eps.imag),
                  traj.excited_population, traj.norms)


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
    table = np.array(list(rows), dtype=float).reshape(-1, 3)
    return _table("dt,max_abs_error,observed_order", "%.17g,%.17g,%.17g\n", *table.T)


def report_json(report: DivisibilityReport, config: dict) -> str:
    payload = {"config": config, **report.to_dict()}
    return json.dumps(payload, indent=2) + "\n"


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2) + "\n"

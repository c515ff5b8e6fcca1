"""Reduced-map diagnostics: CP-divisibility and revival witnesses.

Vacuum-field single-excitation dynamics drives the qubit through a
one-parameter channel family labelled by the decoherence factor G:
populations scale by |G|^2, coherences by conj(G).  Between two times the
intermediate map has factor G_to/G_from and is completely positive exactly
when that ratio does not exceed 1 in magnitude, so any growth of the excited
population flags a non-CP intermediate step (information backflow).  The
test suite checks these flags against the sign of the intermediate map's
Choi-matrix spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = ["DivisibilityReport", "analyze", "CP_RTOL"]

# relative tolerance on the population ratio used both for CP flags and for
# counting revival gains, so the witness vanishes exactly when every step is CP
CP_RTOL = 1e-12


@dataclass(frozen=True)
class DivisibilityReport:
    """Per-step CP flags, revival intervals and the accumulated backflow witness.

    ``cp_flags[i]`` describes the map from step i to step i+1; revival
    intervals are maximal runs of steps with significant population gain,
    labelled by destination step indices.
    """

    cp_flags: Tuple[bool, ...]
    revivals: Tuple[Tuple[int, int, float], ...]
    witness: float
    truncated_at: Optional[int] = None
    note: Optional[str] = None

    @property
    def first_violation_step(self) -> Optional[int]:
        """Destination index of the first non-CP transition, if any."""
        return self.cp_flags.index(False) + 1 if False in self.cp_flags else None

    def to_dict(self) -> dict:
        return {
            "cp_flags": list(map(bool, self.cp_flags)),
            "revival_intervals": [
                {"start_step": s, "end_step": e, "gained_population": g}
                for s, e, g in self.revivals
            ],
            "witness": self.witness,
            "first_violation_step": self.first_violation_step,
            "truncated_at": self.truncated_at,
            "note": self.note,
        }


def analyze(trajectory) -> DivisibilityReport:
    """Scan a trajectory for non-CP intermediate maps and population revivals.

    A step counts as a revival when the excited population grows by more than
    ``CP_RTOL`` relative; the same threshold drives the CP flags, so the
    witness is zero exactly when every flag is CP.  The scan stops early with
    a note if the amplitude hits zero (the next intermediate map would be
    singular).
    """
    eps = np.asarray(trajectory.eps)
    pop = np.abs(eps) ** 2

    if len(eps) == 0 or eps[0] == 0:
        return DivisibilityReport(
            cp_flags=(), revivals=(), witness=0.0, truncated_at=0,
            note="initial amplitude is zero: reduced maps are undefined",
        )

    zeros = np.flatnonzero(eps[:-1] == 0)
    truncated_at: Optional[int] = None
    note: Optional[str] = None
    n = len(eps) - 1  # transitions scanned
    if zeros.size:
        n = truncated_at = int(zeros[0])
        note = f"amplitude vanished at step {n}: intermediate maps beyond it are singular"
    gain = pop[1:n + 1] - pop[:n]
    significant = gain > CP_RTOL * pop[:n]
    steps = np.flatnonzero(significant) + 1
    gains = gain[significant]
    # np.cumsum adds in sequence, as the running totals of a scalar scan would
    witness = float(np.cumsum(gains)[-1]) if gains.size else 0.0
    revivals: Tuple[Tuple[int, int, float], ...] = ()
    if steps.size:  # maximal runs of consecutive revival steps
        cuts = np.flatnonzero(np.diff(steps) != 1) + 1
        revivals = tuple(
            (int(run[0]), int(run[-1]), float(np.cumsum(part)[-1]))
            for run, part in zip(np.split(steps, cuts), np.split(gains, cuts))
        )

    return DivisibilityReport(
        cp_flags=tuple((~significant).tolist()),
        revivals=revivals,
        witness=witness,
        truncated_at=truncated_at,
        note=note,
    )

"""Reduced-map diagnostics: CP-divisibility and revival witnesses.

Vacuum-field single-excitation dynamics drives the qubit through a
one-parameter channel family labelled by the decoherence factor G:
populations scale by |G|^2, coherences by conj(G).  Between two times the
intermediate map has factor G_to/G_from and is completely positive exactly
when that ratio does not exceed 1 in magnitude, so any growth of the excited
population flags a non-CP intermediate step (information backflow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "QubitChannel",
    "IntermediateMap",
    "DivisibilityReport",
    "choi_matrix",
    "channel_from_amplitude",
    "intermediate_map",
    "analyze",
    "CP_RTOL",
]

# relative tolerance on the population ratio used both for CP flags and for
# counting revival gains, so the witness vanishes exactly when every step is CP
CP_RTOL = 1e-12


def _apply_factor(g: complex, rho: np.ndarray) -> np.ndarray:
    """Act with the decoherence-factor map on a 2x2 state, basis (excited, ground)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = abs(g) ** 2 * rho[0, 0]
    out[0, 1] = g * rho[0, 1]
    out[1, 0] = np.conj(g) * rho[1, 0]
    out[1, 1] = rho[1, 1] + (1 - abs(g) ** 2) * rho[0, 0]
    return out


def choi_matrix(g: complex) -> np.ndarray:
    """4x4 Choi matrix sum_ij E(|i><j|) (x) |i><j| of the factor-g map.

    Eigenvalues are {1 + |g|^2, 1 - |g|^2, 0, 0}: positive semidefinite
    exactly when |g| <= 1.
    """
    basis = np.eye(2, dtype=complex)
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.outer(basis[i], basis[j].conj())
            choi += np.kron(_apply_factor(g, e_ij), e_ij)
    return choi


@dataclass(frozen=True)
class QubitChannel:
    """CPT channel of the amplitude-damping family, parameterized by factor g."""

    g: complex

    def __post_init__(self) -> None:
        if abs(self.g) > 1 + 1e-9:
            raise ValueError(f"|g| must not exceed 1 for a channel, got {abs(self.g)}")
        object.__setattr__(self, "g", complex(self.g))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return _apply_factor(self.g, rho)

    def choi(self) -> np.ndarray:
        return choi_matrix(self.g)

    def superoperator(self) -> np.ndarray:
        """4x4 matrix acting on column-stacked 2x2 states."""
        basis = np.eye(2, dtype=complex)
        cols = []
        for j in range(2):
            for i in range(2):
                e = np.outer(basis[i], basis[j].conj())
                cols.append(self.apply(e).T.reshape(-1))
        return np.column_stack(cols)


def channel_from_amplitude(g: complex) -> QubitChannel:
    """Channel with decoherence factor g (typically eps(t)/eps(0))."""
    return QubitChannel(g=g)


@dataclass(frozen=True)
class IntermediateMap:
    """Map connecting two points of a trajectory, CP or not."""

    ratio: complex
    is_cp: bool
    choi_min_eigenvalue: float
    channel: Optional[QubitChannel]


def intermediate_map(g_from: complex, g_to: complex) -> IntermediateMap:
    """Map taking the factor-g_from state to the factor-g_to state.

    Its factor is g_to/g_from; the map fails complete positivity exactly when
    that ratio exceeds 1 in magnitude (negative Choi eigenvalue).  Undefined
    for g_from = 0.
    """
    if g_from == 0:
        raise ValueError("intermediate map undefined: g_from = 0 (singular map)")
    ratio = complex(g_to) / complex(g_from)
    is_cp = abs(ratio) ** 2 <= 1 + CP_RTOL
    min_eig = float(np.min(np.linalg.eigvalsh(choi_matrix(ratio))))
    channel = QubitChannel(ratio) if is_cp else None
    return IntermediateMap(ratio=ratio, is_cp=is_cp, choi_min_eigenvalue=min_eig, channel=channel)


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
        for i, flag in enumerate(self.cp_flags):
            if not flag:
                return i + 1
        return None

    def to_dict(self) -> dict:
        return {
            "cp_flags": [bool(f) for f in self.cp_flags],
            "revival_intervals": [
                {"start_step": s, "end_step": e, "gained_population": g}
                for s, e, g in self.revivals
            ],
            "witness": self.witness,
            "first_violation_step": self.first_violation_step,
            "truncated_at": self.truncated_at,
            "note": self.note,
        }


def analyze(trajectory, rel_tol: float = CP_RTOL) -> DivisibilityReport:
    """Scan a trajectory for non-CP intermediate maps and population revivals.

    A step counts as a revival when the excited population grows by more than
    ``rel_tol`` relative; the same threshold drives the CP flags, so the
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
    significant = gain > rel_tol * pop[:n]
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

"""Joint emitter+ancilla states in two representations.

``SingleExcitationState`` spans the number-conserving one-excitation sector
exactly (plus the invariant vacuum amplitude, which allows superposition
initial states and nonzero reduced coherences).  ``TruncatedFockState`` is a
brute-force dense vector over the qubit and a fixed number of bosonic modes
truncated at ``n_max`` photons, used as an independent oracle; a mode that
can no longer couple hands its axis to the next ancilla.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "SingleExcitationState",
    "TruncatedFockState",
    "init_single_excitation",
    "embed_single_excitation",
]

# amplitude of an occupied branch outside |g> x vacuum above which a mode
# retirement would be lossy and is refused
_DARK_BRANCH_TOL = 1e-12


@dataclass
class SingleExcitationState:
    """Amplitudes (a_vac, eps, c_m) of the one-excitation sector.

    ``c`` holds ancilla amplitudes for indices ``min_index .. min_index +
    len(c) - 1``.  Indices below 1 are pre-history input modes (initially in
    vacuum) that kernels with memory still couple to during early collisions.
    """

    a_vac: complex
    eps: complex
    c: np.ndarray
    min_index: int = 1

    @property
    def max_index(self) -> int:
        return self.min_index + len(self.c) - 1

    def amplitude(self, m: int) -> complex:
        return complex(self.c[m - self.min_index])

    def norm(self) -> float:
        return math.sqrt(
            abs(self.a_vac) ** 2 + abs(self.eps) ** 2 + float(np.sum(np.abs(self.c) ** 2))
        )

    def copy(self) -> "SingleExcitationState":
        return SingleExcitationState(self.a_vac, self.eps, self.c.copy(), self.min_index)


def init_single_excitation(
    n_steps: int, beta: complex, n_history: int = 0
) -> SingleExcitationState:
    """Initial state beta|e>|vac> + sqrt(1-|beta|^2)|g>|vac>.

    ``n_history`` extra pre-history modes (indices 0, -1, ...) are allocated
    for kernels whose maximum lag reaches below the first collision.
    """
    beta = complex(beta)
    if abs(beta) > 1 + 1e-12:
        raise ValueError(f"initial amplitude must satisfy |beta| <= 1, got |{beta}| = {abs(beta)}")
    if n_steps < 0 or n_history < 0:
        raise ValueError("n_steps and n_history must be nonnegative")
    a_vac = math.sqrt(max(0.0, 1.0 - abs(beta) ** 2))
    c = np.zeros(n_steps + n_history, dtype=complex)
    return SingleExcitationState(a_vac=a_vac, eps=beta, c=c, min_index=1 - n_history)


@dataclass
class TruncatedFockState:
    """Dense joint state over the qubit and a fixed number of truncated modes.

    ``amplitudes`` has the qubit on axis 0 (index 0 = ground, 1 = excited) and
    one axis of size ``n_max + 1`` per entry of ``active_modes``, in order.
    The register never changes shape: a mode that can no longer couple is
    recycled.  In the one-excitation sector its occupied branch is exactly
    dark (qubit down, everything else in vacuum), so only its squared weight
    needs to be kept; the axis is reset to vacuum and relabelled with the
    next ancilla.  ``norm`` includes the retired weight, which keeps the
    total conserved.  A ``full_fock`` run does not step this class: its loop
    (``engine._run_full_fock``) keeps the same register in age order as one
    fixed matrix, and this class, with ``engine.step_full`` and
    ``recycle_mode``, is the per-call reference that tests pin it against.
    """

    amplitudes: np.ndarray
    active_modes: Tuple[int, ...] = ()
    n_max: int = 1
    retired_weight: float = 0.0

    def mode_axis(self, m: int) -> int:
        return 1 + self.active_modes.index(m)

    def excited_vacuum_amplitude(self) -> complex:
        """Amplitude of |e> with every active mode in vacuum."""
        return complex(self.amplitudes[(1,) + (0,) * len(self.active_modes)])

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)) + self.retired_weight)

    def excitation_moments(self) -> Tuple[float, float]:
        """Mean and variance of the total excitation number, retired modes included."""
        occ = np.zeros(self.amplitudes.shape, dtype=float)
        occ += np.reshape(
            np.arange(2), (2,) + (1,) * len(self.active_modes)
        )  # qubit contributes 0 or 1
        for m in self.active_modes:
            shape = [1] * self.amplitudes.ndim
            shape[self.mode_axis(m)] = self.n_max + 1
            occ = occ + np.reshape(np.arange(self.n_max + 1), shape)
        p = np.abs(self.amplitudes) ** 2
        mean = float(np.sum(p * occ)) + self.retired_weight
        second = float(np.sum(p * occ**2)) + self.retired_weight
        return mean, second - mean**2

    def recycle_mode(self, old: int, new: int) -> None:
        """Retire mode ``old``, which can no longer couple, and reuse its axis as ``new``.

        The occupied branch must be dark (all of its weight on the qubit
        ground state with the other modes in vacuum), otherwise retiring it
        would not be exact and a RuntimeError is raised.  Its weight moves to
        ``retired_weight`` and the branch is zeroed in place, which leaves the
        axis in vacuum for the fresh mode ``new``.
        """
        axis = self.mode_axis(old)
        occupied = self.amplitudes.swapaxes(axis, -1)[..., 1:]  # a view; the qubit stays first
        weight = float(np.sum(np.abs(occupied) ** 2))
        dark = float(np.sum(np.abs(occupied[(0,) + (0,) * (occupied.ndim - 2)]) ** 2))
        if abs(weight - dark) > _DARK_BRANCH_TOL:
            raise RuntimeError(
                f"mode {old} is still entangled with the active dynamics; retiring it would "
                f"lose {abs(weight - dark):.3e} of coherent weight"
            )
        self.retired_weight += weight
        occupied[...] = 0
        modes = list(self.active_modes)
        modes[axis - 1] = new
        self.active_modes = tuple(modes)

    def project_single_excitation(self) -> Tuple[complex, complex, Dict[int, complex]]:
        """Read back (a_vac, eps, {m: c_m}); multi-photon weight must be negligible."""
        zeros = (0,) * len(self.active_modes)
        a_vac = complex(self.amplitudes[(0,) + zeros])
        eps = complex(self.amplitudes[(1,) + zeros])
        c: Dict[int, complex] = {}
        total = abs(a_vac) ** 2 + abs(eps) ** 2
        for m in self.active_modes:
            idx = [0] * self.amplitudes.ndim
            idx[self.mode_axis(m)] = 1
            c[m] = complex(self.amplitudes[tuple(idx)])
            total += abs(c[m]) ** 2
        rest = float(np.sum(np.abs(self.amplitudes) ** 2)) - total
        if rest > 1e-10:
            raise ValueError(f"state has weight {rest:.3e} outside the one-excitation sector")
        return a_vac, eps, c


def embed_single_excitation(
    state: SingleExcitationState, n_max: int, window: Sequence[int]
) -> TruncatedFockState:
    """Embed a one-excitation state into a truncated Fock register.

    ``window`` lists the ancilla indices to represent; it must cover every
    mode carrying a nonzero amplitude.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    window = tuple(int(m) for m in window)
    if len(set(window)) != len(window):
        raise ValueError("window contains duplicate mode indices")
    occupied = {
        state.min_index + i for i in np.flatnonzero(np.abs(state.c) > 0)
    }
    missing = occupied - set(window)
    if missing:
        raise ValueError(f"window does not cover occupied ancillas {sorted(missing)}")

    shape = (2,) + (n_max + 1,) * len(window)
    amp = np.zeros(shape, dtype=complex)
    amp[(0,) + (0,) * len(window)] = state.a_vac
    amp[(1,) + (0,) * len(window)] = state.eps
    for slot, m in enumerate(window):
        if state.min_index <= m <= state.max_index:
            idx = [0] * len(shape)
            idx[1 + slot] = 1
            amp[tuple(idx)] = state.amplitude(m)
    return TruncatedFockState(amplitudes=amp, active_modes=window, n_max=n_max)

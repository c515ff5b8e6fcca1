"""The joint emitter+ancilla state of the one-excitation sector.

``SingleExcitationState`` spans the number-conserving one-excitation sector
exactly (plus the invariant vacuum amplitude, which allows superposition
initial states and nonzero reduced coherences).  The truncated-Fock register
of a ``full_fock`` run lives in ``engine._run_full_fock`` as one dense
matrix; ``_DARK_BRANCH_TOL`` bounds the weight it may lose when it retires a
mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SingleExcitationState", "init_single_excitation"]

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

"""Time-domain coupling kernels and their discrete collision weights.

A coupling is a rate ``gamma`` together with a memory kernel: a sum of delta
spikes at nonnegative lags plus an optional smooth part of finite support.
On a uniform time grid with step ``dt`` the kernel turns into a stationary,
banded table of weights W(lag); scaling by sqrt(gamma/dt) gives the
per-collision coupling strengths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "CouplingSpec",
    "WeightMatrix",
    "white_coupling",
    "mirror_coupling",
    "custom_coupling",
    "collision_weights",
    "coupling_strengths",
    "GRID_MATCH_RTOL",
    "QUADRATURE_CELLS",
]

SmoothKernel = Callable[[float], complex]
Deltas = Tuple[Tuple[float, complex], ...]

# relative slack for deciding that a delta lag sits on the time grid
GRID_MATCH_RTOL = 1e-9

# midpoint cells per kink-free subinterval of the reduced lag integral
QUADRATURE_CELLS = 512


def _canonical_deltas(deltas: Iterable[Tuple[float, complex]]) -> Deltas:
    """Sort by lag, merge coincident lags, drop exact-zero weights."""
    acc: Dict[float, complex] = {}
    for lag, weight in deltas:
        lag = float(lag)
        if not math.isfinite(lag):
            raise ValueError("delta lag must be finite")
        if lag < 0:
            raise ValueError(f"delta lag must be nonnegative, got {lag}")
        acc[lag] = acc.get(lag, 0j) + complex(weight)
    return tuple((lag, w) for lag, w in sorted(acc.items()) if w != 0)


@dataclass(frozen=True)
class CouplingSpec:
    """Colored coupling: rate gamma plus a time-domain memory kernel.

    The kernel is canonicalized at construction: white coupling is the single
    unit delta at lag 0, a mirror with delay tau and phase phi is the pair
    {(0, 1), (tau, -exp(-i*phi))}, coincident lags are merged and zero weights
    dropped.  Equivalent couplings therefore compare equal regardless of which
    constructor produced them.
    """

    gamma: float
    deltas: Deltas = ((0.0, 1.0 + 0j),)
    smooth: Optional[SmoothKernel] = None
    smooth_support: float = 0.0

    def __post_init__(self) -> None:
        gamma = float(self.gamma)
        if not (gamma >= 0 and math.isfinite(gamma)):
            raise ValueError(f"gamma must be a finite nonnegative rate, got {self.gamma}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "deltas", _canonical_deltas(self.deltas))
        if self.smooth is not None:
            support = float(self.smooth_support)
            if not (support > 0 and math.isfinite(support)):
                raise ValueError("a smooth kernel part needs a finite positive support bound")
            object.__setattr__(self, "smooth_support", support)
        else:
            object.__setattr__(self, "smooth_support", 0.0)


def white_coupling(gamma: float) -> CouplingSpec:
    """Flat (memoryless) coupling; the kernel is a unit delta at lag zero."""
    return CouplingSpec(gamma=gamma)


def mirror_coupling(gamma: float, phi: float, tau: float) -> CouplingSpec:
    """Coupling of an emitter in front of a mirror, round-trip delay tau.

    The reflected channel adds a second delta at lag tau carrying the
    round-trip phase: kernel {(0, 1), (tau, -exp(-i*phi))}.  For tau = 0 the
    two spikes coincide and merge into a single lag-0 weight 1 - exp(-i*phi).
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    deltas = ((0.0, 1.0 + 0j), (float(tau), -cmath.exp(-1j * phi)))
    return CouplingSpec(gamma=gamma, deltas=deltas)


def custom_coupling(
    gamma: float,
    deltas: Iterable[Tuple[float, complex]] = (),
    smooth: Optional[SmoothKernel] = None,
    smooth_support: float = 0.0,
) -> CouplingSpec:
    """Arbitrary time-domain kernel: delta spikes plus an optional smooth part.

    ``smooth`` is a complex-valued function of the lag, taken to vanish
    outside [0, smooth_support].
    """
    return CouplingSpec(
        gamma=gamma, deltas=tuple(deltas), smooth=smooth, smooth_support=smooth_support
    )


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Stationary weight table W(n, m) = W(n - m) of a kernel on the dt grid.

    ``lags`` holds the lags of nonzero weight in ascending order (``np.intp``)
    and ``w`` their complex weights; W is zero at every other lag, and above
    the diagonal, since every lag is nonnegative (the kernels are causal).
    """

    dt: float
    lags: np.ndarray
    w: np.ndarray
    warnings: Tuple[str, ...] = ()


def _smooth_weights(kernel: SmoothKernel, support: float, dt: float) -> list[complex]:
    """Cell averages of the smooth kernel part at lags 0 .. floor(support/dt) + 1.

    The double integral of f(s - t') over a stationary (n, m) grid cell
    reduces exactly to a 1-D integral of f against the triangular overlap
    weight dt - |u - lag*dt| supported on [(lag-1)*dt, (lag+1)*dt].  Grid
    interval j, [j*dt, (j+1)*dt] clipped to the kernel support, is the
    falling half of lag j's triangle and the rising half of lag j + 1's, so
    each interval is integrated once, by a composite midpoint rule with
    QUADRATURE_CELLS cells (error O((dt/cells)^2) for smooth kernels), and
    split between the two lags.
    """
    totals = [0j] * (int(math.floor(support / dt)) + 2)
    for j in range(len(totals) - 1):
        lo, hi = j * dt, min((j + 1) * dt, support)
        if hi <= lo:
            continue
        h = (hi - lo) / QUADRATURE_CELLS
        us = lo + (np.arange(QUADRATURE_CELLS) + 0.5) * h
        vals = np.fromiter((complex(kernel(float(u))) for u in us), complex,
                           count=QUADRATURE_CELLS)
        # each weight is dt - |u - peak| taken from its own lag's peak: lo for
        # lag j, whose rising half came from the interval before, and
        # (j + 1) * dt for lag j + 1
        totals[j] += h * np.sum(vals * (dt - (us - lo)))
        totals[j + 1] += h * np.sum(vals * (dt - ((j + 1) * dt - us)))
    return [total / dt for total in totals]


def collision_weights(spec: CouplingSpec, dt: float, n_steps: int) -> WeightMatrix:
    """Discretize the memory kernel of a coupling into per-lag collision weights.

    Only the kernel fields (``deltas``, ``smooth``, ``smooth_support``) are
    read; the rate enters through ``coupling_strengths``.

    Each delta (lag L, weight w) contributes w at the integer lag round(L/dt);
    a lag further than 1e-9*dt from the grid sets a discretization-mismatch
    warning, and two deltas landing on the same grid lag set a merge warning.
    The smooth part is cell-averaged per lag (see ``_smooth_weights``).  A
    weight that is not finite (summed deltas or an overflowing quadrature)
    raises a RuntimeError naming its lag.  ``n_steps`` is only checked, as the
    table is the same for any run length; it stays while the benchmark's
    ``weight_table`` passes it, until the benchmark is next revised.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")

    warnings: list[str] = []
    table: Dict[int, complex] = {}
    seen: Dict[int, float] = {}
    for lag_time, weight in spec.deltas:
        ell = int(round(lag_time / dt))
        if abs(lag_time - ell * dt) > GRID_MATCH_RTOL * dt:
            warnings.append(
                f"discretization mismatch: delta lag {lag_time!r} is off the dt={dt!r} "
                f"grid, snapped to lag {ell}"
            )
        if ell in seen:
            warnings.append(
                f"merged deltas: lags {seen[ell]!r} and {lag_time!r} both map to grid lag {ell}"
            )
        else:
            seen[ell] = lag_time
        table[ell] = table.get(ell, 0j) + weight

    if spec.smooth is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            for ell, w in enumerate(_smooth_weights(spec.smooth, spec.smooth_support, dt)):
                if w != 0:
                    table[ell] = table.get(ell, 0j) + w

    lags = np.array(sorted(ell for ell, w in table.items() if w != 0), dtype=np.intp)
    w = np.array([table[ell] for ell in lags.tolist()], dtype=complex)
    _refuse_non_finite("collision weight", lags, w,
                       f"the kernel's weight there overflows at dt={dt}")
    return WeightMatrix(dt=dt, lags=lags, w=w, warnings=tuple(warnings))


def coupling_strengths(weights: WeightMatrix, gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """The ascending lags of nonzero g = sqrt(gamma/dt) * W and their g, the
    arrays of a run's ``CollisionPlan``; raises a RuntimeError on a g that is
    not finite, as the collision maps would fail on it or hold nan."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        gs = math.sqrt(gamma / weights.dt) * weights.w
    _refuse_non_finite("coupling strength", weights.lags, gs, "the kernel's weight there, or "
                       "that weight times sqrt(gamma/dt), overflows")
    if np.count_nonzero(gs) == len(gs):
        return weights.lags, gs
    keep = gs != 0  # gamma is 0, or scales a weight below the smallest double
    return weights.lags[keep], gs[keep]


def _refuse_non_finite(what: str, lags: np.ndarray, values: np.ndarray, why: str) -> None:
    """Raise a RuntimeError naming the smallest lag whose value is not finite."""
    finite = np.isfinite(values)
    if np.count_nonzero(finite) < len(values):
        i = np.argmin(finite)  # the first False
        raise RuntimeError(f"the {what} at lag {lags[i]} is not finite ({values[i]}); {why}")

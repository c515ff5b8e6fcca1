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
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple

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


@dataclass(frozen=True, eq=True)
class WeightMatrix:
    """Stationary banded weight table W(n, m) = W(n - m).

    Weights are stored per integer lag; the full matrix entry accessor
    enforces stationarity structurally and returns 0 above the diagonal
    (kernels here are causal: all lags are nonnegative).
    """

    dt: float
    n_steps: int
    lags: Mapping[int, complex] = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()

    def __hash__(self):  # lags mapping is mutable storage
        return hash((self.dt, self.n_steps, tuple(sorted(self.lags.items(), key=lambda kv: kv[0]))))

    def w(self, lag: int) -> complex:
        """Weight at integer lag; zero where the kernel has no support."""
        return self.lags.get(lag, 0j)

    def entry(self, n: int, m: int) -> complex:
        """Matrix element W(n, m); depends on n - m only."""
        if m > n:
            return 0j
        return self.w(n - m)

    @property
    def lags_present(self) -> Tuple[int, ...]:
        return tuple(sorted(self.lags))

    @property
    def max_lag(self) -> int:
        return max(self.lags, default=0)

    def scaled(self, factor: float) -> "WeightMatrix":
        scaled = {lag: factor * w for lag, w in self.lags.items() if factor * w != 0}
        return WeightMatrix(dt=self.dt, n_steps=self.n_steps, lags=scaled, warnings=self.warnings)


def _smooth_lag_weight(
    kernel: SmoothKernel, support: float, lag: int, dt: float, cells: int = QUADRATURE_CELLS
) -> complex:
    """Cell average of the smooth kernel part for one integer lag.

    The double integral of f(s - t') over a stationary (n, m) grid cell
    reduces exactly to a 1-D integral of f against the triangular overlap
    weight dt - |u - lag*dt| supported on [(lag-1)*dt, (lag+1)*dt].  Each of
    the two kink-free subintervals, clipped to the kernel support, is
    integrated by a composite midpoint rule with ``cells`` cells (error
    O((dt/cells)^2) for smooth kernels).
    """
    peak = lag * dt
    total = 0j
    for lo, hi in ((peak - dt, peak), (peak, peak + dt)):
        lo = max(lo, 0.0)
        hi = min(hi, support)
        if hi <= lo:
            continue
        h = (hi - lo) / cells
        us = lo + (np.arange(cells) + 0.5) * h
        vals = np.fromiter((complex(kernel(float(u))) for u in us), complex, count=cells)
        total += h * np.sum(vals * (dt - np.abs(us - peak)))
    return total / dt


def collision_weights(spec: CouplingSpec, dt: float, n_steps: int) -> WeightMatrix:
    """Discretize the memory kernel of a coupling into per-lag collision weights.

    Only the kernel fields (``deltas``, ``smooth``, ``smooth_support``) are
    read; the rate enters through ``coupling_strengths``.

    Each delta (lag L, weight w) contributes w at the integer lag round(L/dt);
    a lag further than 1e-9*dt from the grid sets a discretization-mismatch
    warning, and two deltas landing on the same grid lag set a merge warning.
    The smooth part is cell-averaged per lag (see ``_smooth_lag_weight``).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")

    warnings: list[str] = []
    lags: Dict[int, complex] = {}
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
        lags[ell] = lags.get(ell, 0j) + weight

    if spec.smooth is not None:
        last = int(math.floor(spec.smooth_support / dt)) + 1
        for ell in range(0, last + 1):
            w = _smooth_lag_weight(spec.smooth, spec.smooth_support, ell, dt)
            if w != 0:
                lags[ell] = lags.get(ell, 0j) + w

    lags = {ell: w for ell, w in lags.items() if w != 0}
    return WeightMatrix(dt=dt, n_steps=n_steps, lags=lags, warnings=tuple(warnings))


def coupling_strengths(weights: WeightMatrix, gamma: float) -> WeightMatrix:
    """Scale collision weights into coupling strengths g = sqrt(gamma/dt) * W."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return weights.scaled(math.sqrt(gamma / weights.dt))

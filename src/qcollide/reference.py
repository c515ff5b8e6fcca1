"""Exact continuous-time references for the discrete collision dynamics.

For white coupling the excited amplitude is a plain damped phase.  For the
mirror (delayed feedback) case the amplitude obeys a linear delay
differential equation with constant delay,

    d eps/dt = -(i*omega0 + gamma) * eps(t) + gamma * e^{i*phi} * eps(t - tau) * theta(t - tau),

which the method of steps solves exactly, interval by interval, as an
exponential times a polynomial.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

__all__ = ["DdeSolution", "solve_dde", "white_amplitude"]

ArrayLike = Union[float, np.ndarray]

# math.exp(x) and np.exp(x) are 0.0 for x below about -745.1332
_EXP_UNDERFLOW = -745.2


@dataclass(frozen=True)
class DdeSolution:
    """Piecewise-exact amplitude of the delayed-feedback decay.

    On the interval [k*tau, (k+1)*tau] the amplitude is

        eps(t) = e^{-a t} * sum_{j=0}^{k} (b^j / j!) * (t - j*tau)^j,

    with a = i*omega0 + gamma and b = gamma * e^{i*phi} * e^{a*tau}.  The
    feedback term switches on at t = tau inclusive; continuity of eps makes
    the endpoint convention immaterial to the values.  Each term's magnitude
    is evaluated as one exponential of its logarithm, j Re(log b) - log j!
    + j log(t - j tau) - gamma t, so that b^j / j! (which overflows for long
    horizons and strong coupling) and e^{-gamma t} (which underflows) are
    never formed on their own; its phase is j Im(log b) - omega0 t.  Term
    j + 1 over term j is at most |b| t / (j + 1), so past j = |b| t_max + 1
    the terms fall with j at every t <= t_max, and the sum stops at the first
    of them that underflows to 0 on its whole tail.  So a short delay, with
    t_max / tau terms, sums about |b| t_max of them.  A term whose exponent
    is below exp's underflow at either end of its tail is evaluated only on
    the interval where it is not (see ``_above_underflow``).

    Called on a float or a 0-d array it returns a complex; on an array of any
    shape, an array of that shape.
    """

    omega0: float
    gamma: float
    phi: float
    tau: float
    t_max: float

    def segment(self, t: float) -> int:
        """Index k of the delay interval [k*tau, (k+1)*tau] containing t."""
        return int(math.floor(t / self.tau))

    def __call__(self, t: ArrayLike) -> Union[complex, np.ndarray]:
        ts = np.asarray(t, dtype=float)
        if np.any(ts < 0) or np.any(ts > self.t_max + 1e-9 * (1 + self.t_max)):
            raise ValueError(f"evaluation time outside [0, {self.t_max}]")
        # on sorted times term j lives on the tail t > j*tau, as a real exponential
        # times the constant phase e^{i j Im(log b)}; e^{-i omega0 t} is applied last
        order = np.argsort(ts, axis=None, kind="stable")
        s = ts.ravel()[order]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            total = np.exp(-self.gamma * s).astype(complex)  # the j = 0 term
            if self.gamma > 0 and s.size:  # with gamma = 0 every echo term vanishes
                log_b_re = math.log(self.gamma) + self.gamma * self.tau
                log_b_im = self.phi + self.omega0 * self.tau
                falling = np.exp(log_b_re) * self.t_max + 1  # |b| t_max + 1, or inf
                gamma, last = self.gamma, s.item(-1)
                for j in range(1, self.segment(self.t_max) + 2):
                    # the term vanishes at t = j*tau and is absent before
                    start = j * self.tau
                    lo, hi = int(s.searchsorted(start, side="right")), len(s)
                    if lo == hi:
                        break
                    scale = j * log_b_re - math.lgamma(j + 1)
                    first = s.item(lo)
                    if min(scale + j * math.log(first - start) - gamma * first,
                           scale + j * math.log(last - start) - gamma * last) < _EXP_UNDERFLOW:
                        lo, hi = _above_underflow(scale, j, start, gamma, s, lo)
                    tail = s[lo:hi]
                    magnitude = np.exp(scale + j * np.log(tail - start) - gamma * tail)
                    if j > falling and not magnitude.any():
                        break  # each later term is smaller at every t <= t_max, so 0 too
                    total[lo:hi] += magnitude * cmath.exp(1j * j * log_b_im)
            if self.omega0:
                total *= np.exp(-1j * self.omega0 * s)
        out = np.empty_like(total)
        out[order] = total
        if not np.all(np.isfinite(out)):
            raise ValueError(
                f"the delay-equation reference is not finite (gamma={self.gamma}, "
                f"tau={self.tau}, t_max={self.t_max})"
            )
        if ts.ndim == 0:
            return complex(out[0])
        return out.reshape(ts.shape)


def _above_underflow(scale: float, j: int, start: float, gamma: float, s: np.ndarray,
                     lo: int) -> Tuple[int, int]:
    """Rows lo..hi-1 of the sorted times s, outside which echo term j is 0.

    The term's log-magnitude f(t) = scale + j log(t - start) - gamma t is
    concave on the tail s[lo:] and peaks at t = start + j / gamma, so the rows
    where it reaches a cut one below exp's underflow form one run: f rises to
    it before the peak and falls from it after.  An end of the tail that is
    below the cut moves in by bisection on its side of the peak; an end at or
    above the cut stays.  The margin of 1 covers the rounding of f, here and
    in the caller.  A term below the cut on its whole tail gets no rows.
    """
    cut = _EXP_UNDERFLOW - 1.0

    def above(i: int) -> bool:
        t = s.item(i)
        return scale + j * math.log(t - start) - gamma * t >= cut

    peak = max(lo, int(s.searchsorted(start + j / gamma)))  # f rises on s[lo:peak]
    rows = range(len(s))
    first = lo if above(lo) else bisect.bisect_left(rows, True, lo, peak, key=above)
    last = len(s) if above(-1) else bisect.bisect_left(
        rows, True, peak, len(s), key=lambda i: not above(i))
    return first, last


def solve_dde(omega0: float, gamma: float, phi: float, tau: float, t_max: float) -> DdeSolution:
    """Method-of-steps solution of the delayed-feedback amplitude equation.

    Exact up to floating point on [0, t_max]; eps(0) = 1.  Use
    ``white_amplitude`` for the memoryless tau -> 0 case.
    """
    if tau <= 0:
        raise ValueError("solve_dde needs tau > 0; use white_amplitude for delay-free decay")
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    return DdeSolution(
        omega0=float(omega0), gamma=float(gamma), phi=float(phi), tau=float(tau),
        t_max=float(t_max),
    )


def white_amplitude(omega0: float, gamma: float, t: ArrayLike) -> Union[complex, np.ndarray]:
    """Excited amplitude under white coupling: e^{-(i*omega0 + gamma/2) t}."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ValueError("t must be nonnegative")
    out = np.exp(-(1j * omega0 + gamma / 2) * ts)
    if ts.ndim == 0:
        return complex(out)
    return out

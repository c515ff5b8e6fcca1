"""Exact continuous-time references for the discrete collision dynamics.

For white coupling the excited amplitude is a plain damped phase.  For the
mirror (delayed feedback) case the amplitude obeys a linear delay
differential equation with constant delay,

    d eps/dt = -(i*omega0 + gamma) * eps(t) + gamma * e^{i*phi} * eps(t - tau) * theta(t - tau),

which the method of steps solves exactly, interval by interval, as an
exponential times a polynomial.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["DdeSolution", "solve_dde", "white_amplitude"]

ArrayLike = Union[float, np.ndarray]


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
    t_max / tau terms, sums about |b| t_max of them.
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
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(ts < 0) or np.any(ts > self.t_max + 1e-9 * (1 + self.t_max)):
            raise ValueError(f"evaluation time outside [0, {self.t_max}]")
        # on sorted times term j lives on the tail t > j*tau, as a real exponential
        # times the constant phase e^{i j Im(log b)}; e^{-i omega0 t} is applied last
        order = np.argsort(ts, kind="stable")
        s = ts[order]
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            total = np.exp(-self.gamma * s).astype(complex)  # the j = 0 term
            if self.gamma > 0:  # with gamma = 0 every echo term vanishes
                log_b_re = math.log(self.gamma) + self.gamma * self.tau
                log_b_im = self.phi + self.omega0 * self.tau
                falling = np.exp(log_b_re) * self.t_max + 1  # |b| t_max + 1, or inf
                for j in range(1, self.segment(self.t_max) + 2):
                    # the term vanishes at t = j*tau and is absent before
                    lo = int(np.searchsorted(s, j * self.tau, side="right"))
                    if lo == len(s):
                        break
                    tail = s[lo:]
                    magnitude = np.exp(j * log_b_re - math.lgamma(j + 1)
                                       + j * np.log(tail - j * self.tau) - self.gamma * tail)
                    if j > falling and not magnitude.any():
                        break  # each later term is smaller at every t <= t_max, so 0 too
                    total[lo:] += magnitude * cmath.exp(1j * j * log_b_im)
            if self.omega0:
                total *= np.exp(-1j * self.omega0 * s)
        out = np.empty_like(total)
        out[order] = total
        if not np.all(np.isfinite(out)):
            raise ValueError(
                f"the delay-equation reference is not finite (gamma={self.gamma}, "
                f"tau={self.tau}, t_max={self.t_max})"
            )
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return complex(out[0])
        return out


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

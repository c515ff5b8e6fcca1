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
from typing import Tuple, Union

import numpy as np

__all__ = ["DdeSolution", "solve_dde", "white_amplitude", "dde_numeric_oracle"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class DdeSolution:
    """Piecewise-exact amplitude of the delayed-feedback decay.

    On the interval [k*tau, (k+1)*tau] the amplitude is

        eps(t) = e^{-a t} * sum_{j=0}^{k} (b^j / j!) * (t - j*tau)^j,

    with a = i*omega0 + gamma and b = gamma * e^{i*phi} * e^{a*tau}.  The
    feedback term switches on at t = tau inclusive; continuity of eps makes
    the endpoint convention immaterial to the values.  Each term is evaluated
    as one exponential of its logarithm, j log b - log j! + j log(t - j tau)
    - a t, so that b^j / j! (which overflows for long horizons and strong
    coupling) and e^{-a t} (which underflows) are never formed on their own.
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
        a = 1j * self.omega0 + self.gamma
        decay = -a * ts
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            out = np.exp(decay)  # the j = 0 term: all of eps before the first echo
            if self.gamma > 0:  # with gamma = 0 every echo term vanishes
                log_b = math.log(self.gamma) + 1j * self.phi + a * self.tau
                for j in range(1, self.segment(self.t_max) + 2):
                    lag = ts - j * self.tau
                    on = lag > 0  # the term vanishes at t = j*tau and is absent before
                    if not on.any():
                        break
                    out[on] += np.exp(
                        j * log_b - math.lgamma(j + 1) + j * np.log(lag[on]) + decay[on]
                    )
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


def dde_numeric_oracle(
    omega0: float, gamma: float, phi: float, tau: float, dt_fine: float, t_max: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Brute-force check of ``solve_dde``: classical RK4 with linear history interpolation.

    The step is snapped so that tau is a grid point and the feedback term is
    switched per step interval (off up to the step ending at tau, on from the
    step starting at tau).  Requires dt_fine <= tau/1000.  Returns the time
    grid and the integrated amplitudes.
    """
    if tau <= 0:
        raise ValueError("the oracle needs tau > 0")
    if dt_fine > tau / 1000:
        raise ValueError(f"dt_fine must be at most tau/1000, got {dt_fine}")
    cells = int(math.ceil(tau / dt_fine - 1e-12))
    h = tau / cells
    a = 1j * omega0 + gamma
    g = gamma * cmath.exp(1j * phi)
    n = int(math.ceil(t_max / h - 1e-9))
    eps = np.empty(n + 1, dtype=complex)
    eps[0] = 1.0

    def history(t: float) -> complex:
        x = t / h
        i = int(math.floor(x))
        if i < 0:
            return 1.0 + 0j
        if i >= n:
            i = n - 1
        w = x - i
        return eps[i] * (1 - w) + eps[i + 1] * w

    for i in range(n):
        t = i * h
        y = eps[i]
        on = i >= cells  # feedback active from the step starting at t = tau

        def rhs(tt: float, yy: complex) -> complex:
            fb = g * history(tt - tau) if on else 0j
            return -a * yy + fb

        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h * k1 / 2)
        k3 = rhs(t + h / 2, y + h * k2 / 2)
        k4 = rhs(t + h, y + h * k3)
        eps[i + 1] = y + h * (k1 + 2 * k2 + 2 * k3 + k4) / 6

    return np.arange(n + 1) * h, eps

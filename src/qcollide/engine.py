"""Collision engine: per-step interaction plans, steppers and trajectories.

A collision advances the joint state over one grid interval under
H = omega0 |e><e| + sum_m g(n-m) (|g><e| adag_m + h.c.), where the sum runs
over every lag the kernel stores.  Ancilla indices extend below 1: early
collisions of a kernel with memory couple to pre-history input modes that are
still in vacuum, which is what produces the full decay rate before any
feedback arrives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from .coupling import WeightMatrix, collision_weights, coupling_strengths
from .states import SingleExcitationState, TruncatedFockState, init_single_excitation

if TYPE_CHECKING:  # pragma: no cover
    from .config import SimulationConfig

# Shortest delay block (CollisionPlan.delay_gap, capped by the run length)
# that ``_collide`` advances with one vectorised update.  A block costs about
# 20 us against about 5 us for one per-step collision; on a 2-vCPU x86-64 host
# the two broke even at 5 and blocks were 1.3x faster at 6.
BLOCK_MIN_GAP = 6

__all__ = [
    "Stepper",
    "Representation",
    "CollisionPlan",
    "Trajectory",
    "build_plan",
    "step_single_excitation",
    "step_full",
    "run",
]


class Stepper(str, Enum):
    """Per-collision propagator arithmetic."""

    EXACT = "exact"  # exact matrix exponential on the touched subspace
    SECOND_ORDER = "second_order"  # 1 - i H dt - V^2 dt^2 / 2, as is

    def __str__(self) -> str:  # keep config round-trips readable
        return self.value


class Representation(str, Enum):
    SINGLE_EXCITATION = "single_excitation"
    FULL_FOCK = "full_fock"
    MIRROR_RECURSION = "mirror_recursion"

    def __str__(self) -> str:
        return self.value


@dataclass
class CollisionPlan:
    """Interaction data for each collision, derived from a stationary strength table.

    The collision map does not depend on the step: collision k applies the
    same propagator to the emitter and to ancilla k - lag for every stored
    lag.  The lags, their strengths and the propagators are therefore built
    once per plan.
    """

    strengths: WeightMatrix
    omega0: float
    n_steps: int
    couplings: Tuple[Tuple[int, complex], ...] = field(init=False)
    lags: np.ndarray = field(init=False, repr=False, compare=False)
    delay_gap: int = field(init=False, repr=False, compare=False)
    _propagators: Dict[object, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # nonzero (lag, strength) pairs, ascending lag
        self.couplings = tuple((lag, self.strengths.w(lag)) for lag in self.strengths.lags_present)
        self.lags = np.array([lag for lag, _ in self.couplings], dtype=np.intp)
        # smallest distance between two lags: no ancilla is hit twice within
        # that many collisions (a kernel with fewer than two lags never is)
        self.delay_gap = int(np.diff(self.lags).min()) if len(self.lags) > 1 else self.n_steps

    @property
    def dt(self) -> float:
        return self.strengths.dt

    @property
    def max_lag(self) -> int:
        return self.strengths.max_lag

    @property
    def min_ancilla(self) -> int:
        return 1 - self.max_lag

    def touched(self, step: int) -> List[Tuple[int, complex]]:
        """Ancillas hit during collision ``step`` (1-based) with their strengths.

        Collision k couples to ancilla k - lag for every stored lag; indices
        at or below zero are pre-history vacuum modes and are kept.
        """
        if not 1 <= step <= self.n_steps:
            raise ValueError(f"step must be in 1..{self.n_steps}, got {step}")
        return [(step - lag, g) for lag, g in self.couplings]

    def propagator(self, kind: Stepper) -> np.ndarray:
        """One-excitation collision map on (eps, c[k - lags]), built once per stepper.

        H has omega0 on the emitter and the strengths g in its first column
        and row; V is H without the omega0 entry.  The exact stepper is
        exp(-i H dt); the second-order one is 1 - i H dt - V^2 dt^2 / 2.
        """
        kind = Stepper(kind)
        m = self._propagators.get(kind)
        if m is None:
            gs = np.array([g for _, g in self.couplings], dtype=complex)
            v = np.zeros((len(gs) + 1,) * 2, dtype=complex)
            v[1:, 0] = gs
            v[0, 1:] = gs.conj()
            h = v.copy()
            h[0, 0] = self.omega0
            if kind == Stepper.EXACT:
                m = _expm_hermitian(h, self.dt)
            else:
                m = np.eye(len(h)) - 1j * self.dt * h - 0.5 * self.dt**2 * (v @ v)
            self._propagators[kind] = m
        return m


def build_plan(strengths: WeightMatrix, omega0: float, n_steps: int) -> CollisionPlan:
    """Wrap scaled strengths into a per-step collision plan."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    return CollisionPlan(strengths=strengths, omega0=float(omega0), n_steps=int(n_steps))


def _expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h via its eigendecomposition (unitary to roundoff)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def _collide(
    state: SingleExcitationState, plan: CollisionPlan, kind: Stepper, first: int, last: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply collisions ``first``..``last`` to the one-excitation state, in place.

    Returns eps after each collision and the running change of the squared
    norm, summed from |out|^2 - |in|^2 of the touched amplitudes.  The vacuum
    amplitude and untouched ancillas are left bitwise unchanged (both are
    dark under the collision Hamiltonian).  Runs whose delay blocks reach
    BLOCK_MIN_GAP collisions advance a block per update, the others one
    collision at a time.
    """
    if not 1 <= first <= last <= plan.n_steps:
        raise ValueError(f"steps must lie in 1..{plan.n_steps}, got {first}..{last}")
    u = plan.propagator(kind)
    lags = plan.lags  # ascending
    if len(lags) and (first - lags[-1] < state.min_index or last - lags[0] > state.max_index):
        raise RuntimeError(
            f"plan/state mismatch: collisions {first}..{last} reach ancillas outside the "
            f"allocated range {state.min_index}..{state.max_index}"
        )
    idx = first - state.min_index - lags  # c[idx] are the ancillas of collision first
    n = last - first + 1
    block = min(plan.delay_gap, n)
    growth = abs(u[0, 0])
    if growth > 1:  # keep the scan's powers of u[0, 0] finite (second order only)
        block = min(block, int(600 / math.log(growth)))
    if block >= BLOCK_MIN_GAP:
        e, eps, norm_change = _collide_blocks(state.c, state.eps, u, idx, n, block)
    else:
        e, eps, norm_change = _collide_steps(state.c, state.eps, u, idx, n)
    state.eps = complex(e)
    return eps, norm_change


def _collide_steps(
    c: np.ndarray, e: complex, u: np.ndarray, idx: np.ndarray, n: int
) -> Tuple[complex, np.ndarray, np.ndarray]:
    """Per-step body of ``_collide``: one matvec of u on (eps, c[idx + j]) per collision."""
    vec = np.empty(len(idx) + 1, dtype=complex)
    eps = np.empty(n, dtype=complex)
    norm_change = np.empty(n, dtype=float)
    idx = idx.copy()
    total = 0.0
    for j in range(n):
        vec[0] = e
        vec[1:] = c[idx]
        out = u @ vec
        c[idx] = out[1:]
        e = out[0]
        total += float((np.vdot(out, out) - np.vdot(vec, vec)).real)
        eps[j] = e
        norm_change[j] = total
        idx += 1
    return e, eps, norm_change


def _collide_blocks(
    c: np.ndarray, e: complex, u: np.ndarray, idx: np.ndarray, n: int, block: int
) -> Tuple[complex, np.ndarray, np.ndarray]:
    """Delay-blocked body of ``_collide``: ``block`` collisions per vectorised update.

    With block no longer than the delay gap, the ancillas of one block are
    distinct and each was last touched before the block started, so their
    inputs cin are known up front.  eps then obeys the scalar affine recurrence
    eps_k = u00 eps_{k-1} + u[0, 1:] . cin_k, solved by a log-depth doubling
    scan, and the outputs u[1:] . (eps_{k-1}, cin_k) are scattered back.  Over
    a block the per-collision norm changes |out|^2 - |in|^2 telescope in eps,
    leaving |eps_k|^2 - |eps_start|^2 plus a running sum over the ancillas.
    """
    a, to_eps, to_ancillas = u[0, 0], u[0, 1:], u[1:].T
    ones = np.ones(len(idx))
    eps = np.empty(n, dtype=complex)
    norm_change = np.empty(n, dtype=float)
    at = idx + np.arange(block)[:, None]  # c[at[j]]: ancillas of the block's collision j
    vin = np.empty((block, len(idx) + 1), dtype=complex)  # rows (eps_{k-1}, cin_k)
    total = 0.0
    for start in range(0, n, block):
        b = min(block, n - start)
        rows, cin = vin[:b], vin[:b, 1:]
        cin[...] = c[at[:b]]
        x = cin @ to_eps
        x[0] += a * e
        s, power = 1, a
        while s < b:  # x_k <- sum_{j <= k} a^(k-j) x_j
            x[s:] += power * x[:-s]
            s, power = 2 * s, power * power
        rows[0, 0] = e
        rows[1:, 0] = x[:-1]
        cout = rows @ to_ancillas
        gain = np.abs(cout) ** 2
        gain -= np.abs(cin) ** 2
        c[at[:b]] = cout
        out = norm_change[start:start + b]
        np.cumsum(gain @ ones, out=out)
        out += np.abs(x) ** 2
        out += total - abs(e) ** 2
        total = out[-1]
        eps[start:start + b] = x
        e = x[-1]
        at += block
    return e, eps, norm_change


def step_single_excitation(
    state: SingleExcitationState,
    plan: CollisionPlan,
    step: int,
    kind: Stepper = Stepper.EXACT,
) -> SingleExcitationState:
    """Advance one collision in the one-excitation sector, in place."""
    _collide(state, plan, kind, step, step)
    return state


def _fock_operators(n_max: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    annihilate = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
    excited = np.array([[0, 0], [0, 1]], dtype=complex)
    return annihilate, lower, excited


def _kron_chain(ops: List[np.ndarray]) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _fock_unitary(plan: CollisionPlan, state: TruncatedFockState, slots_gs: tuple) -> np.ndarray:
    key = ("fock", state.n_max, len(state.active_modes), slots_gs)
    u = plan._propagators.get(key)
    if u is None:
        annihilate, lower, excited = _fock_operators(state.n_max)
        eye = np.eye(state.n_max + 1, dtype=complex)
        n_modes = len(state.active_modes)
        h = plan.omega0 * _kron_chain([excited] + [eye] * n_modes)
        for slot, g in slots_gs:
            ops = [lower] + [eye] * n_modes
            ops[1 + slot] = annihilate.conj().T
            v = g * _kron_chain(ops)
            h = h + v + v.conj().T
        u = _expm_hermitian(h, plan.dt)
        plan._propagators[key] = u
    return u


def step_full(state: TruncatedFockState, plan: CollisionPlan, step: int) -> TruncatedFockState:
    """Advance one collision of the truncated-Fock register, in place.

    Exact dense exponential of H on qubit x active modes; every touched
    ancilla must already sit inside the active window.
    """
    touched = plan.touched(step)
    for m, _ in touched:
        if m not in state.active_modes:
            raise ValueError(
                f"collision {step} touches ancilla {m}, which is outside the active window "
                f"{state.active_modes}"
            )
    slots_gs = tuple((state.active_modes.index(m), g) for m, g in touched)
    u = _fock_unitary(plan, state, slots_gs)
    state.amplitudes = (u @ state.amplitudes.ravel()).reshape(state.amplitudes.shape)
    return state


@dataclass
class Trajectory:
    """Per-collision record of a simulation run."""

    steps: np.ndarray
    times: np.ndarray
    eps: np.ndarray
    excited_population: np.ndarray
    norms: np.ndarray
    wall_time_s: float
    config: dict
    notes: Tuple[str, ...] = ()

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1

    @property
    def final_eps(self) -> complex:
        return complex(self.eps[-1])

    @property
    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))


def _run_single_excitation(config, plan, n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
    state = init_single_excitation(n_steps, config.beta, n_history=plan.max_lag)
    norm_sq = abs(state.a_vac) ** 2 + abs(state.eps) ** 2
    eps, norm_change = _collide(state, plan, config.stepper, 1, n_steps)
    return np.append(complex(config.beta), eps), np.sqrt(np.append(norm_sq, norm_sq + norm_change))


def _run_full_fock(config, plan, n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
    state = init_single_excitation(0, config.beta)
    fock = TruncatedFockState(
        amplitudes=np.array([state.a_vac, state.eps], dtype=complex),
        active_modes=(),
        n_max=config.n_max,
    )
    window_cap = config.window if config.window is not None else plan.max_lag + 1
    eps = np.empty(n_steps + 1, dtype=complex)
    norms = np.empty(n_steps + 1, dtype=float)
    eps[0] = fock.excited_vacuum_amplitude()
    norms[0] = fock.norm()
    for k in range(1, n_steps + 1):
        for m, _ in plan.touched(k):
            if m not in fock.active_modes:
                fock.add_mode(m)
        if len(fock.active_modes) > window_cap:
            raise ValueError(
                f"collision {k} needs {len(fock.active_modes)} active modes, more than the "
                f"window of {window_cap}"
            )
        step_full(fock, plan, k)
        for m in [m for m in fock.active_modes if m + plan.max_lag <= k]:
            fock.retire_mode(m)
        eps[k] = fock.excited_vacuum_amplitude()
        norms[k] = fock.norm()
    return eps, norms


def run(config: "SimulationConfig") -> Trajectory:
    """Run a full collision sequence and record the trajectory.

    Deterministic: identical configs produce identical arrays.  The wall time
    of the step loop is recorded for the summary but never enters the data
    columns.  A non-finite amplitude or norm raises a RuntimeError naming the
    first step where it appears.
    """
    spec = config.coupling_spec()
    n_steps, note = config.effective_steps()
    notes: List[str] = [] if note is None else [note]

    weights = collision_weights(spec, config.dt, n_steps)
    notes.extend(weights.warnings)
    strengths = coupling_strengths(weights, spec.gamma)
    omega0 = 0.0 if config.rotating_frame else config.omega0
    if config.rotating_frame and config.omega0 != 0:
        notes.append(
            f"rotating frame: dynamics run with omega0=0; multiply eps by "
            f"exp(-i*{config.omega0!r}*t) to recover lab-frame amplitudes"
        )
    plan = build_plan(strengths, omega0, n_steps)

    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if config.representation == Representation.FULL_FOCK:
            eps, norms = _run_full_fock(config, plan, n_steps)
        else:  # mirror_recursion is the single-excitation core on a two-lag kernel
            eps, norms = _run_single_excitation(config, plan, n_steps)
    wall_time = time.perf_counter() - start
    bad = np.flatnonzero(~(np.isfinite(eps) & np.isfinite(norms)))
    if bad.size:
        raise RuntimeError(
            f"the amplitude or norm is not finite from step {bad[0]} on "
            f"(eps = {eps[bad[0]]}, norm = {norms[bad[0]]}); the stepper is unstable at "
            f"this dt"
        )

    steps = np.arange(n_steps + 1)
    return Trajectory(
        steps=steps,
        times=steps * config.dt,
        eps=eps,
        excited_population=np.abs(eps) ** 2,
        norms=norms,
        wall_time_s=wall_time,
        config=config.to_dict(),
        notes=tuple(notes),
    )

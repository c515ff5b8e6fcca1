"""Collision engine: per-step interaction plans, steppers and trajectories.

A collision advances the joint state over one grid interval under
H = omega0 |e><e| + sum_m g(n-m) (|g><e| adag_m + h.c.), where the sum runs
over every lag the kernel stores.  Ancilla indices extend below 1: early
collisions of a kernel with memory couple to pre-history input modes that are
still in vacuum, which is what produces the full decay rate before any
feedback arrives.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from .coupling import WeightMatrix, collision_weights, coupling_strengths
from .states import _DARK_BRANCH_TOL, SingleExcitationState, init_single_excitation

if TYPE_CHECKING:  # pragma: no cover
    from .config import SimulationConfig

# Shortest delay block (CollisionPlan.delay_gap, capped by the run length)
# that ``_collide`` advances with one vectorised update.  A block costs about
# 20 us against about 5 us for one per-step collision; on a 2-vCPU x86-64 host
# the two broke even at 5 and blocks were 1.3x faster at 6.
BLOCK_MIN_GAP = 6

# Largest local collision space (the qubit and the touched modes) whose number
# blocks ``_fock_propagator`` joins into one dense matrix: a product per block costs
# about 2.5 us of Python overhead, so small propagators are faster as one.
# On the same host the two broke even at 256 amplitudes; at 128 the dense
# form took half the time.  A mirror's local space has 2 (n_max + 1)^2
# amplitudes, so only kernels with three or more lags reach the blocks.
FOCK_DENSE_MAX = 128

__all__ = [
    "Stepper",
    "Representation",
    "CollisionPlan",
    "Trajectory",
    "build_plan",
    "step_single_excitation",
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
    _propagators: Dict[object, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # nonzero (lag, strength) pairs, ascending lag
        self.couplings = tuple((lag, self.strengths.w(lag)) for lag in self.strengths.lags_present)
        self.lags = np.array([lag for lag, _ in self.couplings], dtype=np.intp)
        # smallest distance between two lags: no ancilla is hit twice within
        # that many collisions (a kernel with fewer than two lags never is)
        self.delay_gap = int(np.diff(self.lags).min()) if len(self.lags) > 1 else self.n_steps
        for lag, g in self.couplings:  # eigh would fail on them, or return nan
            if not cmath.isfinite(g):
                raise RuntimeError(
                    f"the coupling strength at lag {lag} is not finite ({g}); the kernel's "
                    f"weight there, or that weight times sqrt(gamma/dt), overflows"
                )

    @property
    def dt(self) -> float:
        return self.strengths.dt

    @property
    def max_lag(self) -> int:
        return self.strengths.max_lag

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
            else:  # numpy's power gives inf where a float's raises; both are C pow
                m = np.eye(len(h)) - 1j * self.dt * h - 0.5 * np.float64(self.dt)**2 * (v @ v)
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


def fock_block_sizes(n_max: int, n_modes: int) -> np.ndarray:
    """Sizes of the excitation-number blocks of the qubit and ``n_modes`` modes.

    Entry N counts the basis states with N excitations (qubit plus photons,
    at most ``n_max`` per mode): the coefficients of
    (1 + x)(1 + x + ... + x^n_max)^n_modes.
    """
    sizes = np.ones(2, dtype=np.int64)
    for _ in range(n_modes):
        sizes = np.convolve(sizes, np.ones(n_max + 1, dtype=np.int64))
    return sizes


def _fock_blocks(
    n_max: int, n_modes: int, omega0: float, dt: float, slots_gs: tuple
) -> Tuple[np.ndarray, List[Tuple[int, int, np.ndarray]]]:
    """exp(-i H dt) on the qubit and ``n_modes`` modes, one excitation-number block at a time.

    H = omega0 |e><e| + sum over touched slots of g (|g><e| adag_slot + h.c.)
    conserves the total excitation number N, so it is block diagonal once the
    register's flat indices are ordered by N.  Returns that order and, per
    block, its (start, stop) in the order and its unitary.  Each block is
    filled by index arithmetic, omega0 on the excited-qubit diagonal and
    g sqrt(n + 1) from |e, n> to |g, n + 1> on each touched slot, so no
    matrix of the full register dimension is formed.
    """
    shape = (2,) + (n_max + 1,) * n_modes
    occ = np.indices(shape).reshape(len(shape), -1)  # occupations of each flat index
    number = occ.sum(axis=0)
    order = np.argsort(number, kind="stable")
    place = np.empty_like(order)  # position of each flat index in the order
    place[order] = np.arange(order.size)
    excited = occ[0] == 1
    src, dst, amp = [order[:0]], [order[:0]], [np.zeros(0, dtype=complex)]
    for slot, g in slots_gs:
        n = occ[1 + slot]
        hop = np.flatnonzero(excited & (n < n_max))  # |e, n> with room for one more photon
        src.append(place[hop])
        dst.append(place[hop - (n_max + 1) ** n_modes + (n_max + 1) ** (n_modes - 1 - slot)])
        amp.append(g * np.sqrt(n[hop] + 1.0))
    by_src = np.argsort(np.concatenate(src), kind="stable")  # each block's hops: one slice
    src, dst, amp = (np.concatenate(part)[by_src] for part in (src, dst, amp))
    diag = omega0 * excited[order]
    blocks = []
    start = 0
    for stop in np.cumsum(np.bincount(number)):
        lo, hi = np.searchsorted(src, (start, stop))
        h = np.diag(diag[start:stop]).astype(complex)
        h[dst[lo:hi] - start, src[lo:hi] - start] = amp[lo:hi]
        h[src[lo:hi] - start, dst[lo:hi] - start] = np.conj(amp[lo:hi])
        blocks.append((start, int(stop), _expm_hermitian(h, dt)))
        start = int(stop)
    return order, blocks


def _fock_propagator(plan: CollisionPlan, n_max: int):
    """U_loc of a full_fock collision, built once per plan and n_max and cached on the plan.

    U_loc is the exact exponential of H on the qubit and one mode per stored
    lag, in lag order.  Up to FOCK_DENSE_MAX amplitudes it is one dense
    matrix in that local order; above, it is the number order of the local
    basis and one unitary per excitation-number block (see ``_fock_blocks``).
    """
    key = ("fock", n_max)
    prop = plan._propagators.get(key)
    if prop is None:
        slots_gs = tuple(enumerate(g for _, g in plan.couplings))  # touched() order
        order, blocks = _fock_blocks(n_max, len(slots_gs), plan.omega0, plan.dt, slots_gs)
        if order.size <= FOCK_DENSE_MAX:  # one dense matrix in local order
            prop = np.zeros((order.size,) * 2, dtype=complex)
            for start, stop, u in blocks:
                prop[np.ix_(order[start:stop], order[start:stop])] = u
        else:
            prop = (order, blocks)
        plan._propagators[key] = prop
    return prop


def _apply_local(prop, x: np.ndarray, out=None) -> np.ndarray:
    """U_loc @ x for the register as a (local dimension, rest) matrix, into ``out`` if given."""
    if isinstance(prop, np.ndarray):
        return np.matmul(prop, x, out=out)
    order, blocks = prop  # blocks are contiguous row slices once the local rows are in number order
    y = x[order]
    for start, stop, u in blocks:
        y[start:stop] = u @ y[start:stop]
    if out is None:
        out = np.empty_like(y)
    out[order] = y
    return out


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


def _run_full_fock(config, plan, n_steps: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """eps and norms of a full_fock run, and the register dimension.

    The register holds one axis per ancilla the kernel can still reach, in
    age order: before collision k, axis 1 holds ancilla k - max_lag (the
    oldest) and axis W ancilla k - min_lag (the newest), W = max_lag -
    min_lag + 1.  Collision k touches axis 1 + max_lag - lag for each stored
    lag, the same axes every step, so the register is kept for the whole run
    as the (local dimension, rest) matrix x that U_loc multiplies, with the
    qubit and the touched axes first, and two fixed views show x and the
    product y in register order.  After each product the oldest ancilla is
    out of reach: its occupied branch must be dark (qubit down, every other
    mode in vacuum), and its weight is kept as retired.  Copying y's vacuum
    slice of axis 1 into x's vacuum slice of axis W moves every other ancilla
    down one axis; x's occupied part of axis W is never written, so the
    newest ancilla starts in vacuum.  The test suite pins this loop against a
    per-call register that moves the touched axes at every collision.
    """
    lags = plan.lags
    width = int(lags[-1] - lags[0]) + 1 if len(lags) else 0
    if config.window is not None and config.window < width:
        raise ValueError(
            f"the kernel spans {width} ancillas (lags {lags[0]}..{lags[-1]}), more than "
            f"the window of {config.window}"
        )
    n_max = config.n_max
    prop = _fock_propagator(plan, n_max)
    # touched() order: axis 1, the largest lag's, is the last of the local axes
    front = [0] + [1 + plan.max_lag - int(lag) for lag in lags]
    perm = front + [axis for axis in range(1, width + 1) if axis not in front]
    shape = (2,) + (n_max + 1,) * width  # in perm order too: every mode axis has n_max + 1
    size = 2 * (n_max + 1) ** width
    rest = size // (2 * (n_max + 1) ** len(lags))
    x = np.zeros((size // rest, rest), dtype=complex)
    y = np.empty_like(x)
    if width:
        back = np.argsort(perm)
        t_out, t_next = (a.reshape(shape).transpose(back) for a in (y, x))
        # rows of y with axis 1 occupied: the last n_max of every n_max + 1, read without a copy
        occupied = y.reshape(-1, (n_max + 1) * rest)[:, rest:].view(float)
        dark = y[1:n_max + 1, 0]  # those rows with the qubit down and every other mode in vacuum
    # |g, vac> and |e, vac> sit at flat indices 0 and size // 2 in either layout
    flat, half = x.reshape(-1), size // 2
    start = init_single_excitation(0, config.beta)
    flat[0], flat[half] = start.a_vac, start.eps
    eps = np.empty(n_steps + 1, dtype=complex)
    norms = np.empty(n_steps + 1, dtype=float)
    eps[0] = flat[half]
    norms[0] = math.sqrt(np.vdot(x, x).real)
    retired = 0.0
    for k in range(1, n_steps + 1):
        _apply_local(prop, x, y)
        if width:
            weight = float(np.einsum("ij,ij->", occupied, occupied))
            bright = abs(weight - float(np.vdot(dark, dark).real))
            if bright > _DARK_BRANCH_TOL:
                raise RuntimeError(
                    f"mode {k - plan.max_lag} is still entangled with the active dynamics; "
                    f"retiring it would lose {bright:.3e} of coherent weight"
                )
            retired += weight
            t_next[..., 0] = t_out[:, 0]
        else:
            x[...] = y
        eps[k] = flat[half]
        norms[k] = math.sqrt(np.vdot(x, x).real + retired)
    return eps, norms, size


def _fock_note(plan: CollisionPlan, n_max: int, dim: int) -> str:
    """Register and propagator sizes of a full_fock run; no wall-clock value."""
    n_touched = len(plan.couplings)
    return (
        f"full_fock register: peak dimension {dim}, local propagator dimension "
        f"{2 * (n_max + 1) ** n_touched} (largest excitation-number block "
        f"{int(fock_block_sizes(n_max, n_touched).max())}), "
        f"cached propagators {len(plan._propagators)}"
    )


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
            eps, norms, dim = _run_full_fock(config, plan, n_steps)
            notes.append(_fock_note(plan, config.n_max, dim))
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

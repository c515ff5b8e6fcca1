"""Collision engine: per-step interaction plans, steppers and trajectories.

A collision advances the joint state over one grid interval under
H = sum_m g(n-m) (|g><e| adag_m + h.c.), where the sum runs over every lag
the kernel stores.  The collisions run in the frame that rotates at omega0:
the strength at lag l carries e^{-i omega0 l dt}, and the lab-frame
amplitude is e^{-i omega0 t} eps, one output phase.  Ancilla indices extend
below 1: early collisions of a kernel with memory couple to pre-history input
modes that are still in vacuum, which is what produces the full decay rate
before any feedback arrives.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .config import SimulationConfig

# weight of a retiring full_fock mode's occupied branch outside |g> x vacuum,
# relative to the register's squared norm, above which retiring it would be
# lossy and is refused
_DARK_BRANCH_TOL = 1e-12

# Largest local collision space (the qubit and the touched modes) that
# ``_fock_propagator`` builds whole; larger ones go by excitation-number
# blocks.  On a 2-vCPU x86-64 host with one BLAS thread (best of 7), the whole
# form against the blocks took, to build once per run, 141 / 253 us at D = 32
# amplitudes, 553 / 406 at 64, 2,949 / 845 at 128 and 4,391 / 961 at 162; and
# to apply to a (D, 8) register at every collision, 3.3 / 17.3 us, 6.7 / 21.8,
# 20.6 / 32.3 and 31.3 / 43.6.  So above about 64 amplitudes the whole form
# costs more to build and less to apply.  A local space of T touched modes has
# 2^(T + 1) amplitudes, so only kernels with seven or more lags reach the blocks.
FOCK_DENSE_MAX = 128

# lag pairs that ``_delay_recursion`` sums at once: its memory stays bounded
# by this many pairs (about 6 MB) however many lags a kernel stores
_PAIR_CHUNK = 1 << 16

__all__ = [
    "Stepper",
    "Representation",
    "CollisionPlan",
    "Trajectory",
    "run",
]


class Stepper(str, Enum):
    """Per-collision propagator arithmetic."""

    EXACT = "exact"  # exact matrix exponential on the touched subspace
    SECOND_ORDER = "second_order"  # 1 - i H dt - H^2 dt^2 / 2, as is

    def __str__(self) -> str:  # keep config round-trips readable
        return self.value


class Representation(str, Enum):
    SINGLE_EXCITATION = "single_excitation"
    FULL_FOCK = "full_fock"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class CollisionPlan:
    """The run's stationary strength table: the same collision at every step.

    Collision k couples the emitter to ancilla k - lags[i] with strength
    gs[i] for every stored lag, in ascending order; a lag whose strength is
    zero is not stored.
    """

    lags: np.ndarray
    gs: np.ndarray
    dt: float
    n_steps: int

    @property
    def max_lag(self) -> int:
        return int(self.lags[-1]) if len(self.lags) else 0


def _expm_hermitian(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h via its eigendecomposition (unitary to roundoff)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def _collision_map(h: np.ndarray, dt: float, kind: Stepper) -> np.ndarray:
    """The stepper's map of Hermitian h: exp(-i h dt), or 1 - i h dt - h^2 dt^2 / 2."""
    if kind == Stepper.EXACT:
        return _expm_hermitian(h, dt)
    # numpy's power gives inf where a float's raises; both are C pow
    return np.eye(len(h)) - 1j * dt * h - 0.5 * np.float64(dt)**2 * (h @ h)


def _delay_recursion(plan: CollisionPlan, kind: Stepper):
    """The one-excitation collision as a scalar recursion over lag differences.

    Collision k acts on eps and the touched ancillas c = c[k - lags] through
    H = |g| (|e><ghat| + |ghat><e|): the strengths g couple the emitter to
    the single direction ghat = g / |g|, and the rest of c is dark.  So the
    map is 1 + V (u2 - 1) V^dagger with V = [e, ghat], where u2 is the
    stepper's 2x2 map of H2 = [[0, |g|], [|g|, 0]]: exp(-i H2 dt), or
    1 - i H2 dt - |g|^2 dt^2 / 2.  With s_k = ghat^dagger c and
    (eps_k, s_k + ds_k) = u2 (eps_{k-1}, s_k), each collision adds ghat ds_k
    to its ancillas, and s_k = sum over D >= 1 of R(D) ds_{k-D}, where
    R(D) = sum over lag of conj(ghat[lag]) ghat[lag - D].  Returns u2, the
    lag differences D < n_steps with nonzero R(D), their R, and the block
    length of ``_run_single_excitation``: the smallest such D (the run
    length if there is none), capped so the scan's powers of a growing u00
    stay finite (second order only).
    """
    size = np.float64(math.hypot(*np.abs(plan.gs)))  # no overflow in a sum of squares
    u2 = _collision_map(np.array([[0.0, size], [size, 0.0]]), plan.dt, kind)
    # pairs (newer lag i, older lag j) of the stored lags, not the lag grid: a
    # sparse kernel can span millions of steps.  The partners of lag i, those
    # with 1 <= lags[i] - lags[j] < n_steps, are lags first[i] to i - 1; the
    # pairs are numbered in that order and summed _PAIR_CHUNK at a time
    lags, gs, scale = plan.lags, plan.gs, size
    if size < 2.0**-600:  # numpy's complex division takes 1 / size, inf below 5.6e-309:
        gs, scale = gs * 2.0**600, size * 2.0**600  # scale both by a power of two, exactly
    unit = gs / scale if size else gs
    first = np.searchsorted(lags, lags - (plan.n_steps - 1))
    count = np.arange(len(lags)) - first
    ends = np.cumsum(count)
    n_pairs = int(ends[-1]) if len(ends) else 0
    length = int((lags - lags[first]).max(initial=0)) + 1
    re, im = np.zeros(length), np.zeros(length)
    for start in range(0, n_pairs, _PAIR_CHUNK):
        pairs = np.arange(start, min(start + _PAIR_CHUNK, n_pairs))
        i = np.searchsorted(ends, pairs, side="right")
        j = first[i] + pairs - (ends[i] - count[i])
        diff = lags[i] - lags[j]
        weight = unit[i].conj() * unit[j]
        re += np.bincount(diff, weight.real, length)
        im += np.bincount(diff, weight.imag, length)
    r = re + 1j * im
    gaps = np.flatnonzero(r)
    block = int(gaps[0]) if len(gaps) else plan.n_steps
    if abs(u2[0, 0]) > 1:
        block = max(1, min(block, int(600 / math.log(abs(u2[0, 0])))))
    return u2, gaps, r[gaps], block


def _fock_hamiltonian(gs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H on the qubit and one two-level mode per strength, as index arithmetic in register order.

    H = sum over modes m of gs[m] (|g><e| adag_m + h.c.) has no diagonal.
    Returns its hops: for each mode, gs[m] from |e, 0> at flat index ``src``
    (the excited qubit is the second half of the flat indices) to |g, 1> at
    ``dst``.
    """
    n_modes = len(gs)
    half = 1 << n_modes
    modes = np.arange(half)  # the modes' flat index, under the excited qubit
    src, dst, amp = [modes[:0]], [modes[:0]], [np.zeros(0, dtype=complex)]
    for slot, g in enumerate(gs):
        stride = 1 << (n_modes - 1 - slot)
        hop = np.flatnonzero((modes & stride) == 0)  # |e, 0> on the mode
        src.append(half + hop)
        dst.append(hop + stride)
        amp.append(np.full(hop.size, g, dtype=complex))
    return np.concatenate(src), np.concatenate(dst), np.concatenate(amp)


def _fock_propagator(plan: CollisionPlan, kind: Stepper):
    """U_loc of a full_fock collision: the stepper's map of H on the local space.

    The local space is the qubit and one mode per stored lag, in lag order.
    Up to FOCK_DENSE_MAX amplitudes U_loc is one dense matrix in that local
    order, built from the whole local H, so nothing assumes [H, N] = 0
    there.  Above, H conserves the total excitation number N, so both
    stepper maps are block diagonal once the local basis is ordered by N:
    U_loc is that order and, per block, its (start, stop) in the order and
    its map, and no matrix of the whole local dimension is formed.  Each run
    builds it once.
    """
    src, dst, amp = _fock_hamiltonian(plan.gs)
    size = 2 << len(plan.gs)
    if size <= FOCK_DENSE_MAX:
        h = np.zeros((size, size), dtype=complex)
        h[dst, src] = amp
        h[src, dst] = np.conj(amp)
        return _collision_map(h, plan.dt, kind)
    shape = (2,) * (len(plan.gs) + 1)
    number = np.indices(shape).reshape(len(shape), -1).sum(axis=0)
    order = np.argsort(number, kind="stable")
    place = np.empty_like(order)  # position of each flat index in the order
    place[order] = np.arange(order.size)
    blocks = []
    start = 0
    for n, stop in enumerate(np.cumsum(np.bincount(number))):
        hops = number[src] == n  # and number[dst] == n: a hop keeps N
        into, out = place[dst[hops]] - start, place[src[hops]] - start
        h = np.zeros((stop - start,) * 2, dtype=complex)
        h[into, out] = amp[hops]
        h[out, into] = np.conj(amp[hops])
        blocks.append((start, int(stop), _collision_map(h, plan.dt, kind)))
        start = int(stop)
    return order, blocks


def _apply_local(prop, x: np.ndarray, out: np.ndarray) -> None:
    """U_loc @ x into ``out`` by excitation-number blocks, x the (local dimension, rest) register."""
    order, blocks = prop  # blocks are contiguous row slices once the local rows are in number order
    y = x[order]
    for start, stop, u in blocks:
        y[start:stop] = u @ y[start:stop]
    out[order] = y


@dataclass
class Trajectory:
    """Per-collision record of a simulation run.

    A run stores the amplitude eps_k and the norm of each step k = 0..n_steps,
    and the step size; the step index, the time k dt and the excited
    population |eps_k|^2 are computed from them on access.
    """

    eps: np.ndarray
    norms: np.ndarray
    dt: float
    wall_time_s: float
    config: dict
    notes: Tuple[str, ...] = ()

    @property
    def steps(self) -> np.ndarray:
        return np.arange(len(self.eps))

    @property
    def times(self) -> np.ndarray:
        return self.steps * self.dt

    @property
    def excited_population(self) -> np.ndarray:
        return np.abs(self.eps) ** 2

    @property
    def n_steps(self) -> int:
        return len(self.eps) - 1

    @property
    def final_eps(self) -> complex:
        return complex(self.eps[-1])

    @property
    def max_norm_drift(self) -> float:
        return float(np.max(np.abs(self.norms - self.norms[0])))


def _run_single_excitation(config, plan) -> Tuple[np.ndarray, np.ndarray]:
    """eps and norms of a one-excitation run, by the recursion of ``_delay_recursion``.

    Within a block of at most min(D) collisions every s_k depends only on ds
    from before the block, so s is one product of the ds history with R, and
    eps_k = u00 eps_{k-1} + u01 s_k is a scalar affine recurrence, solved by
    a log-depth doubling scan.  The squared norm changes per collision by
    |eps_k|^2 - |eps_{k-1}|^2 + 2 Re(conj(s_k) ds_k) + |ds_k|^2.
    """
    u2, gaps, r, block = _delay_recursion(plan, config.stepper)
    n_steps = plan.n_steps
    (a, to_eps), (from_eps, to_s) = u2[0], u2[1] - (0, 1)
    pad = gaps[-1] if len(gaps) else 0
    ds = np.zeros(pad + n_steps, dtype=complex)  # ds_k at pad + k - 1; none before step 1
    s = np.empty(n_steps, dtype=complex)
    eps = np.empty(n_steps + 1, dtype=complex)
    eps[0] = config.beta
    at = pad - gaps + np.arange(block)[:, None]  # ds_{k - D} of the block's collisions
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        h = s[start:stop]
        np.matmul(ds[at[:stop - start]], r, out=h)
        x = eps[start + 1:stop + 1]
        np.multiply(h, to_eps, out=x)
        x[0] += a * eps[start]
        step, power = 1, a
        while step < len(x):  # x_k <- sum_{j <= k} a^(k-j) x_j
            x[step:] += power * x[:-step]
            step, power = 2 * step, power * power
        ds[pad + start:pad + stop] = from_eps * eps[start:stop] + to_s * h
        at += block
    ds = ds[pad:]
    s *= 2  # s becomes (2 s + ds) conj(ds) in place: no fourth array of the run's length
    s += ds
    ds.imag *= -1
    s *= ds  # its real part is the norm gain 2 Re(conj(s_k) ds_k) + |ds_k|^2 of collision k
    gain = np.cumsum(s.real, out=s.real)
    norms = np.abs(eps)
    norms *= norms
    norms[1:] += gain
    norms += max(0.0, 1.0 - abs(eps[0]) ** 2)  # |a_vac|^2, which no collision changes
    return eps, np.sqrt(norms, out=norms)


def _run_full_fock(config, plan, prop) -> Tuple[np.ndarray, np.ndarray, int]:
    """eps and norms of a full_fock run by U_loc ``prop``, and the register dimension.

    The register holds one axis per ancilla the kernel can still reach, in
    age order: before collision k, axis 1 holds ancilla k - max_lag (the
    oldest) and axis W ancilla k - min_lag (the newest), W = max_lag -
    min_lag + 1.  Collision k touches axis 1 + max_lag - lag for each stored
    lag, the same axes every step, so the register is kept for the whole run
    as the (local dimension, rest) matrix x that U_loc multiplies, with the
    qubit and the touched axes first, and two fixed views show x and the
    product y in register order.  U_loc is applied as one np.matmul when it
    is dense, chosen once per run.  After each product the oldest ancilla is
    out of reach.  Copying y's vacuum slice of axis 1 into x's vacuum slice
    of axis W moves every other ancilla down one axis; x's occupied part of
    axis W is never written, so the newest ancilla starts in vacuum.  The
    oldest ancilla's occupied branch is what the copy leaves behind, so its
    weight is vdot(y, y) - vdot(x, x), two contiguous reductions.  That
    branch must be dark (qubit down, every other mode in vacuum) up to
    _DARK_BRANCH_TOL of vdot(y, y), and its weight is kept as retired.  The
    test suite pins this loop against a per-call register that moves the
    touched axes at every collision.
    """
    lags, n_steps = plan.lags, plan.n_steps
    width = int(lags[-1] - lags[0]) + 1 if len(lags) else 0
    apply = np.matmul if isinstance(prop, np.ndarray) else _apply_local
    # touched() order: axis 1, the largest lag's, is the last of the local axes
    front = [0] + [1 + plan.max_lag - int(lag) for lag in lags]
    perm = front + [axis for axis in range(1, width + 1) if axis not in front]
    shape = (2,) * (width + 1)  # in perm order too: every axis has two levels
    size = 2 << width
    rest = size >> (len(lags) + 1)
    x = np.zeros((size // rest, rest), dtype=complex)
    y = np.empty_like(x)
    if width:
        back = np.argsort(perm)
        t_out, t_next = (a.reshape(shape).transpose(back) for a in (y, x))
        # the row of y with axis 1 occupied, the qubit down and every other mode in
        # vacuum, as a view that each product refills (y[1, 0] would be a snapshot)
        dark = y[1:2, 0]
    # |g, vac> and |e, vac> sit at flat indices 0 and size // 2 in either layout
    flat, half = x.reshape(-1), size // 2
    beta = complex(config.beta)
    flat[0], flat[half] = math.sqrt(max(0.0, 1.0 - abs(beta) ** 2)), beta
    eps = np.empty(n_steps + 1, dtype=complex)
    norms = np.empty(n_steps + 1, dtype=float)
    eps[0] = flat[half]
    norms[0] = math.sqrt(np.vdot(x, x).real)
    retired = 0.0
    for k in range(1, n_steps + 1):
        apply(prop, x, out=y)
        if width:
            t_next[..., 0] = t_out[:, 0]
            kept = np.vdot(x, x).real
            weight = np.vdot(y, y).real - kept  # of y's rows with axis 1 occupied
            bright = abs(weight - np.vdot(dark, dark).real)
            if bright > _DARK_BRANCH_TOL * (kept + weight):
                raise RuntimeError(
                    f"mode {k - plan.max_lag} is still entangled with the active dynamics; "
                    f"retiring it would lose {bright:.3e} of coherent weight"
                )
            retired += weight
        else:
            x[...] = y
            kept = np.vdot(x, x).real
        eps[k] = flat[half]
        norms[k] = math.sqrt(kept + retired)
    return eps, norms, size


def _fock_note(plan: CollisionPlan, dim: int) -> str:
    """Register and propagator sizes of a full_fock run; no wall-clock value.

    The qubit and T touched modes have C(T + 1, N) basis states with N
    excitations, most at N = floor((T + 1) / 2).
    """
    n_local = len(plan.lags) + 1
    return (
        f"full_fock register: peak dimension {dim}, local propagator dimension "
        f"{1 << n_local} (largest excitation-number block {math.comb(n_local, n_local // 2)})"
    )


def _growth_note(plan: CollisionPlan, prop) -> str:
    """rho, the most one second-order collision can scale the state's norm by.

    Without a full_fock local map ``prop`` the collision is 1 + V (u2 - 1) V^dagger
    of ``_delay_recursion``, of norm max(1, rho) = rho, where u2 = (1 - x/2) -
    i dt H2 with x = |g|^2 dt^2 is normal: rho = hypot(1 - x/2, dt |g|), as
    H2 has the eigenvalues +-|g|.  With ``prop``, rho is the largest 2-norm of
    the dense map or of its number blocks.  The norm after n collisions is at
    most rho^n times the first; the note gives n log10 rho, as rho^n can
    overflow.
    """
    if prop is None:
        size = math.hypot(*np.abs(plan.gs).tolist())
        x = (size * plan.dt) * (size * plan.dt)
        rho = math.hypot(1 - x / 2, plan.dt * size)
    else:
        maps = [prop] if isinstance(prop, np.ndarray) else [u for _, _, u in prop[1]]
        rho = max(float(np.linalg.norm(u, 2)) for u in maps)
    return (f"second-order stepper: a collision can scale the state's norm by up to rho = "
            f"{rho:.6g}, so {plan.n_steps} steps by up to 10^{plan.n_steps * math.log10(rho):.4g} "
            f"(n log10 rho)")


def run(config: "SimulationConfig") -> Trajectory:
    """Run a full collision sequence and record the trajectory.

    Deterministic: identical configs produce identical arrays.  The wall time
    of the step loop is recorded for the summary but never enters the data
    columns.  A non-finite amplitude or norm raises a RuntimeError naming the
    first step where it appears.  The strengths are ``config.plan``, built
    when the config was, in the frame that rotates at omega0; unless
    ``rotating_frame`` is set, eps_k is then multiplied by e^{-i omega0 k dt},
    the lab-frame amplitude.
    """
    plan = config.plan
    omega0 = config.omega0
    note = config.effective_steps()[1]
    notes: List[str] = [] if note is None else [note]
    notes.extend(config.weights.warnings)
    if config.rotating_frame and omega0 != 0:
        notes.append(f"rotating frame: multiply eps by exp(-i*{omega0!r}*t) to recover "
                     f"lab-frame amplitudes")

    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if config.representation == Representation.FULL_FOCK:
            prop = _fock_propagator(plan, config.stepper)
            eps, norms, dim = _run_full_fock(config, plan, prop)
        else:
            prop = None
            eps, norms = _run_single_excitation(config, plan)
        if omega0 != 0 and not config.rotating_frame:
            eps = np.exp(-1j * omega0 * (np.arange(len(eps)) * plan.dt)) * eps
    wall_time = time.perf_counter() - start
    bad = np.flatnonzero(~(np.isfinite(eps) & np.isfinite(norms)))
    if bad.size:
        raise RuntimeError(
            f"the amplitude or norm is not finite from step {bad[0]} on "
            f"(eps = {eps[bad[0]]}, norm = {norms[bad[0]]}); the stepper is unstable at "
            f"this dt"
        )
    if config.stepper == Stepper.SECOND_ORDER:
        notes.append(_growth_note(plan, prop))
    if prop is not None:
        notes.append(_fock_note(plan, dim))

    return Trajectory(
        eps=eps,
        norms=norms,
        dt=config.dt,
        wall_time_s=wall_time,
        config=config.to_dict(),
        notes=tuple(notes),
    )

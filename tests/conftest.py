"""Shared helpers: config builders and the oracles that library code is checked against.

The oracles are independent of the code under test: the brute-force kernel
quadrature, the per-lag midpoint rule that integrates every grid interval
twice, the per-field float format of the CSV writers, the Choi-matrix
channel family of the single-excitation reduced dynamics, the per-call
dense one-excitation stepper that ``run()``'s delay recursion is checked
against, the partially traced qubit state, an RK4 integrator of the
delayed-feedback equation, its method-of-steps sum over every term, and
the per-call truncated-Fock register that ``run()``'s full_fock loop is
checked against.
"""

import cmath
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# one BLAS thread, set before numpy loads BLAS: the oracles' eigh calls on
# registers of hundreds of amplitudes otherwise spin threads against any other
# busy process on the machine
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from qcollide import engine
from qcollide.config import parse_config
from qcollide.coupling import QUADRATURE_CELLS
from qcollide.divisibility import CP_RTOL
from qcollide.engine import _DARK_BRANCH_TOL, CollisionPlan, Stepper


def make_config(**overrides):
    """SimulationConfig from a compact dict, mirror gamma=0.5 tau=1 by default."""
    data = {
        "coupling": {"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 1.0},
        "omega0": 0.0,
        "dt": 1 / 64,
        "t_max": 4.0,
    }
    coupling = overrides.pop("coupling", None)
    if coupling is not None:
        data["coupling"] = coupling
    if "n_steps" in overrides:
        data.pop("t_max")
    data.update(overrides)
    return parse_config(data)


def brute_force_lag_weight(kernel, support, lag, dt, nodes=320):
    """Independent cell average of a smooth kernel part for one integer lag.

    Dense 2-D iterated trapezoid over the (n, m) grid cell with the inner
    integration limits clipped exactly to the kernel support band, so the
    integrand stays smooth.  ``nodes`` trapezoid intervals per direction.
    """
    t_primes = np.linspace(0.0, dt, nodes + 1)
    outer = np.empty(nodes + 1, dtype=complex)
    for j, tp in enumerate(t_primes):
        lo = max(lag * dt, tp)
        hi = min((lag + 1) * dt, tp + support)
        if hi <= lo:
            outer[j] = 0.0
            continue
        ss = np.linspace(lo, hi, nodes + 1)
        vals = np.array([kernel(s - tp) for s in ss], dtype=complex)
        outer[j] = np.trapezoid(vals, ss)
    return complex(np.trapezoid(outer, t_primes) / dt)


def two_pass_lag_weight(kernel, support, lag, dt, cells=QUADRATURE_CELLS):
    """Cell average of the smooth kernel part for one integer lag, both halves at once.

    The per-lag midpoint rule that ``collision_weights`` replaced with one
    pass over the grid intervals: each lag integrates the rising and the
    falling half of its own triangle, so every interval is integrated twice.
    At a power-of-two dt the two rules must agree bit for bit.

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


def weight_at(table, lag: int) -> complex:
    """W(lag) of a ``WeightMatrix``, or g(lag) of the (lags, gs) of
    ``coupling_strengths``: the stored value, or 0 where no lag is stored."""
    lags, values = (table.lags, table.w) if hasattr(table, "w") else table
    i = int(np.searchsorted(lags, lag))
    return complex(values[i]) if i < len(lags) and lags[i] == lag else 0j


def fmt(x: float) -> str:
    """Full-precision decimal form of a float, one field of a CSV row."""
    return format(float(x), ".17g")


# ---- Choi-matrix channel family: checks the CP flags of ``analyze``


def _apply_factor(g: complex, rho: np.ndarray) -> np.ndarray:
    """Act with the decoherence-factor map on a 2x2 state, basis (excited, ground)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = abs(g) ** 2 * rho[0, 0]
    out[0, 1] = g * rho[0, 1]
    out[1, 0] = np.conj(g) * rho[1, 0]
    out[1, 1] = rho[1, 1] + (1 - abs(g) ** 2) * rho[0, 0]
    return out


def choi_matrix(g: complex) -> np.ndarray:
    """4x4 Choi matrix sum_ij E(|i><j|) (x) |i><j| of the factor-g map.

    Eigenvalues are {1 + |g|^2, 1 - |g|^2, 0, 0}: positive semidefinite
    exactly when |g| <= 1.
    """
    basis = np.eye(2, dtype=complex)
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.outer(basis[i], basis[j].conj())
            choi += np.kron(_apply_factor(g, e_ij), e_ij)
    return choi


@dataclass(frozen=True)
class QubitChannel:
    """CPT channel of the amplitude-damping family, parameterized by factor g."""

    g: complex

    def __post_init__(self) -> None:
        if abs(self.g) > 1 + 1e-9:
            raise ValueError(f"|g| must not exceed 1 for a channel, got {abs(self.g)}")
        object.__setattr__(self, "g", complex(self.g))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return _apply_factor(self.g, rho)

    def choi(self) -> np.ndarray:
        return choi_matrix(self.g)

    def superoperator(self) -> np.ndarray:
        """4x4 matrix acting on column-stacked 2x2 states."""
        basis = np.eye(2, dtype=complex)
        cols = []
        for j in range(2):
            for i in range(2):
                e = np.outer(basis[i], basis[j].conj())
                cols.append(self.apply(e).T.reshape(-1))
        return np.column_stack(cols)


def channel_from_amplitude(g: complex) -> QubitChannel:
    """Channel with decoherence factor g (typically eps(t)/eps(0))."""
    return QubitChannel(g=g)


@dataclass(frozen=True)
class IntermediateMap:
    """Map connecting two points of a trajectory, CP or not."""

    ratio: complex
    is_cp: bool
    choi_min_eigenvalue: float
    channel: Optional[QubitChannel]


def intermediate_map(g_from: complex, g_to: complex) -> IntermediateMap:
    """Map taking the factor-g_from state to the factor-g_to state.

    Its factor is g_to/g_from; the map fails complete positivity exactly when
    that ratio exceeds 1 in magnitude (negative Choi eigenvalue).  Undefined
    for g_from = 0.
    """
    if g_from == 0:
        raise ValueError("intermediate map undefined: g_from = 0 (singular map)")
    ratio = complex(g_to) / complex(g_from)
    is_cp = abs(ratio) ** 2 <= 1 + CP_RTOL
    min_eig = float(np.min(np.linalg.eigvalsh(choi_matrix(ratio))))
    channel = QubitChannel(ratio) if is_cp else None
    return IntermediateMap(ratio=ratio, is_cp=is_cp, choi_min_eigenvalue=min_eig, channel=channel)


# ---- per-call dense one-excitation sector: checks ``engine._run_single_excitation``


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


def touched(plan: CollisionPlan, step: int) -> List[Tuple[int, complex]]:
    """Ancillas hit during collision ``step`` (1-based) with their strengths.

    Collision k couples to ancilla k - lag for every stored lag; indices
    at or below zero are pre-history vacuum modes and are kept.
    """
    if not 1 <= step <= plan.n_steps:
        raise ValueError(f"step must be in 1..{plan.n_steps}, got {step}")
    return [(step - int(lag), g) for lag, g in zip(plan.lags, plan.gs)]


_last_propagator: list = [None, None]  # the key and value of the last build


def last_built(build, plan: CollisionPlan, *args):
    """build(plan, *args), built again only when the builder, the plan's values or
    the args change: a per-call run asks for the same propagator at every step."""
    values = (plan.lags, plan.gs, np.array([plan.omega0, plan.dt]))  # bytes: -0.0 is not 0.0
    key = (build, *(a.tobytes() for a in values)) + args
    if _last_propagator[0] != key:
        _last_propagator[:] = key, build(plan, *args)
    return _last_propagator[1]


def dense_propagator(plan: CollisionPlan, kind: Stepper) -> np.ndarray:
    """One-excitation collision map on (eps, c[k - lags]).

    H has omega0 on the emitter and the strengths g in its first column
    and row; V is H without the omega0 entry.  The exact stepper is
    exp(-i H dt); the second-order one is 1 - i H dt - V^2 dt^2 / 2.
    """
    return last_built(_dense_propagator, plan, Stepper(kind))


def _dense_propagator(plan: CollisionPlan, kind: Stepper) -> np.ndarray:
    v = np.zeros((len(plan.gs) + 1,) * 2, dtype=complex)
    v[1:, 0] = plan.gs
    v[0, 1:] = plan.gs.conj()
    h = v.copy()
    h[0, 0] = plan.omega0
    if kind == Stepper.EXACT:
        return engine._expm_hermitian(h, plan.dt)
    # numpy's power gives inf where a float's raises; both are C pow
    return np.eye(len(h)) - 1j * plan.dt * h - 0.5 * np.float64(plan.dt)**2 * (v @ v)


def step_single_excitation(
    state: SingleExcitationState,
    plan: CollisionPlan,
    step: int,
    kind: Stepper = Stepper.EXACT,
) -> SingleExcitationState:
    """Advance one collision in the one-excitation sector, in place.

    The dense propagator acts on (eps, c[step - lags]); the vacuum amplitude
    and untouched ancillas are left bitwise unchanged (both are dark under
    the collision Hamiltonian).
    """
    idx = [m - state.min_index for m, _ in touched(plan, step)]
    if idx and (min(idx) < 0 or max(idx) >= len(state.c)):
        raise RuntimeError(
            f"plan/state mismatch: collision {step} reaches ancillas outside the "
            f"allocated range {state.min_index}..{state.max_index}"
        )
    out = dense_propagator(plan, kind) @ np.concatenate(([state.eps], state.c[idx]))
    state.eps = complex(out[0])
    state.c[idx] = out[1:]
    return state


# ---- reduced qubit state: checks ``embed_single_excitation`` by partial trace


@dataclass(frozen=True)
class QubitDensityMatrix:
    """2x2 reduced state of the emitter, basis order (excited, ground)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(rho) - 1) > 1e-12:
            raise ValueError(f"density matrix must have unit trace, got {np.trace(rho)}")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", rho)

    @property
    def excited_population(self) -> float:
        return float(self.matrix[0, 0].real)

    @property
    def coherence(self) -> complex:
        """The <g|rho|e> entry."""
        return complex(self.matrix[1, 0])


def reduced_qubit_state(state: SingleExcitationState) -> QubitDensityMatrix:
    """Trace out all field modes: populations from |eps|^2, coherence a_vac*conj(eps)."""
    pop = abs(state.eps) ** 2
    rho_ge = state.a_vac * np.conj(state.eps)
    rho = np.array([[pop, np.conj(rho_ge)], [rho_ge, 1.0 - pop]], dtype=complex)
    return QubitDensityMatrix(rho)


# ---- RK4 integrator: checks ``solve_dde``


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


def dde_untruncated(solution, t):
    """``DdeSolution.__call__`` summing every method-of-steps term j <= t_max / tau.

    The library's sum stops at the first term past j = |b| t_max + 1 that is 0
    on its whole tail; this one adds every term over its whole tail, so the
    two must agree bit for bit.
    """
    self = solution
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
            for j in range(1, self.segment(self.t_max) + 2):
                # the term vanishes at t = j*tau and is absent before
                lo = int(np.searchsorted(s, j * self.tau, side="right"))
                if lo == len(s):
                    break
                tail = s[lo:]
                magnitude = np.exp(j * log_b_re - math.lgamma(j + 1)
                                   + j * np.log(tail - j * self.tau) - self.gamma * tail)
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


# ---- per-call truncated-Fock register: checks ``engine._run_full_fock``


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
    fixed matrix, and this class, with ``step_full`` and ``recycle_mode``, is
    the per-call reference that tests pin it against.
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
        ground state with the other modes in vacuum, up to _DARK_BRANCH_TOL of
        the register's squared norm), otherwise retiring it would not be
        exact and a RuntimeError is raised.  Its weight moves to
        ``retired_weight`` and the branch is zeroed in place, which leaves the
        axis in vacuum for the fresh mode ``new``.
        """
        axis = self.mode_axis(old)
        occupied = self.amplitudes.swapaxes(axis, -1)[..., 1:]  # a view; the qubit stays first
        weight = float(np.sum(np.abs(occupied) ** 2))
        dark = float(np.sum(np.abs(occupied[(0,) + (0,) * (occupied.ndim - 2)]) ** 2))
        if abs(weight - dark) > _DARK_BRANCH_TOL * float(np.sum(np.abs(self.amplitudes) ** 2)):
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


def step_full(
    state: TruncatedFockState, plan: CollisionPlan, step: int, kind: Stepper = Stepper.EXACT
) -> TruncatedFockState:
    """Advance one collision of the truncated-Fock register, in place.

    A collision acts on the qubit and the modes it touches only, so its
    propagator is U_loc x 1 on the spectator modes (``_fock_propagator`` for
    the stepper ``kind``).  This per-call form moves the qubit and the
    touched axes to the front, applies U_loc to the register reshaped to
    (local dimension, rest) and moves the axes back.  It is the reference of
    the run loop in ``engine._run_full_fock``, which keeps those axes in
    place for the whole run.  Every touched ancilla must already sit inside
    the active window, and the register must hold two levels a mode, as the
    engine's propagator does.
    """
    if state.n_max != 1:
        raise ValueError(f"the engine's modes have two levels, got n_max = {state.n_max}")
    front = [0]
    for m, _ in touched(plan, step):
        if m not in state.active_modes:
            raise ValueError(
                f"collision {step} touches ancilla {m}, which is outside the active window "
                f"{state.active_modes}"
            )
        front.append(state.mode_axis(m))
    prop = last_built(engine._fock_propagator, plan, Stepper(kind))
    amp = state.amplitudes
    perm = front + [axis for axis in range(amp.ndim) if axis not in front]
    moved = amp.transpose(perm)
    local = 1 << len(front)
    x = moved.reshape(local, -1)
    if isinstance(prop, np.ndarray):  # a dense U_loc
        y = prop @ x
    else:
        y = np.empty_like(x)
        engine._apply_local(prop, x, y)
    state.amplitudes = y.reshape(moved.shape).transpose(np.argsort(perm))
    return state

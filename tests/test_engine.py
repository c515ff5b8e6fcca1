import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcollide import engine
from qcollide.coupling import (
    collision_weights,
    coupling_strengths,
    custom_coupling,
    mirror_coupling,
    white_coupling,
)
from qcollide.engine import CollisionPlan, Stepper, run
from qcollide.reference import solve_dde, white_amplitude

from conftest import (
    TruncatedFockState,
    embed_single_excitation,
    init_single_excitation,
    last_built,
    make_config,
    step_full,
    step_single_excitation,
    touched,
)


def make_plan(spec, dt, n_steps, omega0=0.0):
    """The record a config builds: the nonzero strengths of the kernel's table, by
    lag, in the frame rotating at omega0, where the strength at lag l carries
    e^{-i omega0 l dt}."""
    lags, gs = coupling_strengths(collision_weights(spec, dt, n_steps), spec.gamma)
    if omega0 != 0:
        gs = gs * np.exp(-1j * omega0 * (lags * dt))
    return CollisionPlan(lags=lags, gs=gs, dt=dt, n_steps=n_steps)


def output_phase(eps, omega0, dt):
    """run()'s lab-frame amplitudes of rotating-frame ones: eps_k e^{-i omega0 k dt}."""
    if omega0 == 0:
        return eps
    return np.exp(-1j * omega0 * (np.arange(len(eps)) * dt)) * eps


def explicit_second_order(plan, beta, n_steps, omega0=0.0):
    """Second-order collisions written out term by term: an independent form of
    1 - i H dt - H^2 dt^2 / 2.  Returns eps per step, with run()'s output phase
    of ``omega0``, and the final state."""
    state = init_single_excitation(n_steps, beta, n_history=plan.max_lag)
    dt = plan.dt
    eps_out = [state.eps]
    for k in range(1, n_steps + 1):
        hit = touched(plan, k)
        idx = [m - state.min_index for m, _ in hit]
        eps = state.eps
        overlap = sum(np.conj(g) * state.c[i] for (_, g), i in zip(hit, idx))
        strength_sq = sum(abs(g) ** 2 for _, g in hit)
        state.eps = eps - 1j * dt * overlap - 0.5 * dt * dt * strength_sq * eps
        for (_, g), i in zip(hit, idx):
            state.c[i] += -1j * dt * g * eps - 0.5 * dt * dt * g * overlap
        eps_out.append(state.eps)
    return output_phase(np.array(eps_out), omega0, dt), state


def dense_fock_unitary(n_max, n_modes, dt, slots_gs):
    """exp(-i H dt) of the whole register from kron chains: the dense builder the
    number-block propagator replaced, kept as its reference."""
    annihilate = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1).astype(complex)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
    eye = np.eye(n_max + 1, dtype=complex)

    def kron_chain(ops):
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out

    h = np.zeros((2 * (n_max + 1) ** n_modes,) * 2, dtype=complex)
    for slot, g in slots_gs:
        ops = [lower] + [eye] * n_modes
        ops[1 + slot] = annihilate.conj().T
        v = g * kron_chain(ops)
        h = h + v + v.conj().T
    return engine._expm_hermitian(h, dt)


def scatter_blocks(order, blocks):
    """Dense matrix, in register order, of the number blocks of ``engine._fock_propagator``."""
    u = np.zeros((len(order),) * 2, dtype=complex)
    for start, stop, block in blocks:
        u[np.ix_(order[start:stop], order[start:stop])] = block
    return u


def excitation_numbers(n_max, n_modes):
    shape = (2,) + (n_max + 1,) * n_modes
    return np.indices(shape).reshape(len(shape), -1).sum(axis=0)


@st.composite
def delta_plans(draw, max_lags):
    """Plans of 0 to ``max_lags`` delta lags: local spaces of 2 to 2 << max_lags amplitudes."""
    lags = sorted(draw(st.lists(st.integers(0, max_lags), max_size=max_lags, unique=True)))
    weights = [draw(st.floats(0.1, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
               for _ in lags]
    return delta_plan(lags, weights, draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0)),
                      draw(st.floats(0.01, 0.5)), 8)


class TestBuildPlan:
    def test_white_touches_one_fresh_ancilla(self):
        plan = make_plan(white_coupling(1.0), 0.1, 10)
        for k in (1, 4, 10):
            assert touched(plan, k) == [(k, pytest.approx(math.sqrt(10.0)))]

    def test_mirror_touches_current_and_delayed(self):
        plan = make_plan(mirror_coupling(1.0, 0.0, 0.3), 0.1, 10)
        assert [m for m, _ in touched(plan, 5)] == [5, 2]

    def test_early_steps_reach_prehistory_modes(self):
        # the delayed channel couples to vacuum input modes at or below index 0;
        # dropping them would halve the initial decay rate
        plan = make_plan(mirror_coupling(1.0, 0.0, 0.3), 0.1, 10)
        assert [m for m, _ in touched(plan, 2)] == [2, -1]
        assert 1 - plan.max_lag == -2

    def test_step_bounds_checked(self):
        plan = make_plan(white_coupling(1.0), 0.1, 10)
        with pytest.raises(ValueError, match="step"):
            touched(plan, 0)
        with pytest.raises(ValueError, match="step"):
            touched(plan, 11)


class TestSingleExcitationStepper:
    def test_decoupled_step_is_free_phase(self):
        # a decoupled emitter stands still in the frame rotating at omega0: its
        # lab-frame free phase is run()'s output phase
        omega0, dt = 0.8, 0.05
        plan = make_plan(white_coupling(0.0), dt, 5, omega0=omega0)
        state = init_single_excitation(5, 1.0)
        step_single_excitation(state, plan, 1, Stepper.EXACT)
        assert state.eps == 1.0
        traj = run(make_config(coupling={"shape": "white", "gamma": 0.0}, omega0=omega0, dt=dt,
                               n_steps=5))
        assert traj.eps[1] == pytest.approx(cmath.exp(-1j * omega0 * dt))

    def test_second_order_first_step(self):
        # from eps=1 the first collision gives eps -> 1 - gamma*dt in the rotating frame,
        # and run() gives e^{-i*omega0*dt} (1 - gamma*dt) = 1 - (i*omega0 + gamma)*dt + O(dt^2)
        gamma, omega0, dt = 0.5, 0.3, 0.02
        plan = make_plan(mirror_coupling(gamma, 0.0, 0.1), dt, 10, omega0=omega0)
        state = init_single_excitation(10, 1.0, n_history=plan.max_lag)
        step_single_excitation(state, plan, 1, Stepper.SECOND_ORDER)
        assert state.eps == pytest.approx(1 - gamma * dt, abs=1e-15)
        traj = run(make_config(coupling=mirror(gamma, 0.0, 0.1), omega0=omega0, dt=dt, n_steps=10,
                               stepper="second_order"))
        assert traj.eps[1] == pytest.approx(cmath.exp(-1j * omega0 * dt) * (1 - gamma * dt),
                                            abs=1e-15)

    def test_second_order_fresh_ancilla_amplitude(self):
        # c_n after its first collision: -i*sqrt(gamma*dt)*eps + (gamma*dt/2)*e^{i*phi}*c_{n-d}
        gamma, phi, dt, d = 0.5, 0.9, 0.1, 3
        plan = make_plan(mirror_coupling(gamma, phi, d * dt), dt, 12)
        state = init_single_excitation(12, 1.0, n_history=plan.max_lag)
        for k in range(1, 8):
            eps_before = state.eps
            fb_before = state.amplitude(k - d)
            step_single_excitation(state, plan, k, Stepper.SECOND_ORDER)
            expected = (
                -1j * math.sqrt(gamma * dt) * eps_before
                + 0.5 * gamma * dt * cmath.exp(1j * phi) * fb_before
            )
            assert state.amplitude(k) == pytest.approx(expected, abs=1e-15)

    def test_untouched_ancillas_stay_zero(self):
        plan = make_plan(mirror_coupling(0.7, 0.2, 0.3), 0.1, 20)
        state = init_single_excitation(20, 1.0, n_history=plan.max_lag)
        for k in range(1, 11):
            step_single_excitation(state, plan, k, Stepper.EXACT)
            for m in range(k + 1, 21):
                assert state.amplitude(m) == 0

    def test_vacuum_is_fixed_point(self):
        plan = make_plan(mirror_coupling(0.7, 0.2, 0.3), 0.1, 20)
        state = init_single_excitation(20, 0.0, n_history=plan.max_lag)
        for k in range(1, 21):
            step_single_excitation(state, plan, k, Stepper.EXACT)
        assert state.a_vac == 1.0
        assert state.eps == 0.0
        assert np.all(state.c == 0)

    def test_exact_step_is_unitary(self):
        plan = make_plan(mirror_coupling(0.7, 0.2, 0.3), 0.1, 50, omega0=0.4)
        state = init_single_excitation(50, 1.0, n_history=plan.max_lag)
        for k in range(1, 51):
            step_single_excitation(state, plan, k, Stepper.EXACT)
            assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_plan_state_mismatch_is_internal_error(self):
        plan = make_plan(mirror_coupling(0.7, 0.0, 0.3), 0.1, 10)
        state = init_single_excitation(10, 1.0)  # no history modes allocated
        with pytest.raises(RuntimeError, match="plan/state mismatch"):
            step_single_excitation(state, plan, 1, Stepper.EXACT)

    def test_frozen_between_collisions(self):
        # ancilla m is hit at steps m and m+d and must be bitwise constant between
        gamma, phi, dt, d = 0.6, 0.3, 0.1, 4
        plan = make_plan(mirror_coupling(gamma, phi, d * dt), dt, 20)
        state = init_single_excitation(20, 1.0, n_history=plan.max_lag)
        snapshots = {}
        for k in range(1, 21):
            step_single_excitation(state, plan, k, Stepper.EXACT)
            snapshots[k] = state.amplitude(k)
            for m in range(1, k):
                if m < k < m + d:
                    assert state.amplitude(m) == snapshots[m]


class TestFullFockStepper:
    def test_matches_sector_stepper_per_step(self):
        gamma, phi, dt, d = 0.5, 0.4, 0.1, 2
        n_steps = 5
        plan = make_plan(mirror_coupling(gamma, phi, d * dt), dt, n_steps, omega0=0.3)
        sector = init_single_excitation(n_steps, 0.8, n_history=plan.max_lag)
        window = range(1 - plan.max_lag, n_steps + 1)
        fock = embed_single_excitation(sector, 1, window)
        for k in range(1, n_steps + 1):
            step_single_excitation(sector, plan, k, Stepper.EXACT)
            step_full(fock, plan, k)
            assert fock.norm() == pytest.approx(1.0, abs=1e-12)
            a_vac, eps, c = fock.project_single_excitation()
            assert abs(eps - sector.eps) < 1e-10
            assert abs(a_vac - sector.a_vac) < 1e-10
            for m in window:
                assert abs(c[m] - sector.amplitude(m)) < 1e-10

    def test_vacuum_invariant(self):
        plan = make_plan(mirror_coupling(0.5, 0.0, 0.2), 0.1, 4)
        state = init_single_excitation(4, 0.0, n_history=plan.max_lag)
        fock = embed_single_excitation(state, 1, range(1 - plan.max_lag, 5))
        before = fock.amplitudes.copy()
        step_full(fock, plan, 1)
        assert np.allclose(fock.amplitudes, before, atol=1e-14)

    def test_touched_outside_window_rejected(self):
        plan = make_plan(mirror_coupling(0.5, 0.0, 0.2), 0.1, 6)
        state = init_single_excitation(6, 1.0)
        fock = embed_single_excitation(state, 1, (1, 2))  # misses the lag-2 partner
        with pytest.raises(ValueError, match="window"):
            step_full(fock, plan, 3)

    def test_excitation_number_conserved(self):
        for multi, n_steps in ((False, 5), (True, 3)):
            plan = make_plan(mirror_coupling(0.8, 0.6, 0.2), 0.1, n_steps, omega0=0.5)
            state = init_single_excitation(n_steps, 0.7, n_history=plan.max_lag)
            window = range(1 - plan.max_lag, n_steps + 1)
            fock = embed_single_excitation(state, 1, window)
            if multi:  # |e> with a photon in ancilla 1, then in ancillas 1 and 2: N = 2 and 3
                photons = [0] * len(window)
                photons[window.index(1)] = 1
                fock.amplitudes[(1, *photons)] = 0.4
                photons[window.index(2)] = 1
                fock.amplitudes[(1, *photons)] = 0.3j
                fock.amplitudes /= fock.norm()
            mean0, var0 = fock.excitation_moments()
            for k in range(1, n_steps + 1):
                step_full(fock, plan, k)
                mean, var = fock.excitation_moments()
                assert mean == pytest.approx(mean0, abs=1e-10)
                assert var == pytest.approx(var0, abs=1e-10)


class TestFockNumberBlocks:
    @settings(max_examples=40, deadline=None)
    @given(delta_plans(7))
    def test_blocks_match_dense_builder(self, plan):
        n_modes = len(plan.lags)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "FOCK_DENSE_MAX", 0)  # every size takes the block branch
            order, blocks = engine._fock_propagator(plan, Stepper.EXACT)
        assert sorted(order) == list(range(2 << n_modes))
        number = excitation_numbers(1, n_modes)[order]
        for start, stop, _ in blocks:
            assert np.all(number[start:stop] == number[start])
        assert [stop - start for start, stop, _ in blocks] == [
            math.comb(n_modes + 1, n) for n in range(n_modes + 2)]
        slots_gs = tuple(enumerate(plan.gs))
        reference = dense_fock_unitary(1, n_modes, plan.dt, slots_gs)
        assert np.max(np.abs(scatter_blocks(order, blocks) - reference)) <= 1e-12

    # registers of 16 and 32 amplitudes; the 8-amplitude local propagator is one dense
    # matrix in both (TestLocalPropagator covers the block branch)
    @pytest.mark.parametrize("n_modes", [3, 4])
    def test_multi_excitation_sectors_evolve(self, n_modes):
        dt, omega0 = 0.1, 0.5
        plan = make_plan(mirror_coupling(0.8, 0.6, 0.2), dt, 5, omega0=omega0)
        modes = tuple(range(4 - n_modes, 4))  # collision 3 touches ancillas 3 and 1
        number = excitation_numbers(1, n_modes)
        rng = np.random.default_rng(7)
        psi = (rng.normal(size=number.size) + 1j * rng.normal(size=number.size)) * (number >= 2)
        psi /= np.linalg.norm(psi)
        fock = TruncatedFockState(psi.reshape((2,) * (n_modes + 1)), modes)
        step_full(fock, plan, 3)
        slots_gs = tuple((modes.index(m), g) for m, g in touched(plan, 3))
        expected = dense_fock_unitary(1, n_modes, dt, slots_gs) @ psi
        out = fock.amplitudes.ravel()
        assert np.max(np.abs(out - expected)) <= 1e-12
        assert np.max(np.abs(out - psi)) > 1e-2  # the multi-excitation sectors do evolve
        for n in range(number.max() + 1):
            weight = np.sum(np.abs(out[number == n]) ** 2)
            assert weight == pytest.approx(np.sum(np.abs(psi[number == n]) ** 2), abs=1e-12)
        assert np.sum(np.abs(out[number >= 2]) ** 2) == pytest.approx(1.0, abs=1e-12)


# distinct complex weights for up to seven delta lags
LAG_WEIGHTS = [1.0, 0.5j, -0.7, 0.3 + 0.4j, -0.2 - 0.6j, 0.45 - 0.25j, -0.35 + 0.15j]


def delta_plan(lags, weights, gamma, omega0, dt, n_steps):
    """Plan of a custom kernel with one delta per integer lag."""
    spec = custom_coupling(gamma, [(lag * dt, w) for lag, w in zip(lags, weights)])
    return make_plan(spec, dt, n_steps, omega0=omega0)


def check_local_collision(plan, step, modes, seed):
    """step_full on a random register over ``modes`` against the whole-register kron reference."""
    rng = np.random.default_rng(seed)
    dim = 2 << len(modes)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    fock = TruncatedFockState(psi.reshape((2,) * (len(modes) + 1)), modes)
    step_full(fock, plan, step)
    slots_gs = tuple((modes.index(m), g) for m, g in touched(plan, step))
    expected = dense_fock_unitary(1, len(modes), plan.dt, slots_gs) @ psi
    assert fock.active_modes == modes
    assert np.max(np.abs(fock.amplitudes.ravel() - expected)) <= 1e-12


@st.composite
def local_collisions(draw):
    n_modes = draw(st.integers(1, 8))  # registers of at most 512 amplitudes
    lags = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=min(7, n_modes),
                                unique=True)))
    weights = [draw(st.floats(0.1, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
               for _ in lags]
    step = draw(st.integers(1, 8))
    touched = [step - lag for lag in lags]
    spectators = draw(st.lists(st.integers(step - 12, step + 4).filter(
        lambda m: m not in touched), min_size=n_modes - len(lags), max_size=n_modes - len(lags),
        unique=True))
    modes = tuple(draw(st.permutations(touched + spectators)))
    plan = delta_plan(lags, weights, draw(st.floats(0.1, 2.0)), draw(st.floats(-2.0, 2.0)),
                      draw(st.floats(0.01, 0.5)), step)
    return plan, step, modes, draw(st.integers(0, 2**32 - 1))


class TestLocalPropagator:
    """step_full applies one local propagator on the qubit and the touched axes."""

    @settings(max_examples=60, deadline=None)
    @given(local_collisions())
    def test_matches_whole_register_unitary(self, collision):
        check_local_collision(*collision)

    @pytest.mark.parametrize("lags,modes,dense", [
        ((0, 3), (5, 2, 6, -1, 8), True),  # local dimension 8
        ((0, 1, 2, 4, 5, 7), (7, 9, 4, 1, 8, 6, 3), True),  # 128, the largest one matrix
        ((0, 1, 2, 3, 4, 5, 7), (4, 1, 8, 5, 7, 6, 3, 9), False),  # 256 of a register of 512
        ((0, 1, 2, 3, 4, 5, 6), (6, 3, 8, 7, 2, 5, 4), False),  # 256: the whole register
    ])
    def test_dense_and_block_branches(self, lags, modes, dense):
        # collision 8 touches ancillas 8 - lag, scattered over the register's axes
        plan = delta_plan(lags, LAG_WEIGHTS[:len(lags)], 0.8, 0.4, 0.1, 8)
        assert (2 << len(lags) <= engine.FOCK_DENSE_MAX) == dense
        for seed in (1, 2):
            check_local_collision(plan, 8, modes, seed)
        assert isinstance(engine._fock_propagator(plan, Stepper.EXACT), np.ndarray) == dense


class TestWholeSpaceExponential:
    """Local spaces of at most FOCK_DENSE_MAX amplitudes are exponentiated whole."""

    @settings(max_examples=60, deadline=None)
    @given(delta_plans(6))
    def test_one_exponential_without_number_blocks(self, plan):
        n_modes = len(plan.lags)
        assert 2 << n_modes <= engine.FOCK_DENSE_MAX
        u = engine._fock_propagator(plan, Stepper.EXACT)
        assert isinstance(u, np.ndarray)  # one matrix, not the number blocks
        slots_gs = tuple(enumerate(plan.gs))
        reference = dense_fock_unitary(1, n_modes, plan.dt, slots_gs)
        assert np.max(np.abs(u - reference)) <= 1e-12
        # nothing assumes [H, N] = 0: the number sectors stay apart to roundoff
        number = excitation_numbers(1, n_modes)
        assert np.max(np.abs(u[number[:, None] != number]), initial=0.0) <= 1e-14


def smooth_coupling(support):
    """An exponential kernel cut at ``support``: its span is known only from the quadrature."""
    return {"shape": "custom", "gamma": 0.5,
            "smooth": {"form": "exponential", "kappa": 1.0, "support": support}}


def mirror(gamma, phi, tau):
    return {"shape": "mirror", "gamma": gamma, "phi": phi, "tau": tau}


def per_call_fock_run(config):
    """eps, norms and notes of a full_fock run from the per-call register: the
    embedded state advanced by step_full, then recycle_mode, one collision at a
    time, and eps given run()'s output phase."""
    spec = config.coupling_spec()
    n_steps, _ = config.effective_steps()
    weights = collision_weights(spec, config.dt, n_steps)
    plan = make_plan(spec, config.dt, n_steps, omega0=config.omega0)
    width = int(plan.lags[-1] - plan.lags[0]) + 1 if len(plan.lags) else 0
    fock = embed_single_excitation(init_single_excitation(0, config.beta), 1,
                                   range(1 - plan.max_lag, 1 - plan.max_lag + width))
    eps, norms = [fock.excited_vacuum_amplitude()], [fock.norm()]
    for k in range(1, n_steps + 1):
        step_full(fock, plan, k, config.stepper)
        if width:
            fock.recycle_mode(k - plan.max_lag, k + width - plan.max_lag)
        eps.append(fock.excited_vacuum_amplitude())
        norms.append(fock.norm())
    omega0 = 0.0 if config.rotating_frame else config.omega0
    eps = output_phase(np.array(eps), omega0, config.dt)
    notes = weights.warnings
    if config.stepper == Stepper.SECOND_ORDER:  # before the register note, as run() orders them
        prop = last_built(engine._fock_propagator, plan, config.stepper)
        notes += (engine._growth_note(plan, prop),)
    note = engine._fock_note(plan, fock.amplitudes.size)
    return eps, np.array(norms), notes + (note,)


# seven lags at dt = 0.125: a local space of 2 * 2**7 = 256 > FOCK_DENSE_MAX amplitudes
SEVEN_LAGS = [[0.125 * lag, w.real, w.imag] for lag, w in enumerate(LAG_WEIGHTS)]


@st.composite
def fock_run_configs(draw):
    """full_fock runs of delta kernels with up to four lags of at most 5 steps, or white."""
    dt = draw(st.sampled_from([0.0625, 0.125, 0.25]))
    if draw(st.booleans()):
        coupling = {"shape": "white", "gamma": draw(st.sampled_from([0.0, 0.3, 1.0]))}
    else:
        deltas = []
        for lag in draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)):
            w = draw(st.floats(0.1, 1.5)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
            deltas.append([lag * dt, w.real, w.imag])
        coupling = {"shape": "custom", "gamma": draw(st.floats(0.1, 1.5)), "deltas": deltas}
    return dict(coupling=coupling, dt=dt, n_steps=draw(st.integers(1, 16)),
                omega0=draw(st.floats(-1.0, 1.0)),
                beta=[draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))])


class TestRegisterLoop:
    """run()'s age-ordered full_fock loop against the per-call register."""

    @settings(max_examples=40, deadline=None)
    @given(fock_run_configs())
    # seven lags: a local space of 256 > FOCK_DENSE_MAX, the number-block path
    @example(dict(coupling={"shape": "custom", "gamma": 0.8, "deltas": SEVEN_LAGS}, dt=0.125,
                  n_steps=12, omega0=0.4, beta=[0.6, 0.3]))
    # lags 2 and 5: the smallest lag is above 0 and two axes are never touched
    @example(dict(coupling={"shape": "custom", "gamma": 0.8,
                            "deltas": [[0.25, 0.7, 0.0], [0.625, -0.4, 0.3]]},
                  dt=0.125, n_steps=14, omega0=-0.3, beta=[0.5, -0.5]))
    # no stored lag: a register of the qubit alone (W = 0)
    @example(dict(coupling={"shape": "white", "gamma": 0.0}, dt=0.125, n_steps=6, omega0=0.5,
                  beta=[0.6, 0.3]))
    # the second-order map, by number blocks
    @example(dict(coupling={"shape": "custom", "gamma": 0.8, "deltas": SEVEN_LAGS}, dt=0.125,
                  n_steps=12, omega0=0.4, beta=[0.6, 0.3], stepper="second_order"))
    def test_matches_per_call_register(self, data):
        config = make_config(representation="full_fock", **data)
        traj = run(config)
        eps, norms, notes = per_call_fock_run(config)
        assert traj.eps.tobytes() == eps.tobytes()
        assert np.max(np.abs(traj.norms - norms)) <= 1e-15
        assert traj.notes == notes

    @pytest.mark.parametrize("coupling,dt,local", [
        (mirror(1.0, 0.3, 1.0), 0.25, 8),  # one dense map
        ({"shape": "custom", "gamma": 0.8, "deltas": SEVEN_LAGS}, 0.125, 256),  # number blocks
    ])
    def test_second_order_matches_the_sector(self, coupling, dt, local):
        # full_fock honours the stepper: 1 - i H dt - V^2 dt^2 / 2 on the local space is,
        # in the one-excitation sector, the sector's own second-order map
        base = dict(coupling=coupling, dt=dt, n_steps=12, omega0=0.4, beta=[0.6, 0.3])
        sector = run(make_config(**base, stepper="second_order"))
        fock = run(make_config(**base, stepper="second_order", representation="full_fock"))
        exact = run(make_config(**base, representation="full_fock"))
        assert f"local propagator dimension {local} " in fock.notes[-1]
        assert (local > engine.FOCK_DENSE_MAX) == (coupling["shape"] == "custom")
        assert np.max(np.abs(fock.eps - sector.eps)) <= 1e-12
        assert np.max(np.abs(fock.norms - sector.norms)) <= 1e-12
        assert np.max(np.abs(fock.eps - exact.eps)) > 1e-3  # not the exponential

    def test_entangled_retirement_refused_like_recycle_mode(self, monkeypatch):
        # a propagator that does not conserve the excitation number leaves the
        # oldest ancilla entangled when it falls out of reach
        config = make_config(dt=0.25, n_steps=8, representation="full_fock")
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        monkeypatch.setattr(engine, "_fock_propagator", lambda plan, kind: q)
        with pytest.raises(RuntimeError, match="still entangled") as loop:
            run(config)
        with pytest.raises(RuntimeError, match="still entangled") as per_call:
            per_call_fock_run(config)
        mode = r"mode (-?\d+) is still entangled"
        assert re.search(mode, str(loop.value))[1] == re.search(mode, str(per_call.value))[1]

    def test_peak_memory_stays_near_the_register(self):
        # mirror tau = 1 at dt = 1/8: nine modes, a register of 16 * 2 * 2**9 bytes
        config = make_config(dt=0.125, t_max=3.0, representation="full_fock", window=9)
        run(config)  # first-call allocations stay out of the measured peak
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * 2 * 2**9


class TestMirrorRecursion:
    def test_no_feedback_before_delay(self):
        gamma, dt, d = 0.5, 0.1, 5
        traj = run(make_config(coupling=mirror(gamma, 0.0, d * dt), dt=dt, n_steps=d,
                               stepper="second_order"))
        values = traj.eps
        # pure damping until the first echo: eps_{n+1} = (1 - gamma*dt)*eps_n
        for n in range(d):
            assert values[n + 1] == pytest.approx((1 - gamma * dt) * values[n], abs=1e-15)

    def test_matches_second_order_stepper(self):
        gamma, phi, omega0, dt, d = 0.5, 0.7, 0.4, 0.1, 4
        n_steps = 60
        config = make_config(coupling=mirror(gamma, phi, d * dt), dt=dt, n_steps=n_steps,
                             omega0=omega0, stepper="second_order")
        rec = run(config)
        plan = make_plan(config.coupling_spec(), dt, n_steps, omega0=omega0)
        eps, sector = explicit_second_order(plan, 1.0, n_steps, omega0)
        assert np.max(np.abs(rec.eps - eps)) < 1e-12
        assert rec.norms[-1] == pytest.approx(sector.norm(), abs=1e-12)

    def test_finite_difference_form(self):
        # eliminating the ancilla amplitudes leaves
        # d(eps)/dt = -(i*omega0 + gamma)*eps_n + gamma*e^{i*phi}*eps_{n-d} + O(gamma^2*dt)
        gamma, phi, omega0, dt, d = 0.8, 0.5, 0.0, 0.01, 20
        n_steps = 200
        eps = run(make_config(coupling=mirror(gamma, phi, d * dt), dt=dt, n_steps=n_steps,
                              omega0=omega0, stepper="second_order")).eps
        worst = 0.0
        for n in range(n_steps):
            lhs = (eps[n + 1] - eps[n]) / dt
            delayed = eps[n - d] if n >= d else 0j
            rhs = -(1j * omega0 + gamma) * eps[n] + gamma * cmath.exp(1j * phi) * delayed
            worst = max(worst, abs(lhs - rhs))
        assert worst <= gamma**2 * dt


@st.composite
def delta_kernel_configs(draw):
    """Custom couplings with 1-3 delta lags of at most 4 steps, up to 30 collisions."""
    dt = 0.1
    lags = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    deltas = []
    for lag in lags:
        w = draw(st.floats(0.05, 1.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        deltas.append([lag * dt, w.real, w.imag])
    return dict(
        coupling={"shape": "custom", "gamma": draw(st.floats(0.1, 1.0)), "deltas": deltas},
        dt=dt, n_steps=draw(st.integers(1, 30)), omega0=draw(st.floats(-1.0, 1.0)),
        beta=[draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))],
    )


class TestCoreAgainstOracles:
    @settings(max_examples=25, deadline=None)
    @given(delta_kernel_configs())
    def test_exact_core_matches_fock_register(self, base):
        sector = run(make_config(**base, stepper="exact"))
        fock = run(make_config(**base, representation="full_fock"))
        assert np.max(np.abs(sector.eps - fock.eps)) < 1e-9
        assert np.max(np.abs(sector.norms - fock.norms)) < 1e-9
        # a window of exactly the kernel span holds the same register
        lags = [round(lag / base["dt"]) for lag, _, _ in base["coupling"]["deltas"]]
        narrow = run(make_config(**base, representation="full_fock",
                                 window=max(lags) - min(lags) + 1))
        assert np.max(np.abs(sector.eps - narrow.eps)) < 1e-9
        assert np.max(np.abs(sector.norms - narrow.norms)) < 1e-9
        assert np.array_equal(narrow.eps, fock.eps)

    @settings(max_examples=25, deadline=None)
    @given(delta_kernel_configs())
    def test_second_order_core_matches_explicit_formula(self, base):
        config = make_config(**base, stepper="second_order")
        traj = run(config)
        plan = make_plan(config.coupling_spec(), config.dt, config.n_steps, omega0=config.omega0)
        eps, state = explicit_second_order(plan, config.beta, config.n_steps, config.omega0)
        assert np.max(np.abs(traj.eps - eps)) < 1e-12
        assert traj.norms[-1] == pytest.approx(state.norm(), abs=1e-12)


def per_call_sector_run(config):
    """eps and norms of a one-excitation run from the per-call dense stepper: the
    norm is summed from |out|^2 - |in|^2 of the touched amplitudes, one collision
    at a time, and eps is given run()'s output phase."""
    n_steps, _ = config.effective_steps()
    plan = make_plan(config.coupling_spec(), config.dt, n_steps, omega0=config.omega0)
    state = init_single_excitation(n_steps, config.beta, n_history=plan.max_lag)
    eps, norm_sq = [state.eps], [state.norm() ** 2]
    for k in range(1, n_steps + 1):
        idx = [m - state.min_index for m, _ in touched(plan, k)]
        before = abs(state.eps) ** 2 + float(np.sum(np.abs(state.c[idx]) ** 2))
        step_single_excitation(state, plan, k, config.stepper)
        after = abs(state.eps) ** 2 + float(np.sum(np.abs(state.c[idx]) ** 2))
        eps.append(state.eps)
        norm_sq.append(norm_sq[-1] + after - before)
    omega0 = 0.0 if config.rotating_frame else config.omega0
    return output_phase(np.array(eps), omega0, config.dt), np.sqrt(norm_sq)


def assert_matches_per_call_stepper(config, tol=1e-12):
    traj = run(config)
    eps, norms = per_call_sector_run(config)
    assert np.max(np.abs(traj.eps - eps)) <= tol
    assert np.max(np.abs(traj.norms - norms)) <= tol


@st.composite
def sparse_kernel_configs(draw):
    """Custom couplings with 1-4 delta lags of at most 40 steps, 1-12 steps apart,
    with 1-120 collisions."""
    dt = 0.1
    gaps = draw(st.lists(st.integers(1, 12), min_size=0, max_size=3))
    lags = list(np.cumsum([draw(st.integers(0, 4))] + gaps))
    deltas = []
    for lag in lags:
        w = draw(st.floats(0.05, 1.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        deltas.append([int(lag) * dt, w.real, w.imag])
    return dict(
        coupling={"shape": "custom", "gamma": draw(st.floats(0.1, 1.0)), "deltas": deltas},
        dt=dt, n_steps=draw(st.integers(1, 120)), omega0=draw(st.floats(-1.0, 1.0)),
        beta=[draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))],
        stepper=draw(st.sampled_from(["exact", "second_order"])),
    )


def _mirror_grid():
    for gamma in (0.25, 2.0):
        for phi in (0.0, 2.1):
            for d, t_max in ((64, 10.0), (64, 40.0), (512, 40.0)):
                for stepper in ("exact", "second_order"):
                    yield dict(coupling=mirror(gamma, phi, 1.0), dt=1 / d, t_max=t_max,
                               omega0=0.4, beta=[0.8, 0.1], stepper=stepper)


ACCEPTANCE_CONFIGS = [
    dict(coupling={"shape": "white", "gamma": 1.0}, dt=1e-3, t_max=5.0),
    dict(coupling={"shape": "white", "gamma": 1.0}, dt=0.05, n_steps=100),
    *(dict(dt=1.0 / 2**k, t_max=4.0) for k in range(6, 11)),
    dict(dt=1.0 / 512, t_max=40.0),
    dict(coupling=mirror(0.5, 0.0, 0.4), dt=0.1, n_steps=48),
    dict(coupling=mirror(0.5, 0.0, 0.4), dt=0.1, n_steps=48, stepper="second_order"),
    dict(coupling=mirror(0.5, 0.0, 0.4), dt=0.05, n_steps=96),
    dict(coupling=mirror(0.5, 0.0, 0.4), dt=0.05, n_steps=96, stepper="second_order"),
    dict(dt=1.0 / 512, n_steps=10_000),
    dict(dt=1.0 / 128, t_max=4.0, stepper="second_order"),
    dict(dt=1.0 / 256, t_max=4.0, stepper="second_order"),
    dict(coupling={"shape": "white", "gamma": 1.0}, dt=0.01, t_max=4.0),
    dict(dt=1.0 / 64, t_max=3.0),
    dict(coupling=mirror(0.5, 0.3, 1.0), omega0=0.2, dt=1.0 / 64, t_max=3.0, beta=[0.8, 0.1]),
]


@st.composite
def smooth_kernel_configs(draw):
    """Exponential smooth kernels of up to 50 lags, with or without a complex
    lag-0 delta, under both steppers, with 1-80 collisions."""
    coupling = {"shape": "custom", "gamma": draw(st.floats(0.1, 1.0)),
                "smooth": {"form": "exponential", "kappa": draw(st.floats(0.5, 4.0)),
                           "support": draw(st.floats(0.25, 3.0))}}
    if draw(st.booleans()):
        w = draw(st.floats(0.05, 1.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        coupling["deltas"] = [[0.0, w.real, w.imag]]
    return dict(
        coupling=coupling, dt=draw(st.sampled_from([0.125, 0.0625])),
        n_steps=draw(st.integers(1, 80)), omega0=draw(st.floats(-1.0, 1.0)),
        beta=[draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))],
        stepper=draw(st.sampled_from(["exact", "second_order"])),
    )


def pair_sum_reference(plan):
    """The nonzero lag differences D of ``_delay_recursion`` and their R(D), from
    the (L, L) outer product of the stored lags' directions that it once formed."""
    gs = plan.gs
    size = np.float64(math.hypot(*np.abs(gs)))
    unit = gs / size if size else gs
    diff = plan.lags[:, None] - plan.lags
    pair = (diff >= 1) & (diff < plan.n_steps)
    weight = (unit.conj()[:, None] * unit)[pair]
    diff = diff[pair]
    r = np.bincount(diff, weight.real) + 1j * np.bincount(diff, weight.imag)
    gaps = np.flatnonzero(r)
    return gaps, r[gaps]


@st.composite
def sparse_lag_plans(draw):
    """Plans of 0-40 delta lags below 200 steps, with 1-300 collisions."""
    lags = sorted(draw(st.lists(st.integers(0, 199), max_size=40, unique=True)))
    weights = [draw(st.floats(0.05, 2.0)) * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
               for _ in lags]
    return delta_plan(lags, weights, draw(st.floats(0.1, 2.0)), 0.3, 0.1,
                      draw(st.integers(1, 300)))


class TestDelayBlocks:
    """run()'s delay recursion against the per-call dense stepper."""

    def test_mirror_gap_is_the_delay(self):
        plan = make_plan(mirror_coupling(1.0, 0.0, 1.0), 1 / 64, 640)
        assert engine._delay_recursion(plan, Stepper.EXACT)[3] == 64
        assert engine._delay_recursion(make_plan(white_coupling(1.0), 0.1, 37),
                                       Stepper.EXACT)[3] == 37

    @settings(max_examples=60, deadline=None)
    @given(sparse_lag_plans())
    def test_pair_sum_in_one_chunk_is_the_outer_product(self, plan):
        gaps, r = engine._delay_recursion(plan, Stepper.EXACT)[1:3]
        ref_gaps, ref_r = pair_sum_reference(plan)
        assert gaps.tolist() == ref_gaps.tolist()
        assert r.tobytes() == ref_r.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(sparse_lag_plans(), st.integers(1, 50))
    def test_pair_sum_over_chunks_matches_the_outer_product(self, plan, chunk):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_PAIR_CHUNK", chunk)
            gaps, r = engine._delay_recursion(plan, Stepper.EXACT)[1:3]
        ref_gaps, ref_r = pair_sum_reference(plan)
        full, ref_full = np.zeros(plan.n_steps, complex), np.zeros(plan.n_steps, complex)
        full[gaps], ref_full[ref_gaps] = r, ref_r
        assert np.max(np.abs(full - ref_full)) <= 1e-14

    def test_pair_sum_memory_is_bounded(self):
        # 1,500 deltas one step apart: 1.1 million lag pairs, whose (L, L)
        # outer product peaked at 75 MB
        deltas = [[k * 0.01, 1.0 / (1 + k), 0.0] for k in range(1500)]
        config = make_config(coupling={"shape": "custom", "gamma": 1.0, "deltas": deltas},
                             dt=0.01, n_steps=3000)
        run(config)  # first-call allocations stay out of the measured peak
        tracemalloc.start()
        try:
            traj = run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.all(np.isfinite(traj.eps))

    @settings(max_examples=60, deadline=None)
    @given(sparse_kernel_configs())
    def test_random_sparse_kernels(self, base):
        assert_matches_per_call_stepper(make_config(**base))

    @settings(max_examples=25, deadline=None)
    @given(smooth_kernel_configs())
    def test_random_smooth_kernels(self, base):
        assert_matches_per_call_stepper(make_config(**base))

    @pytest.mark.parametrize("base", ACCEPTANCE_CONFIGS)
    def test_acceptance_configs(self, base):
        assert_matches_per_call_stepper(make_config(**base))

    @pytest.mark.parametrize("base", list(_mirror_grid()))
    def test_mirror_grid(self, base):
        assert_matches_per_call_stepper(make_config(**base))

    def test_unstable_stepper_on_vacuum_stays_zero(self):
        # |u00| = |1 - gamma dt / 2| = 1.5 here: one block over the whole single-lag run
        # would overflow the scan's powers of u00 and turn 0 * inf into NaN
        traj = run(make_config(coupling={"shape": "white", "gamma": 50.0}, omega0=5.0, dt=0.1,
                               n_steps=100_000, stepper="second_order", beta=0.0))
        assert not np.any(traj.eps)


class TestRunWhite:
    def test_decay_tracks_exponential(self):
        config = make_config(
            coupling={"shape": "white", "gamma": 1.0}, dt=1e-3, t_max=5.0
        )
        traj = run(config)
        reference = np.exp(-traj.times / 2)
        assert np.max(np.abs(np.abs(traj.eps) - reference)) < 0.01 * np.max(reference)

    def test_amplitude_is_nonincreasing(self):
        for stepper in ("exact", "second_order"):
            config = make_config(
                coupling={"shape": "white", "gamma": 0.8}, dt=0.02, t_max=3.0,
                omega0=0.5, stepper=stepper,
            )
            magnitudes = np.abs(run(config).eps)
            assert np.all(np.diff(magnitudes) <= 1e-15)

    def test_decoupled_run_keeps_magnitude(self):
        config = make_config(coupling={"shape": "white", "gamma": 0.0}, dt=0.05,
                             t_max=2.0, omega0=1.3)
        traj = run(config)
        assert np.max(np.abs(np.abs(traj.eps) - 1.0)) < 1e-12


class TestRunMirror:
    def test_converges_to_dde(self):
        errors = []
        for k in (5, 6):
            dt = 1.0 / 2**k
            traj = run(make_config(dt=dt))
            ref = solve_dde(0.0, 0.5, 0.0, 1.0, 4.0)(traj.times)
            errors.append(np.max(np.abs(traj.eps - ref)))
        assert 1.6 <= errors[0] / errors[1] <= 2.4

    def test_nonzero_detuning_converges(self):
        omega0 = 0.7
        traj = run(make_config(dt=1 / 256, omega0=omega0))
        ref = solve_dde(omega0, 0.5, 0.0, 1.0, 4.0)(traj.times)
        assert np.max(np.abs(traj.eps - ref)) < 5e-3

    def test_second_order_consistency_is_first_order(self):
        deviations = []
        for dt in (1 / 64, 1 / 128):
            exact = run(make_config(dt=dt, stepper="exact"))
            second = run(make_config(dt=dt, stepper="second_order"))
            deviations.append(np.max(np.abs(exact.eps - second.eps)))
        assert 1.6 <= deviations[0] / deviations[1] <= 2.4

    def test_rotating_frame_runs_at_zero_detuning(self):
        # in the frame rotating at omega0 the emitter is on resonance, and the
        # mirror's round trip carries the phase phi + omega0*tau
        phi, omega0 = 0.3, 2.5
        base = dict(dt=1 / 64, t_max=4.0)
        rotating = run(make_config(**base, coupling=mirror(0.5, phi, 1.0), omega0=omega0,
                                   rotating_frame=True))
        resonant = run(make_config(**base, coupling=mirror(0.5, phi + omega0 * 1.0, 1.0)))
        assert np.max(np.abs(rotating.eps - resonant.eps)) <= 1e-13
        assert np.max(np.abs(rotating.norms - resonant.norms)) <= 1e-13
        assert rotating.notes == (ROTATING_NOTE.format(omega0),)

    @pytest.mark.parametrize("coupling", [
        {"shape": "white", "gamma": 1.0},
        # one stored lag, away from 0: its phase in the lab frame is a phase of the
        # ancillas, which eps does not see
        {"shape": "custom", "gamma": 1.0, "deltas": [[0.5, 1.0, 0.0]]},
    ], ids=["white", "one-delayed-lag"])
    def test_rotating_recipe_holds_with_one_stored_lag(self, coupling):
        omega0 = 0.5
        for dt in (1 / 16, 1 / 32):
            base = dict(coupling=coupling, dt=dt, t_max=5.0, omega0=omega0)
            lab = run(make_config(**base))
            rotating = run(make_config(**base, rotating_frame=True))
            recipe = np.exp(-1j * omega0 * rotating.times) * rotating.eps
            assert np.array_equal(lab.eps, recipe)  # both frames step the same collisions
            assert rotating.notes == (ROTATING_NOTE.format(omega0),)

    @pytest.mark.parametrize("coupling", [
        {"shape": "white", "gamma": 1.0},
        {"shape": "mirror", "gamma": 1.0, "phi": 0.3, "tau": 1.0},
        smooth_coupling(2.0),
    ], ids=["white", "mirror", "smooth"])
    def test_rotating_recipe_is_the_lab_run(self, coupling):
        # both frames step the rotated strengths: the lab run is the rotating run
        # times exp(-i omega0 t), for every kernel
        for stepper in ("exact", "second_order"):
            base = dict(coupling=coupling, dt=1 / 32, t_max=3.0, omega0=5.0, stepper=stepper)
            lab = run(make_config(**base))
            rotating = run(make_config(**base, rotating_frame=True))
            assert np.array_equal(lab.eps, np.exp(-1j * 5.0 * rotating.times) * rotating.eps)
            assert np.array_equal(lab.norms, rotating.norms)


ROTATING_NOTE = "rotating frame: multiply eps by exp(-i*{!r}*t) to recover lab-frame amplitudes"


class TestOutputPhase:
    """omega0 is no part of a collision, so the error does not grow with omega0 dt."""

    # the largest error over omega0 in {0.5, 5, 20}, exact and second order, at
    # dt 1/32 (t_max 6): mirror 5.55e-3 and 1.89e-2, white 1.93e-3 and 2.89e-3;
    # each halves at dt 1/64.  Stepping omega0 in the collision maps, the mirror
    # read 1.41e-1 and 7.6e11 at omega0 20
    C = {"exact": 0.25, "second_order": 0.75}

    @pytest.mark.parametrize("stepper", ["exact", "second_order"])
    @pytest.mark.parametrize("coupling", [
        {"shape": "mirror", "gamma": 1.0, "phi": 0.3, "tau": 1.0},
        {"shape": "white", "gamma": 1.0},
    ], ids=["mirror", "white"])
    def test_error_is_within_c_dt_at_any_omega0(self, coupling, stepper):
        for omega0 in (0.5, 5.0, 20.0):
            for dt in (1 / 32, 1 / 64):
                traj = run(make_config(coupling=coupling, omega0=omega0, dt=dt, t_max=6.0,
                                       stepper=stepper))
                if coupling["shape"] == "mirror":
                    ref = solve_dde(omega0, 1.0, 0.3, 1.0, 6.0)(traj.times)
                else:
                    ref = white_amplitude(omega0, 1.0, traj.times)
                assert np.max(np.abs(traj.eps - ref)) <= self.C[stepper] * dt


class TestRepresentationEquivalence:
    def test_fock_matches_exact_sector_mirror(self):
        base = dict(dt=0.1, n_steps=48, coupling={"shape": "mirror", "gamma": 0.5,
                                                  "phi": 0.4, "tau": 0.4})
        sector = run(make_config(**base))
        fock = run(make_config(**base, representation="full_fock"))
        assert np.max(np.abs(sector.eps - fock.eps)) < 1e-9

    def test_fock_matches_exact_sector_custom_kernel(self):
        coupling = {
            "shape": "custom", "gamma": 0.6,
            "deltas": [[0.0, 1.0, 0.0], [0.2, 0.0, 0.5], [0.4, -0.3, 0.0]],
        }
        base = dict(dt=0.1, n_steps=24, omega0=0.3, coupling=coupling, beta=[0.6, 0.3])
        sector = run(make_config(**base))
        fock = run(make_config(**base, representation="full_fock"))
        assert np.max(np.abs(sector.eps - fock.eps)) < 1e-9
        assert np.max(np.abs(sector.norms - fock.norms)) < 1e-9

    def test_recursion_matches_second_order_sector(self):
        base = dict(dt=0.1, n_steps=48, stepper="second_order",
                    coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 0.4})
        sector = run(make_config(**base))
        recursion = run(make_config(**base, representation="mirror_recursion"))
        assert np.max(np.abs(sector.eps - recursion.eps)) < 1e-10
        assert np.max(np.abs(sector.norms - recursion.norms)) < 1e-10

    @pytest.mark.parametrize("window,n_max", [(9, 1), (5, 2)])
    def test_fock_matches_sector_at_benchmark_size(self, window, n_max):
        base = dict(dt=1 / (window - 1), t_max=3.0, omega0=0.2,
                    coupling={"shape": "mirror", "gamma": 1.7, "phi": 2.3, "tau": 1.0})
        sector = run(make_config(**base))
        fock = run(make_config(**base, representation="full_fock", n_max=n_max,
                               window=window))
        assert np.max(np.abs(sector.eps - fock.eps)) <= 1e-9
        assert np.max(np.abs(sector.norms - fock.norms)) <= 1e-9

    @pytest.mark.parametrize("coupling", [
        {"shape": "custom", "gamma": 1.0, "deltas": [[0, 1e-312, 0], [0.2, 0, 1e-312]]},
        {"shape": "custom", "gamma": 1.0, "deltas": [[0, 5e-324, 0], [0.2, 0, 5e-324]]},
        {"shape": "custom", "gamma": 1.0,
         "smooth": {"form": "exponential", "kappa": 1e-310, "support": 0.3}},
    ], ids=["1e-312", "5e-324", "smooth-1e-310"])
    def test_subnormal_strengths_match_the_fock_register(self, coupling):
        # |g| below 5.6e-309: 1 / |g| is inf, which the sector run must not divide by
        base = dict(coupling=coupling, dt=0.1, n_steps=5)
        sector = run(make_config(**base))
        fock = run(make_config(**base, representation="full_fock"))
        assert np.max(np.abs(sector.eps - fock.eps)) <= 3e-14
        assert np.max(np.abs(sector.norms - fock.norms)) <= 3e-14

    # the register always spans the kernel, so a window below a smooth
    # kernel's span changes nothing
    @pytest.mark.parametrize("support,dt,n_steps,window", [
        (0.4, 0.1, 10, 2),  # lags 0..4
        (1.0, 1 / 8, 2, 8),  # span 9; the run ends before the register would fill
        (1.0, 1 / 8, 2, 3),
    ])
    def test_fock_window_below_a_smooth_span_is_dropped(self, support, dt, n_steps, window):
        base = dict(dt=dt, n_steps=n_steps, representation="full_fock",
                    coupling=smooth_coupling(support))
        windowed, plain = run(make_config(**base, window=window)), run(make_config(**base))
        assert np.array_equal(windowed.eps, plain.eps)
        assert np.array_equal(windowed.norms, plain.norms)


class TestTrajectoryRecord:
    def test_grid_and_lengths(self):
        traj = run(make_config(dt=0.125, n_steps=16))
        assert traj.n_steps == 16
        assert len(traj.eps) == 17
        assert np.allclose(np.diff(traj.times), 0.125)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.excited_population == pytest.approx(np.abs(traj.eps) ** 2)

    @pytest.mark.parametrize("extra", [
        {}, {"stepper": "second_order"}, {"representation": "full_fock"},
        {"coupling": {"shape": "white", "gamma": 1.0}},
    ])
    def test_stores_eps_and_norms_only(self, extra):
        # 24 bytes a step: a complex eps and a float norm; the step index, the time
        # and the population are computed on access, each a new array
        traj = run(make_config(**{"dt": 0.125, "n_steps": 64, **extra}))
        stored = [v for v in vars(traj).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in stored) == 24 * (traj.n_steps + 1)
        assert traj.times is not traj.times
        assert np.array_equal(traj.steps, np.arange(65))
        assert traj.times.tobytes() == (np.arange(65) * 0.125).tobytes()
        assert traj.excited_population.tobytes() == (np.abs(traj.eps) ** 2).tobytes()

    def test_incremental_norm_matches_full_recompute(self):
        config = make_config(dt=1 / 32, n_steps=64, stepper="second_order")
        traj = run(config)
        plan = make_plan(config.coupling_spec(), config.dt, 64)
        state = init_single_excitation(64, 1.0, n_history=plan.max_lag)
        for k in range(1, 65):
            step_single_excitation(state, plan, k, Stepper.SECOND_ORDER)
        assert traj.norms[-1] == pytest.approx(state.norm(), abs=1e-13)

    def test_overflow_raises_naming_first_step(self):
        # gamma*dt = 10: the second-order map grows by about 9 per step, and the
        # squared norm overflows first
        config = make_config(coupling=mirror(100.0, 0.0, 1.0), dt=0.1, n_steps=2000,
                             stepper="second_order")
        with pytest.raises(RuntimeError, match="not finite from step 162 on"):
            run(config)

    def test_t_max_rounding_note(self):
        config = make_config(dt=0.3, t_max=1.0)
        traj = run(config)
        assert traj.n_steps == 3
        assert any("rounded down" in note for note in traj.notes)

    def test_kernel_warnings_surface_in_notes(self):
        config = make_config(
            coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 0.04},
            dt=0.1, n_steps=10,
        )
        traj = run(config)
        assert any("merged deltas" in note for note in traj.notes)

    def test_fock_register_note(self):
        base = dict(coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.3, "tau": 0.2},
                    dt=0.1, n_steps=10)
        sector = run(make_config(**base))
        fock = run(make_config(**base, representation="full_fock"))
        # three active modes: 2 * 2**3 amplitudes; each collision touches two modes, so one
        # local propagator on 2 * 2**2 amplitudes serves every step, its largest
        # excitation-number block C(3, 1) = 3 at N = 1 or 2
        note = ("full_fock register: peak dimension 16, local propagator dimension 8 "
                "(largest excitation-number block 3)")
        assert fock.notes == (note,)
        assert run(make_config(**base, representation="full_fock")).notes == (note,)
        assert sector.notes == ()

    @pytest.mark.parametrize("coupling,window,dim", [
        # lags 2 and 5 span four ancillas: 2 * 2**4 amplitudes
        ({"shape": "custom", "gamma": 0.8, "deltas": [[0.2, 0.7, 0.0], [0.5, -0.4, 0.3]]},
         4, 32),
        ({"shape": "white", "gamma": 0.0}, 1, 2),  # no stored lag: the qubit alone
    ])
    def test_fock_register_dimension_is_the_span(self, coupling, window, dim):
        fock = run(make_config(coupling=coupling, dt=0.1, n_steps=12,
                               representation="full_fock", window=window))
        assert fock.notes[-1].startswith(f"full_fock register: peak dimension {dim},")


def growth_bound(traj):
    """rho and n log10 rho, as the second-order note of ``traj`` gives them."""
    (note,) = [note for note in traj.notes if note.startswith("second-order stepper")]
    found = re.search(r"rho = (\S+), so \d+ steps by up to 10\^(\S+) \(n log10 rho\)", note)
    return float(found[1]), float(found[2])


WHITE_PROBE = {"shape": "white", "gamma": 50.0}
MIRROR_PROBE = {"shape": "mirror", "gamma": 50.0, "phi": 0.0, "tau": 1.0}


class TestGrowthBound:
    """Every second-order run notes rho, the most one collision can scale the norm by."""

    def test_white_probe(self):
        # |g|^2 = gamma / dt = 500: 1 - x/2 = -1.5 and dt |g| = sqrt(5), so rho =
        # sqrt(7.25) = 2.69, and |eps| = 1.5^200 = 1.6e35.  omega0 is no part of a
        # collision, so it leaves rho alone
        traj = run(make_config(coupling=WHITE_PROBE, omega0=10.0, dt=0.1, t_max=20.0,
                               stepper="second_order"))
        rho, decades = growth_bound(traj)
        assert rho == pytest.approx(math.sqrt(7.25), rel=1e-5)
        assert decades == pytest.approx(200 * math.log10(rho), rel=1e-3)
        assert 35 < math.log10(np.max(np.abs(traj.eps))) <= decades

    def test_mirror_probe(self):
        # |g|^2 = 2 gamma / dt = 1000: 1 - x/2 = -4 and dt lambda = sqrt(10), so rho = sqrt(26)
        traj = run(make_config(coupling=MIRROR_PROBE, dt=0.1, t_max=5.0, stepper="second_order"))
        rho, decades = growth_bound(traj)
        assert rho == pytest.approx(math.sqrt(26), rel=1e-5)
        assert 25 < math.log10(np.max(np.abs(traj.eps))) <= decades

    @pytest.mark.parametrize("coupling,omega0,n_max", [
        (WHITE_PROBE, 10.0, 1), (WHITE_PROBE, 10.0, 2), (MIRROR_PROBE, 0.0, 1)])
    def test_full_fock_takes_its_largest_block(self, coupling, omega0, n_max):
        # the one-excitation map is one number block of the local map.  For the white
        # kernel the other blocks, |g, 0> and |e, 1>, hold no coupling and map by 1,
        # so the two read the same rho; n_max 2 is an old spelling that parse_config
        # drops, so it runs the same two-level register
        base = dict(coupling=coupling, omega0=omega0, dt=0.1, n_steps=4, stepper="second_order")
        sector = growth_bound(run(make_config(**base)))[0]
        fock = growth_bound(run(make_config(**base, representation="full_fock", n_max=n_max)))[0]
        if coupling is WHITE_PROBE:
            assert fock == sector
        assert fock >= sector

    @pytest.mark.parametrize("coupling,omega0,t_max", [
        (WHITE_PROBE, 10.0, 20.0), (MIRROR_PROBE, 0.0, 5.0)])
    def test_growing_register_retires_its_modes(self, coupling, omega0, t_max):
        # the registers grow past 1e50 in squared norm, so rounding alone leaves more than
        # 1e-12 of bright weight on a retiring mode: the dark-branch bound is relative
        base = dict(coupling=coupling, omega0=omega0, dt=0.1, t_max=t_max, stepper="second_order")
        sector = run(make_config(**base))
        fock = run(make_config(**base, representation="full_fock"))
        scale = np.abs(sector.eps)
        assert np.max(np.abs(fock.eps - sector.eps) / scale) <= 1e-12
        assert np.max(np.abs(fock.norms - sector.norms) / sector.norms) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 5.0), st.floats(-20.0, 20.0), st.sampled_from([0.01, 0.1, 0.5]),
           st.booleans())
    def test_closed_form_is_the_norm_of_the_collision_map(self, gamma, omega0, dt, mirror_kernel):
        coupling = ({"shape": "mirror", "gamma": gamma, "phi": 0.7, "tau": 2 * dt}
                    if mirror_kernel else {"shape": "white", "gamma": gamma})
        config = make_config(coupling=coupling, omega0=omega0, dt=dt, n_steps=3,
                             stepper="second_order")
        plan = make_plan(config.coupling_spec(), dt, 3, omega0)
        u2 = engine._delay_recursion(plan, Stepper.SECOND_ORDER)[0]
        assert growth_bound(run(config))[0] == pytest.approx(np.linalg.norm(u2, 2), rel=1e-5)

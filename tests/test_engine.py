import cmath
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide import engine
from qcollide.config import ConfigError
from qcollide.coupling import (
    collision_weights,
    coupling_strengths,
    mirror_coupling,
    white_coupling,
)
from qcollide.engine import (
    Stepper,
    build_plan,
    run,
    step_full,
    step_single_excitation,
)
from qcollide.reference import solve_dde
from qcollide.states import embed_single_excitation, init_single_excitation

from conftest import make_config


def make_plan(spec, dt, n_steps, omega0=0.0):
    weights = collision_weights(spec, dt, n_steps)
    return build_plan(coupling_strengths(weights, spec.gamma), omega0, n_steps)


def explicit_second_order(plan, beta, n_steps):
    """Second-order collisions written out term by term: an independent form of
    1 - i H dt - V^2 dt^2 / 2.  Returns eps per step and the final state."""
    state = init_single_excitation(n_steps, beta, n_history=plan.max_lag)
    dt = plan.dt
    eps_out = [state.eps]
    for k in range(1, n_steps + 1):
        touched = plan.touched(k)
        idx = [m - state.min_index for m, _ in touched]
        eps = state.eps
        overlap = sum(np.conj(g) * state.c[i] for (_, g), i in zip(touched, idx))
        strength_sq = sum(abs(g) ** 2 for _, g in touched)
        state.eps = eps - 1j * dt * (plan.omega0 * eps + overlap) - 0.5 * dt * dt * strength_sq * eps
        for (_, g), i in zip(touched, idx):
            state.c[i] += -1j * dt * g * eps - 0.5 * dt * dt * g * overlap
        eps_out.append(state.eps)
    return np.array(eps_out), state


class TestBuildPlan:
    def test_white_touches_one_fresh_ancilla(self):
        plan = make_plan(white_coupling(1.0), 0.1, 10)
        for k in (1, 4, 10):
            assert plan.touched(k) == [(k, pytest.approx(math.sqrt(10.0)))]

    def test_mirror_touches_current_and_delayed(self):
        plan = make_plan(mirror_coupling(1.0, 0.0, 0.3), 0.1, 10)
        assert [m for m, _ in plan.touched(5)] == [5, 2]

    def test_early_steps_reach_prehistory_modes(self):
        # the delayed channel couples to vacuum input modes at or below index 0;
        # dropping them would halve the initial decay rate
        plan = make_plan(mirror_coupling(1.0, 0.0, 0.3), 0.1, 10)
        assert [m for m, _ in plan.touched(2)] == [2, -1]
        assert plan.min_ancilla == -2

    def test_step_bounds_checked(self):
        plan = make_plan(white_coupling(1.0), 0.1, 10)
        with pytest.raises(ValueError, match="step"):
            plan.touched(0)
        with pytest.raises(ValueError, match="step"):
            plan.touched(11)


class TestSingleExcitationStepper:
    def test_decoupled_step_is_free_phase(self):
        omega0, dt = 0.8, 0.05
        plan = make_plan(white_coupling(0.0), dt, 5, omega0=omega0)
        state = init_single_excitation(5, 1.0)
        step_single_excitation(state, plan, 1, Stepper.EXACT)
        assert state.eps == pytest.approx(cmath.exp(-1j * omega0 * dt))

    def test_second_order_first_step(self):
        # from eps=1 the first collision gives eps -> 1 - (i*omega0 + gamma)*dt
        gamma, omega0, dt = 0.5, 0.3, 0.02
        plan = make_plan(mirror_coupling(gamma, 0.0, 0.1), dt, 10, omega0=omega0)
        state = init_single_excitation(10, 1.0, n_history=plan.max_lag)
        step_single_excitation(state, plan, 1, Stepper.SECOND_ORDER)
        assert state.eps == pytest.approx(1 - (1j * omega0 + gamma) * dt, abs=1e-15)

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
        window = range(plan.min_ancilla, n_steps + 1)
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
        fock = embed_single_excitation(state, 1, range(plan.min_ancilla, 5))
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
        plan = make_plan(mirror_coupling(0.8, 0.6, 0.2), 0.1, 5, omega0=0.5)
        state = init_single_excitation(5, 0.7, n_history=plan.max_lag)
        fock = embed_single_excitation(state, 1, range(plan.min_ancilla, 6))
        mean0, var0 = fock.excitation_moments()
        for k in range(1, 6):
            step_full(fock, plan, k)
            mean, var = fock.excitation_moments()
            assert mean == pytest.approx(mean0, abs=1e-10)
            assert var == pytest.approx(var0, abs=1e-10)


def mirror(gamma, phi, tau):
    return {"shape": "mirror", "gamma": gamma, "phi": phi, "tau": tau}


class TestMirrorRecursion:
    def test_no_feedback_before_delay(self):
        gamma, dt, d = 0.5, 0.1, 5
        traj = run(make_config(coupling=mirror(gamma, 0.0, d * dt), dt=dt, n_steps=d,
                               representation="mirror_recursion"))
        values = traj.eps
        # pure damping until the first echo: eps_{n+1} = (1 - gamma*dt)*eps_n
        for n in range(d):
            assert values[n + 1] == pytest.approx((1 - gamma * dt) * values[n], abs=1e-15)

    def test_matches_second_order_stepper(self):
        gamma, phi, omega0, dt, d = 0.5, 0.7, 0.4, 0.1, 4
        n_steps = 60
        config = make_config(coupling=mirror(gamma, phi, d * dt), dt=dt, n_steps=n_steps,
                             omega0=omega0, representation="mirror_recursion")
        rec = run(config)
        plan = make_plan(config.coupling_spec(), dt, n_steps, omega0=omega0)
        eps, sector = explicit_second_order(plan, 1.0, n_steps)
        assert np.max(np.abs(rec.eps - eps)) < 1e-12
        assert rec.norms[-1] == pytest.approx(sector.norm(), abs=1e-12)

    def test_finite_difference_form(self):
        # eliminating the ancilla amplitudes leaves
        # d(eps)/dt = -(i*omega0 + gamma)*eps_n + gamma*e^{i*phi}*eps_{n-d} + O(gamma^2*dt)
        gamma, phi, omega0, dt, d = 0.8, 0.5, 0.0, 0.01, 20
        n_steps = 200
        eps = run(make_config(coupling=mirror(gamma, phi, d * dt), dt=dt, n_steps=n_steps,
                              omega0=omega0, representation="mirror_recursion")).eps
        worst = 0.0
        for n in range(n_steps):
            lhs = (eps[n + 1] - eps[n]) / dt
            delayed = eps[n - d] if n >= d else 0j
            rhs = -(1j * omega0 + gamma) * eps[n] + gamma * cmath.exp(1j * phi) * delayed
            worst = max(worst, abs(lhs - rhs))
        assert worst <= gamma**2 * dt

    def test_zero_delay_rejected(self):
        # a mirror with no delay has no echo for the recursion to feed back
        with pytest.raises(ConfigError, match="delay of at least one step"):
            make_config(coupling=mirror(0.5, 0.0, 0.0), dt=0.1, n_steps=5,
                        representation="mirror_recursion")


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
        fock = run(make_config(**base, representation="full_fock", n_max=1))
        assert np.max(np.abs(sector.eps - fock.eps)) < 1e-9
        assert np.max(np.abs(sector.norms - fock.norms)) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(delta_kernel_configs())
    def test_second_order_core_matches_explicit_formula(self, base):
        config = make_config(**base, stepper="second_order")
        traj = run(config)
        plan = make_plan(config.coupling_spec(), config.dt, config.n_steps, omega0=config.omega0)
        eps, state = explicit_second_order(plan, config.beta, config.n_steps)
        assert np.max(np.abs(traj.eps - eps)) < 1e-12
        assert traj.norms[-1] == pytest.approx(state.norm(), abs=1e-12)


def per_step_and_blocked(config):
    """Collide a config's whole run once per step and once in delay blocks.

    Returns ((eps, norm change, final ancillas) per step, the same blocked).
    """
    plan = make_plan(config.coupling_spec(), config.dt, config.effective_steps()[0],
                     omega0=config.omega0)
    out = []
    for gate in (sys.maxsize, 1):  # never block / block whenever the plan allows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "BLOCK_MIN_GAP", gate)
            state = init_single_excitation(plan.n_steps, config.beta, n_history=plan.max_lag)
            eps, norm_change = engine._collide(state, plan, config.stepper, 1, plan.n_steps)
        out.append((eps, norm_change, state.c))
    return out


def assert_bodies_agree(config, tol=1e-12):
    (eps_s, norm_s, c_s), (eps_b, norm_b, c_b) = per_step_and_blocked(config)
    assert np.max(np.abs(eps_s - eps_b)) <= tol
    assert np.max(np.abs(norm_s - norm_b)) <= tol
    assert np.max(np.abs(c_s - c_b)) <= tol


@st.composite
def sparse_kernel_configs(draw):
    """Custom couplings with 1-4 delta lags of at most 40 steps whose smallest
    gap falls on either side of BLOCK_MIN_GAP, with 1-120 collisions."""
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


class TestDelayBlocks:
    """The blocked body of the stepping core against its per-step body."""

    def test_mirror_gap_is_the_delay(self):
        plan = make_plan(mirror_coupling(1.0, 0.0, 1.0), 1 / 64, 640)
        assert plan.delay_gap == 64
        assert make_plan(white_coupling(1.0), 0.1, 37).delay_gap == 37

    @settings(max_examples=60, deadline=None)
    @given(sparse_kernel_configs())
    def test_random_sparse_kernels(self, base):
        assert_bodies_agree(make_config(**base))

    @pytest.mark.parametrize("base", ACCEPTANCE_CONFIGS)
    def test_acceptance_configs(self, base):
        assert_bodies_agree(make_config(**base))

    @pytest.mark.parametrize("base", list(_mirror_grid()))
    def test_mirror_grid(self, base):
        assert_bodies_agree(make_config(**base))

    def test_unstable_stepper_on_vacuum_stays_zero(self):
        # |u00| = 1.096 here: one block over the whole single-lag run would
        # overflow the scan's powers of u00 and turn 0 * inf into NaN
        traj = run(make_config(coupling={"shape": "white", "gamma": 0.5}, omega0=5.0, dt=0.1,
                               n_steps=100_000, stepper="second_order", beta=0.0))
        assert not np.any(traj.eps)

    def test_run_dispatches_on_the_gap(self, monkeypatch):
        calls = []
        blocks = engine._collide_blocks
        monkeypatch.setattr(engine, "_collide_blocks",
                            lambda *args: calls.append(args[-1]) or blocks(*args))
        run(make_config(dt=1 / 64, t_max=2.0))  # mirror, tau = 1: gap 64
        run(make_config(coupling=mirror(0.5, 0.0, 0.5), dt=0.1, t_max=2.0))  # gap 5
        assert calls == [64]


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
        lab = run(make_config(dt=1 / 64, omega0=0.0))
        rotating = run(make_config(dt=1 / 64, omega0=2.5, rotating_frame=True))
        assert np.array_equal(lab.eps, rotating.eps)
        assert any("rotating frame" in note for note in rotating.notes)


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

    def test_fock_window_too_small_rejected(self):
        config = make_config(
            dt=0.1, n_steps=10, representation="full_fock", window=2,
            coupling={"shape": "mirror", "gamma": 0.5, "phi": 0.0, "tau": 0.4},
        )
        with pytest.raises(ValueError, match="window"):
            run(config)


class TestTrajectoryRecord:
    def test_grid_and_lengths(self):
        traj = run(make_config(dt=0.125, n_steps=16))
        assert traj.n_steps == 16
        assert len(traj.eps) == 17
        assert np.allclose(np.diff(traj.times), 0.125)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.excited_population == pytest.approx(np.abs(traj.eps) ** 2)

    def test_incremental_norm_matches_full_recompute(self):
        config = make_config(dt=1 / 32, n_steps=64, stepper="second_order")
        traj = run(config)
        spec = config.coupling_spec()
        weights = collision_weights(spec, config.dt, 64)
        plan = build_plan(coupling_strengths(weights, spec.gamma), 0.0, 64)
        state = init_single_excitation(64, 1.0, n_history=plan.max_lag)
        for k in range(1, 65):
            step_single_excitation(state, plan, k, Stepper.SECOND_ORDER)
        assert traj.norms[-1] == pytest.approx(state.norm(), abs=1e-13)

    def test_overflow_raises_naming_first_step(self):
        # gamma*dt = 10: the second-order map grows by about 9 per step, and the
        # squared norm overflows first
        config = make_config(coupling=mirror(100.0, 0.0, 1.0), dt=0.1, n_steps=2000,
                             representation="mirror_recursion")
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

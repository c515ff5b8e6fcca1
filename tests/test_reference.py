import math

import numpy as np
import pytest

from qcollide.reference import dde_numeric_oracle, solve_dde, white_amplitude


class TestSolveDde:
    def test_first_interval_is_plain_decay(self):
        omega0, gamma = 0.4, 0.8
        sol = solve_dde(omega0, gamma, 0.3, 1.0, 5.0)
        ts = np.linspace(0.0, 0.999, 57)
        expected = np.exp(-(1j * omega0 + gamma) * ts)
        assert np.max(np.abs(sol(ts) - expected)) < 1e-14

    def test_starts_at_one(self):
        sol = solve_dde(0.2, 0.5, 0.1, 0.7, 3.0)
        assert sol(0.0) == pytest.approx(1.0)

    def test_no_decay_without_coupling(self):
        omega0 = 1.1
        sol = solve_dde(omega0, 0.0, 0.0, 1.0, 8.0)
        ts = np.linspace(0.0, 8.0, 101)
        values = sol(ts)
        assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-13
        assert np.max(np.abs(values - np.exp(-1j * omega0 * ts))) < 1e-12

    @pytest.mark.parametrize("gamma,phi", [(0.3, 0.0), (0.8, math.pi / 2), (2.0, math.pi)])
    def test_continuous_at_delay_multiples(self, gamma, phi):
        tau = 1.0
        sol = solve_dde(0.0, gamma, phi, tau, 6.0)
        for k in range(1, 6):
            left = sol(k * tau - 1e-13)
            right = sol(k * tau + 1e-13)
            assert abs(left - right) < 1e-12

    @pytest.mark.parametrize("gamma,phi,omega0", [
        (0.1, 0.0, 0.0), (0.5, math.pi / 2, 0.7), (2.0, math.pi, 0.0),
    ])
    def test_amplitude_never_exceeds_one(self, gamma, phi, omega0):
        sol = solve_dde(omega0, gamma, phi, 1.0, 8.0)
        ts = np.linspace(0.0, 8.0, 2001)
        assert np.max(np.abs(sol(ts))) <= 1.0 + 1e-12

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 2.0])
    def test_revival_inside_second_interval(self, gamma):
        # with phi = 0 the feedback reinjects a larger past amplitude, so |eps|
        # must grow somewhere in (tau, 2*tau)
        tau = 1.0
        sol = solve_dde(0.0, gamma, 0.0, tau, 3.0)
        ts = np.linspace(tau + 1e-3, 2 * tau - 1e-3, 500)
        magnitudes = np.abs(sol(ts))
        assert np.max(np.diff(magnitudes)) > 0

    def test_long_time_plateau(self):
        # Laplace pole at s = 0 leaves the residue 1/(1 + gamma*tau) = 2/3
        sol = solve_dde(0.0, 0.5, 0.0, 1.0, 200.0)
        assert abs(sol(40.0)) == pytest.approx(2 / 3, abs=1e-12)
        assert abs(sol(200.0)) == pytest.approx(2 / 3, abs=1e-12)

    def test_segment_index(self):
        sol = solve_dde(0.0, 0.5, 0.0, 2.0, 10.0)
        assert sol.segment(0.1) == 0
        assert sol.segment(2.5) == 1
        assert sol.segment(9.9) == 4

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError, match="white_amplitude"):
            solve_dde(0.0, 0.5, 0.0, 0.0, 1.0)

    def test_strong_feedback_long_horizon_stays_finite(self):
        # b = gamma*e^{gamma*tau} ~ 7e7: b^j/j! overflows and e^{-gamma t}
        # underflows near t = 100, so each term is evaluated in log form
        sol = solve_dde(0.0, 8.0, 0.0, 2.0, 100.0)
        times, eps = dde_numeric_oracle(0.0, 8.0, 0.0, 2.0, 2.0 / 1000, 100.0)
        reference = sol(times)
        assert np.all(np.isfinite(reference))
        assert np.max(np.abs(eps - reference)) <= 1e-5

    def test_non_finite_result_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            solve_dde(math.nan, 0.5, 0.0, 1.0, 4.0)(2.0)

    def test_out_of_range_evaluation_rejected(self):
        sol = solve_dde(0.0, 0.5, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="outside"):
            sol(2.5)


class TestWhiteAmplitude:
    def test_at_zero(self):
        assert white_amplitude(0.3, 1.0, 0.0) == pytest.approx(1.0)

    def test_decay_value(self):
        assert white_amplitude(0.0, 1.0, 2.0) == pytest.approx(math.exp(-1.0))

    def test_pure_phase_at_zero_rate(self):
        omega0 = 0.9
        ts = np.linspace(0, 5, 11)
        values = white_amplitude(omega0, 0.0, ts)
        assert np.allclose(values, np.exp(-1j * omega0 * ts))
        assert np.allclose(np.abs(values), 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t"):
            white_amplitude(0.0, 1.0, -0.5)


class TestNumericOracle:
    @pytest.mark.parametrize("gamma_tau", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi])
    def test_agrees_with_method_of_steps(self, gamma_tau, phi):
        tau = 1.0
        gamma = gamma_tau / tau
        times, eps = dde_numeric_oracle(0.0, gamma, phi, tau, tau / 1000, 6.0)
        reference = solve_dde(0.0, gamma, phi, tau, 6.0)(times)
        assert np.max(np.abs(eps - reference)) <= 1e-6

    def test_agrees_with_detuning(self):
        times, eps = dde_numeric_oracle(0.6, 0.5, 0.3, 1.0, 1e-3, 5.0)
        reference = solve_dde(0.6, 0.5, 0.3, 1.0, 5.0)(times)
        assert np.max(np.abs(eps - reference)) <= 1e-6

    def test_long_time_plateau_cross_check(self):
        times, eps = dde_numeric_oracle(0.0, 0.5, 0.0, 1.0, 1e-3, 200.0)
        assert abs(abs(eps[-1]) - 2 / 3) < 1e-6

    def test_coarse_step_rejected(self):
        with pytest.raises(ValueError, match="dt_fine"):
            dde_numeric_oracle(0.0, 0.5, 0.0, 1.0, 0.01, 5.0)

    def test_zero_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            dde_numeric_oracle(0.0, 0.5, 0.0, 0.0, 1e-5, 5.0)

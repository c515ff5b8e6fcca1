import math

import numpy as np
import pytest

from qcollide import reference
from qcollide.reference import solve_dde, white_amplitude

from conftest import dde_numeric_oracle, dde_untruncated


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

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_empty_times_give_empty_arrays(self, gamma):
        sol = solve_dde(0.0, gamma, 0.3, 1.0, 5.0)
        for shape in ((0,), (0, 3)):
            values = sol(np.zeros(shape))
            assert values.shape == shape and values.dtype == complex

    def test_grid_of_times_keeps_its_shape(self):
        sol = solve_dde(0.4, 0.8, 0.3, 1.0, 5.0)
        grid = np.linspace(5.0, 0.0, 6).reshape(2, 3)
        values = sol(grid)
        assert values.shape == (2, 3)
        assert values.tobytes() == sol(grid.ravel()).tobytes()
        assert isinstance(sol(np.float64(2.5)), complex)
        assert isinstance(sol(np.array(2.5)), complex)


def on_grid(dt, t_max):
    return np.arange(int(round(t_max / dt)) + 1) * dt


class TestTermsStopAtUnderflow:
    @pytest.mark.parametrize("delay_steps", [2, 3, 4])
    @pytest.mark.parametrize("gamma,phi,omega0", [
        (1.0, 0.3, 0.0), (0.5, 2.0, 0.7), (2.0, math.pi, 0.0),
    ])
    def test_short_delays_equal_the_full_sum_bitwise(self, delay_steps, gamma, phi, omega0):
        dt, t_max = 0.005, 10.0
        tau = delay_steps * dt
        sol = solve_dde(omega0, gamma, phi, tau, t_max)
        # the sum stops early: one of its last terms underflows at every t <= t_max
        j = sol.segment(t_max) - 1
        log_b = math.log(gamma) + gamma * tau
        assert j > 2 * (math.exp(log_b) * t_max + 1)
        assert j * log_b - math.lgamma(j + 1) + j * math.log(t_max - j * tau) < -746
        for times in (on_grid(dt, t_max), on_grid(dt / 2, t_max)[::-1]):
            assert sol(times).tobytes() == dde_untruncated(sol, times).tobytes()

    @pytest.mark.parametrize("gamma,phi,d,t_max", [
        (0.25, 0.0, 64, 20.0), (2.0, 0.0, 64, 20.0), (1.3, 4.0, 128, 20.0),
        (0.7, 2.5, 512, 10.0), (2.0, math.pi, 3, 3.0), (1.1, 5.9, 8, 3.0),
    ])
    def test_delays_of_one_equal_the_full_sum_bitwise(self, gamma, phi, d, t_max):
        # the benchmark's mirror configs: tau 1 at dt = 1/d
        sol = solve_dde(0.0, gamma, phi, 1.0, t_max)
        times = on_grid(1 / d, t_max)
        assert sol(times).tobytes() == dde_untruncated(sol, times).tobytes()
        assert sol(t_max / 3) == dde_untruncated(sol, t_max / 3)


class TestTermsOnTheirSupport:
    """Each echo term is evaluated only on the rows where it does not underflow."""

    # gamma, tau, dt, t_max, and which edges the search finds: a left cut, a
    # right cut, a term that underflows on its whole tail
    CASES = {
        "left": (1.0, 0.004, 0.002, 40.0, {"left", "empty"}),
        "both": (6.0, 0.01, 0.1, 150.0, {"left", "right"}),
        "empty": (2000.0, 0.001, 0.5, 5.0, {"left", "right", "empty"}),
        "tau-1": (0.7, 1.0, 1 / 512, 10.0, set()),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rows_hold_every_nonzero_value(self, case):
        gamma, tau, dt, t_max, kinds = self.CASES[case]
        s = on_grid(dt, t_max)
        log_b_re = math.log(gamma) + gamma * tau
        found = set()
        for j in range(1, int(t_max / tau) + 2):
            start = j * tau
            lo = int(np.searchsorted(s, start, side="right"))
            if lo == len(s):
                break
            scale = j * log_b_re - math.lgamma(j + 1)
            exponent = scale + j * np.log(s[lo:] - start) - gamma * s[lo:]
            with np.errstate(over="ignore"):
                nonzero = lo + np.flatnonzero(np.exp(exponent))
            first, last = reference._above_underflow(scale, j, start, gamma, s, lo)
            if first == last:
                found.add("empty")
            else:
                found |= {"left"} if first > lo else set()
                found |= {"right"} if last < len(s) else set()
            if not nonzero.size and j > math.exp(log_b_re) * t_max + 1:
                break  # where the sum stops
            if nonzero.size:
                assert first <= nonzero[0] and nonzero[-1] < last
                # and no row far below the underflow (about -745.13) is evaluated
                assert exponent[first - lo:last - lo].min() >= -748
        assert found == kinds

    @pytest.mark.parametrize("case", CASES)
    def test_rows_are_tight(self, case):
        # the rows are exactly those at or above the cut, one below exp's underflow
        gamma, tau, dt, t_max, _ = self.CASES[case]
        s = on_grid(dt, t_max)
        cut = reference._EXP_UNDERFLOW - 1
        log_b_re = math.log(gamma) + gamma * tau
        for j in range(1, int(t_max / tau) + 2):
            start = j * tau
            lo = int(np.searchsorted(s, start, side="right"))
            if lo == len(s):
                break
            scale = j * log_b_re - math.lgamma(j + 1)
            exponent = scale + j * np.log(s[lo:] - start) - gamma * s[lo:]
            first, last = reference._above_underflow(scale, j, start, gamma, s, lo)
            inside = np.zeros(len(exponent), dtype=bool)
            inside[first - lo:last - lo] = True
            assert np.all(exponent[inside] >= cut - 1e-6)
            assert np.all(exponent[~inside] < cut + 1e-6)

    @pytest.mark.parametrize("case", ["both", "empty"])
    def test_cut_terms_sum_as_the_full_ones(self, case):
        gamma, tau, dt, t_max, _ = self.CASES[case]
        sol = solve_dde(0.3, gamma, 0.3, tau, t_max)
        times = on_grid(dt, t_max)
        assert sol(times).tobytes() == dde_untruncated(sol, times).tobytes()


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

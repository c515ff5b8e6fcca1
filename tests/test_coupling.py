import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide.coupling import (
    QUADRATURE_CELLS,
    collision_weights,
    coupling_strengths,
    custom_coupling,
    grid_span,
    mirror_coupling,
    white_coupling,
)

from qcollide.export import weights_csv

from conftest import brute_force_lag_weight, two_pass_lag_weight, weight_at


class TestCouplingSpec:
    def test_white_is_unit_delta(self):
        spec = white_coupling(1.0)
        assert spec.deltas == ((0.0, 1.0 + 0j),)
        assert spec.smooth is None

    def test_white_equals_equivalent_custom(self):
        assert white_coupling(1.0) == custom_coupling(1.0, [(0.0, 1.0 + 0j)])

    def test_mirror_equals_equivalent_custom(self):
        phi, tau = 0.7, 1.3
        expected = custom_coupling(2.0, [(0.0, 1.0), (tau, -cmath.exp(-1j * phi))])
        assert mirror_coupling(2.0, phi, tau) == expected

    def test_mirror_delta_pair(self):
        spec = mirror_coupling(0.5, 0.0, 1.0)
        assert spec.deltas == ((0.0, 1.0 + 0j), (1.0, (-1.0 - 0j)))

    def test_mirror_zero_tau_merges(self):
        spec = mirror_coupling(1.0, math.pi, 0.0)
        assert len(spec.deltas) == 1
        lag, weight = spec.deltas[0]
        assert lag == 0.0
        assert weight == pytest.approx(2.0)

    def test_mirror_phase_arithmetic(self):
        # -exp(-i*pi/2) = i
        spec = mirror_coupling(1.0, math.pi / 2, 2.0)
        assert spec.deltas[1][1] == pytest.approx(1j)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            white_coupling(-0.1)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            mirror_coupling(1.0, 0.0, -1.0)

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            custom_coupling(1.0, [(-0.5, 1.0)])

    def test_smooth_needs_finite_support(self):
        with pytest.raises(ValueError, match="support"):
            custom_coupling(1.0, smooth=lambda u: math.exp(-u), smooth_support=math.inf)

    def test_gamma_zero_is_valid(self):
        spec = white_coupling(0.0)
        weights = collision_weights(spec, 0.1, 10)
        assert coupling_strengths(weights, spec.gamma)[0].size == 0


class TestTimeKernel:
    """The memory kernel is the spec's deltas, smooth and smooth_support fields."""

    def test_white_kernel_single_delta(self):
        assert white_coupling(1.0).deltas == ((0.0, 1.0 + 0j),)

    def test_mirror_kernel_delta_pair(self):
        spec = mirror_coupling(1.0, 0.3, 2.0)
        assert spec.deltas == ((0.0, 1.0 + 0j), (2.0, -cmath.exp(-0.3j)))

    def test_smooth_passthrough(self):
        decay = lambda u: 2.0 * math.exp(-2.0 * u)  # noqa: E731
        spec = custom_coupling(1.0, smooth=decay, smooth_support=3.0)
        assert spec.smooth is decay
        assert spec.smooth_support == 3.0


class TestCollisionWeights:
    def test_white_kronecker(self):
        for dt in (0.1, 0.01, 0.5):
            weights = collision_weights(white_coupling(1.0), dt, 50)
            assert weights.lags.tolist() == [0] and weights.w.tolist() == [1.0 + 0j]
            assert weights.warnings == ()

    def test_mirror_exact_on_grid(self):
        weights = collision_weights(mirror_coupling(1.0, 0.0, 0.3), 0.1, 20)
        assert weight_at(weights, 0) == 1.0
        assert weight_at(weights, 3) == -1.0
        assert all(weight_at(weights, ell) == 0 for ell in (1, 2, 4, 5))
        assert weights.warnings == ()

    def test_off_grid_lag_warns(self):
        spec = custom_coupling(1.0, [(0.37, 1.0)])
        weights = collision_weights(spec, 0.1, 20)
        assert weight_at(weights, 4) == 1.0
        assert any("discretization mismatch" in w for w in weights.warnings)

    def test_sub_step_delay_merges_with_warning(self):
        phi = 1.1
        weights = collision_weights(mirror_coupling(1.0, phi, 0.04), 0.1, 20)
        assert weight_at(weights, 0) == pytest.approx(1 - cmath.exp(-1j * phi))
        assert any("merged deltas" in w for w in weights.warnings)
        assert any("discretization mismatch" in w for w in weights.warnings)

    def test_invalid_grid_rejected(self):
        spec = white_coupling(1.0)
        with pytest.raises(ValueError, match="dt"):
            collision_weights(spec, 0.0, 10)
        with pytest.raises(ValueError, match="n_steps"):
            collision_weights(spec, 0.1, 0)

    def test_smooth_weights_match_brute_force_oracle(self):
        kappa, dt, support = 1.0, 0.05, 2.0
        decay = lambda u: kappa * math.exp(-kappa * u)  # noqa: E731
        spec = custom_coupling(1.0, smooth=decay, smooth_support=support)
        weights = collision_weights(spec, dt, 60)
        assert 0 in weights.lags
        for lag in (0, 1, 2, 5, 17, 40):
            oracle = brute_force_lag_weight(decay, support, lag, dt)
            assert weight_at(weights, lag) == pytest.approx(oracle, abs=1e-8)

    def test_smooth_support_edge(self):
        # support ends inside a lag window; the clipped cell average must follow
        decay = lambda u: 1.0  # noqa: E731
        spec = custom_coupling(1.0, smooth=decay, smooth_support=0.25)
        weights = collision_weights(spec, 0.1, 10)
        oracle = brute_force_lag_weight(decay, 0.25, 2, 0.1)
        assert weight_at(weights, 2) == pytest.approx(oracle, abs=1e-8)
        assert weight_at(weights, 4) == 0

    @staticmethod
    def mirror_and_smooth_tables():
        decay = lambda u: math.exp(-u)  # noqa: E731
        for spec in (mirror_coupling(1.0, 0.5, 0.3),
                     custom_coupling(1.0, [(0.3, 0.5)], smooth=decay, smooth_support=0.45)):
            yield collision_weights(spec, 0.1, 12)

    def test_stationarity_structural(self):
        # one weight per lag is stationarity, W(n, m) = W(n - m)
        for weights in self.mirror_and_smooth_tables():
            assert weights.lags.dtype == np.intp
            assert len(weights.lags) == len(weights.w)
            assert np.all(np.diff(weights.lags) > 0)

    def test_causal_zeros_above_diagonal(self):
        # nonnegative lags are causality: W(n, m) = 0 for m > n
        for weights in self.mirror_and_smooth_tables():
            assert np.all(weights.lags >= 0)
            for n in range(1, 8):
                for m in range(n + 1, 8):
                    assert weight_at(weights, n - m) == 0

    @pytest.mark.parametrize("deltas,smooth,lag", [
        ([(0.1, 1e308), (0.12, 1e308)], None, 1),  # merged deltas sum to inf at lag 1
        ([(0.0, 1.0), (0.5, 1.0)], lambda u: 2.0 * math.exp(-2.0 * u), 0),  # quadrature at dt 1e306
    ], ids=["merged-deltas", "quadrature"])
    def test_non_finite_weight_raises_naming_its_lag(self, deltas, smooth, lag):
        spec = custom_coupling(1.0, deltas, smooth=smooth, smooth_support=1.0 if smooth else 0.0)
        dt = 0.1 if smooth is None else 1.25e306
        with pytest.raises(RuntimeError, match=f"collision weight at lag {lag} is not finite"):
            collision_weights(spec, dt, 1)


def damped(kappa):
    return lambda u: kappa * cmath.exp(-(kappa + 1j) * u)


def two_pass_table(kernel, support, dt, deltas):
    """The weight table as the per-lag rule builds it: deltas, then each smooth lag."""
    lags = {round(lag / dt): complex(w) for lag, w in deltas}
    for ell in range(math.floor(support / dt) + 2):
        w = two_pass_lag_weight(kernel, support, ell, dt)
        if w != 0:
            lags[ell] = lags.get(ell, 0j) + w
    return {ell: w for ell, w in lags.items() if w != 0}


class TestOnePassQuadrature:
    """Each grid interval is integrated once and split between its two lags."""

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("dt", [1 / 8, 1 / 32, 0.03, 0.05, 0.1])
    # on the grid, off it, and twice short of dt = 1/8, where the rising weight
    # rounds differently unless it is taken from the lag's own peak
    @pytest.mark.parametrize("support", [2.0, 2.3, 0.07, 0.02])
    @pytest.mark.parametrize("deltas", [(), ((0.0, 0.7 - 0.2j),)], ids=["smooth", "with-delta"])
    def test_matches_the_per_lag_rule(self, kappa, dt, support, deltas):
        kernel = damped(kappa)
        spec = custom_coupling(1.0, deltas, smooth=kernel, smooth_support=support)
        weights = collision_weights(spec, dt, 1)
        got = dict(zip(weights.lags.tolist(), weights.w.tolist()))
        want = two_pass_table(kernel, support, dt, deltas)
        assert sorted(got) == sorted(want)
        got, want = (np.array([table[ell] for ell in sorted(want)]) for table in (got, want))
        if math.frexp(dt)[0] == 0.5:  # a power of two: every interval end is exact
            assert got.tobytes() == want.tobytes()
        else:  # the rules round the interval ends j*dt and (j+1)*dt - dt apart
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("dt,support,intervals", [
        (1 / 8, 2.0, 16), (1 / 8, 2.3, 19), (0.1, 0.25, 3), (0.1, 2.0, 20)])
    def test_one_kernel_call_per_cell_of_each_nonempty_interval(self, dt, support, intervals):
        calls = []
        spec = custom_coupling(1.0, smooth=lambda u: calls.append(u) or 1.0,
                               smooth_support=support)
        collision_weights(spec, dt, 1)
        assert len(calls) == QUADRATURE_CELLS * intervals
        assert 0 < min(calls) and max(calls) < support


@st.composite
def delta_kernels(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    lags = draw(
        st.lists(st.integers(min_value=0, max_value=12), min_size=n, max_size=n, unique=True)
    )
    weights = [
        complex(draw(st.floats(-2, 2, allow_nan=False)), draw(st.floats(-2, 2, allow_nan=False)))
        for _ in range(n)
    ]
    return [(0.1 * lag, w) for lag, w in zip(lags, weights)]


class TestGridSpan:
    def test_known_spans(self):
        assert grid_span(white_coupling(1.0), 0.1) == 1
        assert grid_span(mirror_coupling(1.0, 0.0, 1.0), 1 / 64) == 65
        assert grid_span(mirror_coupling(1.0, 0.0, 0.0), 0.1) == 0  # the deltas cancel
        assert grid_span(custom_coupling(1.0, [(2.0, 1.0), (2.5, 0.5)]), 0.1) == 6
        # a smooth part of support 1 reaches lags 0..5 at dt = 0.25, the delta lag 12
        smooth = custom_coupling(1.0, [(3.0, 1.0)], smooth=lambda u: 1.0, smooth_support=1.0)
        assert grid_span(smooth, 0.25) == 13

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(-1.0, 1.0)), max_size=4),
        st.one_of(st.none(), st.floats(0.05, 1.0)),
        st.sampled_from([0.1, 0.25, 0.3]),
    )
    def test_bounds_the_table(self, deltas, support, dt):
        spec = custom_coupling(
            1.0, deltas, smooth=None if support is None else (lambda u: math.exp(-u)),
            smooth_support=support or 0.0,
        )
        lags = collision_weights(spec, dt, 1).lags
        if len(lags):
            assert lags[-1] - lags[0] + 1 <= grid_span(spec, dt)


class TestLinearity:
    @settings(max_examples=50, deadline=None)
    @given(delta_kernels(), delta_kernels())
    def test_delta_weights_additive(self, deltas_a, deltas_b):
        dt, n_steps = 0.1, 16
        w_a = collision_weights(custom_coupling(1.0, deltas_a), dt, n_steps)
        w_b = collision_weights(custom_coupling(1.0, deltas_b), dt, n_steps)
        w_ab = collision_weights(custom_coupling(1.0, deltas_a + deltas_b), dt, n_steps)
        for lag in set(w_a.lags) | set(w_b.lags) | set(w_ab.lags):
            assert weight_at(w_ab, lag) == pytest.approx(
                weight_at(w_a, lag) + weight_at(w_b, lag), abs=1e-12)

    def test_smooth_weights_additive(self):
        dt, support = 0.05, 1.5
        f = lambda u: math.exp(-u)  # noqa: E731
        g = lambda u: 3.0 * math.exp(-2.0 * u)  # noqa: E731
        both = lambda u: f(u) + g(u)  # noqa: E731
        w_f = collision_weights(custom_coupling(1.0, smooth=f, smooth_support=support), dt, 40)
        w_g = collision_weights(custom_coupling(1.0, smooth=g, smooth_support=support), dt, 40)
        w_fg = collision_weights(
            custom_coupling(1.0, smooth=both, smooth_support=support), dt, 40
        )
        for lag in w_fg.lags:
            assert weight_at(w_fg, lag) == pytest.approx(
                weight_at(w_f, lag) + weight_at(w_g, lag), abs=1e-12)


class TestCouplingStrengths:
    def test_unit_scaling(self):
        weights = collision_weights(white_coupling(1.0), 1.0, 5)
        assert weight_at(coupling_strengths(weights, 1.0), 0) == 1.0

    def test_mirror_strengths(self):
        phi = 0.4
        weights = collision_weights(mirror_coupling(0.5, phi, 0.3), 0.1, 20)
        strengths = coupling_strengths(weights, 0.5)
        assert weight_at(strengths, 0) == pytest.approx(math.sqrt(5.0))
        assert weight_at(strengths, 3) == pytest.approx(-math.sqrt(5.0) * cmath.exp(-1j * phi))

    def test_decoupled_limit(self):
        weights = collision_weights(mirror_coupling(0.0, 0.1, 0.3), 0.1, 20)
        assert coupling_strengths(weights, 0.0)[0].size == 0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_scaling_homogeneity(self, gamma):
        weights = collision_weights(mirror_coupling(gamma, 0.2, 0.3), 0.1, 20)
        single = coupling_strengths(weights, gamma)
        doubled = coupling_strengths(weights, 2 * gamma)
        for lag in single[0]:
            assert weight_at(doubled, lag) == pytest.approx(
                math.sqrt(2) * weight_at(single, lag), rel=1e-12)

    def test_negative_gamma_rejected(self):
        weights = collision_weights(white_coupling(1.0), 0.1, 5)
        with pytest.raises(ValueError, match="gamma"):
            coupling_strengths(weights, -1.0)


    def test_non_finite_strength_raises_naming_its_lag(self):
        # both weights are finite; sqrt(gamma / dt) = sqrt(8) takes the lag-3 one past 1.8e308
        spec = custom_coupling(1.0, [(0.0, 1.0), (0.375, 7.1e307)])
        weights = collision_weights(spec, 0.125, 1)
        with pytest.raises(RuntimeError, match=r"coupling strength at lag 3 is not finite \(\(inf"):
            coupling_strengths(weights, 1.0)

    def test_strengths_that_underflow_are_dropped(self):
        # 1e-320 * sqrt(1e-10 / 0.5) rounds to 0: no strength is stored at lag 2
        spec = custom_coupling(1.0, [(0.0, 1.0), (1.0, 1e-320)])
        weights = collision_weights(spec, 0.5, 1)
        lags, gs = coupling_strengths(weights, 1e-10)
        assert weights.lags.tolist() == [0, 2]
        assert lags.tolist() == [0] and gs.tolist() == [math.sqrt(2e-10)]


@st.composite
def kernels(draw):
    """Delta kernels of up to four lags, some coincident, with an optional smooth part."""
    weights = st.complex_numbers(max_magnitude=2.0, allow_nan=False)
    deltas = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.3, 1.0]), weights),
                           max_size=4))
    support = draw(st.one_of(st.none(), st.floats(0.05, 1.0)))
    smooth = None if support is None else damped(draw(st.floats(0.5, 4.0)))
    return custom_coupling(1.0, deltas, smooth=smooth, smooth_support=support or 0.0)


class TestWeightTable:
    @settings(max_examples=60, deadline=None)
    @given(kernels(), st.sampled_from([0.05, 0.1, 0.25]))
    def test_arrays_hold_the_nonzero_weights_in_lag_order(self, spec, dt):
        weights = collision_weights(spec, dt, 1)
        assert len(weights.lags) == len(weights.w)
        assert np.all(weights.w != 0) and np.all(np.isfinite(weights.w))
        rows = weights_csv(weights).splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == sorted(weights.lags.tolist())

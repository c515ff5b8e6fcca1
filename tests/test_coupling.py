import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide.coupling import (
    collision_weights,
    coupling_strengths,
    custom_coupling,
    mirror_coupling,
    white_coupling,
)

from conftest import brute_force_lag_weight


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
        assert coupling_strengths(weights, spec.gamma).lags == {}


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
            assert weights.lags == {0: 1.0 + 0j}
            assert weights.warnings == ()

    def test_mirror_exact_on_grid(self):
        weights = collision_weights(mirror_coupling(1.0, 0.0, 0.3), 0.1, 20)
        assert weights.w(0) == 1.0
        assert weights.w(3) == -1.0
        assert all(weights.w(ell) == 0 for ell in (1, 2, 4, 5))
        assert weights.warnings == ()

    def test_off_grid_lag_warns(self):
        spec = custom_coupling(1.0, [(0.37, 1.0)])
        weights = collision_weights(spec, 0.1, 20)
        assert weights.w(4) == 1.0
        assert any("discretization mismatch" in w for w in weights.warnings)

    def test_sub_step_delay_merges_with_warning(self):
        phi = 1.1
        weights = collision_weights(mirror_coupling(1.0, phi, 0.04), 0.1, 20)
        assert weights.w(0) == pytest.approx(1 - cmath.exp(-1j * phi))
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
            assert weights.w(lag) == pytest.approx(oracle, abs=1e-8)

    def test_smooth_support_edge(self):
        # support ends inside a lag window; the clipped cell average must follow
        decay = lambda u: 1.0  # noqa: E731
        spec = custom_coupling(1.0, smooth=decay, smooth_support=0.25)
        weights = collision_weights(spec, 0.1, 10)
        oracle = brute_force_lag_weight(decay, 0.25, 2, 0.1)
        assert weights.w(2) == pytest.approx(oracle, abs=1e-8)
        assert weights.w(4) == 0

    def test_stationarity_structural(self):
        weights = collision_weights(mirror_coupling(1.0, 0.5, 0.3), 0.1, 12)
        for n in range(1, 12):
            for m in range(1, 12):
                assert weights.entry(n, m) == weights.entry(n + 1, m + 1)

    def test_causal_zeros_above_diagonal(self):
        weights = collision_weights(mirror_coupling(1.0, 0.5, 0.3), 0.1, 12)
        for n in range(1, 8):
            for m in range(n + 1, 8):
                assert weights.entry(n, m) == 0


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


class TestLinearity:
    @settings(max_examples=50, deadline=None)
    @given(delta_kernels(), delta_kernels())
    def test_delta_weights_additive(self, deltas_a, deltas_b):
        dt, n_steps = 0.1, 16
        w_a = collision_weights(custom_coupling(1.0, deltas_a), dt, n_steps)
        w_b = collision_weights(custom_coupling(1.0, deltas_b), dt, n_steps)
        w_ab = collision_weights(custom_coupling(1.0, deltas_a + deltas_b), dt, n_steps)
        for lag in set(w_a.lags) | set(w_b.lags) | set(w_ab.lags):
            assert w_ab.w(lag) == pytest.approx(w_a.w(lag) + w_b.w(lag), abs=1e-12)

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
            assert w_fg.w(lag) == pytest.approx(w_f.w(lag) + w_g.w(lag), abs=1e-12)


class TestCouplingStrengths:
    def test_unit_scaling(self):
        weights = collision_weights(white_coupling(1.0), 1.0, 5)
        assert coupling_strengths(weights, 1.0).w(0) == 1.0

    def test_mirror_strengths(self):
        phi = 0.4
        weights = collision_weights(mirror_coupling(0.5, phi, 0.3), 0.1, 20)
        strengths = coupling_strengths(weights, 0.5)
        assert strengths.w(0) == pytest.approx(math.sqrt(5.0))
        assert strengths.w(3) == pytest.approx(-math.sqrt(5.0) * cmath.exp(-1j * phi))

    def test_decoupled_limit(self):
        weights = collision_weights(mirror_coupling(0.0, 0.1, 0.3), 0.1, 20)
        assert coupling_strengths(weights, 0.0).lags == {}

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=10.0))
    def test_scaling_homogeneity(self, gamma):
        weights = collision_weights(mirror_coupling(gamma, 0.2, 0.3), 0.1, 20)
        single = coupling_strengths(weights, gamma)
        doubled = coupling_strengths(weights, 2 * gamma)
        for lag in single.lags:
            assert doubled.w(lag) == pytest.approx(math.sqrt(2) * single.w(lag), rel=1e-12)

    def test_negative_gamma_rejected(self):
        weights = collision_weights(white_coupling(1.0), 0.1, 5)
        with pytest.raises(ValueError, match="gamma"):
            coupling_strengths(weights, -1.0)


class TestWarningsPropagation:
    def test_scaled_matrix_keeps_warnings(self):
        weights = collision_weights(custom_coupling(1.0, [(0.37, 1.0)]), 0.1, 10)
        assert coupling_strengths(weights, 2.0).warnings == weights.warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcollide.divisibility import analyze
from qcollide.engine import run
from qcollide.reference import solve_dde

from conftest import channel_from_amplitude, choi_matrix, intermediate_map, make_config

unit_disk = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


class TestChannel:
    def test_identity_choi_spectrum(self):
        eigenvalues = np.sort(np.linalg.eigvalsh(channel_from_amplitude(1.0).choi()))
        assert np.allclose(eigenvalues, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_full_damping(self):
        channel = channel_from_amplitude(0.0)
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        out = channel.apply(rho)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-14)

    def test_partial_damping_is_cp(self):
        assert np.min(np.linalg.eigvalsh(channel_from_amplitude(0.6).choi())) >= -1e-14

    def test_trace_preserving(self):
        channel = channel_from_amplitude(0.3 + 0.4j)
        rho = np.array([[0.6, 0.1j], [-0.1j, 0.4]], dtype=complex)
        assert np.trace(channel.apply(rho)) == pytest.approx(1.0)

    def test_superunitary_factor_rejected(self):
        with pytest.raises(ValueError, match="g"):
            channel_from_amplitude(1.0 + 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(unit_disk, unit_disk)
    def test_composition(self, g1, g2):
        combined = channel_from_amplitude(g1 * g2).superoperator()
        stacked = channel_from_amplitude(g1).superoperator() @ channel_from_amplitude(g2).superoperator()
        assert np.max(np.abs(combined - stacked)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(unit_disk)
    def test_choi_spectrum_closed_form(self, g):
        eigenvalues = np.sort(np.linalg.eigvalsh(choi_matrix(g)))
        expected = np.sort([0.0, 0.0, 1 - abs(g) ** 2, 1 + abs(g) ** 2])
        assert np.allclose(eigenvalues, expected, atol=1e-12)


class TestIntermediateMap:
    def test_contraction_is_cp(self):
        result = intermediate_map(0.8, 0.5)
        assert result.is_cp
        assert result.choi_min_eigenvalue >= -1e-12
        assert result.channel is not None

    def test_expansion_is_not_cp(self):
        result = intermediate_map(0.5, 0.65)
        assert not result.is_cp
        assert result.choi_min_eigenvalue < -1e-6
        assert result.channel is None

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            intermediate_map(0.0, 0.5)

    def test_choi_sign_matches_contraction_test(self):
        for g_from, g_to in [(1.0, 0.99), (0.7, 0.7j), (0.5, 0.52), (0.9, 0.2)]:
            result = intermediate_map(g_from, g_to)
            assert result.is_cp == (result.choi_min_eigenvalue >= -2e-12)


class TestAnalyze:
    def test_white_trajectory_all_cp(self):
        traj = run(make_config(coupling={"shape": "white", "gamma": 1.0}, dt=0.01, t_max=4.0))
        report = analyze(traj)
        assert report.witness == 0.0
        assert all(report.cp_flags)
        assert report.revivals == ()
        assert report.first_violation_step is None

    def test_mirror_trajectory_flags_backflow(self):
        traj = run(make_config(dt=1 / 64, t_max=3.0))  # gamma*tau = 0.5, d = 64
        report = analyze(traj)
        assert report.witness > 0
        first = report.first_violation_step
        assert first is not None and 64 < first < 3 * 64
        # first revival interval starts within d steps after step d
        start = report.revivals[0][0]
        assert 64 < start <= 128

    def test_choi_and_contraction_agree_along_trajectories(self):
        for overrides in (
            {"coupling": {"shape": "white", "gamma": 0.7}, "dt": 0.02, "t_max": 2.0},
            {"dt": 1 / 32, "t_max": 3.0},
        ):
            traj = run(make_config(**overrides))
            report = analyze(traj)
            for n, flag in enumerate(report.cp_flags):
                result = intermediate_map(traj.eps[n], traj.eps[n + 1])
                assert result.is_cp == flag
                assert flag == (result.choi_min_eigenvalue >= -2e-12)

    def test_decoupled_trajectory_is_trivially_cp(self):
        traj = run(make_config(coupling={"shape": "mirror", "gamma": 0.0, "phi": 0.0, "tau": 1.0},
                               dt=1 / 32, t_max=2.0, omega0=0.9))
        report = analyze(traj)
        assert report.witness == 0.0
        assert all(report.cp_flags)

    def test_witness_matches_dde_reference(self):
        config = make_config(dt=1 / 256, t_max=4.0)
        traj = run(config)
        report = analyze(traj)

        reference = solve_dde(0.0, 0.5, 0.0, 1.0, 4.0)(traj.times)
        pop = np.abs(reference) ** 2
        gains = np.diff(pop)
        reference_witness = float(np.sum(gains[gains > 0]))

        trajectory_error = np.max(np.abs(traj.eps - reference))
        assert abs(report.witness - reference_witness) < 10 * trajectory_error

    def test_truncates_at_vanishing_amplitude(self):
        class Fake:
            eps = np.array([1.0, 0.5, 0.0, 0.4], dtype=complex)

        report = analyze(Fake())
        assert report.truncated_at == 2
        assert "singular" in report.note
        assert len(report.cp_flags) == 2

    def test_zero_initial_amplitude(self):
        class Fake:
            eps = np.zeros(5, dtype=complex)

        report = analyze(Fake())
        assert report.truncated_at == 0
        assert report.cp_flags == ()

    def test_report_round_trips_to_json_dict(self):
        traj = run(make_config(dt=1 / 64, t_max=2.0))
        payload = analyze(traj).to_dict()
        assert set(payload) == {
            "cp_flags", "revival_intervals", "witness", "first_violation_step",
            "truncated_at", "note",
        }
        assert all(isinstance(f, bool) for f in payload["cp_flags"])


class TestBetaScaling:
    def test_analysis_applies_to_superposition_start(self):
        # factors are normalized by eps(0), so beta < 1 flags the same steps
        full = analyze(run(make_config(dt=1 / 64, t_max=3.0, beta=1.0)))
        half = analyze(run(make_config(dt=1 / 64, t_max=3.0, beta=[0.5, 0.0])))
        assert full.first_violation_step == half.first_violation_step

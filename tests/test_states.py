import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QubitDensityMatrix,
    SingleExcitationState,
    TruncatedFockState,
    embed_single_excitation,
    init_single_excitation,
    reduced_qubit_state,
)


def partial_trace_qubit(fock: TruncatedFockState) -> np.ndarray:
    """Independent reduced state: contract all mode axes of |psi><psi|."""
    flat = fock.amplitudes.reshape(2, -1)
    return flat @ flat.conj().T


class TestInit:
    def test_fully_excited(self):
        state = init_single_excitation(8, 1.0)
        assert state.eps == 1.0
        assert state.a_vac == 0.0
        assert np.all(state.c == 0)
        assert state.norm() == pytest.approx(1.0)

    def test_ground_state(self):
        state = init_single_excitation(8, 0.0)
        assert state.eps == 0.0
        assert state.a_vac == 1.0
        assert state.norm() == pytest.approx(1.0)

    def test_balanced_superposition(self):
        state = init_single_excitation(8, 1 / math.sqrt(2))
        assert state.a_vac == pytest.approx(1 / math.sqrt(2))
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

    def test_overweight_amplitude_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            init_single_excitation(8, 1.5)

    def test_history_modes(self):
        state = init_single_excitation(5, 1.0, n_history=3)
        assert state.min_index == -2
        assert state.max_index == 5
        assert len(state.c) == 8


class TestReducedState:
    def test_excited(self):
        rho = reduced_qubit_state(init_single_excitation(4, 1.0))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_ground(self):
        rho = reduced_qubit_state(init_single_excitation(4, 0.0))
        assert np.allclose(rho.matrix, np.diag([0.0, 1.0]))

    def test_partially_decayed_against_partial_trace(self):
        # a_vac = 1/sqrt(2), eps = 0.5, photon amplitude carries the rest
        state = init_single_excitation(4, 1 / math.sqrt(2))
        state.eps = 0.5 + 0j
        state.c[0] = 0.5 + 0j
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

        rho = reduced_qubit_state(state)
        assert rho.excited_population == pytest.approx(0.25)
        assert rho.coherence == pytest.approx(0.5 / math.sqrt(2))

        oracle = partial_trace_qubit(embed_single_excitation(state, 1, range(1, 5)))
        # oracle axis 0 is the system with ground first; reduced state is (excited, ground)
        flipped = oracle[::-1, ::-1]
        assert np.allclose(rho.matrix, flipped, atol=1e-14)


class TestQubitDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            QubitDensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            QubitDensityMatrix(np.diag([0.7, 0.7]).astype(complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            QubitDensityMatrix(np.array([[0.1, 0.5], [0.5, 0.9]], dtype=complex))


class TestEmbedding:
    def test_excited_basis_vector(self):
        fock = embed_single_excitation(init_single_excitation(3, 1.0), 1, (1, 2, 3))
        expected = np.zeros((2, 2, 2, 2), dtype=complex)
        expected[1, 0, 0, 0] = 1.0
        assert np.array_equal(fock.amplitudes, expected)

    def test_single_photon_basis_vector(self):
        state = init_single_excitation(4, 0.0)
        state.a_vac = 0.0
        state.c[2] = 1.0
        fock = embed_single_excitation(state, 1, (1, 2, 3, 4))
        expected = np.zeros((2, 2, 2, 2, 2), dtype=complex)
        expected[0, 0, 0, 1, 0] = 1.0
        assert np.array_equal(fock.amplitudes, expected)

    def test_window_must_cover_occupied_modes(self):
        state = init_single_excitation(5, 0.5)
        state.c[4] = 0.1
        with pytest.raises(ValueError, match="window"):
            embed_single_excitation(state, 1, (1, 2, 3))

    def test_n_max_validated(self):
        with pytest.raises(ValueError, match="n_max"):
            embed_single_excitation(init_single_excitation(2, 1.0), 0, (1, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
    def test_round_trip(self, raw):
        parts = np.array(raw[:6]).reshape(3, 2) @ np.array([1.0, 1.0j])
        vec = np.concatenate([parts, [complex(raw[6], raw[7])]])
        if np.linalg.norm(vec) < 1e-3:
            vec[0] += 1.0
        vec = vec / np.linalg.norm(vec)
        state = SingleExcitationState(a_vac=vec[0], eps=vec[1], c=vec[2:].copy())
        fock = embed_single_excitation(state, 1, (1, 2))
        assert fock.norm() == pytest.approx(1.0, abs=1e-15)
        a_vac, eps, c = fock.project_single_excitation()
        assert abs(a_vac - state.a_vac) < 1e-14
        assert abs(eps - state.eps) < 1e-14
        for m in (1, 2):
            assert abs(c[m] - state.amplitude(m)) < 1e-14


class TestWindowManagement:
    def test_recycled_axis_is_vacuum(self):
        # a photon in mode 1 on the ground branch: recycling keeps the register's
        # shape and hands the emptied axis to mode 3
        state = init_single_excitation(2, 0.6)
        state.a_vac = 0.0
        state.c[0] = 0.8
        fock = embed_single_excitation(state, 1, (1, 2))
        fock.recycle_mode(1, 3)
        assert fock.active_modes == (3, 2)
        assert fock.amplitudes.shape == (2, 2, 2)
        assert not np.any(fock.amplitudes[:, 1, :])
        assert fock.norm() == pytest.approx(1.0, abs=1e-15)

    def test_retire_unoccupied_mode_is_lossless(self):
        fock = embed_single_excitation(init_single_excitation(2, 0.6), 1, (1, 2))
        fock.recycle_mode(1, 3)
        assert fock.active_modes == (3, 2)
        assert fock.retired_weight == 0.0
        assert fock.norm() == pytest.approx(1.0, abs=1e-15)

    def test_retire_dark_occupied_mode_keeps_weight(self):
        state = init_single_excitation(2, 0.0)
        state.a_vac = math.sqrt(0.75)
        state.c[0] = 0.5
        fock = embed_single_excitation(state, 1, (1, 2))
        fock.recycle_mode(1, 3)
        assert fock.retired_weight == pytest.approx(0.25)
        assert fock.norm() == pytest.approx(1.0, abs=1e-15)

    def test_retire_entangled_mode_refused(self):
        # two excitations: |e> with a photon in mode 1 is not a dark branch
        amp = np.zeros((2, 2, 2), dtype=complex)
        amp[1, 1, 0] = math.sqrt(0.5)
        amp[0, 0, 0] = math.sqrt(0.5)
        fock = TruncatedFockState(amplitudes=amp, active_modes=(1, 2), n_max=1)
        with pytest.raises(RuntimeError, match="entangled"):
            fock.recycle_mode(1, 3)

    def test_excitation_moments_include_retired(self):
        state = init_single_excitation(2, 0.0)
        state.a_vac = math.sqrt(0.5)
        state.c[0] = math.sqrt(0.5)
        fock = embed_single_excitation(state, 1, (1, 2))
        before = fock.excitation_moments()
        fock.recycle_mode(1, 3)
        after = fock.excitation_moments()
        assert after[0] == pytest.approx(before[0], abs=1e-14)
        assert after[1] == pytest.approx(before[1], abs=1e-14)

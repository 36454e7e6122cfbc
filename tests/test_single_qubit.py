"""Single-qubit weighted propagators and trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.configspace import Backend
from spinbath.errors import ParameterError
from spinbath.model import BathParams, Boundary, SystemParams, Thermal, pure_state
from spinbath.oracle import build_hamiltonian, evolve_and_reduce, initial_state
from spinbath.single_qubit import (BlochVector, bloch_trajectory, propagator_correlated,
                                   propagator_uncorrelated)

PLUS_X = pure_state([2 ** -0.5, 2 ** -0.5])


def random_inputs(seed, n=4):
    rng = np.random.default_rng(seed)
    sys1 = SystemParams(epsilon=float(rng.uniform(-2, 2)), delta=float(rng.uniform(-2, 2)))
    bath = BathParams(n, tuple(rng.uniform(-2, 2, n)), tuple(rng.uniform(-2, 2, n)),
                      tuple(rng.uniform(-1, 1, n - 1)))
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = pure_state(amps / np.linalg.norm(amps))
    return sys1, bath, psi


def bloch_of_density(rho):
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag,
                     (rho[0, 0] - rho[1, 1]).real])


class TestPropagatorStructure:
    def test_identity_at_zero_time(self):
        sys1, bath, psi = random_inputs(17)
        th = Thermal(1.4)
        backend = Backend.ENUMERATE
        for prop in (propagator_uncorrelated(sys1, bath, th, backend, 0.0),
                     propagator_correlated(sys1, bath, th, backend, psi, 0.0)):
            assert np.array_equal(prop.normalized(), np.eye(3))

    def test_normalizer_positive(self):
        sys1, bath, psi = random_inputs(23)
        prop = propagator_correlated(sys1, bath, Thermal(2.0), Backend.ENUMERATE, psi, 1.3)
        assert prop.normalizer > 0

    def test_uncorrelated_normalizer_is_bath_partition(self):
        # sum of thermal weights equals the brute-force bath trace
        sys1, bath, _ = random_inputs(31)
        th = Thermal(1.7)
        prop = propagator_uncorrelated(sys1, bath, th, Backend.ENUMERATE, 0.9)
        partition = prop.normalizer * math.exp(prop.log_scale)
        h = build_hamiltonian(sys1, bath)
        expected = float(np.exp(-th.beta * h.bath_diagonal).sum())
        assert partition == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=12.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry_pattern(self, seed, t, beta, correlated):
        # off-diagonal blocks: s_xy = -s_yx, s_yz = -s_zy, s_xz = +s_zx
        sys1, bath, psi = random_inputs(seed)
        th = Thermal(beta)
        if correlated:
            prop = propagator_correlated(sys1, bath, th, Backend.ENUMERATE, psi, t)
        else:
            prop = propagator_uncorrelated(sys1, bath, th, Backend.ENUMERATE, t)
        s = prop.s
        assert s[0, 1] == pytest.approx(-s[1, 0], abs=1e-12 * prop.normalizer)
        assert s[1, 2] == pytest.approx(-s[2, 1], abs=1e-12 * prop.normalizer)
        assert s[0, 2] == pytest.approx(s[2, 0], abs=1e-12 * prop.normalizer)
        assert s[1, 1] == pytest.approx(np.trace(s) - s[0, 0] - s[2, 2],
                                        abs=1e-12 * prop.normalizer)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_map_never_expands_bloch_vectors(self, seed, t):
        sys1, bath, psi = random_inputs(seed)
        prop = propagator_correlated(sys1, bath, Thermal(1.1), Backend.ENUMERATE, psi, t)
        p0 = BlochVector.of_state(psi)
        assert prop.apply(p0).norm <= p0.norm + 1e-9


class TestPureDephasingLimit:
    def test_decoupled_bath_gives_rigid_rotation(self):
        # g = 0 and delta = 0: precession about z at the bare splitting
        sys1 = SystemParams(epsilon=1.3, delta=0.0)
        bath = BathParams.uniform(5, 0.7, 0.0, 0.2)
        th = Thermal(2.0)
        psi = PLUS_X
        times = np.linspace(0.0, 6.0, 20)
        points = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, False)
        for t, p in zip(times, points):
            assert p.px == pytest.approx(math.cos(sys1.epsilon * t), abs=1e-12)
            assert p.py == pytest.approx(math.sin(sys1.epsilon * t), abs=1e-12)
            assert p.pz == pytest.approx(0.0, abs=1e-12)


class TestTrajectories:
    def test_time_zero_returns_initial_state_exactly(self):
        sys1, bath, psi = random_inputs(41)
        p0 = BlochVector.of_state(psi)
        for correlated in (False, True):
            points = bloch_trajectory(sys1, bath, Thermal(1.0), Backend.ENUMERATE,
                                      psi, np.array([0.0]), correlated)
            assert points[0] == p0

    def test_rejects_unsorted_times(self):
        sys1, bath, psi = random_inputs(43)
        with pytest.raises(ParameterError):
            bloch_trajectory(sys1, bath, Thermal(1.0), Backend.ENUMERATE, psi,
                             np.array([1.0, 0.5]), False)

    def test_rejects_empty_times(self):
        sys1, bath, psi = random_inputs(43)
        with pytest.raises(ParameterError):
            bloch_trajectory(sys1, bath, Thermal(1.0), Backend.ENUMERATE, psi,
                             np.array([]), False)

    def test_backend_equivalence_uniform_bath(self):
        sys1 = SystemParams(epsilon=2.0, delta=1.0)
        th = Thermal(1.0)
        times = np.linspace(0.0, 10.0, 25)
        for boundary in Boundary:
            bath = BathParams.uniform(12, 1.0, 1.0, 0.1, boundary)
            for correlated in (False, True):
                a = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE,
                                     PLUS_X, times, correlated)
                b = bloch_trajectory(sys1, bath, th, Backend.COLLAPSE,
                                     PLUS_X, times, correlated)
                for pa, pb in zip(a, b):
                    assert np.abs(pa.as_array() - pb.as_array()).max() < 1e-12

    def test_beta_zero_correlations_vanish(self):
        sys1, bath, psi = random_inputs(47)
        times = np.linspace(0.0, 8.0, 15)
        th = Thermal(0.0)
        u = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, False)
        c = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, True)
        for pu, pc in zip(u, c):
            assert np.abs(pu.as_array() - pc.as_array()).max() < 1e-12

    def test_decoupled_correlations_vanish(self):
        sys1 = SystemParams(epsilon=0.9, delta=1.2)
        bath = BathParams(4, (0.3, -0.8, 1.1, 0.5), (0.0,) * 4, (0.2, -0.4, 0.6))
        th = Thermal(3.0)
        times = np.linspace(0.0, 8.0, 15)
        u = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, PLUS_X, times, False)
        c = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, PLUS_X, times, True)
        for pu, pc in zip(u, c):
            assert np.abs(pu.as_array() - pc.as_array()).max() < 1e-12

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.0, 0.7, 3.0]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed, beta, correlated):
        sys1, bath, psi = random_inputs(seed, n=4)
        th = Thermal(beta)
        times = np.linspace(0.0, 7.0, 9)
        points = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, correlated)
        h = build_hamiltonian(sys1, bath)
        rho0 = initial_state(h, th, psi, correlated)
        for t, p in zip(times, points):
            rho = evolve_and_reduce(h, rho0, float(t))
            assert np.abs(p.as_array() - bloch_of_density(rho)).max() < 1e-9


class TestHighBetaStability:
    def test_extreme_beta_stays_finite(self):
        # log-domain weights: beta 50 with large level sums must not overflow
        sys1 = SystemParams(epsilon=2.0, delta=1.0)
        bath = BathParams.uniform(40, 1.0, 1.0, 0.5)
        th = Thermal(50.0)
        backend = Backend.COLLAPSE
        points = bloch_trajectory(sys1, bath, th, backend, PLUS_X, np.linspace(0, 5, 6), True)
        for p in points:
            arr = p.as_array()
            assert np.all(np.isfinite(arr))
            assert p.norm <= 1.0 + 1e-9

"""Single-qubit weighted propagators and trajectories."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import single_qubit
from spinbath.configspace import Backend, collapse_classes
from spinbath.errors import ParameterError
from spinbath.model import (BathParams, Boundary, SystemParams, Thermal, bloch_components,
                            log_correlation_factor, pure_state)
from spinbath.oracle import build_hamiltonian, evolve_and_reduce, initial_state
from spinbath.single_qubit import (bloch_trajectory, propagator_correlated,
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
            assert np.array_equal(prop.matrix, np.eye(3))
            assert not prop.matrix.flags.writeable

    def test_normalizer_positive(self):
        # the partition is kept as its log, finite even where exp() of it
        # would overflow or underflow
        sys1, bath, psi = random_inputs(23)
        for beta in (2.0, 2000.0):
            prop = propagator_correlated(sys1, bath, Thermal(beta), Backend.ENUMERATE, psi, 1.3)
            assert math.isfinite(prop.log_partition)

    def test_uncorrelated_normalizer_is_bath_partition(self):
        # sum of thermal weights equals the brute-force bath trace
        sys1, bath, _ = random_inputs(31)
        th = Thermal(1.7)
        prop = propagator_uncorrelated(sys1, bath, th, Backend.ENUMERATE, 0.9)
        partition = math.exp(prop.log_partition)
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
        m = prop.matrix
        assert m[0, 1] == pytest.approx(-m[1, 0], abs=1e-12)
        assert m[1, 2] == pytest.approx(-m[2, 1], abs=1e-12)
        assert m[0, 2] == pytest.approx(m[2, 0], abs=1e-12)
        assert m[1, 1] == pytest.approx(np.trace(m) - m[0, 0] - m[2, 2], abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_map_never_expands_bloch_vectors(self, seed, t):
        sys1, bath, psi = random_inputs(seed)
        prop = propagator_correlated(sys1, bath, Thermal(1.1), Backend.ENUMERATE, psi, t)
        p0 = np.array(bloch_components(psi))
        assert np.linalg.norm(prop.apply(p0)) <= np.linalg.norm(p0) + 1e-9


class TestPureDephasingLimit:
    def test_decoupled_bath_gives_rigid_rotation(self):
        # g = 0 and delta = 0: precession about z at the bare splitting
        sys1 = SystemParams(epsilon=1.3, delta=0.0)
        bath = BathParams.uniform(5, 0.7, 0.0, 0.2)
        th = Thermal(2.0)
        psi = PLUS_X
        times = np.linspace(0.0, 6.0, 20)
        points, = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, (False,))
        for t, (px, py, pz) in zip(times, points):
            assert px == pytest.approx(math.cos(sys1.epsilon * t), abs=1e-12)
            assert py == pytest.approx(math.sin(sys1.epsilon * t), abs=1e-12)
            assert pz == pytest.approx(0.0, abs=1e-12)


class TestTrajectories:
    def test_time_zero_returns_initial_state_exactly(self):
        sys1, bath, psi = random_inputs(41)
        p0 = bloch_components(psi)
        for series in bloch_trajectory(sys1, bath, Thermal(1.0), Backend.ENUMERATE,
                                       psi, np.array([0.0]), (False, True)):
            assert tuple(series[0]) == p0

    def test_rejects_unsorted_times(self):
        sys1, bath, psi = random_inputs(43)
        with pytest.raises(ParameterError):
            bloch_trajectory(sys1, bath, Thermal(1.0), Backend.ENUMERATE, psi,
                             np.array([1.0, 0.5]), (False,))

    def test_rejects_empty_times(self):
        sys1, bath, psi = random_inputs(43)
        with pytest.raises(ParameterError):
            bloch_trajectory(sys1, bath, Thermal(1.0), Backend.ENUMERATE, psi,
                             np.array([]), (False,))

    def test_backend_equivalence_uniform_bath(self):
        sys1 = SystemParams(epsilon=2.0, delta=1.0)
        th = Thermal(1.0)
        times = np.linspace(0.0, 10.0, 25)
        for boundary in Boundary:
            bath = BathParams.uniform(12, 1.0, 1.0, 0.1, boundary)
            a = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, PLUS_X, times, (False, True))
            b = bloch_trajectory(sys1, bath, th, Backend.COLLAPSE, PLUS_X, times, (False, True))
            assert np.abs(a - b).max() < 1e-12

    def test_beta_zero_correlations_vanish(self):
        sys1, bath, psi = random_inputs(47)
        times = np.linspace(0.0, 8.0, 15)
        th = Thermal(0.0)
        u, c = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, (False, True))
        assert np.abs(u - c).max() < 1e-12

    def test_decoupled_correlations_vanish(self):
        sys1 = SystemParams(epsilon=0.9, delta=1.2)
        bath = BathParams(4, (0.3, -0.8, 1.1, 0.5), (0.0,) * 4, (0.2, -0.4, 0.6))
        th = Thermal(3.0)
        times = np.linspace(0.0, 8.0, 15)
        u, c = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, PLUS_X, times, (False, True))
        assert np.abs(u - c).max() < 1e-12

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.0, 0.7, 3.0]), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, seed, beta, correlated):
        sys1, bath, psi = random_inputs(seed, n=4)
        th = Thermal(beta)
        times = np.linspace(0.0, 7.0, 9)
        points, = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, (correlated,))
        h = build_hamiltonian(sys1, bath)
        rho0 = initial_state(h, th, psi, correlated)
        for t, p in zip(times, points):
            rho = evolve_and_reduce(h, rho0, float(t))
            assert np.abs(p - bloch_of_density(rho)).max() < 1e-9


class TestCollapseFold:
    def test_correlation_factor_sees_folded_items(self, monkeypatch):
        # the factor depends on a pattern through k alone, so it is taken on
        # the N + 1 down-spin counts, not on the (k, w) classes
        sizes = []

        def recorded(sys1, th, splitting, rabi, psi):
            sizes.append((len(splitting), len(rabi)))
            return log_correlation_factor(sys1, th, splitting, rabi, psi)

        monkeypatch.setattr(single_qubit, "log_correlation_factor", recorded)
        n = 50
        bath = BathParams.uniform(n, 1.0, 1.0, 0.1)
        assert len(collapse_classes(n, bath.boundary)) > 10 * (n + 1)
        bloch_trajectory(SystemParams(epsilon=2.0, delta=1.0), bath, Thermal(1.0),
                         Backend.COLLAPSE, PLUS_X, np.linspace(0.0, 1.0, 3), (False, True))
        assert sizes == [(n + 1, n + 1)]


class TestHighBetaStability:
    def test_extreme_beta_stays_finite(self):
        # log-domain weights: beta 50 with large level sums must not overflow
        sys1 = SystemParams(epsilon=2.0, delta=1.0)
        bath = BathParams.uniform(40, 1.0, 1.0, 0.5)
        th = Thermal(50.0)
        backend = Backend.COLLAPSE
        points, = bloch_trajectory(sys1, bath, th, backend, PLUS_X, np.linspace(0, 5, 6), (True,))
        assert np.all(np.isfinite(points))
        assert np.linalg.norm(points, axis=-1).max() <= 1.0 + 1e-9

"""Per-configuration scalars, thermal weights, and the correlation factor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.errors import ParameterError
from spinbath.model import (BathParams, Boundary, SystemParams, Thermal,
                            bath_sums, bloch_components, class_quantities,
                            class_sums, config_quantities, log_correlation_factor,
                            pure_state, require_uniform)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def small_bath(draw_lists, n, boundary=Boundary.OPEN):
    eps, g, chi = draw_lists
    bonds = n if boundary is Boundary.PERIODIC else n - 1
    return BathParams(n, tuple(eps[:n]), tuple(g[:n]), tuple(chi[:bonds]), boundary)


class TestParams:
    def test_uniform_constructor(self):
        bath = BathParams.uniform(4, 1.0, 0.5, 0.2)
        assert bath.eps_i == (1.0,) * 4
        assert bath.g_i == (0.5,) * 4
        assert bath.chi_i == (0.2,) * 3
        assert bath.bond_count == 3

    def test_periodic_bond_count(self):
        bath = BathParams.uniform(4, 1.0, 0.5, 0.2, Boundary.PERIODIC)
        assert bath.bond_count == 4
        assert len(bath.chi_i) == 4

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            BathParams(3, (1.0, 1.0), (1.0, 1.0, 1.0), (0.0, 0.0))

    def test_wrong_bond_list(self):
        with pytest.raises(ParameterError):
            BathParams(3, (1.0,) * 3, (1.0,) * 3, (0.0,) * 3)

    def test_negative_beta(self):
        with pytest.raises(ParameterError):
            Thermal(-0.5)

    def test_require_uniform_names_offender(self):
        bath = BathParams(3, (1.0,) * 3, (1.0, 2.0, 1.0), (0.0, 0.0))
        with pytest.raises(ParameterError, match="g_i"):
            require_uniform(bath)

    def test_require_uniform_single_site(self):
        assert require_uniform(BathParams(1, (2.0,), (3.0,), ())) == (2.0, 3.0, 0.0)


class TestBathSums:
    def test_all_up_is_plain_sum(self):
        bath = BathParams(3, (0.5, -1.0, 2.0), (1.0, 2.0, 3.0), (0.1, 0.2))
        g_sum, eps_sum, chi_sum = bath_sums(bath, 0)
        assert g_sum == pytest.approx(6.0)
        assert eps_sum == pytest.approx(1.5)
        assert chi_sum == pytest.approx(0.3 if True else 0.0, abs=1e-15)

    def test_single_flip_changes_signs(self):
        bath = BathParams(3, (0.5, -1.0, 2.0), (1.0, 2.0, 3.0), (0.1, 0.2))
        # mask bit 0 flips site 1: g 1.0 -> -1.0, eps 0.5 -> -0.5, bond 1-2 flips
        g_sum, eps_sum, chi_sum = bath_sums(bath, 0b001)
        assert g_sum == pytest.approx(-1.0 + 2.0 + 3.0)
        assert eps_sum == pytest.approx(-0.5 - 1.0 + 2.0)
        assert chi_sum == pytest.approx(-0.1 + 0.2)

    def test_periodic_wraparound_bond(self):
        bath = BathParams(3, (0.0,) * 3, (0.0,) * 3, (0.1, 0.2, 0.4), Boundary.PERIODIC)
        # flipping site 1 flips bonds (1,2) and (3,1)
        _, _, chi_sum = bath_sums(bath, 0b001)
        assert chi_sum == pytest.approx(-0.1 + 0.2 - 0.4)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8),
           st.sampled_from(list(Boundary)))
    @settings(max_examples=60, deadline=None)
    def test_global_flip_negates_site_terms(self, seed, n, boundary):
        rng = np.random.default_rng(seed)
        lists = (rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8), rng.uniform(-1, 1, 8))
        bath = small_bath(lists, n, boundary)
        mask = int(rng.integers(0, 1 << n))
        flipped = mask ^ ((1 << n) - 1)
        g1, e1, c1 = bath_sums(bath, mask)
        g2, e2, c2 = bath_sums(bath, flipped)
        assert g2 == pytest.approx(-g1, abs=1e-12)
        assert e2 == pytest.approx(-e1, abs=1e-12)
        assert c2 == pytest.approx(c1, abs=1e-12)


class TestClassSums:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=10),
           st.sampled_from(list(Boundary)))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pattern_sums(self, seed, n, boundary):
        rng = np.random.default_rng(seed)
        eps, g, chi = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-1, 1)
        bath = BathParams.uniform(n, eps, g, chi, boundary)
        mask = int(rng.integers(0, 1 << n))
        k = bin(mask).count("1")
        bits = [(mask >> i) & 1 for i in range(n)]
        pairs = zip(bits, bits[1:] + [bits[0]]) if boundary is Boundary.PERIODIC \
            else zip(bits, bits[1:])
        w = sum(a != b for a, b in pairs)
        assert class_sums(bath, k, w) == pytest.approx(bath_sums(bath, mask), abs=1e-12)

    def test_rejects_out_of_range(self):
        bath = BathParams.uniform(4, 1.0, 1.0, 0.1)
        with pytest.raises(ParameterError):
            class_sums(bath, 5, 0)
        with pytest.raises(ParameterError):
            class_sums(bath, 2, 4)

    def test_rejects_non_uniform(self):
        bath = BathParams(3, (1.0, 2.0, 1.0), (1.0,) * 3, (0.0, 0.0))
        with pytest.raises(ParameterError, match="eps_i"):
            class_sums(bath, 1, 1)


class TestConfigQuantities:
    def test_splitting_and_rabi(self):
        sys1 = SystemParams(epsilon=1.0, delta=2.0)
        bath = BathParams.uniform(2, 0.0, 1.5, 0.0)
        q = config_quantities(sys1, bath, Thermal(0.0), 0)
        assert q.g_sum == pytest.approx(3.0)
        assert q.splitting == pytest.approx(4.0)
        assert q.rabi == pytest.approx(0.5 * math.sqrt(16.0 + 4.0))

    def test_weight_is_thermal(self):
        sys1 = SystemParams(epsilon=0.0, delta=1.0)
        bath = BathParams.uniform(2, 0.8, 0.0, 0.3)
        q = config_quantities(sys1, bath, Thermal(2.0), 0)
        assert q.log_weight == pytest.approx(-2.0 * (0.3 + 0.8))

    def test_class_route_agrees(self):
        sys1 = SystemParams(epsilon=1.0, delta=0.5)
        bath = BathParams.uniform(5, 0.7, 1.1, 0.2)
        th = Thermal(1.3)
        q_mask = config_quantities(sys1, bath, th, 0b00110)
        k = 2
        w = 2  # pattern 01100 read site-1-first: up,down,down,up,up
        q_class = class_quantities(sys1, bath, th, k, w)
        assert q_class == q_mask


class TestPureState:
    def test_accepts_and_freezes_unit_vector(self):
        psi = pure_state([2 ** -0.5, 2 ** -0.5])
        assert np.allclose(psi, [2 ** -0.5, 2 ** -0.5])
        assert not psi.flags.writeable

    def test_rejects_unnormalized(self):
        with pytest.raises(ParameterError):
            pure_state([1.0, 1.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ParameterError):
            pure_state([0.0, 0.0])

    def test_bloch_components_plus_x(self):
        px, py, pz = bloch_components(pure_state([2 ** -0.5, 2 ** -0.5]))
        assert (px, py, pz) == pytest.approx((1.0, 0.0, 0.0))

    def test_bloch_components_down(self):
        px, py, pz = bloch_components(pure_state([0.0, 1.0]))
        assert (px, py, pz) == pytest.approx((0.0, 0.0, -1.0))


def correlation_factor(sys1, th, q, psi):
    return math.exp(log_correlation_factor(sys1, th, q, psi))


class TestCorrelationFactor:
    def test_infinite_temperature_is_exactly_one(self):
        sys1 = SystemParams(epsilon=1.0, delta=0.7)
        bath = BathParams.uniform(3, 0.4, 0.9, 0.1)
        q = config_quantities(sys1, bath, Thermal(0.0), 0b010)
        psi = pure_state([0.6, 0.8])
        assert correlation_factor(sys1, Thermal(0.0), q, psi) == 1.0
        assert log_correlation_factor(sys1, Thermal(0.0), q, psi) == 0.0

    def test_zero_tunneling_eigenstate(self):
        # psi = |0> and delta = 0: factor is exactly exp(-beta*splitting/2)
        sys1 = SystemParams(epsilon=1.5, delta=0.0)
        bath = BathParams.uniform(2, 0.0, 0.25, 0.0)
        th = Thermal(2.0)
        q = config_quantities(sys1, bath, th, 0)
        psi = pure_state([1.0, 0.0])
        expected = math.exp(-th.beta * q.splitting / 2.0)
        assert correlation_factor(sys1, th, q, psi) == pytest.approx(expected, rel=1e-14)

    def test_plus_x_closed_form(self):
        # psi = +x: factor is cosh(beta*rabi) - sinh(beta*rabi) * delta/(2*rabi)
        sys1 = SystemParams(epsilon=0.8, delta=1.1)
        bath = BathParams.uniform(3, 0.3, 0.6, 0.2)
        th = Thermal(1.7)
        q = config_quantities(sys1, bath, th, 0b101)
        psi = pure_state([2 ** -0.5, 2 ** -0.5])
        expected = (math.cosh(th.beta * q.rabi)
                    - math.sinh(th.beta * q.rabi) * sys1.delta / (2.0 * q.rabi))
        assert correlation_factor(sys1, th, q, psi) == pytest.approx(expected, rel=1e-12)

    def test_matches_matrix_exponential(self):
        sys1 = SystemParams(epsilon=0.9, delta=1.3)
        bath = BathParams(3, (0.2, -0.7, 1.1), (0.4, 1.2, -0.8), (0.3, -0.1))
        th = Thermal(1.9)
        raw = np.array([0.3 - 0.2j, 0.8 + 0.1j])
        psi = pure_state(raw / np.linalg.norm(raw))
        for mask in range(8):
            q = config_quantities(sys1, bath, th, mask)
            h = np.array([[q.splitting / 2.0, sys1.delta / 2.0],
                          [sys1.delta / 2.0, -q.splitting / 2.0]])
            vals, vecs = np.linalg.eigh(h)
            mat = (vecs * np.exp(-th.beta * vals)) @ vecs.conj().T
            expected = float((psi.conj() @ mat @ psi).real)
            assert correlation_factor(sys1, th, q, psi) == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_log_factor_finite_and_positive(self, seed, beta):
        rng = np.random.default_rng(seed)
        sys1 = SystemParams(epsilon=float(rng.uniform(-2, 2)),
                            delta=float(rng.uniform(-2, 2)))
        bath = BathParams.uniform(4, float(rng.uniform(-2, 2)),
                                  float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
        th = Thermal(beta)
        q = config_quantities(sys1, bath, th, int(rng.integers(0, 16)))
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if np.linalg.norm(amps) < 1e-6:
            amps = np.array([1.0, 0.0])
        psi = pure_state(amps / np.linalg.norm(amps))
        log_a = log_correlation_factor(sys1, th, q, psi)
        assert math.isfinite(log_a)
        # factor is an expectation of a positive operator: strictly positive
        assert log_a >= -th.beta * q.rabi - 1e-9
        assert log_a <= th.beta * q.rabi + 1e-9

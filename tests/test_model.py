"""Per-configuration scalars, thermal weights, and the correlation factor."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.errors import ParameterError
from spinbath.model import (BathParams, Boundary, SystemParams, Thermal, bath_sums,
                            bloch_components, class_quantities, class_sums, config_quantities,
                            log_correlation_factor, log_thermal_overlap, log_thermal_weight,
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

    def test_uniform_takes_the_boundary_by_name(self):
        # the bonds are counted after the name becomes a Boundary
        by_name = BathParams.uniform(1000, 0.3, 0.05, 0.0, "periodic")
        assert by_name == BathParams.uniform(1000, 0.3, 0.05, 0.0, Boundary.PERIODIC)
        assert by_name.bond_count == len(by_name.chi_i) == 1000

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


def sign_matrix_sums(bath, masks):
    """(g_sum, eps_sum, chi_sum) of each mask from one dense sign matrix."""
    n = bath.n_spins
    signs = 1.0 - 2.0 * ((masks[:, None] >> np.arange(n)) & 1)
    # bond i joins sites i and i + 1, the last wrapping to site 0 on a ring
    bond_signs = (signs * np.roll(signs, -1, axis=1))[:, :bath.bond_count]
    return signs @ bath.g_i, signs @ bath.eps_i, bond_signs @ np.array(bath.chi_i)


class TestBathSums:
    def test_all_up_is_plain_sum(self):
        bath = BathParams(3, (0.5, -1.0, 2.0), (1.0, 2.0, 3.0), (0.1, 0.2))
        g_sum, eps_sum, chi_sum = bath_sums(bath)[:, 0]
        assert g_sum == pytest.approx(6.0)
        assert eps_sum == pytest.approx(1.5)
        assert chi_sum == pytest.approx(0.3 if True else 0.0, abs=1e-15)

    def test_single_flip_changes_signs(self):
        bath = BathParams(3, (0.5, -1.0, 2.0), (1.0, 2.0, 3.0), (0.1, 0.2))
        # mask bit 0 flips site 1: g 1.0 -> -1.0, eps 0.5 -> -0.5, bond 1-2 flips
        g_sum, eps_sum, chi_sum = bath_sums(bath)[:, 0b001]
        assert g_sum == pytest.approx(-1.0 + 2.0 + 3.0)
        assert eps_sum == pytest.approx(-0.5 - 1.0 + 2.0)
        assert chi_sum == pytest.approx(-0.1 + 0.2)

    def test_periodic_wraparound_bond(self):
        bath = BathParams(3, (0.0,) * 3, (0.0,) * 3, (0.1, 0.2, 0.4), Boundary.PERIODIC)
        # flipping site 1 flips bonds (1,2) and (3,1)
        _, _, chi_sum = bath_sums(bath)[:, 0b001]
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
        g1, e1, c1 = bath_sums(bath)[:, mask]
        g2, e2, c2 = bath_sums(bath)[:, flipped]
        assert g2 == pytest.approx(-g1, abs=1e-12)
        assert e2 == pytest.approx(-e1, abs=1e-12)
        assert c2 == pytest.approx(c1, abs=1e-12)

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_sign_matrix(self, n, boundary):
        # every pattern, in mask order, against one dense sign matrix, whose
        # products BLAS may add in another order than the fill's site order:
        # they agree to rounding, at most 14 + 14 terms of size below 5, far
        # under 1e-12. A ring of one spin bonds it to itself, a ring of two
        # has two bonds on one pair
        rng = np.random.default_rng(n)
        bonds = n if boundary is Boundary.PERIODIC else n - 1
        bath = BathParams(n, tuple(rng.normal(0.5, 1.0, n)), tuple(rng.normal(1.0, 0.5, n)),
                          tuple(rng.normal(0.1, 0.3, bonds)), boundary)
        got = bath_sums(bath)
        assert got.shape == (3, 1 << n)
        for expected, sums in zip(sign_matrix_sums(bath, np.arange(1 << n)), got):
            np.testing.assert_allclose(sums, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_nothing_table_sized_beside_the_table(self, boundary):
        # the fill writes 1-d row slices that do not overlap, so numpy buffers
        # no temporary: a 2-D slice copy or a broadcast operand would add a
        # temporary of the table's size or numpy's 64 KiB buffer to the peak
        n = 18
        bath = BathParams.uniform(n, 0.3, 0.7, 0.2, boundary)
        tracemalloc.start()
        try:
            bath_sums(bath)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * (1 << n) + 64 * 1024


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
        assert class_sums(bath, k, w) == pytest.approx(bath_sums(bath)[:, mask], abs=1e-12)

    def test_rejects_non_uniform(self):
        bath = BathParams(3, (1.0, 2.0, 1.0), (1.0,) * 3, (0.0, 0.0))
        with pytest.raises(ParameterError, match="eps_i"):
            class_sums(bath, 1, 1)


class TestConfigQuantities:
    def test_splitting_and_rabi(self):
        sys1 = SystemParams(epsilon=1.0, delta=2.0)
        bath = BathParams.uniform(2, 0.0, 1.5, 0.0)
        splitting, rabi = config_quantities(sys1, bath_sums(bath)[0, 0])
        assert bath_sums(bath)[0, 0] == pytest.approx(3.0)
        assert splitting == pytest.approx(4.0)
        assert rabi == pytest.approx(0.5 * math.sqrt(16.0 + 4.0))

    def test_weight_is_thermal(self):
        bath = BathParams.uniform(2, 0.8, 0.0, 0.3)
        _, eps_sum, chi_sum = bath_sums(bath)[:, 0]
        assert log_thermal_weight(2.0, eps_sum, chi_sum) == pytest.approx(-2.0 * (0.3 + 0.8))

    def test_class_route_agrees(self):
        sys1 = SystemParams(epsilon=1.0, delta=0.5)
        bath = BathParams.uniform(5, 0.7, 1.1, 0.2)
        q_mask = config_quantities(sys1, bath_sums(bath)[0, 0b00110])
        k = 2
        w = 2  # pattern 01100 read site-1-first: up,down,down,up,up
        for got, want in ((class_quantities(sys1, bath, k, w), q_mask),
                          (class_sums(bath, k, w), bath_sums(bath)[:, 0b00110])):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


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

    @pytest.mark.parametrize("shape", [(2,), (2, 1), (1, 2), (1, 2, 1)])
    def test_accepts_a_vector_with_unit_axes(self, shape):
        assert pure_state(np.reshape([0.6, 0.8], shape)).shape == (2,)

    def test_bloch_components_plus_x(self):
        px, py, pz = bloch_components(pure_state([2 ** -0.5, 2 ** -0.5]))
        assert (px, py, pz) == pytest.approx((1.0, 0.0, 0.0))

    def test_bloch_components_down(self):
        px, py, pz = bloch_components(pure_state([0.0, 1.0]))
        assert (px, py, pz) == pytest.approx((0.0, 0.0, -1.0))


def correlation_factor(sys1, th, q, psi):
    splitting, rabi = q
    return math.exp(log_correlation_factor(sys1, th, splitting, rabi, psi))


class TestCorrelationFactor:
    def test_infinite_temperature_is_exactly_one(self):
        sys1 = SystemParams(epsilon=1.0, delta=0.7)
        bath = BathParams.uniform(3, 0.4, 0.9, 0.1)
        q = config_quantities(sys1, bath_sums(bath)[0, 0b010])
        psi = pure_state([0.6, 0.8])
        assert correlation_factor(sys1, Thermal(0.0), q, psi) == 1.0
        assert log_correlation_factor(sys1, Thermal(0.0), *q, psi) == 0.0

    def test_zero_tunneling_eigenstate(self):
        # psi = |0> and delta = 0: factor is exactly exp(-beta*splitting/2)
        sys1 = SystemParams(epsilon=1.5, delta=0.0)
        bath = BathParams.uniform(2, 0.0, 0.25, 0.0)
        th = Thermal(2.0)
        q = config_quantities(sys1, bath_sums(bath)[0, 0])
        psi = pure_state([1.0, 0.0])
        expected = math.exp(-th.beta * q[0] / 2.0)
        assert correlation_factor(sys1, th, q, psi) == pytest.approx(expected, rel=1e-14)

    def test_plus_x_closed_form(self):
        # psi = +x: factor is cosh(beta*rabi) - sinh(beta*rabi) * delta/(2*rabi)
        sys1 = SystemParams(epsilon=0.8, delta=1.1)
        bath = BathParams.uniform(3, 0.3, 0.6, 0.2)
        th = Thermal(1.7)
        q = config_quantities(sys1, bath_sums(bath)[0, 0b101])
        _, rabi = q
        psi = pure_state([2 ** -0.5, 2 ** -0.5])
        expected = (math.cosh(th.beta * rabi)
                    - math.sinh(th.beta * rabi) * sys1.delta / (2.0 * rabi))
        assert correlation_factor(sys1, th, q, psi) == pytest.approx(expected, rel=1e-12)

    def test_matches_matrix_exponential(self):
        sys1 = SystemParams(epsilon=0.9, delta=1.3)
        bath = BathParams(3, (0.2, -0.7, 1.1), (0.4, 1.2, -0.8), (0.3, -0.1))
        th = Thermal(1.9)
        raw = np.array([0.3 - 0.2j, 0.8 + 0.1j])
        psi = pure_state(raw / np.linalg.norm(raw))
        for mask in range(8):
            q = config_quantities(sys1, bath_sums(bath)[0, mask])
            splitting, _ = q
            h = np.array([[splitting / 2.0, sys1.delta / 2.0],
                          [sys1.delta / 2.0, -splitting / 2.0]])
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
        splitting, rabi = config_quantities(sys1, bath_sums(bath)[0, int(rng.integers(0, 16))])
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if np.linalg.norm(amps) < 1e-6:
            amps = np.array([1.0, 0.0])
        psi = pure_state(amps / np.linalg.norm(amps))
        log_a = log_correlation_factor(sys1, th, splitting, rabi, psi)
        assert math.isfinite(log_a)
        # factor is an expectation of a positive operator: strictly positive
        assert log_a >= -th.beta * rabi - 1e-9
        assert log_a <= th.beta * rabi + 1e-9


def stacked_log_thermal_overlap(beta, energies, populations):
    """log sum_j p_j exp(-beta E_j) as one np.logaddexp.reduce over a last
    axis of levels: the form log_thermal_overlap, which takes the levels one
    array each, must reproduce bit for bit."""
    if beta == 0.0:
        return np.zeros(np.shape(populations)[:-1])
    with np.errstate(divide="ignore"):
        exponents = np.log(populations) - beta * np.asarray(energies)
    return np.logaddexp.reduce(exponents, axis=-1)


def stacked_log_correlation_factor(sys1, th, splitting, rabi, psi):
    """The correlation factor as one logaddexp.reduce over stacked
    (rabi, -rabi) energies and populations: the form log_correlation_factor
    must reproduce bit for bit."""
    px, _, pz = bloch_components(psi)
    mean_h = 0.5 * (splitting * pz + sys1.delta * px)
    rabi = np.asarray(rabi)
    ratio = np.divide(mean_h, rabi, out=np.zeros(rabi.shape), where=rabi != 0.0)
    populations = np.maximum(0.0, 0.5 * (1.0 + np.stack((ratio, -ratio), axis=-1)))
    return stacked_log_thermal_overlap(th.beta, np.stack((rabi, -rabi), axis=-1), populations)


class TestCorrelationFactorBits:
    @pytest.mark.parametrize("beta", [0.0, 0.7, 200.0])
    def test_matches_stacked_reduce(self, beta):
        rng = np.random.default_rng(3)
        sys1 = SystemParams(epsilon=0.4, delta=-1.3)
        splitting = np.concatenate(([0.0, 2.0, -2.0], rng.normal(0.0, 3.0, 200)))
        rabi = 0.5 * np.hypot(splitting, sys1.delta)
        rabi[0] = 0.0
        th = Thermal(beta)
        for psi in (pure_state([0.6, -0.8j]), pure_state([-0.6, 0.8]), pure_state([1.0, 0.0])):
            # |mean_h| one ulp above rabi, as rounding can leave it
            mean_h = 0.5 * (splitting * bloch_components(psi)[2]
                            + sys1.delta * bloch_components(psi)[0])
            rabi[1:3] = np.nextafter(np.abs(mean_h[1:3]), 0.0)
            got = log_correlation_factor(sys1, th, splitting, rabi, psi)
            want = stacked_log_correlation_factor(sys1, th, splitting, rabi, psi)
            assert got.tobytes() == want.tobytes()
            for i in range(4):
                one = log_correlation_factor(sys1, th, splitting[i], rabi[i], psi)
                assert np.shape(one) == ()
                assert one.tobytes() == stacked_log_correlation_factor(
                    sys1, th, splitting[i], rabi[i], psi).tobytes()


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return raw + raw.conj().T


def random_state(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


class TestThermalOverlap:
    def test_infinite_temperature_is_exactly_zero(self):
        rng = np.random.default_rng(2)
        energies = rng.uniform(-3.0, 3.0, (5, 4))
        populations = np.abs(rng.standard_normal((5, 4))) ** 2
        populations /= populations.sum(axis=1, keepdims=True)
        assert np.array_equal(log_thermal_overlap(0.0, energies.T, populations.T), np.zeros(5))
        assert log_thermal_overlap(0.0, energies[0], populations[0]) == 0.0

    @pytest.mark.parametrize("beta", [0.3, 5.0, 2000.0])
    def test_eigenvector_is_exactly_its_boltzmann_exponent(self, beta):
        energies = np.array([-1.5, -0.25, 0.5, 2.0])
        for j in range(4):
            populations = np.eye(4)[j]
            assert log_thermal_overlap(beta, energies, populations) == -beta * energies[j]

    def test_single_qubit_eigenstate_is_exact(self):
        # delta = 0 and psi = |0>: the factor is exactly exp(-beta*rabi)
        sys1 = SystemParams(epsilon=1.5, delta=0.0)
        th = Thermal(2.0)
        bath = BathParams.uniform(2, 0.0, 0.25, 0.0)
        splitting, rabi = config_quantities(sys1, bath_sums(bath)[0, 0])
        factor = log_correlation_factor(sys1, th, splitting, rabi, pure_state([1.0, 0.0]))
        assert factor == -th.beta * rabi

    def test_finite_at_low_temperature(self):
        energies = np.array([-3.0, -1.0, 2.0, 5.0])
        populations = np.array([0.1, 0.2, 0.3, 0.4])
        got = log_thermal_overlap(2000.0, energies, populations)
        assert math.isfinite(got)
        assert got == pytest.approx(6000.0 + math.log(0.1), rel=1e-15)

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("beta", [0.3, 5.0])
    def test_matches_spectral_sum(self, dim, beta):
        rng = np.random.default_rng(dim)
        stack = np.array([random_hermitian(rng, dim) for _ in range(8)])
        psi = random_state(rng, dim)
        energies, vectors = np.linalg.eigh(stack)
        overlaps = vectors.conj().swapaxes(-2, -1) @ psi
        got = log_thermal_overlap(beta, energies.T, (np.abs(overlaps) ** 2).T)
        expected = [np.log((psi.conj() @ (v * np.exp(-beta * e)) @ v.conj().T @ psi).real)
                    for e, v in zip(energies, vectors)]
        assert np.abs(got - expected).max() < 1e-13

    @pytest.mark.parametrize("beta", [0.0, 0.3, 2000.0])
    def test_levels_first_matches_stacked_reduce(self, beta):
        # the pair's call: (n, 4) spectra and populations passed level by
        # level, some populations exactly zero, against the last-axis reduce
        rng = np.random.default_rng(7)
        energies = rng.uniform(-4.0, 4.0, (1000, 4))
        populations = np.abs(rng.standard_normal((1000, 4))) ** 2
        populations[rng.random((1000, 4)) < 0.3] = 0.0
        # a row left all zero gets its whole weight on level 0
        populations[:, 0] += populations.sum(axis=1) == 0.0
        populations /= populations.sum(axis=1, keepdims=True)
        got = log_thermal_overlap(beta, energies.T, populations.T)
        want = stacked_log_thermal_overlap(beta, energies, populations)
        assert got.tobytes() == want.tobytes()

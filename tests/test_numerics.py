"""Linear-algebra helpers, deterministic reduction primitives, seeded RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.errors import ParameterError
from spinbath.numerics import (RNG_ALGORITHM, GaussianStream, RandomSpec,
                               gaussian_draw, hermitian_eig, pairwise_sum)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


class TestHermitianEig:
    def test_diagonal_matrix(self):
        values, vectors = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(values, [-1.0, 2.0, 3.0])
        recon = (vectors * values) @ vectors.conj().T
        assert np.allclose(recon, np.diag([3.0, -1.0, 2.0]), atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ParameterError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_reconstructs_input(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        stack = np.stack([h, random_hermitian(rng, dim)])
        for m in (h, stack):
            values, vectors = hermitian_eig(m)
            assert np.all(np.diff(values, axis=-1) >= 0)
            recon = (vectors * values[..., None, :]) @ vectors.conj().swapaxes(-2, -1)
            assert np.abs(recon - m).max() < 1e-12 * max(1.0, np.abs(m).max())


class TestPairwiseSum:
    def test_many_tenths(self):
        total = pairwise_sum(np.full(1_000_000, 0.1))
        assert abs(total - 100_000.0) < 1e-7

    def test_empty(self):
        assert pairwise_sum(np.array([])) == 0.0

    def test_single(self):
        assert pairwise_sum(np.array([3.5])) == 3.5

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_fsum(self, values):
        total = pairwise_sum(np.asarray(values, dtype=float))
        expected = math.fsum(values)
        assert abs(total - expected) <= 1e-9 * max(1.0, sum(abs(v) for v in values))


class TestGaussianDraws:
    def test_reference_statistics(self):
        draws = gaussian_draw(RandomSpec(mean=5.0, std_dev=1.0, seed=42), 100_000)
        assert abs(draws.mean() - 5.0) < 0.02
        assert abs(draws.std(ddof=0) - 1.0) < 0.02

    def test_deterministic_restart(self):
        spec = RandomSpec(mean=0.0, std_dev=2.0, seed=123)
        a = gaussian_draw(spec, 50)
        b = gaussian_draw(spec, 50)
        assert np.array_equal(a, b)

    def test_prefix_stability(self):
        spec = RandomSpec(mean=0.0, std_dev=1.0, seed=9)
        assert np.array_equal(gaussian_draw(spec, 10), gaussian_draw(spec, 20)[:10])

    def test_seeds_decorrelate(self):
        a = gaussian_draw(RandomSpec(0.0, 1.0, seed=1), 32)
        b = gaussian_draw(RandomSpec(0.0, 1.0, seed=2), 32)
        assert not np.array_equal(a, b)

    def test_zero_count(self):
        assert gaussian_draw(RandomSpec(0.0, 1.0, seed=1), 0).shape == (0,)

    def test_zero_spread_returns_mean(self):
        draws = gaussian_draw(RandomSpec(mean=4.2, std_dev=0.0, seed=77), 8)
        assert np.all(draws == 4.2)

    def test_seed_zero_usable(self):
        draws = gaussian_draw(RandomSpec(0.0, 1.0, seed=0), 16)
        assert np.all(np.isfinite(draws)) and draws.std() > 0

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_finite(self, seed):
        stream = GaussianStream(seed)
        assert all(math.isfinite(stream.next_normal()) for _ in range(8))


class TestRandomSpecValidation:
    def test_negative_spread(self):
        with pytest.raises(ParameterError):
            RandomSpec(mean=0.0, std_dev=-1.0, seed=1)

    def test_non_finite_mean(self):
        with pytest.raises(ParameterError):
            RandomSpec(mean=math.inf, std_dev=1.0, seed=1)

    def test_seed_out_of_range(self):
        with pytest.raises(ParameterError):
            RandomSpec(mean=0.0, std_dev=1.0, seed=1 << 64)

    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            RandomSpec(mean=0.0, std_dev=1.0, seed=1, algorithm="mt19937")

    def test_algorithm_is_recorded(self):
        assert RandomSpec(0.0, 1.0, seed=3).algorithm == RNG_ALGORITHM

    def test_negative_count(self):
        with pytest.raises(ParameterError):
            gaussian_draw(RandomSpec(0.0, 1.0, seed=1), -1)

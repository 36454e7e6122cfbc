"""Linear-algebra helpers, deterministic reduction primitives, seeded RNG."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.errors import ParameterError
from spinbath.model import BathParams, Boundary, SystemParams
from spinbath.numerics import (RandomSpec, _pairwise_sum, _pairwise_total, gaussian_draw,
                               hermitian_eig)
from spinbath.oracle import _joint_matrix
from spinbath.two_qubit import TwoQubitParams, _pair_hamiltonian


def decades(rng, size=None):
    """Values of either sign, their magnitudes spread over six decades."""
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-3.0, 3.0, size)


def random_bath(rng, boundary):
    n = int(rng.integers(1, 5))
    bonds = n if boundary is Boundary.PERIODIC else n - 1
    return BathParams(n, *(tuple(decades(rng, size)) for size in (n, n, bonds)), boundary)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0


class TestHermitianEig:
    def test_diagonal_matrix(self):
        values, vectors = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(values, [-1.0, 2.0, 3.0])
        recon = (vectors * values) @ vectors.conj().T
        assert np.allclose(recon, np.diag([3.0, -1.0, 2.0]), atol=1e-14)

    @pytest.mark.parametrize("kind", [float, complex])
    def test_vectors_keep_the_input_kind(self, kind):
        # the real part of a Hermitian matrix is real symmetric
        h = random_hermitian(np.random.default_rng(5), 4)
        m = h.real if kind is float else h
        for matrix in (m, np.stack([m, m]), m.tolist()):
            values, vectors = hermitian_eig(matrix)
            assert (values.dtype, vectors.dtype) == (np.float64, np.dtype(kind))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3, 3)])
    def test_empty_input(self, shape):
        # an empty matrix gives what an empty stack always gave: nothing
        for kind in (float, complex):
            values, vectors = hermitian_eig(np.zeros(shape, dtype=kind))
            assert (values.shape, vectors.shape) == (shape[:-1], shape)

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_callers_build_exactly_symmetric_matrices(self, boundary):
        # hermitian_eig does not check Hermiticity: its two callers, the
        # pair's 4x4 stacks and the oracle's joint matrix, hold it bit for bit
        rng = np.random.default_rng(7 if boundary is Boundary.OPEN else 8)
        for draw in range(100):
            pair = TwoQubitParams(*decades(rng, 4), lam=0.0 if draw % 2 else decades(rng))
            bath = random_bath(rng, boundary)
            for m in (_pair_hamiltonian(pair, decades(rng, (64, 1, 1))),
                      _joint_matrix(pair, bath)[0],
                      _joint_matrix(SystemParams(*decades(rng, 2)), bath)[0]):
                assert np.array_equal(m, m.swapaxes(-2, -1))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_reconstructs_input(self, seed, dim):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, dim)
        stack = np.stack([h, random_hermitian(rng, dim)])
        for m in (h, stack, h.real):
            values, vectors = hermitian_eig(m)
            assert np.all(np.diff(values, axis=-1) >= 0)
            recon = (vectors * values[..., None, :]) @ vectors.conj().swapaxes(-2, -1)
            assert np.abs(recon - m).max() < 1e-12 * max(1.0, np.abs(m).max())


def pairwise_sum(values):
    return float(_pairwise_sum(np.asarray(values, dtype=float)))


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


class TestPairwiseTotal:
    @pytest.mark.parametrize("count", [1, 2, 3, 5, 6, 7, 11, 13, 14, 64, 65, 97, 300])
    def test_rebuilds_the_stacked_tree(self, count):
        # the carry stack adds the items of a stream in the tree that
        # _pairwise_sum builds over them stacked, bit for bit
        rng = np.random.default_rng(count)
        items = rng.uniform(-1.0, 1.0, (count, 2, 3)) * 10.0 ** rng.integers(-8, 8, (count, 2, 3))
        stacked = _pairwise_sum(np.moveaxis(items, 0, -1))
        assert _pairwise_total(iter(items)).tobytes() == stacked.tobytes()


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

    # the exact bits of the stream: a CSV's recorded seed replays its random
    # bath only while these hold
    @pytest.mark.parametrize("seed, expected", [
        (0, ["0x1.a43087870689cp-1", "-0x1.c455f154515d6p-1", "0x1.33c2c62743f5ep-1",
             "-0x1.2d022dcafd5b7p-1", "-0x1.14bbd7dde1231p+0", "0x1.eba39072f1b0fp-2",
             "0x1.9283684a51235p+0", "0x1.09340172e7dafp-1"]),
        (1, ["0x1.bb233f8a6a8a2p-1", "-0x1.4dadc6da9219dp+0", "0x1.54a4e2781854cp-3",
             "0x1.65c777202c1d9p+0", "0x1.1a36ef4bde156p-1", "0x1.d10d1f875cba6p-8",
             "-0x1.bc203ca3dc81ap+0", "-0x1.109a7bad2753ep+0"]),
        (42, ["-0x1.ac1c9b99391a8p+0", "-0x1.637d9526383b2p-1", "-0x1.453f79af30dfep-3",
              "0x1.30c898cd99904p+0", "-0x1.268c7ba79f92cp-1", "-0x1.4dac095f95f96p-2",
              "0x1.bd8e1fe5a5811p-2", "-0x1.7c25f3b1b48ecp+0"]),
        (2**64 - 1, ["0x1.25198b3e44af0p+1", "0x1.563edb6e7b618p+0", "0x1.3fb6c4533ea52p+0",
                     "-0x1.5022cf1764284p+0", "0x1.237c72f438585p-1", "-0x1.0d05cd35c2806p-3",
                     "-0x1.e058744b07110p-2", "0x1.7cd9fd6e8b2d4p-2"]),
    ])
    def test_golden_draws(self, seed, expected):
        draws = gaussian_draw(RandomSpec(0.0, 1.0, seed), 8)
        assert [float(x).hex() for x in draws] == expected

    def test_seed_zero_usable(self):
        draws = gaussian_draw(RandomSpec(0.0, 1.0, seed=0), 16)
        assert np.all(np.isfinite(draws)) and draws.std() > 0

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_finite(self, seed):
        assert np.all(np.isfinite(gaussian_draw(RandomSpec(0.0, 1.0, seed), 8)))


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

    def test_negative_count(self):
        with pytest.raises(ParameterError):
            gaussian_draw(RandomSpec(0.0, 1.0, seed=1), -1)

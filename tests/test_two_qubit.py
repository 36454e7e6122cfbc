"""Two-qubit reduced dynamics, state validation, and concurrence."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import two_qubit
from spinbath.configspace import ITEM_BLOCK, Backend
from spinbath.errors import ParameterError
from spinbath.experiments import list_presets, preset
from spinbath.model import BathParams, Boundary, Thermal, pure_state
from spinbath.numerics import hermitian_eig
from spinbath.oracle import build_hamiltonian, evolve_and_reduce, initial_state
from spinbath.two_qubit import (TwoQubitParams, _pair_hamiltonian, bell_state, concurrence,
                                density_trajectory, product_state)

BASE = dict(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0)


def random_bath(seed, n=3):
    rng = np.random.default_rng(seed)
    return BathParams(n, tuple(rng.uniform(-2, 2, n)), tuple(rng.uniform(-2, 2, n)),
                      tuple(rng.uniform(-1, 1, n - 1)))


def random_pair_state(seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return pure_state(amps / np.linalg.norm(amps))


class TestStates:
    def test_bell_state(self):
        psi = bell_state()
        assert np.allclose(psi, [2 ** -0.5, 0.0, 0.0, 2 ** -0.5])

    def test_product_state(self):
        assert np.array_equal(product_state(), [1.0, 0.0, 0.0, 0.0])

    def test_states_are_frozen(self):
        assert not bell_state().flags.writeable
        assert not product_state().flags.writeable


class TestConditionalHamiltonian:
    def test_matches_operator_sum(self):
        sys2 = TwoQubitParams(lam=0.7, **BASE)
        g_sum = 1.3
        sz = np.diag([1.0, -1.0])
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        eye = np.eye(2)
        expected = (
            0.5 * (sys2.eps1 + g_sum) * np.kron(sz, eye)
            + 0.5 * (sys2.eps2 + g_sum) * np.kron(eye, sz)
            + 0.5 * sys2.delta1 * np.kron(sx, eye)
            + 0.5 * sys2.delta2 * np.kron(eye, sx)
            + sys2.lam * np.kron(sz, sz)
        )
        h = _pair_hamiltonian(sys2, g_sum)
        assert h.dtype == np.float64
        assert np.abs(h - expected).max() < 1e-14

    @pytest.mark.parametrize("backend", list(Backend))
    def test_trajectory_diagonalizes_real_stacks(self, monkeypatch, backend):
        seen = []

        def spy(matrix):
            seen.append(matrix.dtype)
            return hermitian_eig(matrix)

        monkeypatch.setattr(two_qubit, "hermitian_eig", spy)
        bath = BathParams.uniform(4, 1.0, 0.5, 0.2)
        density_trajectory(TwoQubitParams(lam=0.7, **BASE), bath, Thermal(1.0), backend,
                           bell_state(), [0.0, 1.0], (False, True))
        assert seen and set(seen) == {np.dtype(np.float64)}

    def test_spin_flip_is_real_sigma_y_x_sigma_y(self):
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert two_qubit._SPIN_FLIP.dtype == np.float64
        assert np.array_equal(two_qubit._SPIN_FLIP, np.kron(sy, sy))


class TestInteractingRoute:
    def test_time_zero_projector(self):
        for lam, psi in ((3.0, bell_state()), (0.0, random_pair_state(5))):
            sys2 = TwoQubitParams(lam=lam, **BASE)
            for rho, in density_trajectory(sys2, random_bath(3), Thermal(1.0),
                                           Backend.ENUMERATE, psi, [0.0], (False, True)):
                assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-13

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.0, 1.0, 10.0]),
           st.sampled_from([0.0, 3.0]), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force(self, seed, beta, lam, correlated):
        sys2 = TwoQubitParams(lam=lam, **BASE)
        bath = random_bath(seed)
        psi = random_pair_state(seed + 1)
        th = Thermal(beta)
        times = np.linspace(0.0, 5.0, 6)
        states, = density_trajectory(sys2, bath, th, Backend.ENUMERATE, psi, times,
                                     (correlated,))
        h = build_hamiltonian(sys2, bath)
        rho_o = evolve_and_reduce(h, initial_state(h, th, psi, correlated), times)
        assert np.abs(states - rho_o).max() < 1e-9


class TestTrajectories:
    def test_beta_zero_correlations_vanish(self):
        sys2 = TwoQubitParams(lam=2.0, **BASE)
        bath = random_bath(11)
        times = np.linspace(0.0, 6.0, 10)
        u, c = density_trajectory(sys2, bath, Thermal(0.0), Backend.ENUMERATE, bell_state(),
                                  times, (False, True))
        assert np.abs(u - c).max() < 1e-12

    def test_decoupled_correlations_vanish(self):
        sys2 = TwoQubitParams(**BASE)
        bath = BathParams(3, (0.4, -0.9, 1.2), (0.0, 0.0, 0.0), (0.3, -0.5))
        times = np.linspace(0.0, 6.0, 10)
        u, c = density_trajectory(sys2, bath, Thermal(4.0), Backend.ENUMERATE, bell_state(),
                                  times, (False, True))
        assert np.abs(u - c).max() < 1e-12

    def test_backend_equivalence_uniform_bath(self):
        sys2 = TwoQubitParams(lam=3.0, **BASE)
        times = np.linspace(0.0, 5.0, 8)
        for boundary in Boundary:
            bath = BathParams.uniform(10, 1.0, 1.0, 0.1, boundary)
            a = density_trajectory(sys2, bath, Thermal(1.0), Backend.ENUMERATE,
                                   bell_state(), times, (False, True))
            b = density_trajectory(sys2, bath, Thermal(1.0), Backend.COLLAPSE,
                                   bell_state(), times, (False, True))
            assert np.abs(a - b).max() < 1e-12

    @pytest.mark.parametrize("name", [name for name in list_presets()
                                      if preset(name).mode == "two_qubit"])
    def test_preset_states_are_exactly_hermitian(self, name):
        # rho = S + S^dagger: each entry and its mirror's conjugate add the
        # same two numbers, so they are equal exactly (a zero may differ in
        # sign), and the diagonal's imaginary parts cancel to zero
        config = preset(name)
        states = density_trajectory(config.system, config.bath.materialize(), config.thermal(),
                                    config.backend, config.state_vector(), config.grid.times(),
                                    (False, True))
        assert np.array_equal(states, states.conj().swapaxes(-2, -1))
        assert not np.diagonal(states, axis1=-2, axis2=-1).imag.any()

    def test_every_output_is_a_valid_state(self):
        sys2 = TwoQubitParams(lam=3.0, **BASE)
        bath = random_bath(13)
        times = np.linspace(0.0, 8.0, 12)
        concurrence(density_trajectory(sys2, bath, Thermal(2.0), Backend.ENUMERATE,
                                       bell_state(), times, (False, True)))


# concurrence validates every state it scores
class TestValidateDensity:
    def test_rejects_non_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = 0.1
        with pytest.raises(ParameterError, match="Hermitian"):
            concurrence(rho)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ParameterError, match="trace"):
            concurrence(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ParameterError, match="eigenvalue"):
            concurrence(rho)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ParameterError):
            concurrence(np.eye(3, dtype=complex) / 3.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_without_warning(self, bad):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="non-finite"):
                concurrence(rho)

    def test_checks_run_in_order(self):
        # finite, Hermitian, trace, floor; the skewed and doubled cases also
        # fail the floor, so only the order of the checks picks their message
        negative = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        skewed = negative.copy()
        skewed[0, 1] = 0.1
        cases = ((np.full((4, 4), np.nan), "non-finite"), (skewed, "Hermitian"),
                 (2.0 * negative, "trace"), (negative, "eigenvalue"))
        for rho, message in cases:
            with pytest.raises(ParameterError, match=message):
                concurrence(rho)

    def test_stack_rejects_one_bad_matrix_in_second_block(self):
        stack = np.tile(np.eye(4, dtype=complex) / 4.0, (2 * ITEM_BLOCK, 1, 1))
        stack[ITEM_BLOCK + 3] = np.diag([0.6, 0.5, -0.1, 0.0])
        with pytest.raises(ParameterError, match="eigenvalue"):
            concurrence(stack)


def random_mixed_states(seed, count):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    rho = raw @ raw.conj().swapaxes(-2, -1)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


class TestConcurrence:
    @pytest.mark.parametrize("shape", [(4,), (2 * ITEM_BLOCK + 5,), (2, 2),
                                       (3, ITEM_BLOCK + 1)])
    def test_stack_matches_each_matrix_bit_for_bit(self, shape):
        states = random_mixed_states(len(shape), math.prod(shape))
        one_by_one = np.array([concurrence(rho) for rho in states]).reshape(shape)
        assert np.array_equal(concurrence(states.reshape(*shape, 4, 4)), one_by_one)

    def test_decomposes_each_matrix_once(self, monkeypatch):
        # the positivity floor reads the populations of concurrence's own eigh
        def unexpected(*args):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", unexpected)
        assert concurrence(random_mixed_states(7, 5)).shape == (5,)
        with pytest.raises(ParameterError, match="eigenvalue"):
            concurrence(np.diag([0.6, 0.5, -0.1, 0.0]))

    def test_single_matrix_gives_a_float(self):
        assert isinstance(concurrence(np.eye(4, dtype=complex) / 4.0), float)

    def test_bell_state_is_maximal(self):
        rho = np.outer(bell_state(), bell_state().conj())
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        rho = np.outer(product_state(), product_state().conj())
        assert concurrence(rho) == 0.0

    def test_maximally_mixed_is_zero(self):
        assert concurrence(np.eye(4, dtype=complex) / 4.0) == 0.0

    def test_werner_half(self):
        # (1/2)|Bell><Bell| + (1/2) I/4 has concurrence 1/4
        bell = bell_state()
        rho = 0.5 * np.outer(bell, bell.conj()) + 0.5 * np.eye(4) / 4.0
        assert concurrence(rho) == pytest.approx(0.25, abs=1e-12)

    def test_werner_separable_threshold(self):
        # concurrence max(0, (3p-1)/2) vanishes for p <= 1/3
        bell = bell_state()
        rho = (1 / 3) * np.outer(bell, bell.conj()) + (2 / 3) * np.eye(4) / 4.0
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_pure_state_closed_form(self, seed):
        # C(|psi>) = 2 |a00 a11 - a01 a10|
        psi = random_pair_state(seed)
        rho = np.outer(psi, psi.conj())
        expected = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert concurrence(rho) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        # random mixed state from a few pure pieces
        weights = rng.dirichlet(np.ones(3))
        rho = sum(w * np.outer(p, p.conj())
                  for w, p in ((w, random_pair_state(seed + i)) for i, w in
                               enumerate(weights)))
        rho = rho / np.trace(rho).real

        def haar_2x2(s):
            z = (np.random.default_rng(s).standard_normal((2, 2))
                 + 1j * np.random.default_rng(s + 1).standard_normal((2, 2)))
            q, r = np.linalg.qr(z)
            return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

        u = np.kron(haar_2x2(seed + 50), haar_2x2(seed + 99))
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho).real
        assert 0.0 <= concurrence(rho) <= 1.0 + 1e-12

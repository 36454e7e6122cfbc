"""Brute-force reference: dense Hamiltonians, thermal states, partial trace."""

import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import oracle
from spinbath.errors import CapacityError, ParameterError
from spinbath.experiments import preset
from spinbath.model import BathParams, Boundary, SystemParams, Thermal, bath_sums, pure_state
from spinbath.numerics import hermitian_eig
from spinbath.oracle import (DIMENSION_CAP, FullHamiltonian, build_hamiltonian,
                             evolve_and_reduce, initial_state)
from spinbath.two_qubit import TwoQubitParams, bell_state


def small_system():
    return SystemParams(epsilon=0.8, delta=1.1)


def small_bath(n=3, seed=0, boundary=Boundary.OPEN):
    rng = np.random.default_rng(seed)
    bonds = n if boundary is Boundary.PERIODIC else n - 1
    return BathParams(n, tuple(rng.uniform(-2, 2, n)), tuple(rng.uniform(-2, 2, n)),
                      tuple(rng.uniform(-1, 1, bonds)), boundary)


def textbook_reduce(h, rho0, t):
    """Tr_B[U rho0 U^dagger] with U = V exp(-iEt) V^dagger, one time at a time."""
    unitary = (h.vectors * np.exp(-1j * h.energies * t)) @ h.vectors.conj().T
    evolved = unitary @ rho0 @ unitary.conj().T
    ds, db = h.system_dim, h.bath_dim
    return np.einsum("ibjb->ij", evolved.reshape(ds, db, ds, db))


def one_shot_reduce(h, rho0, times):
    """rho_S(t)_ij = sum_{a,c} exp(-i (E_a - E_c) t) R_ac K_iajc with the whole
    partial-trace kernel K formed at once."""
    ds, db = h.system_dim, h.bath_dim
    split = h.vectors.reshape(ds, db, ds * db)
    kernel = np.einsum("iba,jbc->iajc", split, split.conj())
    r = h.vectors.conj().T @ rho0 @ h.vectors
    phases = np.exp(-1j * np.outer(times, h.energies))
    return np.einsum("ta,tc,ac,iajc->tij", phases, phases.conj(), r, kernel, optimize=True)


def kron_hamiltonian(qubits, lam, bath):
    """The joint Hamiltonian from Kronecker products of Pauli matrices:
    qubits holds each system qubit's (splitting, tunneling), lam the pair
    coupling; factors are ordered system first, then bath sites 1..N."""
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma_z = np.diag([1.0, -1.0])
    total = len(qubits) + bath.n_spins

    def embed(op, factor):
        return reduce(np.kron, [op if k == factor else np.eye(2) for k in range(total)])

    z = [embed(sigma_z, k) for k in range(total)]
    bath_z = z[len(qubits):]
    h = sum(0.5 * eps * z[q] + 0.5 * delta * embed(sigma_x, q)
            for q, (eps, delta) in enumerate(qubits))
    if len(qubits) == 2:
        h = h + lam * z[0] @ z[1]
    for i in range(bath.n_spins):
        h = h + 0.5 * bath.eps_i[i] * bath_z[i]
        h = h + sum(0.5 * bath.g_i[i] * z[q] @ bath_z[i] for q in range(len(qubits)))
    for i, chi in enumerate(bath.chi_i):
        h = h + chi * bath_z[i] @ bath_z[(i + 1) % bath.n_spins]
    return h


README = Path(__file__).resolve().parents[1] / "README.md"
PAIR = TwoQubitParams(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0, lam=3.0)
TIMES = np.linspace(0.0, 6.0, 13)


def refusal(limit):
    """The one message that refuses a bath of limit + 1 spins, one over the
    largest bath the oracle takes."""
    return re.escape("oracle dimension 2^13 exceeds the cap 4096; "
                     f"reduce the bath below {limit + 1} spins")


class TestBuildHamiltonian:
    def test_hermitian(self):
        matrix, _ = oracle._joint_matrix(small_system(), small_bath())
        assert np.abs(matrix - matrix.conj().T).max() == 0.0

    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
    @pytest.mark.parametrize("pair", [False, True])
    def test_matches_kronecker_construction(self, pair, boundary):
        system = PAIR if pair else small_system()
        qubits, lam = ((((PAIR.eps1, PAIR.delta1), (PAIR.eps2, PAIR.delta2)), PAIR.lam) if pair
                       else (((system.epsilon, system.delta),), 0.0))
        for seed in range(3):
            bath = small_bath(3, seed=20 + seed, boundary=boundary)
            matrix, _ = oracle._joint_matrix(system, bath)
            assert np.abs(matrix - kron_hamiltonian(qubits, lam, bath)).max() < 1e-13

    def test_diagonalizes_once(self, monkeypatch):
        h = build_hamiltonian(small_system(), small_bath())
        matrix, _ = oracle._joint_matrix(small_system(), small_bath())
        assert np.abs((h.vectors * h.energies) @ h.vectors.conj().T - matrix).max() < 1e-12
        calls = []
        monkeypatch.setattr(oracle, "hermitian_eig", lambda m: calls.append(m))
        rho0 = initial_state(h, Thermal(1.0), pure_state([0.6, 0.8]), correlated=True)
        for t in (0.0, 1.0, TIMES):
            evolve_and_reduce(h, rho0, t)
        assert calls == []

    def test_dimensions(self):
        h = build_hamiltonian(small_system(), small_bath(4))
        assert oracle._joint_matrix(small_system(), small_bath(4))[0].shape == (32, 32)
        assert h.vectors.shape == (32, 32)
        assert h.system_dim == 2 and h.bath_dim == 16

    def test_two_qubit_dimensions(self):
        sys2 = TwoQubitParams(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0, lam=3.0)
        h = build_hamiltonian(sys2, small_bath(3))
        assert oracle._joint_matrix(sys2, small_bath(3))[0].shape == (32, 32)
        assert h.vectors.shape == (32, 32)
        assert h.n_system == 2

    @pytest.mark.parametrize("system", [small_system(), PAIR], ids=["single", "pair"])
    def test_real_arithmetic(self, system):
        # only sigma_z and sigma_x enter, so the joint matrix is real symmetric
        h = build_hamiltonian(system, small_bath(3))
        assert oracle._joint_matrix(system, small_bath(3))[0].dtype == np.float64
        assert (h.energies.dtype, h.vectors.dtype) == (np.float64, np.float64)

    def test_capacity(self):
        bath = BathParams.uniform(13, 1.0, 1.0, 0.0)
        with pytest.raises(CapacityError):
            build_hamiltonian(small_system(), bath)

    def test_huge_bath_is_refused_at_once(self):
        with pytest.raises(CapacityError, match=r"2\^1000000000001 exceeds"):
            oracle.require_dimension(1, 10 ** 12)

    def test_readme_states_the_cap(self):
        text = " ".join(README.read_text().split())
        exponent = re.search(r"`DIMENSION_CAP` = 2\^(\d+)", text).group(1)
        single, pair = re.search(r"N <= (\d+) spins for one qubit and N <= (\d+) for a pair",
                                 text).groups()
        assert 1 << int(exponent) == DIMENSION_CAP
        assert (1 << (1 + int(single)), 1 << (2 + int(pair))) == (DIMENSION_CAP, DIMENSION_CAP)

    @pytest.mark.parametrize("system, limit", [(small_system(), 11), (PAIR, 10)],
                             ids=["single", "pair"])
    def test_one_spin_over_the_limit_is_refused_before_building(self, monkeypatch,
                                                                system, limit):
        def build(bath):
            raise AssertionError("Hamiltonian built")

        monkeypatch.setattr(oracle, "_bath_fields", build)
        with pytest.raises(CapacityError, match=refusal(limit)):
            build_hamiltonian(system, BathParams.uniform(limit + 1, 1.0, 1.0, 0.0))
        with pytest.raises(AssertionError, match="Hamiltonian built"):
            build_hamiltonian(system, BathParams.uniform(limit, 1.0, 1.0, 0.0))

    def test_rejects_unknown_system(self):
        with pytest.raises(ParameterError):
            build_hamiltonian(object(), small_bath())

    @pytest.mark.parametrize("boundary", list(Boundary))
    @pytest.mark.parametrize("n", range(1, 11))
    def test_bath_diagonal_matches_mask_sums(self, n, boundary):
        # bath energies agree with the per-pattern signed sums, modulo the
        # bit-reversal between the two index conventions; on the rings of one
        # and two spins the cut bond and the ring bond coincide or share a pair
        bath = small_bath(n, seed=5, boundary=boundary)
        h = build_hamiltonian(small_system(), bath)
        _, eps_sum, chi_sum = bath_sums(bath)
        masks = np.arange(1 << n)
        oracle_index = (((masks[:, None] >> np.arange(n)) & 1) << np.arange(n)[::-1]).sum(axis=1)
        np.testing.assert_allclose(h.bath_diagonal[oracle_index], 0.5 * eps_sum + chi_sum,
                                   rtol=0.0, atol=1e-12)

    def test_delta_couples_system_only(self):
        # with delta = 0 the single-qubit Hamiltonian is diagonal
        sys1 = SystemParams(epsilon=0.8, delta=0.0)
        bath = BathParams(2, (0.5, -0.3), (1.0, 0.7), (0.2,))
        matrix, _ = oracle._joint_matrix(sys1, bath)
        off = matrix - np.diag(np.diagonal(matrix))
        assert np.abs(off).max() == 0.0


class TestInitialState:
    def test_uncorrelated_is_product(self):
        bath = small_bath(3, seed=9)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([0.6, 0.8])
        th = Thermal(1.3)
        rho = initial_state(h, th, psi, correlated=False)
        weights = np.exp(-th.beta * (h.bath_diagonal - h.bath_diagonal.min()))
        bath_state = np.diag(weights / weights.sum())
        expected = np.kron(np.outer(psi, psi.conj()), bath_state)
        assert np.abs(rho - expected).max() < 1e-14

    def test_trace_one_and_positive(self):
        bath = small_bath(3, seed=2)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([1.0, 0.0])
        for correlated in (False, True):
            rho = initial_state(h, Thermal(2.0), psi, correlated)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_correlated_keeps_system_projector(self):
        # the system marginal of the correlated state is still |psi><psi|
        bath = small_bath(3, seed=4)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([0.6, 0.8j])
        rho = initial_state(h, Thermal(1.7), psi, correlated=True)
        ds, db = h.system_dim, h.bath_dim
        marginal = np.einsum("ibjb->ij", rho.reshape(ds, db, ds, db))
        assert np.abs(marginal - np.outer(psi, psi.conj())).max() < 1e-12

    @pytest.mark.parametrize("pair", [False, True], ids=["qubit", "pair"])
    def test_correlated_matches_whole_thermal_state(self, pair):
        # the psi-projected system block of the whole joint thermal state
        sys, psi = (PAIR, bell_state()) if pair else (small_system(), pure_state([0.6, 0.8j]))
        h = build_hamiltonian(sys, small_bath(3, seed=5))
        th = Thermal(1.9)
        weights = np.exp(-th.beta * (h.energies - h.energies.min()))
        thermal = (h.vectors * weights) @ h.vectors.conj().T
        ds, db = h.system_dim, h.bath_dim
        block = np.einsum("i,ibjc,j->bc", psi.conj(), thermal.reshape(ds, db, ds, db), psi)
        expected = np.kron(np.outer(psi, psi.conj()), block / np.trace(block).real)
        assert np.abs(initial_state(h, th, psi, correlated=True) - expected).max() < 1e-15

    def test_beta_zero_correlated_equals_uncorrelated(self):
        bath = small_bath(3, seed=6)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([0.6, 0.8])
        a = initial_state(h, Thermal(0.0), psi, correlated=False)
        b = initial_state(h, Thermal(0.0), psi, correlated=True)
        assert np.abs(a - b).max() < 1e-14

    def test_extreme_beta_finite(self):
        bath = small_bath(3, seed=8)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([1.0, 0.0])
        for correlated in (False, True):
            rho = initial_state(h, Thermal(200.0), psi, correlated)
            assert np.all(np.isfinite(rho.view(float)))
            assert abs(np.trace(rho).real - 1.0) < 1e-12


class TestEvolveAndReduce:
    def test_time_zero_is_partial_trace(self):
        bath = small_bath(3, seed=3)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([0.6, 0.8])
        rho0 = initial_state(h, Thermal(1.0), psi, correlated=False)
        rho = evolve_and_reduce(h, rho0, 0.0)
        assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-13

    def test_reduced_state_properties(self):
        bath = small_bath(3, seed=7)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([0.3, np.sqrt(1 - 0.09) * 1j])
        rho0 = initial_state(h, Thermal(1.5), psi, correlated=True)
        for t in (0.5, 1.5, 4.0):
            rho = evolve_and_reduce(h, rho0, t)
            assert rho.shape == (2, 2)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_purity_never_exceeds_one(self, seed):
        bath = small_bath(3, seed=seed)
        h = build_hamiltonian(small_system(), bath)
        psi = pure_state([0.6, 0.8])
        rho0 = initial_state(h, Thermal(1.0), psi, correlated=True)
        rho = evolve_and_reduce(h, rho0, 2.0)
        assert np.trace(rho @ rho).real <= 1.0 + 1e-12


class TestBatchedTimes:
    @pytest.mark.parametrize("boundary", [Boundary.OPEN, Boundary.PERIODIC])
    @pytest.mark.parametrize("pair", [False, True])
    def test_matches_textbook_partial_trace(self, pair, boundary):
        worst = 0.0
        for seed in range(3):
            bath = small_bath(3 if pair else 4, seed=seed, boundary=boundary)
            h = build_hamiltonian(PAIR if pair else small_system(), bath)
            rng = np.random.default_rng(100 + seed)
            amps = rng.standard_normal(h.system_dim) + 1j * rng.standard_normal(h.system_dim)
            psi = pure_state(amps / np.linalg.norm(amps))
            for beta in (0.0, 1.5, 200.0):
                for correlated in (False, True):
                    rho0 = initial_state(h, Thermal(beta), psi, correlated)
                    batched = evolve_and_reduce(h, rho0, TIMES)
                    assert batched.shape == (TIMES.size, h.system_dim, h.system_dim)
                    expected = np.array([textbook_reduce(h, rho0, t) for t in TIMES])
                    worst = max(worst, float(np.abs(batched - expected).max()))
        assert worst < 1e-12

    @pytest.mark.parametrize("pair", [False, True])
    def test_single_time_is_row_of_array_call(self, pair):
        h = build_hamiltonian(PAIR if pair else small_system(), small_bath(3, seed=12))
        psi = pure_state(np.full(h.system_dim, h.system_dim ** -0.5))
        rho0 = initial_state(h, Thermal(1.5), psi, correlated=True)
        batched = evolve_and_reduce(h, rho0, TIMES)
        for i, t in enumerate(TIMES):
            single = evolve_and_reduce(h, rho0, float(t))
            assert single.shape == (h.system_dim, h.system_dim)
            assert np.abs(single - batched[i]).max() < 1e-14

    @pytest.mark.parametrize("pair", [False, True])
    def test_chunk_size_does_not_matter(self, pair):
        # several kernel chunks against the whole kernel at once
        h = build_hamiltonian(PAIR if pair else small_system(), small_bath(4, seed=13))
        psi = pure_state(np.full(h.system_dim, h.system_dim ** -0.5))
        rho0 = initial_state(h, Thermal(1.5), psi, correlated=True)
        chunked = evolve_and_reduce(h, rho0, TIMES)
        assert np.abs(chunked - one_shot_reduce(h, rho0, TIMES)).max() < 1e-13

    def test_time_blocks_do_not_matter(self):
        # more times than the joint dimension take several time blocks
        h = build_hamiltonian(small_system(), small_bath(2, seed=14))
        rho0 = initial_state(h, Thermal(1.0), pure_state([0.6, 0.8]), correlated=True)
        times = np.linspace(0.0, 9.0, 3 * len(h.energies) + 1)
        batched = evolve_and_reduce(h, rho0, times)
        expected = np.array([textbook_reduce(h, rho0, t) for t in times])
        assert np.abs(batched - expected).max() < 1e-12

    @pytest.mark.parametrize("name, n", [("fig4", 4), ("fig13", 3)])
    def test_real_vectors_match_complex_ones(self, name, n):
        # the same joint matrix diagonalized as complex gives other eigenvector
        # phases, never other reduced states
        config = preset(name)
        system, bath = config.system, config.bath.resized(n).materialize()
        matrix, bath_diagonal = oracle._joint_matrix(system, bath)
        real = build_hamiltonian(system, bath)
        complex_h = FullHamiltonian(real.n_system, n, bath_diagonal,
                                    *hermitian_eig(matrix.astype(complex)))
        assert complex_h.vectors.dtype == np.complex128
        psi, times = config.state_vector(), config.grid.times()
        for correlated in (False, True):
            real_rho, complex_rho = (
                evolve_and_reduce(h, initial_state(h, config.thermal(), psi, correlated), times)
                for h in (real, complex_h))
            assert np.abs(real_rho - complex_rho).max() < 1e-12

    def test_rerun_is_bit_identical(self):
        h = build_hamiltonian(PAIR, small_bath(3, seed=15))
        rho0 = initial_state(h, Thermal(1.5), bell_state(), correlated=True)
        first = evolve_and_reduce(h, rho0, TIMES)
        assert np.array_equal(first, evolve_and_reduce(h, rho0, TIMES))

    def test_empty_times(self):
        h = build_hamiltonian(small_system(), small_bath(2))
        rho0 = initial_state(h, Thermal(1.0), pure_state([1.0, 0.0]), correlated=False)
        assert evolve_and_reduce(h, rho0, []).shape == (0, 2, 2)
        assert evolve_and_reduce(h, rho0[:0].reshape(0, 8, 8), TIMES).shape == (0, 13, 2, 2)


class TestStackedStates:
    @pytest.mark.parametrize("t", [1.7, TIMES], ids=["scalar_t", "array_t"])
    @pytest.mark.parametrize("amplitudes", [(0.6, 0.8), (0.6, 0.8j)], ids=["real", "complex"])
    @pytest.mark.parametrize("pair", [False, True], ids=["qubit", "pair"])
    def test_stack_matches_one_state_at_a_time(self, pair, amplitudes, t):
        h = build_hamiltonian(PAIR if pair else small_system(), small_bath(3, seed=16))
        psi = pure_state(np.kron(amplitudes, [1.0, 0.0]) if pair else amplitudes)
        rho0 = np.array([initial_state(h, Thermal(1.5), psi, correlated)
                         for correlated in (False, True)])
        stacked = evolve_and_reduce(h, rho0, t)
        assert stacked.shape == (2, *np.shape(t), h.system_dim, h.system_dim)
        for state, reduced in zip(rho0, stacked):
            assert np.abs(reduced - evolve_and_reduce(h, state, t)).max() < 1e-14

    @pytest.mark.parametrize("pair", [False, True], ids=["qubit", "pair"])
    def test_blocks_below_the_diagonal_are_conjugates(self, pair):
        h = build_hamiltonian(PAIR if pair else small_system(), small_bath(3, seed=17))
        psi = pure_state(np.full(h.system_dim, 0.5j if pair else 0.5 ** 0.5))
        rho = evolve_and_reduce(h, initial_state(h, Thermal(1.5), psi, True), TIMES)
        i, j = np.triu_indices(h.system_dim, 1)
        assert np.array_equal(rho[:, j, i], rho[:, i, j].conj())

    def test_non_hermitian_rho0_is_refused(self):
        h = build_hamiltonian(small_system(), small_bath(2))
        rho0 = initial_state(h, Thermal(1.0), pure_state([0.6, 0.8]), correlated=True)
        skewed = rho0.copy()
        skewed[0, 5] += 1e-3
        for bad in (skewed, np.array([rho0, skewed])):
            with pytest.raises(ParameterError, match=r"^rho0 is not Hermitian: max \|rho0"):
                evolve_and_reduce(h, bad, TIMES)


class TestEvolveInputs:
    @pytest.fixture
    def setup(self):
        h = build_hamiltonian(small_system(), small_bath(2))
        return h, initial_state(h, Thermal(1.0), pure_state([0.6, 0.8]), correlated=True)

    def test_wrong_shape_rho0(self, setup):
        h, rho0 = setup
        for bad in (rho0[:4, :4], rho0[0], np.zeros((8, 8, 1))):
            with pytest.raises(ParameterError, match=r"rho0 must have shape \(8, 8\)"):
                evolve_and_reduce(h, bad, 1.0)

    def test_non_finite_rho0(self, setup):
        h, rho0 = setup
        for value in (np.nan, np.inf, complex(0.0, np.nan)):
            bad = rho0.copy()
            bad[1, 2] = value
            with pytest.raises(ParameterError, match="rho0 has non-finite entries"):
                evolve_and_reduce(h, bad, 1.0)

    def test_non_numeric_rho0(self, setup):
        h, _ = setup
        with pytest.raises(ParameterError, match="rho0 must be numeric"):
            evolve_and_reduce(h, [["a"] * 8] * 8, 1.0)

    def test_bad_times(self, setup):
        h, rho0 = setup
        with pytest.raises(ParameterError, match="1-d array"):
            evolve_and_reduce(h, rho0, np.zeros((2, 3)))
        for bad in (np.nan, np.inf, [0.0, np.nan], None):
            with pytest.raises(ParameterError, match="time has non-finite entries"):
                evolve_and_reduce(h, rho0, bad)
        for bad in (1j, "soon", [0.0, [1.0]]):
            with pytest.raises(ParameterError, match="time must be numeric"):
                evolve_and_reduce(h, rho0, bad)

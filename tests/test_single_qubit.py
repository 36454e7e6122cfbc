"""Single-qubit weighted trajectories."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import single_qubit, two_qubit
from spinbath.configspace import Backend, collapse_classes
from spinbath.errors import CapacityError, ParameterError
from spinbath.model import (BathParams, Boundary, SystemParams, Thermal, bloch_components,
                            class_quantities, config_quantities, log_correlation_factor,
                            pure_state)
from spinbath.numerics import hermitian_eig
from spinbath.oracle import build_hamiltonian, evolve_and_reduce, initial_state
from spinbath.single_qubit import _qubit_fields, bloch_trajectory
from spinbath.two_qubit import TwoQubitParams, bell_state, density_trajectory

PLUS_X = pure_state([2 ** -0.5, 2 ** -0.5])
# prepared along +x, +y and +z
AXIS_STATES = (PLUS_X, pure_state([2 ** -0.5, 1j * 2 ** -0.5]), pure_state([1.0, 0.0]))


def random_inputs(seed, n=4):
    rng = np.random.default_rng(seed)
    sys1 = SystemParams(epsilon=float(rng.uniform(-2, 2)), delta=float(rng.uniform(-2, 2)))
    bath = BathParams(n, tuple(rng.uniform(-2, 2, n)), tuple(rng.uniform(-2, 2, n)),
                      tuple(rng.uniform(-1, 1, n - 1)))
    amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi = pure_state(amps / np.linalg.norm(amps))
    return sys1, bath, psi


def bloch_of_density(rho):
    """Bloch vectors (..., 3) of one qubit density matrix or a stack of them."""
    return np.stack([2.0 * rho[..., 0, 1].real, -2.0 * rho[..., 0, 1].imag,
                     (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


class TestPropagatorStructure:
    def test_identity_at_zero_time(self):
        # at t = 0 every rotation is the identity, so each axis preparation
        # comes back bit for bit in both series
        sys1, bath, _ = random_inputs(17)
        th = Thermal(1.4)
        for psi in AXIS_STATES:
            points = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi,
                                      np.array([0.0]), (False, True))
            assert np.array_equal(points, np.broadcast_to(bloch_components(psi), (2, 1, 3)))
            assert not points.flags.writeable

    def test_normalizer_positive(self):
        # each series' weights are kept as logs, so their sum stays finite
        # even where exp() of it would overflow or underflow
        sys1, bath, psi = random_inputs(23)
        for beta in (2.0, 2000.0):
            th = Thermal(beta)
            points = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi,
                                      np.array([1.3]), (False, True))
            assert np.all(np.isfinite(points))
            *_, log_weight = _qubit_fields(sys1, bath, th, Backend.ENUMERATE, psi,
                                           (False, True))
            assert np.all(np.isfinite(np.logaddexp.reduce(log_weight, axis=0)))

    def test_uncorrelated_normalizer_is_bath_partition(self):
        # sum of thermal weights equals the brute-force bath trace
        sys1, bath, psi = random_inputs(31)
        th = Thermal(1.7)
        *_, log_weight = _qubit_fields(sys1, bath, th, Backend.ENUMERATE, psi, (False,))
        partition = math.exp(np.logaddexp.reduce(log_weight[:, 0]))
        h = build_hamiltonian(sys1, bath)
        expected = float(np.exp(-th.beta * h.bath_diagonal).sum())
        assert partition == pytest.approx(expected, rel=1e-12)

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=12.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_map_never_expands_bloch_vectors(self, seed, t):
        sys1, bath, psi = random_inputs(seed)
        points = bloch_trajectory(sys1, bath, Thermal(1.1), Backend.ENUMERATE, psi,
                                  np.array([t]), (False, True))
        p0 = np.array(bloch_components(psi))
        assert np.linalg.norm(points, axis=-1).max() <= np.linalg.norm(p0) + 1e-9


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
        rho = evolve_and_reduce(h, initial_state(h, th, psi, correlated), times)
        assert np.abs(points - bloch_of_density(rho)).max() < 1e-9


def rodrigues_parts(sys1, bath, th, backend, psi, correlated):
    """The prepared Bloch vector, each field's rabi frequency and log weights,
    and Rodrigues' n x p0 and p0 - n (n . p0) per field as (fields, 3)
    arrays, written out with np.cross and a stacked axis."""
    p0 = np.array(bloch_components(psi))
    splitting, rabi, log_weight = _qubit_fields(sys1, bath, th, backend, psi, correlated)
    u = np.divide(splitting, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)
    v = np.divide(sys1.delta, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)
    axis = np.stack((v, np.zeros_like(v), u), axis=-1)
    normal = np.cross(axis, p0)
    in_plane = p0 - axis * (v * p0[0] + u * p0[2])[:, None]
    return p0, rabi, log_weight, normal, in_plane


def textbook_trajectory(sys1, bath, th, backend, psi, times, correlated):
    """p0 plus the Rodrigues displacement in its sin/cos form, summed over
    the fields directly under normalized weights: (S, T, 3)."""
    p0, rabi, log_weight, normal, in_plane = rodrigues_parts(sys1, bath, th, backend, psi,
                                                             correlated)
    weight = np.exp(log_weight - log_weight.max(axis=0))
    weight /= weight.sum(axis=0)
    angle = 2.0 * rabi[:, None, None] * np.asarray(times)[:, None]
    displacement = normal[:, None] * np.sin(angle) - in_plane[:, None] * (1.0 - np.cos(angle))
    return p0 + (weight.T[:, :, None, None] * displacement).sum(axis=1)


RODRIGUES_STATES = AXIS_STATES + (pure_state([-0.6, 0.8]), pure_state([0.28, -0.96j]))


class TestRodrigues:
    @pytest.mark.parametrize("backend", list(Backend))
    def test_matches_sin_cos_sum(self, backend):
        # the spectral sweep against the textbook (n x p0) sin(2 rabi t) -
        # perp (1 - cos(2 rabi t)), summed directly: they differ by the
        # rounding of tan against sin and cos and by the summation order
        sys1 = SystemParams(epsilon=0.7, delta=-1.1)
        th = Thermal(1.5)
        times = np.linspace(0.0, 40.0, 81)
        for boundary in Boundary:
            if backend is Backend.COLLAPSE:
                bath = BathParams.uniform(30, 0.4, 0.3, -0.2, boundary)
            else:
                rng = np.random.default_rng(7)
                bonds = 8 if boundary is Boundary.PERIODIC else 7
                bath = BathParams(8, tuple(rng.uniform(-2, 2, 8)), tuple(rng.normal(0, 1, 8)),
                                  tuple(rng.uniform(-1, 1, bonds)), boundary)
            for psi in RODRIGUES_STATES:
                got = bloch_trajectory(sys1, bath, th, backend, psi, times, (False, True))
                want = textbook_trajectory(sys1, bath, th, backend, psi, times, (False, True))
                assert np.abs(got - want).max() <= 1e-14

    def test_quarter_turn_of_the_tangent_is_a_half_turn(self):
        # g = 0 leaves one field; at rabi t within an ulp of pi/2, tau is
        # about 1e16 and d tends to -2 (p0 - n (n . p0)): the rotation by pi
        # that maps p0 to 2 n (n . p0) - p0
        sys1 = SystemParams(epsilon=0.7, delta=-1.1)
        bath = BathParams.uniform(3, 0.4, 0.0, -0.2)
        th = Thermal(1.5)
        rabi = 0.5 * math.hypot(sys1.epsilon, sys1.delta)
        quarter = (math.pi / 2) / rabi
        times = np.array([math.nextafter(quarter, 0.0), quarter, math.nextafter(quarter, 9.0)])
        assert np.abs(rabi * times - math.pi / 2).max() <= 2 * math.ulp(math.pi / 2)
        assert np.abs(np.tan(rabi * times)).min() > 1e15
        n = np.array([sys1.delta, 0.0, sys1.epsilon]) / (2.0 * rabi)
        for psi in RODRIGUES_STATES:
            p0 = np.array(bloch_components(psi))
            got = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, (False, True))
            assert np.abs(got - (2.0 * n * (n @ p0) - p0)).max() <= 1e-15
            want = textbook_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times,
                                       (False, True))
            assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("backend", list(Backend))
    def test_zero_rabi_leaves_p0_in_place(self, backend):
        # epsilon = delta = g = 0: every field has rabi == 0, so every phase
        # factor 1 - exp(-2i rabi t) is exactly 0, the displacement is a
        # signed zero, and the prepared vector comes back at every time
        sys1 = SystemParams(epsilon=0.0, delta=0.0)
        bath = BathParams.uniform(5, 0.4, 0.0, -0.2)
        times = np.array([0.0, 0.5, 7.0, 1e6])
        for psi in RODRIGUES_STATES:
            got = bloch_trajectory(sys1, bath, Thermal(1.5), backend, psi, times, (False, True))
            assert np.array_equal(got, np.broadcast_to(bloch_components(psi), got.shape))

    @pytest.mark.parametrize("backend", list(Backend))
    def test_time_zero_rows_are_p0_bit_for_bit(self, backend):
        # (-0.6, 0.8) has p_y == -0.0 and (0.28, -0.96j) has p_x == -0.0: the
        # rows at t == 0 are the prepared components themselves, signed
        # zeros included, in every series and requested component
        sys1 = SystemParams(epsilon=0.7, delta=-1.1)
        bath = BathParams.uniform(8, 0.4, 0.3, -0.2)
        for psi in (pure_state([-0.6, 0.8]), pure_state([0.28, -0.96j])):
            p0 = np.array(bloch_components(psi))
            for components in ("xyz", "y", "zx"):
                idx = ["xyz".index(letter) for letter in components]
                got = bloch_trajectory(sys1, bath, Thermal(1.5), backend, psi,
                                       [0.0, 0.0, 1.0], (False, True), components)
                assert got[:, :2].tobytes() == np.tile(p0[idx], (2, 2, 1)).tobytes()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_time_zero_displacement_is_exactly_zero(self, seed):
        # every phase is 1 at t == 0, where p0 comes back in every series
        # and component, states with zero components included
        sys1, bath, _ = random_inputs(seed, n=6)
        for psi in RODRIGUES_STATES + (pure_state([0.6, -0.8]), pure_state([-0.28j, 0.96])):
            got = bloch_trajectory(sys1, bath, Thermal(1.2), Backend.ENUMERATE, psi,
                                   np.array([0.0, 1.0]), (False, True))
            assert np.array_equal(got[:, 0], np.broadcast_to(bloch_components(psi), (2, 3)))


# every non-empty ordered choice of distinct letters from "xyz": 3 + 6 + 6
ORDERED_COMPONENTS = tuple("".join(letters) for size in (1, 2, 3)
                           for letters in itertools.permutations("xyz", size))


class TestComponents:
    # n = 12 enumerates 4,096 fields, and at 4 points the sweep's item blocks
    # then differ with the number of components, so the tree over fields is
    # split into blocks differently
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(list(Backend)),
           st.sampled_from(list(Boundary)), st.sampled_from([1, 4, 12]),
           st.sampled_from([1, 4, 40]), st.sampled_from([(False,), (True,), (False, True)]))
    @settings(max_examples=25, deadline=None)
    def test_requested_components_are_the_full_calls_columns(self, seed, backend, boundary,
                                                              n, n_points, flags):
        rng = np.random.default_rng(seed)
        sys1 = SystemParams(epsilon=float(rng.uniform(-2, 2)), delta=float(rng.uniform(-2, 2)))
        bonds = n if boundary is Boundary.PERIODIC else n - 1
        if backend is Backend.COLLAPSE:
            bath = BathParams.uniform(n, *rng.uniform(-2, 2, 2), float(rng.uniform(-1, 1)),
                                      boundary)
        else:
            bath = BathParams(n, tuple(rng.uniform(-2, 2, n)), tuple(rng.normal(0, 1, n)),
                              tuple(rng.uniform(-1, 1, bonds)), boundary)
        amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = pure_state(amps / np.linalg.norm(amps))
        th = Thermal(float(rng.uniform(0, 3)))
        times = np.sort(rng.uniform(0, 10, n_points))
        full = bloch_trajectory(sys1, bath, th, backend, psi, times, flags)
        p0 = np.array(bloch_components(psi))
        for components in ORDERED_COMPONENTS:
            idx = ["xyz".index(letter) for letter in components]
            part = bloch_trajectory(sys1, bath, th, backend, psi, times, flags, components)
            assert np.array_equal(part, full[..., idx])
            assert not part.flags.writeable
            at_zero = bloch_trajectory(sys1, bath, th, backend, psi, [0.0], flags, components)
            assert np.array_equal(at_zero, np.broadcast_to(p0[idx], (len(flags), 1, len(idx))))


class TestEnumerateSetup:
    @pytest.mark.parametrize("n", [40, 62])
    def test_cap_checked_before_any_allocation(self, n):
        # 2^40 masks would need 32 TiB of sums, and the sums of 2^62 masks
        # exceed what numpy can address; both are refused by name before
        # numpy is asked for the buffer
        rng = np.random.default_rng(n)
        bath = BathParams(n, (1.0,) * n, tuple(rng.normal(1.0, 0.2, n)), (0.1,) * (n - 1))
        times, th = np.linspace(0.0, 1.0, 3), Thermal(1.0)
        with pytest.raises(CapacityError):
            bloch_trajectory(SystemParams(epsilon=2.0, delta=1.0), bath, th,
                             Backend.ENUMERATE, PLUS_X, times, (False,))
        with pytest.raises(CapacityError):
            density_trajectory(TwoQubitParams(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0),
                               bath, th, Backend.ENUMERATE, bell_state(), times, (False,))


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

    def test_class_quantities_sees_folded_items(self, monkeypatch):
        # per-class log weights come from class_sums; splitting and rabi are
        # needed only on the N + 1 down-spin counts
        sizes = []

        def recorded(sys1, bath, k, w):
            sizes.append(len(k))
            return class_quantities(sys1, bath, k, w)

        monkeypatch.setattr(single_qubit, "class_quantities", recorded)
        n = 50
        bath = BathParams.uniform(n, 1.0, 1.0, 0.1, Boundary.PERIODIC)
        bloch_trajectory(SystemParams(epsilon=2.0, delta=1.0), bath, Thermal(1.0),
                         Backend.COLLAPSE, PLUS_X, np.linspace(0.0, 1.0, 3), (False, True))
        assert sizes == [n + 1]

    @pytest.mark.parametrize("gaussian", [False, True], ids=["uniform_g", "gaussian_g"])
    def test_enumerate_sees_folded_fields(self, monkeypatch, gaussian):
        # with g = 1, exactly representable, the 2^N masks fold onto the N + 1
        # fields g (N - 2k) before any qubit work; Gaussian couplings give
        # every mask its own field. The one-qubit splitting and rabi, the
        # correlation factor and the pair eigensolve each see only the fields
        rows = []

        def quantities(sys1, g_sum):
            rows.append(len(g_sum))
            return config_quantities(sys1, g_sum)

        def factor(sys1, th, splitting, rabi, psi):
            rows.append(len(splitting))
            return log_correlation_factor(sys1, th, splitting, rabi, psi)

        def eig(matrix):
            rows.append(len(matrix))
            return hermitian_eig(matrix)

        monkeypatch.setattr(single_qubit, "config_quantities", quantities)
        monkeypatch.setattr(single_qubit, "log_correlation_factor", factor)
        monkeypatch.setattr(two_qubit, "hermitian_eig", eig)
        n = 10
        g = np.random.default_rng(4).normal(1.0, 0.2, n) if gaussian else np.ones(n)
        bath = BathParams(n, (1.0,) * n, tuple(g), (0.1,) * (n - 1))
        times, th = np.linspace(0.0, 1.0, 3), Thermal(1.0)
        bloch_trajectory(SystemParams(epsilon=2.0, delta=1.0), bath, th, Backend.ENUMERATE,
                         PLUS_X, times, (False, True))
        density_trajectory(TwoQubitParams(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0, lam=3.0),
                           bath, th, Backend.ENUMERATE, bell_state(), times, (False, True))
        assert rows == 3 * [1 << n if gaussian else n + 1]


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

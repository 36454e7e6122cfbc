"""Exact symmetries of the model, each relating two public trajectory calls.

The qubits' Hamiltonians are real and the bath enters through the coupling
field alone, so five maps of the inputs act on the outputs in closed form:

  time reversal    (psi*, -t) gives the complex-conjugate state: p_y -> -p_y
                   for one qubit, rho -> rho* for a pair;
  sigma_x          (epsilon, g_i, psi) -> (-epsilon, -g_i, sigma_x psi) gives
                   (p_x, -p_y, -p_z), with every field and splitting negated
                   and the fold's field order reversed;
  qubit exchange   (eps1, delta1) <-> (eps2, delta2) with SWAP psi gives
                   SWAP rho SWAP;
  energy scaling   every energy times s, with beta / s and t / s, leaves the
                   trajectory as it is;
  site relabelling reversing an open chain or rotating a ring, its site and
                   bond values with it, leaves the trajectory as it is.

They hold at every N and in both backends (relabelling in enumerate alone:
a collapsed bath is uniform, so relabelling leaves it as it is), so they check the bath stage and
the sweep where the oracle cannot go. The equal-series limits at beta = 0 and
g = 0 are acceptance criterion 3 and are not repeated here.

One relation is not a map: on a uniform bath that both backends sum, the
enumerated 2^N patterns and the collapsed (k, w) classes give the same
trajectory.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.configspace import Backend
from spinbath.model import BathParams, Boundary, SystemParams, Thermal, pure_state
from spinbath.single_qubit import bloch_trajectory
from spinbath.two_qubit import TwoQubitParams, density_trajectory

# the same sums in another order: the sigma_x map reverses the fold's field
# order, and time reversal conjugates each term (bit-exact while the phase
# formula is odd in t). Over 600 random cases of these strategies sigma_x
# moved at most 2.0e-15, and time reversal nothing
REORDER_TOL = 1e-13
# where t / s rounds, the pair's eigensolver sees a permuted or scaled
# matrix, or relabelled sites add a pattern's sums in another order, each
# phase angle w t moves by a few eps |w t| (README: the rounding of the
# angles grows like eps |E| t). Over the same cases exchange and scaling
# moved at most 4.1e-14 at N <= 12 and 2.0e-12 in collapse, where angles
# reach 8,000: at most 0.22 of the bound. Relabelling moved at most 2.8e-14
# (0.06 of the bound) over 600 enumerate cases
ANGLE_EPS = 4 * np.finfo(float).eps
SERIES = (False, True)
# qubit 1 is the most significant bit of a pair's index
SWAP = [0, 2, 1, 3]
CASES = [(backend, boundary) for backend in Backend for boundary in Boundary]
CASE_IDS = [f"{backend.value}-{boundary.value}" for backend, boundary in CASES]


def random_case(seed, backend, boundary):
    """A bath of backend's kind (enumerate at N <= 12 with random site
    values, collapse up to N = 400), a thermal record and an ascending time
    grid of up to 12 points."""
    rng = np.random.default_rng(seed)
    if backend is Backend.COLLAPSE:
        bath = BathParams.uniform(int(rng.integers(13, 401)), *rng.uniform(-2.0, 2.0, 3),
                                  boundary)
    else:
        n = int(rng.integers(1, 13))
        bonds = n if boundary is Boundary.PERIODIC else n - 1
        bath = BathParams(n, tuple(rng.uniform(-2.0, 2.0, n)), tuple(rng.uniform(-2.0, 2.0, n)),
                          tuple(rng.uniform(-1.0, 1.0, bonds)), boundary)
    return (rng, bath, *thermal_and_times(rng))


def thermal_and_times(rng):
    """A thermal record and an ascending time grid of up to 12 points."""
    times = np.sort(rng.uniform(0.0, 10.0, int(rng.integers(1, 13))))
    return Thermal(float(rng.uniform(0.0, 3.0))), times


def uniform_case(seed, boundary):
    """A uniform bath of N <= 14, with eps, g and chi drawn in [-2, 2], that
    both backends sum, a thermal record and an ascending time grid."""
    rng = np.random.default_rng(seed)
    bath = BathParams.uniform(int(rng.integers(1, 15)), *rng.uniform(-2.0, 2.0, 3), boundary)
    return (rng, bath, *thermal_and_times(rng))


def random_state(rng, size):
    amplitudes = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return pure_state(amplitudes / np.linalg.norm(amplitudes))


def scaled_bath(bath, s):
    return BathParams(bath.n_spins, tuple(s * x for x in bath.eps_i),
                      tuple(s * x for x in bath.g_i), tuple(s * x for x in bath.chi_i),
                      bath.boundary)


def rerounded_tol(times, bath, *energies):
    """REORDER_TOL plus ANGLE_EPS times a bound on the largest phase angle:
    no angular frequency exceeds twice the sum of the system's energies and
    the couplings' magnitudes."""
    scale = 2.0 * (sum(map(abs, energies)) + sum(map(abs, bath.g_i)))
    return REORDER_TOL + ANGLE_EPS * times[-1] * scale


def relabelled_bath(bath, rng):
    """bath with its sites reversed (open chain) or rotated by a random
    step (ring): bond i joins sites i and i + 1, so the bonds move with the
    sites."""
    step = int(rng.integers(0, bath.n_spins))

    def order(values):
        return tuple(values[::-1] if bath.boundary is Boundary.OPEN else np.roll(values, -step))

    return BathParams(bath.n_spins, order(bath.eps_i), order(bath.g_i), order(bath.chi_i),
                      bath.boundary)


def reversed_times(times):
    """-times, ascending as the trajectories require: row i is -times[-1 - i]."""
    return -times[::-1]


seeds = given(st.integers(min_value=0, max_value=2**32 - 1))
examples = settings(max_examples=6, deadline=None, derandomize=True)


@pytest.mark.parametrize("backend, boundary", CASES, ids=CASE_IDS)
class TestOneQubit:
    @seeds
    @examples
    def test_time_reversal(self, backend, boundary, seed):
        rng, bath, th, times = random_case(seed, backend, boundary)
        sys1 = SystemParams(*rng.uniform(-3.0, 3.0, 2))
        psi = random_state(rng, 2)
        p = bloch_trajectory(sys1, bath, th, backend, psi, times, SERIES)
        back = bloch_trajectory(sys1, bath, th, backend, psi.conj(), reversed_times(times),
                                SERIES)
        assert np.abs(back[:, ::-1] - p * [1.0, -1.0, 1.0]).max() <= REORDER_TOL

    @seeds
    @examples
    def test_sigma_x_conjugation(self, backend, boundary, seed):
        rng, bath, th, times = random_case(seed, backend, boundary)
        epsilon, delta = rng.uniform(-3.0, 3.0, 2)
        psi = random_state(rng, 2)
        p = bloch_trajectory(SystemParams(epsilon, delta), bath, th, backend, psi, times, SERIES)
        flipped = BathParams(bath.n_spins, bath.eps_i, tuple(-g for g in bath.g_i), bath.chi_i,
                             bath.boundary)
        q = bloch_trajectory(SystemParams(-epsilon, delta), flipped, th, backend, psi[::-1],
                             times, SERIES)
        assert np.abs(q - p * [1.0, -1.0, -1.0]).max() <= REORDER_TOL

    @seeds
    @examples
    def test_energy_scaling(self, backend, boundary, seed):
        rng, bath, th, times = random_case(seed, backend, boundary)
        epsilon, delta = rng.uniform(-3.0, 3.0, 2)
        psi, s = random_state(rng, 2), float(rng.uniform(0.2, 5.0))
        p = bloch_trajectory(SystemParams(epsilon, delta), bath, th, backend, psi, times, SERIES)
        q = bloch_trajectory(SystemParams(s * epsilon, s * delta), scaled_bath(bath, s),
                             Thermal(th.beta / s), backend, psi, times / s, SERIES)
        assert np.abs(q - p).max() <= rerounded_tol(times, bath, epsilon, delta)


@pytest.mark.parametrize("backend, boundary", CASES, ids=CASE_IDS)
class TestPair:
    @staticmethod
    def system(rng):
        return TwoQubitParams(*rng.uniform(-3.0, 3.0, 5))

    @seeds
    @examples
    def test_time_reversal(self, backend, boundary, seed):
        rng, bath, th, times = random_case(seed, backend, boundary)
        sys2, psi = self.system(rng), random_state(rng, 4)
        rho = density_trajectory(sys2, bath, th, backend, psi, times, SERIES)
        back = density_trajectory(sys2, bath, th, backend, psi.conj(), reversed_times(times),
                                  SERIES)
        assert np.abs(back[:, ::-1] - rho.conj()).max() <= REORDER_TOL

    @seeds
    @examples
    def test_qubit_exchange(self, backend, boundary, seed):
        rng, bath, th, times = random_case(seed, backend, boundary)
        sys2, psi = self.system(rng), random_state(rng, 4)
        rho = density_trajectory(sys2, bath, th, backend, psi, times, SERIES)
        exchanged = TwoQubitParams(sys2.eps2, sys2.eps1, sys2.delta2, sys2.delta1, sys2.lam)
        swapped = density_trajectory(exchanged, bath, th, backend, psi[SWAP], times, SERIES)
        assert (np.abs(swapped - rho[..., SWAP, :][..., SWAP]).max()
                <= rerounded_tol(times, bath, *vars(sys2).values()))

    @seeds
    @examples
    def test_energy_scaling(self, backend, boundary, seed):
        rng, bath, th, times = random_case(seed, backend, boundary)
        sys2, psi, s = self.system(rng), random_state(rng, 4), float(rng.uniform(0.2, 5.0))
        rho = density_trajectory(sys2, bath, th, backend, psi, times, SERIES)
        scaled = TwoQubitParams(*(s * x for x in (sys2.eps1, sys2.eps2, sys2.delta1,
                                                  sys2.delta2, sys2.lam)))
        q = density_trajectory(scaled, scaled_bath(bath, s), Thermal(th.beta / s), backend,
                               psi, times / s, SERIES)
        assert np.abs(q - rho).max() <= rerounded_tol(times, bath, *vars(sys2).values())


@pytest.mark.parametrize("boundary", list(Boundary), ids=[b.value for b in Boundary])
class TestSiteRelabelling:
    @seeds
    @examples
    def test_one_qubit(self, boundary, seed):
        rng, bath, th, times = random_case(seed, Backend.ENUMERATE, boundary)
        sys1, psi = SystemParams(*rng.uniform(-3.0, 3.0, 2)), random_state(rng, 2)
        p = bloch_trajectory(sys1, bath, th, Backend.ENUMERATE, psi, times, SERIES)
        q = bloch_trajectory(sys1, relabelled_bath(bath, rng), th, Backend.ENUMERATE, psi,
                             times, SERIES)
        assert np.abs(q - p).max() <= rerounded_tol(times, bath, *vars(sys1).values())

    @seeds
    @examples
    def test_pair(self, boundary, seed):
        rng, bath, th, times = random_case(seed, Backend.ENUMERATE, boundary)
        sys2, psi = TestPair.system(rng), random_state(rng, 4)
        rho = density_trajectory(sys2, bath, th, Backend.ENUMERATE, psi, times, SERIES)
        q = density_trajectory(sys2, relabelled_bath(bath, rng), th, Backend.ENUMERATE, psi,
                               times, SERIES)
        assert np.abs(q - rho).max() <= rerounded_tol(times, bath, *vars(sys2).values())


# enumerate sums bath_sums' 2^N patterns, collapse the closed-form (k, w)
# classes with their multiplicities, so a defect in either table or in a
# weight alone (a dropped multiplicity) shows here, at g != 1 where the
# partial sums round. Over 300 cases they moved at most 0.12 of the bound
@pytest.mark.parametrize("boundary", list(Boundary), ids=[b.value for b in Boundary])
class TestBackendsAgree:
    @seeds
    @examples
    def test_one_qubit(self, boundary, seed):
        rng, bath, th, times = uniform_case(seed, boundary)
        sys1, psi = SystemParams(*rng.uniform(-3.0, 3.0, 2)), random_state(rng, 2)
        p, q = (bloch_trajectory(sys1, bath, th, backend, psi, times, SERIES)
                for backend in Backend)
        assert np.abs(q - p).max() <= rerounded_tol(times, bath, *vars(sys1).values())

    @seeds
    @examples
    def test_pair(self, boundary, seed):
        rng, bath, th, times = uniform_case(seed, boundary)
        sys2, psi = TestPair.system(rng), random_state(rng, 4)
        rho, q = (density_trajectory(sys2, bath, th, backend, psi, times, SERIES)
                  for backend in Backend)
        assert np.abs(q - rho).max() <= rerounded_tol(times, bath, *vars(sys2).values())

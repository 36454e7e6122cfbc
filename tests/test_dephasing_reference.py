"""Large baths against the closed form of pure dephasing.

With delta = 0 and chi = 0 every bath spin dephases the qubit on its own, so
the coherence of a qubit prepared along +x is a product over the spins
(Cucchietti, Paz and Zurek, Phys. Rev. A 72, 052113 (2005)). Under the
product preparation

    p_x(t) = Re[e^{i eps t} prod_i cosh(beta eps_i/2 - i g_i t) / cosh(beta eps_i/2)].

The correlated preparation weighs each bath pattern b by
cosh(beta (eps + G_b)/2), G_b the pattern's coupling field, which splits
into two products,

    1/2 sum_{sigma = +-1} e^{sigma beta eps/2}
        prod_i sum_{s = +-1} e^{-beta eps_i s/2 + sigma beta g_i s/2 + i g_i s t},

normalized by the same sum at t = 0.

A pair with delta1 = delta2 = 0 factors the same way. Every conditional
Hamiltonian is diagonal in the product basis |s1 s2>, with energies
E_b(s) = ((eps1 + G_b) s1 + (eps2 + G_b) s2)/2 + lam s1 s2, so

    rho_ss'(t) = psi_s psi*_s' sum_b W_b e^{-i (E_b(s) - E_b(s')) t} / sum_b W_b,

and G_b enters the phase only through c = (s1 + s2 - s1' - s2')/2, which
multiplies g_i t for every spin. The correlated preparation adds one product
per basis state r, weighted by |psi_r|^2 e^{-beta ((eps1 r1 + eps2 r2)/2 + lam r1 r2)},
with beta g_i (r1 + r2)/2 added to each spin's exponent.

All of these are evaluated here in log space, from nothing but numpy, and
checked against the package's collapse sum at N = 1,000 and its enumerate
sum on Gaussian parameters.
"""

import numpy as np
import pytest

from spinbath import (Backend, BathParams, Boundary, SystemParams, Thermal, TwoQubitParams,
                      bell_state, bloch_trajectory, density_trajectory, pure_state)

EPSILON = 2.0
TIMES = np.linspace(0.0, 10.0, 41)
# over 100 times the largest deviation measured (7.7e-13: collapse at
# N = 1,000, beta = 5; a pair entry's largest, 2.0e-13, is there too): the
# log-space sums over 1,001 fields and their reference differ only by
# rounding in logs of size up to about 10^3
TOLERANCE = 1e-10


def log_two_cosh(z):
    """log(2 cosh z), elementwise, finite for any real part of z."""
    z = np.where(z.real < 0.0, -z, z)
    return z + np.log1p(np.exp(-2.0 * z))


def reference_px(beta, eps_i, g_i, correlated):
    """p_x over TIMES of a +x qubit with splitting EPSILON and no tunneling,
    in a bath without bonds."""
    eps_i, g_i = np.asarray(eps_i), np.asarray(g_i)
    t = np.concatenate(([0.0], TIMES))[:, None]
    sigmas = (1.0, -1.0) if correlated else (0.0,)
    # spins on the contiguous last axis, which numpy sums pairwise
    logs = np.array([sigma * beta * EPSILON / 2.0 + log_two_cosh(
        -beta * eps_i / 2.0 + sigma * beta * g_i / 2.0 + 1j * g_i * t).sum(axis=-1)
        for sigma in sigmas])
    # no term exceeds its own value at t = 0 in modulus
    total = np.exp(logs - logs[:, 0].real.max()).sum(axis=0)
    return (np.exp(1j * EPSILON * TIMES) * total[1:] / total[0]).real


def package_px(bath, beta, backend):
    plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    bloch = bloch_trajectory(SystemParams(EPSILON, 0.0), bath, Thermal(beta), backend,
                             plus_x, TIMES, (False, True))
    return bloch[..., 0]


BETAS = [0.01, 1.0, 5.0]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("boundary", list(Boundary))
def test_collapse_matches_the_closed_form_at_a_thousand_spins(boundary, beta):
    n = 1_000
    bath = BathParams.uniform(n, 1.0, 0.05, 0.0, boundary)
    computed = package_px(bath, beta, Backend.COLLAPSE)
    for series, correlated in enumerate((False, True)):
        expected = reference_px(beta, bath.eps_i, bath.g_i, correlated)
        assert np.abs(computed[series] - expected).max() <= TOLERANCE


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", [12, 16])
def test_enumerate_matches_the_closed_form_on_gaussian_parameters(n, beta):
    rng = np.random.default_rng(n)
    eps_i, g_i = rng.normal(1.0, 0.3, n), rng.normal(0.2, 0.1, n)
    bath = BathParams(n, tuple(eps_i), tuple(g_i), (0.0,) * (n - 1))
    computed = package_px(bath, beta, Backend.ENUMERATE)
    for series, correlated in enumerate((False, True)):
        expected = reference_px(beta, eps_i, g_i, correlated)
        assert np.abs(computed[series] - expected).max() <= TOLERANCE


PAIR_EPS = (1.0, 2.0)
# every other point of TIMES: the pair's sweep costs 16 entries per point
PAIR_TIMES = TIMES[::2]
# sigma_z of qubit 1 and qubit 2 on the basis states, qubit 1 most significant
S1, S2 = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
# c = (s1 + s2 - s1' - s2')/2 of each entry, in {-2, .., 2}
C = ((S1 + S2)[:, None] - (S1 + S2)[None, :]) / 2.0
BELL = bell_state()
GENERIC = pure_state(np.array([0.3 + 0.1j, -0.5j, 0.6, 0.2 - 0.4j]) / np.sqrt(0.91))


def reference_rho(beta, lam, psi, eps_i, g_i, correlated):
    """(T, 4, 4) reduced pair states over PAIR_TIMES of the state psi with
    splittings PAIR_EPS, coupling lam and no tunneling, in a bath without
    bonds."""
    eps_i, g_i = np.asarray(eps_i), np.asarray(g_i)
    energy = 0.5 * (PAIR_EPS[0] * S1 + PAIR_EPS[1] * S2) + lam * S1 * S2
    populations = np.abs(psi) ** 2
    # (log prefactor, (r1 + r2)/2) of each preparation term; zero
    # populations drop out
    terms = ([(np.log(populations[r]) - beta * energy[r], (S1[r] + S2[r]) / 2.0)
              for r in range(4) if populations[r] > 0.0] if correlated else [(0.0, 0.0)])
    # equal spins give equal factors, so each distinct (eps_i, g_i) is taken
    # once, times its count, on the last axis; one column per c, then one
    # row per time
    (eps_i, g_i), counts = np.unique(np.stack((eps_i, g_i)), axis=1, return_counts=True)
    ct = np.concatenate(([0.0], PAIR_TIMES))[:, None, None] * np.arange(-2.0, 3.0)[:, None]
    logs = np.array([prefactor + (counts * log_two_cosh(
        beta * eps_i / 2.0 + beta * g_i * m + 1j * g_i * ct)).sum(axis=-1)
        for prefactor, m in terms])
    # no term exceeds its own value at t = 0 in modulus
    total = np.exp(logs - logs[:, 0].real.max()).sum(axis=0)
    phase = np.exp(-1j * (energy[:, None] - energy[None, :]) * PAIR_TIMES[:, None, None])
    columns = (C + 2).astype(int)
    return np.outer(psi, psi.conj()) * phase * total[1:, columns] / total[0, columns]


def package_rho(bath, beta, lam, psi, backend):
    sys2 = TwoQubitParams(PAIR_EPS[0], PAIR_EPS[1], 0.0, 0.0, lam)
    return density_trajectory(sys2, bath, Thermal(beta), backend, psi, PAIR_TIMES, (False, True))


def assert_pair_matches(bath, beta, lam, psi, backend):
    computed = package_rho(bath, beta, lam, psi, backend)
    for series, correlated in enumerate((False, True)):
        expected = reference_rho(beta, lam, psi, bath.eps_i, bath.g_i, correlated)
        assert np.abs(computed[series] - expected).max() <= TOLERANCE


# a Bell state has c = 0 and +-2 only, and two zero populations; generic
# amplitudes give every c. lam shifts no Bell-state entry, as both of its
# basis states have s1 s2 = 1, so it is tried on the generic state alone
PAIR_CASES = pytest.mark.parametrize("beta, lam, psi", [
    (BETAS[0], 0.0, GENERIC), (BETAS[1], 3.0, GENERIC), (BETAS[2], 3.0, BELL)],
    ids=["generic-lam0", "generic-lam3", "bell"])


@PAIR_CASES
@pytest.mark.parametrize("boundary", list(Boundary))
def test_pair_collapse_matches_the_closed_form_at_a_thousand_spins(boundary, beta, lam, psi):
    assert_pair_matches(BathParams.uniform(1_000, 1.0, 0.05, 0.0, boundary), beta, lam, psi,
                        Backend.COLLAPSE)


@PAIR_CASES
def test_pair_enumerate_matches_the_closed_form_on_gaussian_parameters(beta, lam, psi):
    n = 12
    rng = np.random.default_rng(n)
    bath = BathParams(n, tuple(rng.normal(1.0, 0.3, n)), tuple(rng.normal(0.2, 0.1, n)),
                      (0.0,) * (n - 1))
    assert_pair_matches(bath, beta, lam, psi, Backend.ENUMERATE)

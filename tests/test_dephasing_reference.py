"""Large baths against the exact sums of pure dephasing.

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

Ising bonds chi_i keep these sums exact, but no longer a product over spins.
Each is a product of 2x2 transfer matrices (Kramers and Wannier, Phys. Rev.
60, 252 (1941); Baxter, "Exactly Solved Models in Statistical Mechanics"
(1982), ch. 2): with the per-spin exponent a_i of the sums above, so that
spin i contributes e^{a_i s_i}, and the bond weight e^{-beta chi_i s_i s_i+1},

    sum_s prod_i e^{a_i s_i} prod_bonds e^{-beta chi_i s_i s_i+1}
        = Tr(D_1 B_1 D_2 B_2 ... D_N B_N),

where D_i = diag(e^{a_i}, e^{-a_i}) and B_i[s, s'] = e^{-beta chi_i s s'}. On
a ring B_N is the bond from spin N back to spin 1; an open chain closes with
B_N = u u^T, u = (1, 1), which makes the trace the end-vector sum
u^T D_1 B_1 ... D_N u. With chi = 0 every B_i is u u^T and the trace is the
product of 2 cosh(a_i) again.

All of these are evaluated here in log space, from nothing but numpy, and
checked against the package's collapse sum at N = 1,000 and its enumerate
sum on Gaussian parameters, without bonds and with them.
"""

import numpy as np
import pytest

from spinbath import (Backend, BathParams, Boundary, SystemParams, Thermal, TwoQubitParams,
                      bell_state, bloch_trajectory, density_trajectory, pure_state)

EPSILON = 2.0
TIMES = np.linspace(0.0, 10.0, 41)
# over 100 times the largest deviation measured (6.0e-13: collapse at
# N = 1,000, beta = 5; with bonds 4.4e-13, a pair entry's largest 3.0e-13;
# the enumerated chains stay below 2e-14): the log-space sums over 1,001
# fields and their reference differ only by rounding in logs of size up to
# about 10^3
TOLERANCE = 1e-10
SPINS = np.array([1.0, -1.0])


def renormalized(matrices, log_scale):
    """matrices divided each by its largest entry in modulus, and log_scale
    plus the log of that entry."""
    scale = np.abs(matrices).max(axis=(-2, -1))
    return matrices / scale[..., None, None], log_scale + np.log(scale)


def log_transfer_product(site, beta_chi, periodic):
    """log Tr(D_1 B_1 ... D_N B_N) of the module docstring, elementwise over
    the leading axes of site (..., N), the complex exponents a_i; beta_chi
    holds beta chi_i, one per bond.

    Every product is renormalized, its log scale kept aside, so no partial
    product over- or underflows. A run of sites with equal exponents and
    bonds shares one matrix D_i B_i, raised to the run's length by repeated
    squaring: a uniform chain of 1,000 spins costs about 20 products."""
    n = site.shape[-1]
    # an open chain's closing bond has chi = 0, whose matrix is u u^T
    beta_chi = np.asarray(beta_chi) if periodic else np.append(beta_chi, 0.0)
    same = ((site[..., 1:] == site[..., :-1]).all(axis=tuple(range(site.ndim - 1)))
            & (beta_chi[1:] == beta_chi[:-1]))
    starts = np.flatnonzero(np.append(True, ~same))
    matrices = np.exp(site[..., starts, None, None] * SPINS[:, None]
                      - beta_chi[starts, None, None] * np.outer(SPINS, SPINS))
    product = np.broadcast_to(np.eye(2, dtype=complex), site.shape[:-1] + (2, 2))
    log_scale = np.zeros(site.shape[:-1])
    for run, length in enumerate(np.diff(np.append(starts, n))):
        power, log_power = renormalized(matrices[..., run, :, :], 0.0)
        while length:
            if length & 1:
                product, log_scale = renormalized(product @ power, log_scale + log_power)
            power, log_power = renormalized(power @ power, 2.0 * log_power)
            length >>= 1
    return log_scale + np.log(np.trace(product, axis1=-2, axis2=-1))


def reference_px(beta, bath, correlated):
    """p_x over TIMES of a +x qubit with splitting EPSILON and no tunneling."""
    eps_i, g_i = np.asarray(bath.eps_i), np.asarray(bath.g_i)
    t = np.concatenate(([0.0], TIMES))[:, None]
    sigmas = np.array((1.0, -1.0) if correlated else (0.0,))
    site = -beta * eps_i / 2.0 + sigmas[:, None, None] * beta * g_i / 2.0 + 1j * g_i * t
    logs = sigmas[:, None] * beta * EPSILON / 2.0 + log_transfer_product(
        site, beta * np.asarray(bath.chi_i), bath.boundary is Boundary.PERIODIC)
    # no term exceeds its own value at t = 0 in modulus
    total = np.exp(logs - logs[:, 0].real.max()).sum(axis=0)
    return (np.exp(1j * EPSILON * TIMES) * total[1:] / total[0]).real


def package_px(bath, beta, backend):
    plus_x = np.array([1.0, 1.0]) / np.sqrt(2.0)
    bloch = bloch_trajectory(SystemParams(EPSILON, 0.0), bath, Thermal(beta), backend,
                             plus_x, TIMES, (False, True))
    return bloch[..., 0]


def assert_px_matches(bath, beta, backend):
    computed = package_px(bath, beta, backend)
    for series, correlated in enumerate((False, True)):
        assert np.abs(computed[series] - reference_px(beta, bath, correlated)).max() <= TOLERANCE


BETAS = [0.01, 1.0, 5.0]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("boundary", list(Boundary))
def test_collapse_matches_the_closed_form_at_a_thousand_spins(boundary, beta):
    assert_px_matches(BathParams.uniform(1_000, 1.0, 0.05, 0.0, boundary), beta,
                      Backend.COLLAPSE)


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("n", [12, 16])
def test_enumerate_matches_the_closed_form_on_gaussian_parameters(n, beta):
    rng = np.random.default_rng(n)
    eps_i, g_i = rng.normal(1.0, 0.3, n), rng.normal(0.2, 0.1, n)
    bath = BathParams(n, tuple(eps_i), tuple(g_i), (0.0,) * (n - 1))
    assert_px_matches(bath, beta, Backend.ENUMERATE)


# beta = 0.01 leaves beta chi near 0, so the cases with bonds start at 1
BOND_BETAS = [1.0, 5.0]
# bonds of either sign: antiferromagnetic for one qubit, ferromagnetic for
# the pair, and Gaussian ones about 0 on the enumerated chains
CHI = 0.3


def gaussian_bath(n, boundary):
    """A chain of n spins with Gaussian eps_i, g_i and bonds chi_i."""
    rng = np.random.default_rng(n)
    bonds = n if boundary is Boundary.PERIODIC else n - 1
    return BathParams(n, tuple(rng.normal(1.0, 0.3, n)), tuple(rng.normal(0.2, 0.1, n)),
                      tuple(rng.normal(0.0, CHI, bonds)), boundary)


@pytest.mark.parametrize("beta", BOND_BETAS)
@pytest.mark.parametrize("boundary", list(Boundary))
def test_collapse_with_bonds_matches_the_transfer_matrices_at_a_thousand_spins(boundary, beta):
    assert_px_matches(BathParams.uniform(1_000, 1.0, 0.05, CHI, boundary), beta,
                      Backend.COLLAPSE)


@pytest.mark.parametrize("beta", BOND_BETAS)
@pytest.mark.parametrize("boundary", list(Boundary))
def test_enumerate_with_bonds_matches_the_transfer_matrices_on_gaussian_parameters(boundary,
                                                                                  beta):
    assert_px_matches(gaussian_bath(12, boundary), beta, Backend.ENUMERATE)


PAIR_EPS = (1.0, 2.0)
# every other point of TIMES: the pair's sweep costs 16 entries per point
PAIR_TIMES = TIMES[::2]
# sigma_z of qubit 1 and qubit 2 on the basis states, qubit 1 most significant
S1, S2 = np.array([1.0, 1.0, -1.0, -1.0]), np.array([1.0, -1.0, 1.0, -1.0])
# c = (s1 + s2 - s1' - s2')/2 of each entry, in {-2, .., 2}
C = ((S1 + S2)[:, None] - (S1 + S2)[None, :]) / 2.0
BELL = bell_state()
GENERIC = pure_state(np.array([0.3 + 0.1j, -0.5j, 0.6, 0.2 - 0.4j]) / np.sqrt(0.91))


def reference_rho(beta, lam, psi, bath, correlated):
    """(T, 4, 4) reduced pair states over PAIR_TIMES of the state psi with
    splittings PAIR_EPS, coupling lam and no tunneling."""
    eps_i, g_i = np.asarray(bath.eps_i), np.asarray(bath.g_i)
    energy = 0.5 * (PAIR_EPS[0] * S1 + PAIR_EPS[1] * S2) + lam * S1 * S2
    populations = np.abs(psi) ** 2
    # (log prefactor, (r1 + r2)/2) of each preparation term; zero
    # populations drop out
    prefactors, m = np.array([(np.log(populations[r]) - beta * energy[r], (S1[r] + S2[r]) / 2.0)
                              for r in range(4) if populations[r] > 0.0]
                             if correlated else [(0.0, 0.0)]).T
    # one row per time, then one column per c, then the spins
    ct = np.concatenate(([0.0], PAIR_TIMES))[:, None, None] * np.arange(-2.0, 3.0)[:, None]
    site = -(beta * eps_i / 2.0 + beta * g_i * m[:, None, None, None] + 1j * g_i * ct)
    logs = prefactors[:, None, None] + log_transfer_product(
        site, beta * np.asarray(bath.chi_i), bath.boundary is Boundary.PERIODIC)
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
        expected = reference_rho(beta, lam, psi, bath, correlated)
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


# generic amplitudes give every c, and lam shifts their entries
BOND_PAIR_CASE = pytest.mark.parametrize("beta, lam, psi", [(BETAS[1], 3.0, GENERIC)],
                                         ids=["generic-lam3"])


@BOND_PAIR_CASE
@pytest.mark.parametrize("boundary", list(Boundary))
def test_pair_collapse_with_bonds_matches_the_transfer_matrices_at_a_thousand_spins(
        boundary, beta, lam, psi):
    assert_pair_matches(BathParams.uniform(1_000, 1.0, 0.05, -CHI, boundary), beta, lam, psi,
                        Backend.COLLAPSE)


@BOND_PAIR_CASE
@pytest.mark.parametrize("boundary", list(Boundary))
def test_pair_enumerate_with_bonds_matches_the_transfer_matrices_on_gaussian_parameters(
        boundary, beta, lam, psi):
    assert_pair_matches(gaussian_bath(12, boundary), beta, lam, psi, Backend.ENUMERATE)

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

normalized by the same sum at t = 0. Both are evaluated here in log space,
from nothing but numpy, and checked against the package's collapse sum at
N = 1,000 and its enumerate sum on Gaussian parameters.
"""

import numpy as np
import pytest

from spinbath import Backend, BathParams, Boundary, SystemParams, Thermal, bloch_trajectory

EPSILON = 2.0
TIMES = np.linspace(0.0, 10.0, 41)
# over 100 times the largest deviation measured (7.7e-13: collapse at
# N = 1,000, beta = 5)
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

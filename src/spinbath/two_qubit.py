"""Exact dynamics of two central qubits dephasing in one shared spin bath.

Both qubits couple through sigma_z to the same bath field, so each bath
pattern drives an independent 4x4 problem built from the pattern-shifted
splittings (eps1 + g_sum, eps2 + g_sum) and the qubit-qubit coupling lam.
Patterns that share g_sum share that problem, so they are folded onto their
distinct fields, whose real symmetric conditional Hamiltonians are
diagonalized in batches. With the amplitude columns A_j = V_j (V_j . psi)
of their eigenvectors, psi = sum_j A_j, and rho(t) = psi psi^dagger - D(t)
- D(t)^dagger for D(t) = sum_{j<k} A_j A_k^dagger (1 - exp(-i (E_j - E_k) t)):
the sweep sums D under each series' weights (uncorrelated or correlated, as
for one qubit), and the state is H + H^dagger for H = psi psi^dagger / 2 - D,
so every state is exactly Hermitian and the t == 0 rows are the prepared
projector itself. Entanglement is the standard spin-flip concurrence.

Basis order: qubit 1 is the most significant bit of the 4 amplitudes, so
index 0 is both up and index 3 both down.
"""

from __future__ import annotations

import math

import numpy as np

from .configspace import (ITEM_BLOCK, Backend, _require_capacity, _series_flags, _time_grid,
                          collapse_classes, fold_fields, reduce_weighted, series_log_weights)
from .errors import ParameterError
from .model import (BathParams, Thermal, TwoQubitParams, _check_records, _finite, bath_sums,
                    class_sums, log_thermal_overlap, log_thermal_weight, pure_state,
                    require_uniform)
from .numerics import _finite_array, hermitian_eig

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# fields per sweep block: a block's weighted (768, 16) matrix is 196 kB
SPECTRA_BLOCK = 128

# all real: only sigma_z and sigma_x enter the Hamiltonians, and the spin flip
# sigma_y x sigma_y is the antidiagonal (-1, 1, 1, -1)
_Z, _X, _I = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)
_SZ1, _SX1, _SZ2, _SX2, _SZZ = (np.kron(_Z, _I), np.kron(_X, _I), np.kron(_I, _Z),
                                np.kron(_I, _X), np.kron(_Z, _Z))
_SPIN_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).copy()
for _m in (_SZ1, _SX1, _SZ2, _SX2, _SZZ, _SPIN_FLIP):
    _m.setflags(write=False)
# the six pairs j < k of eigenstates, whose products oscillate in rho(t)
_J, _K = np.triu_indices(4, 1)


def bell_state() -> np.ndarray:
    return pure_state([1.0 / math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0)])


def product_state() -> np.ndarray:
    """Both qubits up: the separable reference state of the presets."""
    return pure_state([1.0, 0.0, 0.0, 0.0])


def _pair_state(psi) -> np.ndarray:
    psi = pure_state(psi)
    if psi.shape != (4,):
        raise ParameterError(f"expected a two-qubit state, got shape {psi.shape}")
    return psi


def _pair_hamiltonian(sys2: TwoQubitParams, g: np.ndarray) -> np.ndarray:
    # the pair's 4x4 Hamiltonian under each coupling field g (..., 1, 1) from
    # the bath, exactly symmetric as a sum of symmetric terms; an infinite
    # field is a parameter overflow
    return _finite("pair Hamiltonian with splittings eps1 + g_sum, eps2 + g_sum",
                   0.5 * ((sys2.eps1 + g) * _SZ1 + sys2.delta1 * _SX1
                          + (sys2.eps2 + g) * _SZ2 + sys2.delta2 * _SX2)
                   + sys2.lam * _SZZ)


# overflowing parameters surface as a named ParameterError, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _pair_fields(sys2: TwoQubitParams, bath: BathParams, th: Thermal,
                 backend: Backend, psi: np.ndarray, correlated: tuple[bool, ...]):
    """Per distinct coupling field, in ascending order: the conditional
    energies E (n, 4), the amplitudes A (n, 4, 4) with psi(t) = A @ exp(-iEt),
    and the log weights, one column per series."""
    if Backend(backend) is Backend.COLLAPSE:
        require_uniform(bath)
        classes = collapse_classes(bath.n_spins, bath.boundary)
        g_sum, eps_sum, chi_sum = class_sums(bath, classes.k, classes.w)
        log_multiplicity = classes.log_multiplicity
    else:
        # the cap is checked before the bath table exists
        _require_capacity(bath.n_spins, Backend.ENUMERATE)
        g_sum, eps_sum, chi_sum = bath_sums(bath)
        log_multiplicity = 0.0
    first, log_weight = fold_fields(
        g_sum, log_thermal_weight(th.beta, eps_sum, chi_sum) + log_multiplicity)
    g_sum = g_sum[first]
    # only the folded fields go on to the eigensystems
    del eps_sum, chi_sum
    # filled block by block, so the largest array is never held twice
    energies, amplitudes, log_factor = (
        np.empty((len(first), 4)), np.empty((len(first), 4, 4), dtype=complex),
        np.empty(len(first)))
    for start in range(0, len(first), ITEM_BLOCK):
        rows = slice(start, start + ITEM_BLOCK)
        energies[rows], vectors = hermitian_eig(_pair_hamiltonian(sys2, g_sum[rows, None, None]))
        # ascending energies, so the widest gap bounds the sweep's six frequencies
        _finite("pair energy gap", energies[rows, 3] - energies[rows, 0])
        overlaps = vectors.swapaxes(-2, -1) @ psi
        amplitudes[rows] = vectors * overlaps[:, None, :]
        log_factor[rows] = log_thermal_overlap(th.beta, energies[rows].T,
                                               (np.abs(overlaps) ** 2).T)
    return energies, amplitudes, series_log_weights(log_weight, log_factor, correlated)


def _checked_entries(rho: np.ndarray) -> np.ndarray:
    """rho, a finite complex array, after the shape, Hermiticity and unit-trace
    checks; concurrence then checks positivity."""
    if rho.shape[-2:] != (4, 4):
        raise ParameterError(f"expected a 4x4 matrix or a stack of them, got shape {rho.shape}")
    herm_dev = float(np.abs(rho - rho.conj().swapaxes(-2, -1)).max(initial=0.0))
    if herm_dev > HERMITICITY_TOL:
        raise ParameterError(f"density matrix not Hermitian: deviation {herm_dev:.3e}")
    trace_dev = float(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max(initial=0.0))
    if trace_dev > TRACE_TOL:
        raise ParameterError(f"density matrix trace off unity by {trace_dev:.3e}")
    return rho


def concurrence(rho):
    """Spin-flip concurrence, in [0, 1], of a two-qubit density matrix (a
    float) or of each in a (..., 4, 4) stack (an array of the leading shape).

    Combines the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), descending, as
    max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)).

    Those square roots are computed as the singular values of W^T F W,
    where F = sy x sy and W = V diag(sqrt(p)) factors rho = W W^dagger:
    W^T F W has Gram matrix W^dagger F conj(W) W^T F W, whose spectrum
    matches rho (F rho* F) on nonzero eigenvalues by AB ~ BA. A direct
    non-Hermitian eigensolve on rho (F rho* F) loses half the digits on
    the degenerate spectra that Bell-like states produce; singular values
    of the symmetric factor stay accurate to machine precision.

    A stack is checked finite whole, then validated and decomposed ITEM_BLOCK
    matrices at a time; positivity reads the same decomposition's populations.
    """
    rho = _finite_array("density matrix", rho, complex)
    # a wrong shape fails validation before any decomposition
    stack = rho.reshape(-1, 4, 4) if rho.shape[-2:] == (4, 4) else _checked_entries(rho)
    values = np.empty(len(stack))
    for start in range(0, len(stack), ITEM_BLOCK):
        populations, vectors = np.linalg.eigh(_checked_entries(stack[start:start + ITEM_BLOCK]))
        smallest = float(np.min(populations, initial=0.0))
        if smallest < EIGENVALUE_FLOOR:
            raise ParameterError(f"density matrix has eigenvalue {smallest:.3e} below floor")
        factor = vectors * np.sqrt(np.clip(populations, 0.0, None))[..., None, :]
        roots = np.linalg.svd(factor.swapaxes(-2, -1) @ _SPIN_FLIP @ factor, compute_uv=False)
        excess = roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3]
        values[start:start + ITEM_BLOCK] = np.where(excess > 0.0, excess, 0.0)
    return float(values[0]) if rho.ndim == 2 else values.reshape(rho.shape[:-2])


def _pair_spectra(energies: np.ndarray, amplitudes: np.ndarray):
    """reduce_weighted's spectra of D(t), SPECTRA_BLOCK fields a block: one
    column set of 16 entries A_j A_k^dagger at the six frequencies E_j - E_k."""
    for start in range(0, len(energies), SPECTRA_BLOCK):
        rows = slice(start, start + SPECTRA_BLOCK)
        columns = amplitudes[rows].swapaxes(-2, -1)
        coefficients = columns[:, _J, :, None] * columns[:, _K, None, :].conj()
        yield coefficients.reshape(1, -1, 6, 16), energies[rows, _J] - energies[rows, _K]


def density_trajectory(sys2: TwoQubitParams, bath: BathParams, th: Thermal,
                       backend: Backend, psi, times,
                       correlated: tuple[bool, ...]) -> np.ndarray:
    """Reduced pair states over a time grid as a read-only (S, T, 4, 4)
    array, one series per flag of correlated as in bloch_trajectory."""
    _check_records(("system", sys2, TwoQubitParams), ("bath", bath, BathParams),
                   ("thermal", th, Thermal))
    # a bad flag or time grid is refused before any bath work
    correlated, times = _series_flags(correlated), _time_grid(times)
    psi = _pair_state(psi)
    energies, amplitudes, log_weight = _pair_fields(sys2, bath, th, backend, psi, correlated)

    sums, _ = reduce_weighted(_pair_spectra(energies, amplitudes), log_weight, times)
    half = 0.5 * np.outer(psi, psi.conj()) - sums.reshape(*sums.shape[:2], 4, 4)
    states = half + half.conj().swapaxes(-2, -1)
    states.setflags(write=False)
    return states

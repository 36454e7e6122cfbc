"""Exact dynamics of two central qubits dephasing in one shared spin bath.

Both qubits couple through sigma_z to the same bath field, so each bath
pattern drives an independent 4x4 problem built from the pattern-shifted
splittings (eps1 + g_sum, eps2 + g_sum) and the qubit-qubit coupling lam.
The conditional Hamiltonians of all summed items are diagonalized in one
batch, and each item's state evolves as V exp(-iEt) V^dagger psi. The
reduced pair state is the weighted mixture over patterns, with the same
uncorrelated/correlated weight choice as the single-qubit case, and
entanglement is scored by the standard spin-flip concurrence.

Basis order: qubit 1 is the most significant bit of the 4 amplitudes, so
index 0 is both up and index 3 both down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import (Backend, collapse_classes, fold_classes, mask_blocks,
                          reduce_weighted)
from .errors import ParameterError
from .model import (BathParams, Thermal, _finite, bath_sums, class_sums, pure_state,
                    require_uniform)
from .numerics import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, hermitian_eig

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_SZ1 = np.kron(SIGMA_Z, IDENTITY_2)
_SX1 = np.kron(SIGMA_X, IDENTITY_2)
_SZ2 = np.kron(IDENTITY_2, SIGMA_Z)
_SX2 = np.kron(IDENTITY_2, SIGMA_X)
_SZZ = np.kron(SIGMA_Z, SIGMA_Z)
_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)
for _m in (_SZ1, _SX1, _SZ2, _SX2, _SZZ, _SPIN_FLIP):
    _m.setflags(write=False)


@dataclass(frozen=True)
class TwoQubitParams:
    """Level spacings and tunnelings of the two qubits, plus their mutual
    sigma_z sigma_z coupling strength lam."""

    eps1: float
    eps2: float
    delta1: float
    delta2: float
    lam: float = 0.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "delta1", "delta2", "lam"):
            if not math.isfinite(float(getattr(self, name))):
                raise ParameterError(f"{name} must be finite")


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


def conditional_hamiltonian(sys2: TwoQubitParams, g_sum) -> np.ndarray:
    """4x4 Hamiltonian of the pair under one bath pattern, or a stack of them
    for an array of coupling fields g_sum."""
    g = np.asarray(g_sum, dtype=float)[..., None, None]
    return _finite("pair Hamiltonian with splittings eps1 + g_sum, eps2 + g_sum",
                   0.5 * ((sys2.eps1 + g) * _SZ1 + sys2.delta1 * _SX1
                          + (sys2.eps2 + g) * _SZ2 + sys2.delta2 * _SX2)
                   + sys2.lam * _SZZ)


# overflowing parameters surface as a named ParameterError, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _pair_fields(sys2: TwoQubitParams, bath: BathParams, th: Thermal,
                 backend: Backend, psi: np.ndarray, correlated: tuple[bool, ...]):
    """Per summed item (a mask, or a down-spin count under collapse): the
    conditional energies E (n, 4), the amplitudes A (n, 4, 4) with
    psi(t) = A @ exp(-iEt), and the log weights, one column per series."""
    if not correlated:
        raise ParameterError("correlated must hold at least one series flag")
    if Backend(backend) is Backend.COLLAPSE:
        require_uniform(bath)
        classes = collapse_classes(bath.n_spins, bath.boundary)
        g_sum, eps_sum, chi_sum = class_sums(bath, classes.k, classes.w)
        first, log_weight = fold_classes(classes, -th.beta * (chi_sum + 0.5 * eps_sum))
        blocks = [(g_sum[first], log_weight)]
    else:
        blocks = [(g, -th.beta * (chi + 0.5 * eps)) for g, eps, chi in
                  (bath_sums(bath, masks) for masks in mask_blocks(bath.n_spins))]
    # filled block by block, so the largest array is never held twice
    count = sum(len(g) for g, _ in blocks)
    fields = (np.empty((count, 4)), np.empty((count, 4, 4), dtype=complex),
              np.empty((count, len(correlated))))
    start = 0
    for g, lw in blocks:
        rows = slice(start, start + len(g))
        for field, part in zip(fields, _eigenbasis(sys2, th, psi, correlated, g, lw)):
            field[rows] = part
        start = rows.stop
    return fields


def _eigenbasis(sys2: TwoQubitParams, th: Thermal, psi: np.ndarray,
                correlated: tuple[bool, ...], g_sum: np.ndarray, log_weight: np.ndarray):
    """Energies, amplitudes and log weights of _pair_fields for one batch of
    coupling fields, from one batched eigendecomposition."""
    energies, vectors = hermitian_eig(conditional_hamiltonian(sys2, g_sum))
    overlaps = vectors.conj().swapaxes(-2, -1) @ psi
    joint = log_weight
    if any(correlated) and th.beta != 0.0:
        # log <psi| exp(-beta H) |psi> = log sum_j |<v_j|psi>|^2 exp(-beta E_j),
        # with zero populations dropped; stable at any beta
        with np.errstate(divide="ignore"):
            exponents = -th.beta * energies + np.log(np.abs(overlaps) ** 2)
        top = exponents.max(axis=1)
        joint = log_weight + top + np.log(np.exp(exponents - top[:, None]).sum(axis=1))
    return (energies, vectors * overlaps[:, None, :],
            np.stack([joint if flag else log_weight for flag in correlated], axis=1))


def validate_density(rho) -> np.ndarray:
    """Check Hermiticity, unit trace, and positivity; return rho unchanged."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ParameterError(f"expected a 4x4 matrix, got shape {rho.shape}")
    herm_dev = float(np.abs(rho - rho.conj().T).max())
    if herm_dev > HERMITICITY_TOL:
        raise ParameterError(f"density matrix not Hermitian: deviation {herm_dev:.3e}")
    trace_dev = abs(complex(np.trace(rho)) - 1.0)
    if trace_dev > TRACE_TOL:
        raise ParameterError(f"density matrix trace off unity by {trace_dev:.3e}")
    smallest = float(np.linalg.eigvalsh(rho).min())
    if smallest < EIGENVALUE_FLOOR:
        raise ParameterError(f"density matrix has eigenvalue {smallest:.3e} below floor")
    return rho


def concurrence(rho) -> float:
    """Spin-flip concurrence of a two-qubit density matrix, in [0, 1].

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
    """
    rho = validate_density(rho)
    populations, vectors = np.linalg.eigh(rho)
    factor = vectors * np.sqrt(np.clip(populations, 0.0, None))
    symmetric = factor.T @ _SPIN_FLIP @ factor
    roots = np.linalg.svd(symmetric, compute_uv=False)
    return max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))


def density_trajectory(sys2: TwoQubitParams, bath: BathParams, th: Thermal,
                       backend: Backend, psi, times,
                       correlated: tuple[bool, ...]) -> np.ndarray:
    """Reduced pair states over a time grid as a read-only (S, T, 4, 4)
    array, one series per flag of correlated as in bloch_trajectory."""
    psi = _pair_state(psi)
    energies, amplitudes, log_weight = _pair_fields(sys2, bath, th, backend, psi, correlated)

    def term(rows, t):
        phases = np.exp(-1j * energies[rows, None, :] * t[:, None])
        evolved = sum(amplitudes[rows, None, :, j] * phases[:, :, j, None] for j in range(4))
        projector = evolved[..., :, None] * evolved[..., None, :].conj()
        return projector.reshape(*evolved.shape[:2], 16)

    states, _ = reduce_weighted(term, log_weight, times, 16)
    return states.reshape(*states.shape[:2], 4, 4)

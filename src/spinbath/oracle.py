"""Brute-force ground truth on the full system (x) bath Hilbert space.

Everything here is deliberately direct: build the dense Hamiltonian, form
exact thermal or product initial states, evolve unitarily through the full
eigendecomposition, and partial-trace the bath away. No per-pattern
structure is exploited, which is the point; the fast modules must agree
with this one to be believed.

Tensor ordering (the single convention every module cites): factors are
ordered [system qubit 1, (system qubit 2,)] then bath sites 1..N, most
significant first. So a basis index splits as
index = system_index * 2^N + bath_index, and bath site 1 is the most
significant bit of bath_index. Mapping to the per-pattern bitmask used by
`model` (bit i = site i+1, least significant first): the bath_index here is
that mask with its N bits reversed. Bit value 1 is spin down in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericError, ParameterError
from .model import BathParams, Boundary, SystemParams, pure_state
from .numerics import SIGMA_X, hermitian_eig
from .two_qubit import TwoQubitParams

DIMENSION_CAP = 2 ** 13


@dataclass(frozen=True)
class FullHamiltonian:
    """Dense joint Hamiltonian, its eigendecomposition, and the bath-only
    diagonal.

    The bath Hamiltonian is diagonal in the product z basis, so its 2^N
    energies are carried as a vector; the uncorrelated thermal bath state is
    built from it directly. The joint matrix is diagonalized once, and every
    thermal state and time point reuses energies and vectors.
    """

    matrix: np.ndarray
    n_system: int
    n_bath: int
    bath_diagonal: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray

    @property
    def system_dim(self) -> int:
        return 1 << self.n_system

    @property
    def bath_dim(self) -> int:
        return 1 << self.n_bath


def _z_values(total_qubits: int, factor: int) -> np.ndarray:
    """sigma_z value (+1 up, -1 down) of one tensor factor across all basis
    indices, under the module's most-significant-first ordering."""
    indices = np.arange(1 << total_qubits)
    bits = (indices >> (total_qubits - 1 - factor)) & 1
    return 1.0 - 2.0 * bits


def _bath_bond_pairs(bath: BathParams):
    n = bath.n_spins
    if bath.boundary is Boundary.PERIODIC:
        return [(i, (i + 1) % n) for i in range(n)]
    return [(i, i + 1) for i in range(n - 1)]


def _bath_only_diagonal(bath: BathParams) -> np.ndarray:
    z = [_z_values(bath.n_spins, i) for i in range(bath.n_spins)]
    diag = np.zeros(1 << bath.n_spins)
    for i in range(bath.n_spins):
        diag += 0.5 * bath.eps_i[i] * z[i]
    for (i, j), chi in zip(_bath_bond_pairs(bath), bath.chi_i):
        diag += chi * z[i] * z[j]
    return diag


def _embed_sigma_x(total_qubits: int, factor: int) -> np.ndarray:
    left = np.eye(1 << factor, dtype=complex)
    right = np.eye(1 << (total_qubits - factor - 1), dtype=complex)
    return np.kron(np.kron(left, SIGMA_X), right)


def build_hamiltonian(sys, bath: BathParams) -> FullHamiltonian:
    """Joint Hamiltonian for one central qubit (SystemParams) or a coupled
    pair (TwoQubitParams) plus the bath."""
    if isinstance(sys, SystemParams):
        n_system = 1
    elif isinstance(sys, TwoQubitParams):
        n_system = 2
    else:
        raise ParameterError(f"expected SystemParams or TwoQubitParams, got {type(sys)!r}")
    total = n_system + bath.n_spins
    if (1 << total) > DIMENSION_CAP:
        raise CapacityError(
            f"oracle dimension 2^{total} exceeds the cap {DIMENSION_CAP}; "
            f"reduce the bath below {int(math.log2(DIMENSION_CAP)) - n_system + 1} spins"
        )
    bath_z = [_z_values(total, n_system + i) for i in range(bath.n_spins)]
    coupling_field = np.zeros(1 << total)
    for i in range(bath.n_spins):
        coupling_field += bath.g_i[i] * bath_z[i]
    diag = np.zeros(1 << total)
    for i in range(bath.n_spins):
        diag += 0.5 * bath.eps_i[i] * bath_z[i]
    for (i, j), chi in zip(_bath_bond_pairs(bath), bath.chi_i):
        diag += chi * bath_z[i] * bath_z[j]
    if n_system == 1:
        z0 = _z_values(total, 0)
        diag += 0.5 * sys.epsilon * z0 + 0.5 * z0 * coupling_field
        matrix = np.diag(diag.astype(complex))
        matrix += 0.5 * sys.delta * _embed_sigma_x(total, 0)
    else:
        z0 = _z_values(total, 0)
        z1 = _z_values(total, 1)
        diag += (0.5 * sys.eps1 * z0 + 0.5 * sys.eps2 * z1 + sys.lam * z0 * z1
                 + 0.5 * (z0 + z1) * coupling_field)
        matrix = np.diag(diag.astype(complex))
        matrix += 0.5 * sys.delta1 * _embed_sigma_x(total, 0)
        matrix += 0.5 * sys.delta2 * _embed_sigma_x(total, 1)
    energies, vectors = hermitian_eig(matrix)
    for array in (matrix, energies, vectors):
        array.setflags(write=False)
    return FullHamiltonian(matrix=matrix, n_system=n_system, n_bath=bath.n_spins,
                           bath_diagonal=_bath_only_diagonal(bath),
                           energies=energies, vectors=vectors)


def initial_state(h: FullHamiltonian, th, psi, correlated: bool) -> np.ndarray:
    """Joint initial density matrix.

    Uncorrelated: |psi><psi| (x) thermal bath. Correlated: the system block
    of the jointly thermalized state selected by projecting the system onto
    psi, then renormalized. Thermal exponentials are spectrally shifted so
    large beta never underflows the whole weight vector.
    """
    psi = pure_state(psi)
    if psi.shape != (h.system_dim,):
        raise ParameterError(
            f"state has {psi.shape[0] if psi.ndim else 0} amplitudes, "
            f"expected {h.system_dim}"
        )
    projector = np.outer(psi, psi.conj())
    if not correlated:
        shifted = -th.beta * (h.bath_diagonal - h.bath_diagonal.min())
        bath_weights = np.exp(shifted)
        partition = float(bath_weights.sum())
        if not partition > 0.0:
            raise NumericError("bath partition function underflowed to zero")
        return np.kron(projector, np.diag(bath_weights / partition).astype(complex))
    weights = np.exp(-th.beta * (h.energies - h.energies.min()))
    thermal = (h.vectors * weights) @ h.vectors.conj().T
    embed = np.kron(psi.reshape(-1, 1), np.eye(h.bath_dim, dtype=complex))
    bath_block = embed.conj().T @ thermal @ embed
    partition = float(np.trace(bath_block).real)
    if not partition > 0.0:
        raise NumericError("correlated partition function underflowed to zero")
    return np.kron(projector, bath_block / partition)


def evolve_and_reduce(h: FullHamiltonian, rho0: np.ndarray, t: float) -> np.ndarray:
    """System reduced density matrix at time t from the joint initial state."""
    if not math.isfinite(t):
        raise ParameterError(f"time must be finite, got {t}")
    phases = np.exp(-1j * h.energies * t)
    unitary = (h.vectors * phases) @ h.vectors.conj().T
    evolved = unitary @ rho0 @ unitary.conj().T
    ds, db = h.system_dim, h.bath_dim
    return np.einsum("ibjb->ij", evolved.reshape(ds, db, ds, db))

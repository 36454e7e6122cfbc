"""Brute-force ground truth on the full system (x) bath Hilbert space.

Everything here is deliberately direct: build the dense Hamiltonian, form
exact thermal or product initial states, evolve unitarily through the full
eigendecomposition, and partial-trace the bath away. No per-pattern
structure is exploited, which is the point; the fast modules must agree
with this one to be believed.

The Hamiltonian is built directly on basis indices: each sigma_z term is a
diagonal of +-1 values read off one bit, and each 0.5 delta sigma_x term
links every index to the index with that factor's bit flipped. Evolution
and partial trace run in the joint eigenbasis H = V diag(E) V^dagger:

    rho_S(t) = Tr_B[V exp(-iEt) (V^dagger rho0 V) exp(iEt) V^dagger],

so V^dagger rho0 V and the partial-trace kernel are formed once, in chunks
no larger than V, and every time point of a grid costs only phase products
(see evolve_and_reduce).

Tensor ordering (the single convention every module cites): factors are
ordered [system qubit 1, (system qubit 2,)] then bath sites 1..N, most
significant first. So a basis index splits as
index = system_index * 2^N + bath_index, and bath site 1 is the most
significant bit of bath_index. Mapping to the per-pattern bitmask used by
`model` (bit i = site i+1, least significant first): the bath_index here is
that mask with its N bits reversed. Bit value 1 is spin down in both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericError, ParameterError
from .model import BathParams, SystemParams, TwoQubitParams, pure_state
from .numerics import _finite_array, hermitian_eig

# a two-series check at the cap takes at most 4 minutes and 2 GB (README)
DIMENSION_CAP = 2 ** 12


@dataclass(frozen=True)
class FullHamiltonian:
    """Eigendecomposition of the joint Hamiltonian, and the bath-only
    diagonal.

    The bath Hamiltonian is diagonal in the product z basis, so its 2^N
    energies are carried as a vector; the uncorrelated thermal bath state is
    built from it directly. The joint matrix is diagonalized once, not kept,
    and every thermal state and time point reuses energies and vectors.
    """

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


def _bath_fields(bath: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """Bath energy and coupling field of every bath basis state."""
    z = [_z_values(bath.n_spins, i) for i in range(bath.n_spins)]
    diag = np.zeros(1 << bath.n_spins)
    field = np.zeros(1 << bath.n_spins)
    for i in range(bath.n_spins):
        diag += 0.5 * bath.eps_i[i] * z[i]
        field += bath.g_i[i] * z[i]
    # bond i couples sites i and i+1, the last one wrapping on a ring
    for i, chi in enumerate(bath.chi_i):
        diag += chi * z[i] * z[(i + 1) % bath.n_spins]
    return diag, field


def require_dimension(n_system: int, n_bath: int) -> None:
    """Raise unless the joint space of n_system qubits and n_bath bath spins
    fits under DIMENSION_CAP."""
    # compared on exponents, so a huge n_bath never builds a huge integer
    largest = DIMENSION_CAP.bit_length() - 1 - n_system
    if n_bath > largest:
        raise CapacityError(
            f"oracle dimension 2^{n_system + n_bath} exceeds the cap {DIMENSION_CAP}; "
            f"reduce the bath below {largest + 1} spins"
        )


def _qubits(sys) -> tuple[tuple[tuple[float, float], ...], float]:
    """Per-qubit (splitting, tunneling) pairs and the pair coupling, 0 for
    one qubit."""
    if isinstance(sys, SystemParams):
        return ((sys.epsilon, sys.delta),), 0.0
    if isinstance(sys, TwoQubitParams):
        return ((sys.eps1, sys.delta1), (sys.eps2, sys.delta2)), sys.lam
    raise ParameterError(f"expected SystemParams or TwoQubitParams, got {type(sys)!r}")


def _joint_matrix(sys, bath: BathParams) -> tuple[np.ndarray, np.ndarray]:
    """Dense joint Hamiltonian for one central qubit (SystemParams) or a
    coupled pair (TwoQubitParams) plus the bath, and the bath-only diagonal."""
    qubits, lam = _qubits(sys)
    n_system = len(qubits)
    require_dimension(n_system, bath.n_spins)
    total = n_system + bath.n_spins
    # system factors are the most significant bits, so each joint-space
    # array is its bath-only array once per system basis state
    bath_diagonal, field = _bath_fields(bath)
    z = [_z_values(total, q) for q in range(n_system)]
    diag = np.tile(bath_diagonal, 1 << n_system)
    diag += (sum(0.5 * eps * zq for (eps, _), zq in zip(qubits, z)) + lam * np.prod(z, axis=0)
             + 0.5 * sum(z) * np.tile(field, 1 << n_system))
    matrix = np.diag(diag.astype(complex))
    # 0.5 delta sigma_x links each index to the one with qubit q's bit flipped
    index = np.arange(1 << total)
    for q, (_, delta) in enumerate(qubits):
        matrix[index ^ (1 << (total - 1 - q)), index] = 0.5 * delta
    return matrix, bath_diagonal


def build_hamiltonian(sys, bath: BathParams) -> FullHamiltonian:
    """The joint Hamiltonian of _joint_matrix, diagonalized; the dense D x D
    matrix is released once its eigendecomposition is taken."""
    matrix, bath_diagonal = _joint_matrix(sys, bath)
    energies, vectors = hermitian_eig(matrix)
    for array in (energies, vectors):
        array.setflags(write=False)
    return FullHamiltonian(len(_qubits(sys)[0]), bath.n_spins, bath_diagonal, energies, vectors)


def initial_state(h: FullHamiltonian, th, psi, correlated: bool) -> np.ndarray:
    """Joint initial density matrix |psi><psi| (x) B / Tr B.

    Uncorrelated: B holds the bath's thermal weights, diagonal in the z
    basis. Correlated: B is the block of the jointly thermalized state that
    projecting the system onto psi selects, P diag(w) P^dagger with
    P = (psi^dagger (x) I) V and w the thermal weights of the joint energies,
    so the whole thermal state is never formed. Thermal exponentials are
    spectrally shifted so large beta never underflows the whole weight
    vector.
    """
    psi = pure_state(psi)
    if psi.shape != (h.system_dim,):
        raise ParameterError(f"state has {psi.size} amplitudes, expected {h.system_dim}")
    if correlated:
        projected = np.tensordot(psi.conj(), h.vectors.reshape(h.system_dim, h.bath_dim, -1), 1)
        weights = np.exp(-th.beta * (h.energies - h.energies.min()))
        block = (projected * weights) @ projected.conj().T
    else:
        block = np.diag(np.exp(-th.beta * (h.bath_diagonal - h.bath_diagonal.min())))
    partition = float(np.trace(block).real)
    if not partition > 0.0:
        raise NumericError(f"{'correlated' if correlated else 'bath'} partition function "
                           "underflowed to zero")
    return np.kron(np.outer(psi, psi.conj()), block / partition)


def evolve_and_reduce(h: FullHamiltonian, rho0: np.ndarray,
                      t: float | np.ndarray) -> np.ndarray:
    """System reduced density matrix at time t, (ds, ds), or at each time of
    a 1-d array t, (T, ds, ds), from the joint initial state rho0.

    In the joint eigenbasis, with R = V^dagger rho0 V and the partial-trace
    kernel K_iajc = sum_b V_(i,b),a conj(V_(j,b),c),

        rho_S(t)_ij = sum_{a,c} exp(-i (E_a - E_c) t) R_ac K_iajc.

    K is built in chunks of D // ds^2 eigenvector indices a, so no chunk is
    larger than V; each chunk is one GEMM over the bath index, a product with
    R, one GEMM against the phases exp(i E_c t) and one contraction with
    exp(-i E_a t). Chunks add in a fixed order, so reruns are bit-identical.
    Grids longer than the joint dimension D go in blocks of D times, each
    building K again, so the D x T phase matrix never outgrows V.
    """
    ds, db = h.system_dim, h.bath_dim
    dim = ds * db
    rho0 = _finite_array("rho0", rho0, complex)
    if rho0.shape != (dim, dim):
        raise ParameterError(f"rho0 must have shape ({dim}, {dim}), got {rho0.shape}")
    times = _finite_array("time", t, float)
    if times.ndim > 1:
        raise ParameterError(f"time must be a number or a 1-d array, got shape {times.shape}")
    energies, vectors = h.energies, h.vectors
    r = vectors.conj().T @ rho0 @ vectors
    # V_(i,b),a split into (i, b, a); the right factor is conj V as (b, (j, c)),
    # a copy because the transpose is not contiguous, so each chunk of K is
    # one GEMM
    split = vectors.reshape(ds, db, dim)
    right = split.transpose(1, 0, 2).reshape(db, ds * dim)
    np.conjugate(right, out=right)
    chunk = max(1, dim // (ds * ds))
    grid = np.atleast_1d(times)
    out = np.zeros((grid.size, ds, ds), dtype=complex)
    for first in range(0, grid.size, dim):
        block = slice(first, first + dim)
        phases = np.exp(1j * np.outer(energies, grid[block]))
        for start in range(0, dim, chunk):
            a = slice(start, min(start + chunk, dim))
            m = a.stop - a.start
            left = split[:, :, a].transpose(0, 2, 1).reshape(ds * m, db)
            kernel = (left @ right).reshape(ds, m, ds, dim)
            kernel *= r[a][None, :, None, :]
            partial = (kernel.reshape(ds * m * ds, dim) @ phases).reshape(ds, m, ds, -1)
            out[block] += np.einsum("iajt,at->tij", partial, phases[a].conj())
    return out[0] if times.ndim == 0 else out

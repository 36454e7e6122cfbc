"""Brute-force ground truth on the full system (x) bath Hilbert space.

Everything here is deliberately direct: build the dense Hamiltonian, form
exact thermal or product initial states, evolve unitarily through the full
eigendecomposition, and partial-trace the bath away. No per-pattern
structure is exploited, which is the point; the fast modules must agree
with this one to be believed.

Evolution and partial trace run in the joint eigenbasis H = V diag(E) V^dagger:

    rho_S(t) = Tr_B[V exp(-iEt) (V^dagger rho0 V) exp(iEt) V^dagger],

so V^dagger rho0 V and the partial-trace kernel are formed once and every
time point of a grid costs only phase products (see evolve_and_reduce).

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
from .model import BathParams, SystemParams, TwoQubitParams, pure_state
from .numerics import SIGMA_X, hermitian_eig

# a two-series check at the cap takes about 7 minutes and 1.6 GB (README)
DIMENSION_CAP = 2 ** 12
# complex elements per chunk of the partial-trace kernel in evolve_and_reduce
KERNEL_ELEMENTS = 1 << 14


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
    # system factors are the most significant bits, so each joint-space
    # array is its bath-only array once per system basis state
    bath_diagonal, field = _bath_fields(bath)
    diag = np.tile(bath_diagonal, 1 << n_system)
    coupling_field = np.tile(field, 1 << n_system)
    z0 = _z_values(total, 0)
    if n_system == 1:
        diag += 0.5 * sys.epsilon * z0 + 0.5 * z0 * coupling_field
        matrix = np.diag(diag.astype(complex))
        matrix += 0.5 * sys.delta * _embed_sigma_x(total, 0)
    else:
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
                           bath_diagonal=bath_diagonal,
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


def _as_array(name: str, value, dtype) -> np.ndarray:
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must be numeric: {exc}") from exc


def evolve_and_reduce(h: FullHamiltonian, rho0: np.ndarray,
                      t: float | np.ndarray) -> np.ndarray:
    """System reduced density matrix at time t, (ds, ds), or at each time of
    a 1-d array t, (T, ds, ds), from the joint initial state rho0.

    In the joint eigenbasis, with R = V^dagger rho0 V and the partial-trace
    kernel K_iajc = sum_b V_(i,b),a conj(V_(j,b),c),

        rho_S(t)_ij = sum_{a,c} exp(-i (E_a - E_c) t) R_ac K_iajc.

    K is built KERNEL_ELEMENTS at a time, in chunks of eigenvector indices
    a; each chunk is one GEMM over the bath index, a product with R, one
    GEMM against the phases exp(i E_c t) and one contraction with
    exp(-i E_a t). Chunks add in a fixed order, so reruns are bit-identical.
    Grids longer than the joint dimension D go in blocks of D times, each
    building K again, so the D x T phase matrix never outgrows V.
    """
    ds, db = h.system_dim, h.bath_dim
    dim = ds * db
    rho0 = _as_array("rho0", rho0, complex)
    if rho0.shape != (dim, dim):
        raise ParameterError(f"rho0 must have shape ({dim}, {dim}), got {rho0.shape}")
    if not np.all(np.isfinite(rho0)):
        raise ParameterError("rho0 has non-finite entries")
    times = _as_array("time", t, float)
    if times.ndim > 1:
        raise ParameterError(f"time must be a number or a 1-d array, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ParameterError("time must be finite")
    energies, vectors = h.energies, h.vectors
    r = vectors.conj().T @ rho0 @ vectors
    # V_(i,b),a split into (i, b, a); the right factor is conj V as (b, (j, c)),
    # a copy because the transpose is not contiguous, so each chunk of K is
    # one GEMM
    split = vectors.reshape(ds, db, dim)
    right = split.transpose(1, 0, 2).reshape(db, ds * dim)
    np.conjugate(right, out=right)
    chunk = max(1, KERNEL_ELEMENTS // (ds * ds * dim))
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

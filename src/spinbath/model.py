"""Physical parameters and per-configuration scalars of the central-spin model.

The model: one or two central qubits coupled through sigma_z to a finite bath
of N spins with nearest-neighbour Ising-z bonds (hbar = 1 throughout):

    system      (epsilon/2) sigma_z + (delta/2) sigma_x
    bath        sum_i (eps_i[i]/2) sigma_z^(i)  +  sum_bonds chi_i[b] sigma_z^(i) sigma_z^(i+1)
    coupling    (1/2) sigma_z (x) B,   B = sum_i g_i[i] sigma_z^(i)

Every bath operator above is diagonal in the product z basis, so each bath
bit pattern reduces the central qubit to an independent 2x2 problem. This
module computes the scalars attached to one bit pattern: the net coupling
field, the bath energy, the thermal weight, and the correlation factor
(log_thermal_overlap, for one qubit and for a pair) that distinguishes a
correlated system-bath preparation from a product one.

Bit convention (fixed, tested): mask bit i (bit 0 least significant) holds
bath site i+1; bit value 0 is spin up (+1 under sigma_z), 1 is spin down (-1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

STATE_NORM_TOL = 1e-12


class Boundary(enum.Enum):
    OPEN = "open"
    PERIODIC = "periodic"


def _check_finite_scalar(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class SystemParams:
    """Central-qubit level spacing and tunneling amplitude."""

    epsilon: float
    delta: float

    def __post_init__(self):
        _check_finite_scalar("epsilon", self.epsilon)
        _check_finite_scalar("delta", self.delta)


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
            _check_finite_scalar(name, getattr(self, name))


@dataclass(frozen=True)
class BathParams:
    """Bath sizes and per-site parameter lists.

    chi_i holds bond strengths: N-1 bonds for an open chain, N for a periodic
    one (bond i couples sites i+1 and i+2, the last wrapping to site 1).
    """

    n_spins: int
    eps_i: tuple[float, ...]
    g_i: tuple[float, ...]
    chi_i: tuple[float, ...]
    boundary: Boundary = Boundary.OPEN

    def __post_init__(self):
        if int(self.n_spins) != self.n_spins or self.n_spins < 1:
            raise ParameterError(f"n_spins must be a positive integer, got {self.n_spins}")
        object.__setattr__(self, "n_spins", int(self.n_spins))
        for name in ("eps_i", "g_i", "chi_i"):
            values = tuple(float(x) for x in getattr(self, name))
            if any(not math.isfinite(x) for x in values):
                raise ParameterError(f"{name} must be finite")
            object.__setattr__(self, name, values)
        if not isinstance(self.boundary, Boundary):
            object.__setattr__(self, "boundary", Boundary(self.boundary))
        n = self.n_spins
        if len(self.eps_i) != n:
            raise ParameterError(f"eps_i must have length {n}, got {len(self.eps_i)}")
        if len(self.g_i) != n:
            raise ParameterError(f"g_i must have length {n}, got {len(self.g_i)}")
        if len(self.chi_i) != self.bond_count:
            raise ParameterError(
                f"chi_i must have length {self.bond_count} for a {self.boundary.value} "
                f"chain of {n} spins, got {len(self.chi_i)}"
            )

    @property
    def bond_count(self) -> int:
        return self.n_spins if self.boundary is Boundary.PERIODIC else self.n_spins - 1

    @classmethod
    def uniform(cls, n_spins: int, eps: float, g: float, chi: float,
                boundary: Boundary = Boundary.OPEN) -> "BathParams":
        bonds = n_spins if boundary is Boundary.PERIODIC else n_spins - 1
        return cls(n_spins, (eps,) * n_spins, (g,) * n_spins, (chi,) * bonds, boundary)


def require_uniform(bath: BathParams) -> tuple[float, float, float]:
    """Return the (eps, g, chi) shared by every site, or raise naming the
    first list that varies. Bit-exact equality; an empty bond list reads as
    chi = 0."""
    for name in ("eps_i", "g_i", "chi_i"):
        values = getattr(bath, name)
        if any(x != values[0] for x in values[1:]):
            raise ParameterError(
                f"{name} must be uniform for the collapse backend; "
                f"got distinct values {sorted(set(values))[:4]}"
            )
    chi = bath.chi_i[0] if bath.chi_i else 0.0
    return bath.eps_i[0], bath.g_i[0], chi


@dataclass(frozen=True)
class Thermal:
    """Inverse temperature; beta = 0 is the exact infinite-temperature limit."""

    beta: float

    def __post_init__(self):
        _check_finite_scalar("beta", self.beta)
        if self.beta < 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class ConfigQuantities:
    """Scalars attached to one bath bit pattern, or arrays of them over many.

    g_sum      net coupling field seen by the qubit: sum of signed g_i
    eps_sum    signed sum of bath level spacings
    chi_sum    signed sum of bond strengths (aligned +, anti-aligned -)
    splitting  bath-shifted level splitting of the qubit: epsilon + g_sum
    rabi       generalized Rabi frequency sqrt(splitting^2 + delta^2)/2
    log_weight log of the thermal weight -beta*(chi_sum + eps_sum/2); the
               weight itself can over/underflow for extreme beta*N, which is
               why all sums downstream work from log_weight with a shared
               max-exponent shift
    """

    g_sum: float
    eps_sum: float
    chi_sum: float
    splitting: float
    rabi: float
    log_weight: float


def _scalar_or_array(value):
    # scalar inputs give Python floats, array inputs arrays of the same shape
    return float(value) if np.ndim(value) == 0 else value


def _finite(name: str, value):
    """value, or a ParameterError naming it when the parameters made an entry
    overflow to inf or nan; callers compute it with numpy's warnings off."""
    if not np.all(np.isfinite(value)):
        raise ParameterError(f"{name} is not finite: the parameters overflow")
    return value


def log_thermal_weight(beta: float, eps_sum, chi_sum):
    """log of the thermal weight exp(-beta*(chi_sum + eps_sum/2)) of a bath
    pattern with these signed sums (see ConfigQuantities), elementwise."""
    return -beta * (chi_sum + 0.5 * eps_sum)


def _quantities_from_sums(sys: SystemParams, th: Thermal,
                          g_sum, eps_sum, chi_sum) -> ConfigQuantities:
    splitting = _finite("qubit splitting epsilon + g_sum", sys.epsilon + g_sum)
    rabi = 0.5 * np.hypot(splitting, sys.delta)
    log_weight = log_thermal_weight(th.beta, eps_sum, chi_sum)
    return ConfigQuantities(g_sum, eps_sum, chi_sum, *map(_scalar_or_array,
                                                          (splitting, rabi, log_weight)))


def bath_sums(bath: BathParams, mask) -> tuple:
    """(g_sum, eps_sum, chi_sum) for the bath pattern given as a bitmask, or
    arrays of them for an array of masks (see module docstring for the bit
    convention)."""
    n = bath.n_spins
    masks = np.asarray(mask)
    if np.any(masks < 0) or np.any(masks >= (1 << n)):
        raise ParameterError(f"mask {mask} out of range for {n} bath spins")
    signs = 1.0 - 2.0 * ((masks[..., None] >> np.arange(n)) & 1)
    # bond i couples sites i and i+1, the last one wrapping on a ring
    bonds = (signs * np.roll(signs, -1, axis=-1))[..., :bath.bond_count]
    sums = (signs @ np.array(bath.g_i), signs @ np.array(bath.eps_i),
            bonds @ np.array(bath.chi_i))
    return tuple(map(_scalar_or_array, sums))


def class_sums(bath: BathParams, k, w) -> tuple:
    """(g_sum, eps_sum, chi_sum) shared by every pattern with k down spins and
    w domain walls, elementwise over arrays k and w. Valid only for uniform
    bath parameters, where the signed sums depend on the pattern only through
    (k, w): each down spin flips one g and one eps term, each wall flips one
    bond term."""
    eps, g, chi = require_uniform(bath)
    n, bonds = bath.n_spins, bath.bond_count
    k, w = np.asarray(k), np.asarray(w)
    if np.any(k < 0) or np.any(k > n):
        raise ParameterError(f"down-spin count {k} out of range for {n} spins")
    if np.any(w < 0) or np.any(w > bonds):
        raise ParameterError(f"wall count {w} out of range for {bonds} bonds")
    sums = (g * (n - 2 * k), eps * (n - 2 * k), chi * (bonds - 2 * w))
    return tuple(map(_scalar_or_array, sums))


def config_quantities(sys: SystemParams, bath: BathParams, th: Thermal,
                      mask) -> ConfigQuantities:
    """Scalars for the bath pattern given as a bitmask (arrays for an array
    of masks)."""
    g_sum, eps_sum, chi_sum = bath_sums(bath, mask)
    return _quantities_from_sums(sys, th, g_sum, eps_sum, chi_sum)


def class_quantities(sys: SystemParams, bath: BathParams, th: Thermal,
                     k, w) -> ConfigQuantities:
    """Scalars shared by one (k, w) degeneracy class of a uniform bath
    (arrays for arrays of classes)."""
    g_sum, eps_sum, chi_sum = class_sums(bath, k, w)
    return _quantities_from_sums(sys, th, g_sum, eps_sum, chi_sum)


def pure_state(amplitudes) -> np.ndarray:
    """Validate and return a unit-norm complex state vector."""
    psi = np.asarray(amplitudes, dtype=complex).ravel()
    if not np.all(np.isfinite(psi.view(float))):
        raise ParameterError("state amplitudes must be finite")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ParameterError(f"state must have unit norm, got {norm!r}")
    psi.setflags(write=False)
    return psi


def bloch_components(psi) -> tuple[float, float, float]:
    """(px, py, pz) expectation values of the Pauli operators in a qubit state."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.shape != (2,):
        raise ParameterError(f"expected a 2-amplitude state, got shape {psi.shape}")
    cross = complex(np.conj(psi[0]) * psi[1])
    pz = float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)
    return 2.0 * cross.real, 2.0 * cross.imag, pz


def log_thermal_overlap(beta: float, energies, populations):
    """log <psi| exp(-beta h) |psi> = log sum_j p_j exp(-beta E_j) over the
    last axis, for h's eigenvalues E_j and psi's populations p_j on them.
    np.logaddexp keeps it finite at any beta; zero populations drop out, and
    beta = 0 gives exactly 0.0 (populations sum to 1 only up to rounding)."""
    if beta == 0.0:
        return _scalar_or_array(np.zeros(np.shape(populations)[:-1]))
    with np.errstate(divide="ignore"):
        exponents = np.log(populations) - beta * np.asarray(energies)
    return _scalar_or_array(np.logaddexp.reduce(exponents, axis=-1))


def log_correlation_factor(sys: SystemParams, th: Thermal, splitting, rabi,
                           psi) -> float:
    """log of the correlation factor for a pattern's qubit splitting and rabi
    frequency (see ConfigQuantities), elementwise over arrays of them.

    The correlation factor is the weight correction from a correlated
    system-bath preparation: <psi| exp(-beta h) |psi> for the conditional
    qubit Hamiltonian h of this bath pattern, always mathematically positive.
    It multiplies the thermal weight of the pattern when the joint state was
    prepared by projecting the system out of a global thermal state instead
    of attaching an independent thermal bath.

    h = (splitting/2) sigma_z + (delta/2) sigma_x has eigenvalues +-rabi, on
    which psi has populations q_± = (1 ± <h>/rabi)/2 (both 1/2 where rabi = 0
    and h vanishes), so log_thermal_overlap gives the factor
    exp(-beta*rabi) q_+ + exp(beta*rabi) q_-, with no singularity at rabi -> 0.
    """
    px, _, pz = bloch_components(psi)
    mean_h = 0.5 * (splitting * pz + sys.delta * px)
    rabi = np.asarray(rabi)
    ratio = np.divide(mean_h, rabi, out=np.zeros(rabi.shape), where=rabi != 0.0)
    # rounding can push |ratio| past 1; a population is never negative
    populations = np.maximum(0.0, 0.5 * (1.0 + np.stack((ratio, -ratio), axis=-1)))
    return log_thermal_overlap(th.beta, np.stack((rabi, -rabi), axis=-1), populations)

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
import functools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .numerics import _converted, _finite_array

STATE_NORM_TOL = 1e-12
# the most bath spins whose 2^N patterns bath_sums tabulates (384 MiB at the cap)
ENUMERATION_CAP = 24


class Boundary(enum.Enum):
    OPEN = "open"
    PERIODIC = "periodic"

    @classmethod
    def _missing_(cls, value):
        raise ParameterError(f"boundary must be open or periodic, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Central-qubit level spacing and tunneling amplitude."""

    epsilon: float
    delta: float

    def __post_init__(self):
        for name in ("epsilon", "delta"):
            object.__setattr__(self, name, _converted(name, getattr(self, name)))


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
            object.__setattr__(self, name, _converted(name, getattr(self, name)))


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
        n = _converted("n_spins", self.n_spins, int)
        if n < 1:
            raise ParameterError(f"n_spins must be a positive integer, got {self.n_spins}")
        object.__setattr__(self, "n_spins", n)
        for name in ("eps_i", "g_i", "chi_i"):
            values = getattr(self, name)
            if not isinstance(values, Iterable):
                raise ParameterError(f"{name} must be a sequence of reals, got {values!r}")
            object.__setattr__(self, name, tuple(_converted(name, x) for x in values))
        if not isinstance(self.boundary, Boundary):
            object.__setattr__(self, "boundary", Boundary(self.boundary))
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
        n_spins, boundary = _converted("n_spins", n_spins, int), Boundary(boundary)
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
        object.__setattr__(self, "beta", _converted("beta", self.beta))
        if self.beta < 0:
            raise ParameterError(f"beta must be >= 0, got {self.beta}")


def _check_records(*records: tuple[str, object, type], error: type = ParameterError) -> None:
    """Raise error, a ParameterError unless given, naming the expected type for
    the first (name, value, expected type) record whose value is of another
    type."""
    for name, value, expected in records:
        if not isinstance(value, expected):
            raise error(f"{name} must be a {expected.__name__}, got {type(value).__name__}")


def _finite(name: str, value):
    """value, or a ParameterError naming it when the parameters made an entry
    overflow to inf or nan; callers compute it with numpy's warnings off."""
    if not np.all(np.isfinite(value)):
        raise ParameterError(f"{name} is not finite: the parameters overflow")
    return value


def log_thermal_weight(beta: float, eps_sum, chi_sum):
    """log of the thermal weight exp(-beta*(chi_sum + eps_sum/2)) of a bath
    pattern with these signed sums (see bath_sums), elementwise.

    The weight itself over- or underflows for extreme beta*N, so every sum
    downstream works from the log weights, shifted by their largest entry
    before the exp."""
    return -beta * (chi_sum + 0.5 * eps_sum)


def bath_sums(bath: BathParams) -> np.ndarray:
    """(g_sum, eps_sum, chi_sum) of every bath pattern as one (3, 2^N) array,
    whose column m is the pattern of bitmask m (see module docstring for the
    bit convention). Each is a signed sum over the pattern: a site's g_i and
    eps_i count + when its spin is up and - when down, a bond's chi_i + when
    its two spins are aligned and - when not. g_sum is the net coupling
    field the qubits see, and eps_sum/2 + chi_sum the pattern's bath energy.

    The table is filled in place one bit at a time: once bit j is done, its
    first 2^(j+1) columns hold the sums over the sites of bits 0..j, so an
    entry is its terms added in site order. Bit j is 0 (up) in columns
    [0, h) and 1 (down) in [h, 2h), h = 2^j, so each row's [h, 2h) is its
    [0, h) minus the site's term, written before [0, h) gains the term. The
    ring's closing bond, from site N back to site 1, is added last. Every
    step writes 1-d row slices that do not overlap, so numpy buffers
    nothing: O(2^N) adds, and nothing 2^N-sized beside the table. N is at
    most ENUMERATION_CAP, as the trajectories check before calling."""
    n = bath.n_spins
    sums = np.empty((3, 1 << n))
    sums[:, 0] = 0.0
    g_row, eps_row, chi_row = sums
    for j in range(n):
        h = 1 << j
        for row, value in ((g_row, bath.g_i[j]), (eps_row, bath.eps_i[j])):
            np.subtract(row[:h], value, out=row[h:2 * h])
            row[:h] += value
        # bond j-1 joins the sites of bits j and j-1, and bit j-1 is up in
        # the first half of [0, h) and of [h, 2h) and down in the second:
        # +chi where they agree. Bit 0's site has no bond before it
        q, chi = h // 2, bath.chi_i[j - 1] if j else 0.0
        np.subtract(chi_row[:q], chi, out=chi_row[h:h + q])
        np.add(chi_row[q:h], chi, out=chi_row[h + q:2 * h])
        chi_row[:q] += chi
        chi_row[q:h] -= chi
    if bath.boundary is Boundary.PERIODIC:
        chi = bath.chi_i[n - 1]
        if n == 1:
            # a ring of one spin bonds it to itself, always aligned
            chi_row += chi
        else:
            # axes 0 and 2 hold the bits of sites N and 1: +chi where they
            # agree. A scalar per strided view, as a broadcast operand would
            # be buffered
            ring = chi_row.reshape(2, -1, 2)
            for bit in (0, 1):
                ring[bit, :, bit] += chi
                ring[bit, :, 1 - bit] -= chi
    return sums


def class_sums(bath: BathParams, k, w) -> tuple:
    """(g_sum, eps_sum, chi_sum) shared by every pattern with k down spins and
    w domain walls, elementwise over arrays k and w. Valid only for uniform
    bath parameters, where the signed sums depend on the pattern only through
    (k, w): each down spin flips one g and one eps term, each wall flips one
    bond term. k and w are a class's counts, as collapse_classes lists them."""
    eps, g, chi = require_uniform(bath)
    n, bonds = bath.n_spins, bath.bond_count
    return g * (n - 2 * k), eps * (n - 2 * k), chi * (bonds - 2 * w)


def config_quantities(sys: SystemParams, g_sum) -> tuple:
    """(splitting, rabi) of the qubit under coupling fields g_sum, elementwise:
    epsilon + g_sum and the rabi frequency sqrt(splitting^2 + delta^2)/2."""
    splitting = _finite("qubit splitting epsilon + g_sum", sys.epsilon + g_sum)
    return splitting, 0.5 * np.hypot(splitting, sys.delta)


def class_quantities(sys: SystemParams, bath: BathParams, k, w) -> tuple:
    """(splitting, rabi) shared by one (k, w) degeneracy class of a uniform
    bath (arrays for arrays of classes)."""
    return config_quantities(sys, class_sums(bath, k, w)[0])


def pure_state(amplitudes) -> np.ndarray:
    """Validate and return a unit-norm complex state vector."""
    psi = _finite_array("state amplitudes", amplitudes, complex)
    if sum(n > 1 for n in psi.shape) > 1:
        raise ParameterError(f"state amplitudes must be one vector, got shape {psi.shape}")
    psi = psi.ravel()
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ParameterError(f"state must have unit norm, got {norm!r}")
    psi.setflags(write=False)
    return psi


def bloch_components(psi) -> tuple[float, float, float]:
    """(px, py, pz) expectation values of the Pauli operators in a qubit state."""
    psi = _finite_array("state amplitudes", psi, complex).ravel()
    if psi.shape != (2,):
        raise ParameterError(f"expected a 2-amplitude state, got shape {psi.shape}")
    cross = complex(np.conj(psi[0]) * psi[1])
    pz = float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)
    return 2.0 * cross.real, 2.0 * cross.imag, pz


def log_thermal_overlap(beta: float, energies, populations):
    """log <psi| exp(-beta h) |psi> = log sum_j p_j exp(-beta E_j), elementwise,
    for h's eigenvalues E_j and psi's populations p_j on them, given level by
    level: one array (or number) per level j. The terms fold in level order
    with np.logaddexp, which keeps the sum finite at any beta; zero
    populations drop out, and beta = 0 gives exactly 0.0 (populations sum to
    1 only up to rounding)."""
    if beta == 0.0:
        return np.zeros(np.shape(populations[0]))
    with np.errstate(divide="ignore"):
        terms = [np.log(p) - beta * np.asarray(e) for e, p in zip(energies, populations)]
    return functools.reduce(np.logaddexp, terms)


def log_correlation_factor(sys: SystemParams, th: Thermal, splitting, rabi,
                           psi) -> np.ndarray:
    """log of the correlation factor for a pattern's qubit splitting and rabi
    frequency (see config_quantities), elementwise over arrays of them.

    The correlation factor is the weight correction from a correlated
    system-bath preparation: <psi| exp(-beta h) |psi> for the conditional
    qubit Hamiltonian h of this bath pattern, always mathematically positive.
    It multiplies the thermal weight of the pattern when the joint state was
    prepared by projecting the system out of a global thermal state instead
    of attaching an independent thermal bath.

    h = (splitting/2) sigma_z + (delta/2) sigma_x has eigenvalues +-rabi, on
    which psi has populations q_± = (1 ± <h>/rabi)/2 (both 1/2 where rabi = 0
    and h vanishes), so the factor is exp(-beta*rabi) q_+ + exp(beta*rabi) q_-,
    with no singularity at rabi -> 0: log_thermal_overlap over those two levels.
    splitting and rabi are floats or float arrays, as config_quantities returns them.
    """
    px, _, pz = bloch_components(psi)
    mean_h = 0.5 * (splitting * pz + sys.delta * px)
    ratio = np.divide(mean_h, rabi, out=np.zeros(np.shape(rabi)), where=rabi != 0.0)
    # rounding can push |ratio| past 1, and a population is never negative
    populations = (np.maximum(0.0, 0.5 * (1.0 + ratio)), np.maximum(0.0, 0.5 * (1.0 - ratio)))
    return log_thermal_overlap(th.beta, (rabi, -rabi), populations)

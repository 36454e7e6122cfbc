"""Dense Hermitian linear algebra, deterministic summation, and a seeded RNG.

Everything downstream funnels its numerics through this module so the
determinism contract lives in one place: reductions use a fixed-shape
pairwise tree (bit-identical from run to run) and random parameter draws
come from a self-contained xorshift64* stream so results never depend on
the numpy version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY_2):
    _m.setflags(write=False)

# max |M - M^dagger| allowed relative to max |M|
HERMITICITY_TOL = 1e-10


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns, so that
    matrix == vectors @ diag(values) @ vectors.conj().T for every matrix.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ParameterError("matrix has non-finite entries")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    dev = np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    if np.any(dev > HERMITICITY_TOL * scale):
        raise ParameterError(
            f"matrix is not Hermitian: max |M - M^H| / max(1, max |M|) = "
            f"{float(np.max(dev / scale)):.3e}"
        )
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc
    return values, vectors


def pairwise_sum(values) -> float:
    """Sum of real values by a fixed-shape pairwise tree.

    The tree shape depends only on len(values), so the result is
    bit-identical across runs. Error grows like log2(n) * eps instead of the
    n * eps of naive left-to-right addition.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"expected a 1-d array of reals, got shape {arr.shape}")
    return float(_pairwise_over_rows(arr))


def _pairwise_over_rows(arr: np.ndarray):
    """Pairwise reduction over axis 0; works for 1-d (scalars) and 2-d (rows)."""
    if arr.shape[0] == 0:
        return np.zeros(arr.shape[1:], dtype=arr.dtype)
    while arr.shape[0] > 1:
        even = arr.shape[0] - (arr.shape[0] % 2)
        paired = arr[0:even:2] + arr[1:even:2]
        if arr.shape[0] % 2:
            paired = np.concatenate([paired, arr[even:]], axis=0)
        arr = paired
    return arr[0]


RNG_ALGORITHM = "xorshift64star-box-muller"

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RandomSpec:
    """A Gaussian distribution plus the seed and algorithm that sample it."""

    mean: float
    std_dev: float
    seed: int
    algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std_dev)):
            raise ParameterError("RandomSpec mean/std_dev must be finite")
        if self.std_dev < 0:
            raise ParameterError(f"std_dev must be >= 0, got {self.std_dev}")
        if not 0 <= int(self.seed) < (1 << 64):
            raise ParameterError("seed must fit in an unsigned 64-bit integer")
        if self.algorithm != RNG_ALGORITHM:
            raise ParameterError(
                f"unknown RNG algorithm {self.algorithm!r}; this build provides {RNG_ALGORITHM!r}"
            )


def _splitmix64(x: int) -> int:
    # seed scrambler; keeps seed 0 usable and decorrelates nearby seeds
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class GaussianStream:
    """Seeded stream of standard-normal deviates: xorshift64* + Box-Muller."""

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & _MASK64)
        # xorshift state must never be zero
        self._state = state if state != 0 else _SPLITMIX_GAMMA
        self._spare: float | None = None

    def _next_u64(self) -> int:
        s = self._state
        s ^= (s >> 12)
        s = (s ^ ((s << 25) & _MASK64))
        s ^= (s >> 27)
        self._state = s
        return (s * _XORSHIFT_MULT) & _MASK64

    def _next_unit(self) -> float:
        # uniform on (0, 1]: top 53 bits, shifted off zero so log() is safe
        return ((self._next_u64() >> 11) + 1) * (2.0 ** -53)

    def next_normal(self) -> float:
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        u1 = self._next_unit()
        u2 = self._next_unit()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._spare = radius * math.sin(angle)
        return radius * math.cos(angle)


def gaussian_draw(spec: RandomSpec, count: int) -> np.ndarray:
    """count independent draws from Normal(mean, std_dev) under spec's seed.

    Deterministic for a fixed (seed, algorithm) pair; successive calls with
    the same spec restart the stream rather than continuing it.
    """
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    stream = GaussianStream(spec.seed)
    out = np.empty(count, dtype=float)
    for i in range(count):
        out[i] = spec.mean + spec.std_dev * stream.next_normal()
    return out

"""Dense Hermitian linear algebra, deterministic summation, and a seeded RNG.

Everything downstream funnels its numerics through this module so the
determinism contract lives in one place: streamed block sums join by a
fixed-shape pairwise tree (bit-identical from run to run) and random
parameter draws come from a self-contained xorshift64* stream so results
never depend on the numpy version.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    Returns (eigenvalues, eigenvectors), eigenvalues ascending, eigenvectors
    orthonormal columns (float64 for a real input), so that
    matrix == vectors @ diag(values) @ vectors.conj().T for every matrix.
    Hermiticity is the caller's to hold: LAPACK reads the lower triangle
    alone.
    """
    m = _finite_array("matrix", matrix, complex if np.iscomplexobj(matrix) else float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {m.shape}")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed to converge: {exc}") from exc
    return values, vectors


def _converted(name: str, value, kind: type = float):
    """kind(value), float or int, or a ParameterError naming the field; a
    float must be finite, and an int must not be a bool or a number that
    int() changes. What kind() converts, such as "1.5", is accepted."""
    try:
        converted = kind(value)
        if kind is int and (isinstance(value, (bool, np.bool_))
                            or not isinstance(value, str) and converted != value):
            converted = None
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or (kind is float and not math.isfinite(converted)):
        noun = "a finite real number" if kind is float else "an integer"
        raise ParameterError(f"{name} must be {noun}, got {value!r}")
    return converted


def _finite_array(name: str, value, dtype) -> np.ndarray:
    """value as a finite array of dtype, or a ParameterError naming the field;
    an array of dtype is returned as is."""
    try:
        array = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"{name} must be numeric: {exc}") from exc
    if not np.isfinite(array).all():
        raise ParameterError(f"{name} has non-finite entries")
    return array


def _pairwise_total(items):
    """The sum of an iterable of equal-shape arrays by a pairwise tree whose
    shape depends only on their count: the left part of n items is the
    largest power of two below n. It is kept as a stack of log2(n) + 1 sums:
    item n merges with one stacked sum per trailing zero bit of n."""
    stack = []
    for n, item in enumerate(items, 1):
        while not n & 1:
            item = stack.pop() + item
            n >>= 1
        stack.append(item)
    return functools.reduce(lambda total, partial: partial + total, reversed(stack))


RNG_ALGORITHM = "xorshift64star-box-muller"

_MASK64 = (1 << 64) - 1
_XORSHIFT_MULT = 0x2545F4914F6CDD1D
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RandomSpec:
    """A Gaussian distribution plus the seed that samples it."""

    mean: float
    std_dev: float
    seed: int

    def __post_init__(self):
        for name, kind in (("mean", float), ("std_dev", float), ("seed", int)):
            object.__setattr__(self, name, _converted(name, getattr(self, name), kind))
        if self.std_dev < 0:
            raise ParameterError(f"std_dev must be >= 0, got {self.std_dev}")
        if not 0 <= self.seed < (1 << 64):
            raise ParameterError("seed must fit in an unsigned 64-bit integer")


def _splitmix64(x: int) -> int:
    # seed scrambler; keeps seed 0 usable and decorrelates nearby seeds
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _standard_normals(seed: int):
    """Endless seeded stream of standard-normal deviates: xorshift64* draws,
    turned two at a time into a Box-Muller pair (the cosine one first)."""
    # xorshift state must never be zero
    state = _splitmix64(seed & _MASK64) or _SPLITMIX_GAMMA
    while True:
        units = []
        for _ in range(2):
            state ^= state >> 12
            state ^= (state << 25) & _MASK64
            state ^= state >> 27
            # uniform on (0, 1]: top 53 bits, shifted off zero so log() is safe
            units.append(((((state * _XORSHIFT_MULT) & _MASK64) >> 11) + 1) * 2.0 ** -53)
        radius = math.sqrt(-2.0 * math.log(units[0]))
        angle = 2.0 * math.pi * units[1]
        yield radius * math.cos(angle)
        yield radius * math.sin(angle)


def gaussian_draw(spec: RandomSpec, count: int) -> np.ndarray:
    """count independent draws from Normal(mean, std_dev) under spec's seed.

    Deterministic for a fixed seed; successive calls with the same spec
    restart the stream rather than continuing it.
    """
    if not isinstance(spec, RandomSpec):
        raise ParameterError(f"spec must be a RandomSpec, got {type(spec).__name__}")
    count = _converted("count", count, int)
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    return spec.mean + spec.std_dev * np.fromiter(_standard_normals(spec.seed), float, count)

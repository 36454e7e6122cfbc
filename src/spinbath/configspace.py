"""Bath configuration enumeration and deterministic weighted reductions.

Two backends list the bath items, and the qubits see an item through its
coupling field g_sum alone, so both fold their items onto the distinct
fields (fold_fields) before any qubit work:

  enumerate  every bit pattern of N bath spins, exact for arbitrary per-site
             parameters, cost 2^N;
  collapse   degeneracy classes (k down spins, w domain walls) that share all
             per-pattern scalars when the bath parameters are uniform, cost
             O(N^2) classes, which is what makes N = 50 runs instant.

The weighted sums over fields (reduce_weighted) are bit-identical from run
to run: each is a BLAS call per block of fields, series, column set and
time point, of a shape set by the block alone, and block sums join by one
pairwise tree, so how the time points are grouped changes nothing.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import CapacityError, ParameterError
from .model import ENUMERATION_CAP, Boundary, _finite
from .numerics import _converted, _finite_array, _pairwise_sum, _pairwise_total

# a two-series, 40-point run at the cap peaks below 1 GB (measured in README)
COLLAPSE_CAP = 3_500
# the stack size of the pair's batched 4x4 decompositions
ITEM_BLOCK = 1024
# fields per block of the one-qubit setup and sweep: temporaries below a MB
SETUP_BLOCK = 8 * ITEM_BLOCK
# the sweep computes the phases of as many time points at once as keep a
# block's (times, fields x frequencies) phases within this many elements
BLOCK_ELEMENTS = 1 << 15


class Backend(enum.Enum):
    ENUMERATE = "enumerate"
    COLLAPSE = "collapse"

    @classmethod
    def _missing_(cls, value):
        raise ParameterError(f"backend must be enumerate or collapse, got {value!r}")


def _require_capacity(n_spins: int, backend: Backend) -> int:
    """n_spins as an int, or raise unless backend can sum a bath of that many
    spins."""
    n_spins = _converted("n_spins", n_spins, int)
    if n_spins < 1:
        raise ParameterError(f"n_spins must be >= 1, got {n_spins}")
    if Backend(backend) is Backend.ENUMERATE and n_spins > ENUMERATION_CAP:
        raise CapacityError(
            f"enumerating 2^{n_spins} configurations exceeds the cap of 2^{ENUMERATION_CAP}; "
            f"only a uniform bath runs beyond {ENUMERATION_CAP} spins, through collapse"
        )
    if Backend(backend) is Backend.COLLAPSE and n_spins > COLLAPSE_CAP:
        raise CapacityError(f"n_spins {n_spins} exceeds the collapse cap {COLLAPSE_CAP}")
    return n_spins


def collapse_classes(n_spins: int, boundary: Boundary = Boundary.OPEN) -> np.recarray:
    """Degeneracy classes of a chain of n_spins spins, its boundary a
    Boundary or its name: a record array with fields k (down spins), w
    (domain walls) and log_multiplicity, sorted by (k, w).

    Multiplicities come from run combinatorics: a pattern with k down spins
    arranged in r maximal runs has w = r - 1 walls on an open chain, and an
    even wall count on a ring. With m = min(k, N - k), an open chain has
    w = 1 .. min(2m, N - 1) and a ring w = 2, 4, .. 2m; k = 0 and k = N have
    w = 0 alone. For a = (w - 1) // 2 the count is
    C(k-1, a) C(N-k-1, a) times 2 (open, odd w), 2 (N - w) / w (open, even
    w) or 2 N / w (ring). Logs of the binomials come from one table of log
    factorials, so no N overflows; the multiplicities sum to 2^N.
    """
    n = _require_capacity(n_spins, Backend.COLLAPSE)
    down = np.arange(n + 1)
    m = np.minimum(down, n - down)
    periodic = Boundary(boundary) is Boundary.PERIODIC
    per_k = np.where(m == 0, 1, m if periodic else np.minimum(2 * m, n - 1))
    k = np.repeat(down, per_k)
    rank = np.arange(k.size) - np.repeat(np.cumsum(per_k) - per_k, per_k)
    w = np.where(m[k] == 0, 0, 2 * rank + 2 if periodic else rank + 1)
    log_multiplicity = np.zeros(k.size)
    inner = w > 0
    ki, wi = k[inner], w[inner]
    a = (wi - 1) // 2
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    log_binomials = (log_factorial[ki - 1] + log_factorial[n - ki - 1] - 2 * log_factorial[a]
                     - log_factorial[ki - 1 - a] - log_factorial[n - ki - 1 - a])
    ratio = n / wi if periodic else np.where(wi % 2, 1.0, (n - wi) / wi)
    log_multiplicity[inner] = log_binomials + np.log(2.0 * ratio)
    return np.rec.fromarrays([k, w, log_multiplicity], names="k,w,log_multiplicity")


def fold_fields(field, log_weight) -> tuple[np.ndarray, np.ndarray]:
    """Fold items onto their distinct coupling fields.

    log_weight holds each item's log weight (a collapse class's carries its
    log multiplicity). Returns, in ascending field order, the index of each
    field's first item and the log of the field's summed weights, found in
    log space. Fields that compare equal merge, so -0.0 joins 0.0. Both are
    1-d arrays of one length, as the bath stage builds them.
    """
    # a stable sort is cheap where the fields arrive monotone, as collapse
    # classes do in k order; elsewhere the default sort is faster, and item
    # order inside a run of equal fields is restored below. The end points
    # tell the one direction to check
    later, earlier = field[1:], field[:-1]
    monotone = bool(np.all(later <= earlier) if field.size and field[-1] < field[0]
                    else np.all(later >= earlier))
    order = np.argsort(field, kind="stable" if monotone else None)
    ordered = field[order]
    starts = np.empty(len(order), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    if len(first) < len(order) and not monotone:
        # one sort of (run, item) keys puts each run's items in item order
        keys = ((np.cumsum(starts) - 1) << 32) | order
        keys.sort()
        order = keys & 0xFFFFFFFF
    logs = log_weight[order]
    if len(first) == len(order):
        # no field repeats: a lone item's log-sum-exp, x + log(exp(x - x)),
        # is x + (x - x) bit for bit, -0.0 and non-finite x included
        return order, logs + (logs - logs)
    top = np.maximum.reduceat(logs, first)
    logs -= np.repeat(top, np.diff(first, append=len(logs)))
    np.exp(logs, out=logs)
    top += np.log(np.add.reduceat(logs, first))
    return order[first], top


def _series_flags(correlated) -> tuple[bool, ...]:
    """correlated, a non-empty sequence of bools (one per series), as a
    tuple, or a ParameterError."""
    try:
        flags = tuple(correlated)
    except TypeError:
        flags = None
    if flags is None or not all(isinstance(flag, (bool, np.bool_)) for flag in flags):
        raise ParameterError(f"correlated must be a sequence of bools, got {correlated!r}")
    if not flags:
        raise ParameterError("correlated must hold at least one series flag")
    return tuple(map(bool, flags))


def _time_grid(times) -> np.ndarray:
    """times as a non-empty, finite, ascending 1-d float array, or a
    ParameterError."""
    t = _finite_array("times", times, float)
    if t.ndim != 1 or t.size == 0:
        raise ParameterError("times must be a non-empty 1-d sequence")
    if np.any(np.diff(t) < 0):
        raise ParameterError("times must be ascending")
    return t


def series_log_weights(log_weight, log_factor, correlated: tuple[bool, ...]) -> np.ndarray:
    """The (fields, S) log weights: column s is the 1-d array log_weight, plus
    the correlation factor log_factor where correlated[s], flags that
    _series_flags has checked."""
    return np.stack([log_weight + log_factor if flag else log_weight
                     for flag in correlated], axis=1)


def _unit_phases(frequencies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i w t) at each of times (rows) and frequencies w (columns), from
    one tangent of the half angle: with tau = tan(-w t / 2) and
    r = 2 / (1 + tau^2), exp(-i w t) = (r - 1) + i tau r."""
    tau = np.multiply(times[:, None], -0.5 * frequencies)
    np.tan(tau, out=tau)
    phases = np.empty(tau.shape, dtype=complex)
    r = np.multiply(tau, tau, out=phases.real)
    r += 1.0
    np.divide(2.0, r, out=r)
    np.multiply(tau, r, out=phases.imag)
    r -= 1.0
    return phases


def reduce_weighted(spectra, log_weight, times) -> tuple[np.ndarray, np.ndarray]:
    """The spectral sums S_s(t) = sum_b W_sb [c_b + sum_m a_bm exp(-i w_bm t)]
    / Z_s over fields b, one per column s of the (fields, S) log weights
    log W_sb: read-only, (S, len(times), G, cols), with log Z_s (S,).

    spectra yields, block by block in log_weight's row order, f fields'
    constants c (G, f, cols), coefficients a (G, f, M, cols) and frequencies
    w (f, M): G sets of cols complex columns. times are as _time_grid makes
    them. Each column of log weights is shifted by its largest entry, so no
    weight overflows and Z_s >= 1. The constants are summed by calls of the
    shape each time point's takes when M == 1, so unit phases cancel them
    exactly.
    """
    t = np.asarray(times, dtype=float)
    # (S, fields), so the normalizer's tree runs over the last axis; a copy
    weight = np.array(_finite("log weight", log_weight).T, order="C")
    shift = weight.max(axis=1)
    weight -= shift[:, None]
    np.exp(weight, out=weight)
    normalizer = _pairwise_sum(weight)

    def block_sums():
        start = 0
        for constant, coefficients, frequencies in spectra:
            n_sets, count, _, n_columns = coefficients.shape
            # (S, 1, f, 1): each series' weights of the block's fields
            block_weight = weight[:, None, start:start + count, None]
            start += count
            # (S, G, T, cols), from one (1, f) @ (f, cols) call per series and set
            sums = np.repeat(np.matmul(np.ones((1, count), dtype=complex),
                                       constant * block_weight), t.size, axis=2)
            weighted = (coefficients * block_weight[..., None]).reshape(
                len(weight), n_sets, 1, frequencies.size, n_columns)
            step = max(1, BLOCK_ELEMENTS // frequencies.size)
            for begin in range(0, t.size, step):
                points = slice(begin, begin + step)
                with np.errstate(over="ignore", invalid="ignore"):
                    phases = _unit_phases(frequencies.reshape(-1), t[points])
                # one (1, f M) @ (f M, cols) call per series, set and point
                sums[:, :, points] += np.matmul(phases[:, None], weighted)[..., 0, :]
            yield sums

    means = _pairwise_total(block_sums()).swapaxes(1, 2)
    means /= normalizer[:, None, None, None]
    means.setflags(write=False)
    # the spectra are bounded, so only an overflowing phase makes a sum inf or nan
    return _finite("sum over the time grid", means), shift + np.log(normalizer)

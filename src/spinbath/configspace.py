"""Bath configuration enumeration and deterministic weighted reductions.

Two backends list the bath items, and the qubits see an item through its
coupling field g_sum alone, so both fold their items onto the distinct
fields (fold_fields) before any qubit work:

  enumerate  every bit pattern of N bath spins, exact for arbitrary per-site
             parameters, cost 2^N;
  collapse   degeneracy classes (k down spins, w domain walls) that share all
             per-pattern scalars when the bath parameters are uniform, cost
             O(N^2) classes, which is what makes N = 50 runs instant.

Reductions are bit-identical from run to run: items are summed by one
pairwise tree over the fields, evaluated block by block (ITEM_BLOCK is a
power of two), so the summation order depends only on the item count. Time
points are independent, so how they are split into blocks changes nothing.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import CapacityError, ParameterError
from .model import Boundary, _finite
from .numerics import _pairwise_over_rows

ENUMERATION_CAP = 24
# a two-series, 40-point run at the cap peaks below 1 GB (measured in README)
COLLAPSE_CAP = 3_500
# items per block, for setup and the sweep; a power of two, so block sums
# combine into the one pairwise tree over all items
ITEM_BLOCK = 1024
# the sweep takes as many time points per block as keep items x times x dim
# within this many elements (at least one point)
BLOCK_ELEMENTS = 1 << 15


class Backend(enum.Enum):
    ENUMERATE = "enumerate"
    COLLAPSE = "collapse"


def _require_capacity(n_spins: int, backend: Backend) -> None:
    """Raise unless backend can sum a bath of n_spins spins."""
    if n_spins < 1:
        raise ParameterError(f"n_spins must be >= 1, got {n_spins}")
    if Backend(backend) is Backend.ENUMERATE and n_spins > ENUMERATION_CAP:
        raise CapacityError(
            f"enumerating 2^{n_spins} configurations exceeds the cap of 2^{ENUMERATION_CAP}; "
            "use the collapse backend (uniform parameters required)"
        )
    if Backend(backend) is Backend.COLLAPSE and n_spins > COLLAPSE_CAP:
        raise CapacityError(f"n_spins {n_spins} exceeds the collapse cap {COLLAPSE_CAP}")


def mask_blocks(n_spins: int):
    """Every bath bitmask for n_spins spins, as ascending arrays of at most
    ITEM_BLOCK masks; enforces the enumeration cap."""
    _require_capacity(n_spins, Backend.ENUMERATE)
    total = 1 << n_spins
    return (np.arange(start, min(start + ITEM_BLOCK, total))
            for start in range(0, total, ITEM_BLOCK))


def collapse_classes(n_spins: int, boundary: Boundary = Boundary.OPEN) -> np.recarray:
    """Degeneracy classes of a chain of n_spins spins: a record array with
    fields k (down spins), w (domain walls) and log_multiplicity, sorted by
    (k, w).

    Multiplicities come from run combinatorics: a pattern with k down spins
    arranged in r maximal runs has w = r - 1 walls on an open chain, and an
    even wall count on a ring. With m = min(k, N - k), an open chain has
    w = 1 .. min(2m, N - 1) and a ring w = 2, 4, .. 2m; k = 0 and k = N have
    w = 0 alone. For a = (w - 1) // 2 the count is
    C(k-1, a) C(N-k-1, a) times 2 (open, odd w), 2 (N - w) / w (open, even
    w) or 2 N / w (ring). Logs of the binomials come from one table of log
    factorials, so no N overflows; the multiplicities sum to 2^N.
    """
    _require_capacity(n_spins, Backend.COLLAPSE)
    n = n_spins
    down = np.arange(n + 1)
    m = np.minimum(down, n - down)
    periodic = boundary is Boundary.PERIODIC
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
    log space. Fields that compare equal merge, so -0.0 joins 0.0.
    """
    order = np.argsort(field, kind="stable")
    first = np.flatnonzero(np.diff(np.asarray(field)[order], prepend=np.nan) != 0)
    logs = np.asarray(log_weight, dtype=float)[order]
    top = np.maximum.reduceat(logs, first)
    logs -= np.repeat(top, np.diff(first, append=len(logs)))
    np.exp(logs, out=logs)
    top += np.log(np.add.reduceat(logs, first))
    return order[first], top


def series_log_weights(log_weight, log_factor, correlated: tuple[bool, ...]) -> np.ndarray:
    """The (fields, S) log weights: column s is log_weight, plus the
    correlation factor log_factor (read only then) where correlated[s]."""
    if not correlated:
        raise ParameterError("correlated must hold at least one series flag")
    return np.stack([log_weight + log_factor if flag else log_weight
                     for flag in correlated], axis=1)


def reduce_weighted(term, log_weight, times, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted means of term over items at every time, one per column of the
    (items, S) matrix log_weight of log weights; returns the read-only means
    (S, len(times), dim) and each column's log weight sum, its log partition
    (S,).

    term(rows, t) gets a slice of item indices and an array of times and
    returns the items' unweighted terms as an array of shape
    (rows, len(t), dim). times must be a non-empty, finite, ascending 1-d
    sequence. Each column is shifted by its largest log weight before the
    exp, so no weight overflows and every normalizer is at least 1. The
    summation order depends only on the item count, so results are
    bit-identical from run to run.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ParameterError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(t)):
        raise ParameterError("times must be finite")
    if np.any(np.diff(t) < 0):
        raise ParameterError("times must be ascending")
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    log_weight = np.asarray(log_weight, dtype=float)
    if log_weight.ndim != 2 or 0 in log_weight.shape:
        raise ParameterError(
            f"log_weight must be a non-empty (items, S) matrix, got {log_weight.shape}")
    shift = _finite("log weight", log_weight).max(axis=0)
    weight = log_weight - shift
    np.exp(weight, out=weight)
    n_items, n_series = weight.shape
    rows = [slice(i, min(i + ITEM_BLOCK, n_items)) for i in range(0, n_items, ITEM_BLOCK)]
    # each column's weight sum, through the one tree the sweep evaluates by blocks
    normalizer = _pairwise_over_rows(weight)
    step = max(1, BLOCK_ELEMENTS // (min(ITEM_BLOCK, n_items) * dim))
    means = None
    for start in range(0, t.size, step):
        points = t[start:start + step]
        partials = []
        for block in rows:
            with np.errstate(over="ignore", invalid="ignore"):
                values = term(block, points)
            if values.shape != (block.stop - block.start, points.size, dim):
                raise ParameterError(f"term returned shape {values.shape} for "
                                     f"{block.stop - block.start} items, {points.size} "
                                     f"times and dim {dim}")
            # one weight column at a time, so no (rows, S, t, dim) product is held
            partials.append(np.stack([_pairwise_over_rows(values * column[:, None, None])
                                      for column in weight[block].T]))
        if means is None:
            means = np.empty((n_series, t.size, dim), dtype=values.dtype)
        means[:, start:start + points.size] = _pairwise_over_rows(np.stack(partials))
    means /= normalizer[:, None, None]
    means.setflags(write=False)
    # the terms are bounded, so only an overflowing phase makes a mean inf or nan
    return _finite("sum over the time grid", means), shift + np.log(normalizer)

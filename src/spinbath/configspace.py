"""Bath configuration enumeration and deterministic weighted reductions.

Two backends feed every propagator sum:

  enumerate  every bit pattern of N bath spins, exact for arbitrary per-site
             parameters, cost 2^N;
  collapse   degeneracy classes (k down spins, w domain walls) that share all
             per-pattern scalars when the bath parameters are uniform, cost
             O(N^2) classes, which is what makes N = 50 runs instant. The
             qubit only sees the coupling field, which depends on k alone, so
             the classes fold onto the N + 1 down-spin counts before the sum.

Reductions are bit-identical from run to run: items are summed in fixed
blocks of ITEM_BLOCK through a pairwise tree, and block sums combine through
a second pairwise tree, so the summation order depends only on the item
count. Time points are independent, so how they are split into blocks
changes nothing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ParameterError
from .model import Boundary
from .numerics import _pairwise_over_rows

ENUMERATION_CAP = 24
COLLAPSE_CAP = 10_000
# items per block, for per-configuration setup and for the time sweep
ITEM_BLOCK = 1024
# the sweep takes as many time points per block as keep items x times x dim
# within this many elements (at least one point)
BLOCK_ELEMENTS = 1 << 15


class Backend(enum.Enum):
    ENUMERATE = "enumerate"
    COLLAPSE = "collapse"


@dataclass(frozen=True)
class ConfigClass:
    """All bath patterns sharing a down-spin count k and wall count w.

    Under uniform parameters every pattern in the class has identical scalars,
    so the class enters the sum once, weighted by its multiplicity.
    """

    multiplicity: int
    k: int
    w: int


@dataclass(frozen=True)
class ReductionPlan:
    """How to sweep the configuration space."""

    backend: Backend = Backend.ENUMERATE

    def __post_init__(self):
        if not isinstance(self.backend, Backend):
            object.__setattr__(self, "backend", Backend(self.backend))


def enumerate_configs(n_spins: int, cap: int = ENUMERATION_CAP):
    """Yield every bath bitmask for n_spins spins in ascending order."""
    if n_spins < 1:
        raise ParameterError(f"n_spins must be >= 1, got {n_spins}")
    if n_spins > cap:
        raise CapacityError(
            f"enumerating 2^{n_spins} configurations exceeds the cap of 2^{cap}; "
            "use the collapse backend (uniform parameters required)"
        )
    return iter(range(1 << n_spins))


def mask_blocks(n_spins: int):
    """Every bath bitmask for n_spins spins, as ascending arrays of at most
    ITEM_BLOCK masks; enforces the enumeration cap."""
    enumerate_configs(n_spins)
    total = 1 << n_spins
    return (np.arange(start, min(start + ITEM_BLOCK, total))
            for start in range(0, total, ITEM_BLOCK))


def collapse_classes(n_spins: int, boundary: Boundary = Boundary.OPEN) -> list[ConfigClass]:
    """Degeneracy classes (multiplicity, k, w) for a chain of n_spins spins.

    Multiplicities come from run combinatorics: a pattern with k down spins
    arranged in r maximal runs has w = r - 1 walls on an open chain, and an
    even wall count on a ring. Totals are exact integers and sum to 2^N.
    """
    if n_spins < 1:
        raise ParameterError(f"n_spins must be >= 1, got {n_spins}")
    if n_spins > COLLAPSE_CAP:
        raise CapacityError(f"n_spins {n_spins} exceeds the collapse cap {COLLAPSE_CAP}")
    n = n_spins
    classes: list[ConfigClass] = []
    for k in range(n + 1):
        if k == 0 or k == n:
            classes.append(ConfigClass(1, k, 0))
            continue
        if boundary is Boundary.PERIODIC:
            # j runs of down spins and j of up spins around the ring, w = 2j
            for j in range(1, min(k, n - k) + 1):
                count = n * math.comb(k - 1, j - 1) * math.comb(n - k - 1, j - 1)
                mult, rem = divmod(count, j)
                if rem:
                    raise ParameterError(f"internal: non-integer class count at {(n, k, j)}")
                classes.append(ConfigClass(mult, k, 2 * j))
        else:
            # open chain: down runs a, up runs b with |a-b| <= 1, w = a+b-1
            for w in range(1, n):
                if w % 2:
                    j = (w - 1) // 2  # a = b = j+1
                    mult = 2 * math.comb(k - 1, j) * math.comb(n - k - 1, j)
                else:
                    j = w // 2  # {a, b} = {j+1, j} in either order
                    mult = (math.comb(k - 1, j) * math.comb(n - k - 1, j - 1)
                            + math.comb(k - 1, j - 1) * math.comb(n - k - 1, j))
                if mult:
                    classes.append(ConfigClass(mult, k, w))
    classes.sort(key=lambda c: (c.k, c.w))
    return classes


def fold_classes(classes: list[ConfigClass], log_weight) -> tuple[np.ndarray, np.ndarray]:
    """Fold (k, w) classes, sorted by k, onto their down-spin counts k.

    log_weight holds one pattern's log weight per class. Returns the index of
    the first class of each k and, per k, the log of the summed class weights
    multiplicity * exp(log_weight). Multiplicities enter through math.log of
    the exact integer, so no N overflows.
    """
    k = np.array([c.k for c in classes])
    first = np.flatnonzero(np.diff(k, prepend=-1))
    logs = np.asarray(log_weight, dtype=float) + [math.log(c.multiplicity) for c in classes]
    top = np.maximum.reduceat(logs, first)
    spread = np.exp(logs - np.repeat(top, np.diff(first, append=len(logs))))
    return first, top + np.log(np.add.reduceat(spread, first))


def reduce_weighted(term, n_items: int, times, dim: int) -> np.ndarray:
    """Sum term over n_items items at every time; returns (len(times), dim).

    term(rows, t) gets a slice of item indices and an array of times and
    returns the items' terms as an array of shape (rows, len(t), dim). times
    must be a non-empty, finite, ascending 1-d sequence. The summation order
    depends only on n_items, so results are bit-identical from run to run.
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
    rows = [slice(i, min(i + ITEM_BLOCK, n_items)) for i in range(0, n_items, ITEM_BLOCK)]
    if not rows:
        return np.zeros((t.size, dim))
    step = max(1, BLOCK_ELEMENTS // (min(ITEM_BLOCK, n_items) * dim))
    sums = []
    for start in range(0, t.size, step):
        points = t[start:start + step]
        partials = []
        for block in rows:
            values = term(block, points)
            if values.shape != (block.stop - block.start, points.size, dim):
                raise ParameterError(f"term returned shape {values.shape} for "
                                     f"{block.stop - block.start} items, {points.size} "
                                     f"times and dim {dim}")
            partials.append(_pairwise_over_rows(values))
        sums.append(_pairwise_over_rows(np.stack(partials)))
    return np.concatenate(sums)

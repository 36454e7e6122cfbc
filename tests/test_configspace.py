"""Configuration iteration, degeneracy classes, and deterministic reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import configspace
from spinbath.configspace import (COLLAPSE_CAP, ENUMERATION_CAP, Backend,
                                  ConfigClass, ReductionPlan, collapse_classes,
                                  enumerate_configs, fold_classes, mask_blocks,
                                  reduce_weighted)
from spinbath.errors import CapacityError, ParameterError
from spinbath.model import Boundary


def brute_force_classes(n, boundary):
    """Count (down-spins, walls) multiplicities by direct enumeration."""
    counts = {}
    for mask in range(1 << n):
        bits = [(mask >> i) & 1 for i in range(n)]
        k = sum(bits)
        pairs = zip(bits, bits[1:] + [bits[0]]) if boundary is Boundary.PERIODIC \
            else zip(bits, bits[1:])
        w = sum(a != b for a, b in pairs)
        counts[(k, w)] = counts.get((k, w), 0) + 1
    return counts


class TestEnumerate:
    def test_small(self):
        assert list(enumerate_configs(3)) == list(range(8))

    def test_cap_names_collapse(self):
        with pytest.raises(CapacityError, match="collapse"):
            enumerate_configs(ENUMERATION_CAP + 1)

    def test_cap_boundary_allowed(self):
        # capacity itself is fine; only beyond it raises
        it = enumerate_configs(ENUMERATION_CAP)
        assert next(iter(it)) == 0


class TestCollapseClasses:
    def test_two_site_open(self):
        classes = collapse_classes(2, Boundary.OPEN)
        table = {(c.k, c.w): c.multiplicity for c in classes}
        assert table == {(0, 0): 1, (1, 1): 2, (2, 0): 1}

    def test_multiplicities_cover_space_open(self):
        for n in range(1, 12):
            classes = collapse_classes(n, Boundary.OPEN)
            assert sum(c.multiplicity for c in classes) == 1 << n

    def test_multiplicities_cover_space_periodic(self):
        for n in range(2, 12):
            classes = collapse_classes(n, Boundary.PERIODIC)
            assert sum(c.multiplicity for c in classes) == 1 << n

    @given(st.integers(min_value=1, max_value=10), st.sampled_from(list(Boundary)))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, n, boundary):
        if boundary is Boundary.PERIODIC and n < 2:
            return
        expected = brute_force_classes(n, boundary)
        got = {(c.k, c.w): c.multiplicity for c in collapse_classes(n, boundary)}
        assert got == expected

    @given(st.integers(min_value=1, max_value=40), st.sampled_from(list(Boundary)))
    @settings(max_examples=40, deadline=None)
    def test_up_down_symmetry(self, n, boundary):
        if boundary is Boundary.PERIODIC and n < 2:
            return
        table = {(c.k, c.w): c.multiplicity for c in collapse_classes(n, boundary)}
        assert all(table[(n - k, w)] == m for (k, w), m in table.items())

    def test_class_count_scales_quadratically(self):
        # O(n^2) classes instead of 2^n patterns
        assert len(collapse_classes(50, Boundary.OPEN)) <= 50 * 50

    def test_cap(self):
        with pytest.raises(CapacityError):
            collapse_classes(COLLAPSE_CAP + 1, Boundary.OPEN)

    def test_sorted_by_k_then_w(self):
        classes = collapse_classes(9, Boundary.OPEN)
        keys = [(c.k, c.w) for c in classes]
        assert keys == sorted(keys)


def ones(rows, t):
    return np.ones((rows.stop - rows.start, t.size, 1))


class TestMaskBlocks:
    def test_blocks_cover_every_mask_in_order(self):
        blocks = list(mask_blocks(11))
        assert all(len(b) <= configspace.ITEM_BLOCK for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.arange(1 << 11))


class TestReduceWeighted:
    def test_counts_patterns_enumerate(self):
        total = reduce_weighted(ones, 1024, [0.0], 1)
        assert total[0, 0] == 1024.0

    def test_counts_patterns_collapse(self):
        # folding every class at unit pattern weight counts all 2^N patterns
        for boundary in Boundary:
            classes = collapse_classes(10, boundary)
            first, folded = fold_classes(classes, np.zeros(len(classes)))
            assert np.array_equal(first, np.flatnonzero(np.diff([c.k for c in classes],
                                                                prepend=-1)))
            assert math.fsum(np.exp(folded)) == pytest.approx(1024.0, rel=1e-14)

    def test_class_multiplicity_is_applied(self):
        items = [ConfigClass(multiplicity=3, k=0, w=0), ConfigClass(multiplicity=5, k=1, w=1),
                 ConfigClass(multiplicity=2, k=1, w=2)]
        first, folded = fold_classes(items, np.log([1.0, 2.0, 0.5]))
        assert list(first) == [0, 1]
        assert np.exp(folded) == pytest.approx([3.0, 5.0 * 2.0 + 2.0 * 0.5], rel=1e-15)

    def test_fold_takes_multiplicities_beyond_float_range(self):
        # 2^1100 has no float; its log does
        items = [ConfigClass(multiplicity=1, k=0, w=0),
                 ConfigClass(multiplicity=2 ** 1100, k=1, w=1),
                 ConfigClass(multiplicity=2 ** 1100, k=1, w=3)]
        _, folded = fold_classes(items, [0.0, -1000.0, -1000.0])
        assert folded[0] == 0.0
        assert folded[1] == pytest.approx(1101 * math.log(2.0) - 1000.0, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError, match="shape"):
            reduce_weighted(lambda rows, t: np.ones((1, t.size, 2)), 4, [0.0], 3)

    def test_empty_items(self):
        out = reduce_weighted(ones, 0, [0.0, 1.0], 2)
        assert np.array_equal(out, np.zeros((2, 2)))

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=3000),
           st.sampled_from([1, 7, 50, 1 << 15]))
    @settings(max_examples=30, deadline=None)
    def test_time_blocks_bit_identical(self, seed, count, elements):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1e3, 1e3, (count, 2))
        times = np.linspace(0.0, 1.0, 9)

        def term(rows, t):
            return values[rows, None, :] * (1.0 + t[:, None])

        reference = reduce_weighted(term, count, times, 2)
        old = configspace.BLOCK_ELEMENTS
        configspace.BLOCK_ELEMENTS = elements
        try:
            blocked = reduce_weighted(term, count, times, 2)
        finally:
            configspace.BLOCK_ELEMENTS = old
        assert np.array_equal(reference, blocked)
        for i, t in enumerate(times):
            assert np.array_equal(reduce_weighted(term, count, [t], 2)[0], reference[i])

    def test_accuracy_near_fsum(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-1.0, 1.0, 100_000)
        got = reduce_weighted(lambda rows, t: values[rows, None, None], values.size,
                              [0.0], 1)[0, 0]
        assert abs(got - math.fsum(values)) < 1e-10


class TestReductionPlan:
    def test_defaults(self):
        assert ReductionPlan().backend is Backend.ENUMERATE
        assert ReductionPlan("collapse").backend is Backend.COLLAPSE

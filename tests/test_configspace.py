"""Configuration iteration, degeneracy classes, and deterministic reduction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbath import configspace
from spinbath.configspace import (COLLAPSE_CAP, ENUMERATION_CAP, Backend,
                                  collapse_classes, fold_fields, mask_blocks,
                                  reduce_weighted)
from spinbath.errors import CapacityError, ParameterError
from spinbath.model import BathParams, Boundary, SystemParams, Thermal, pure_state
from spinbath.single_qubit import bloch_trajectory
from spinbath.two_qubit import TwoQubitParams, bell_state, density_trajectory


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


def multiplicities(classes):
    """Exact integer multiplicities, rounded back from their logs."""
    return [int(m) for m in np.rint(np.exp(classes.log_multiplicity))]


def class_table(n, boundary):
    classes = collapse_classes(n, boundary)
    return dict(zip(zip(classes.k.tolist(), classes.w.tolist()), multiplicities(classes)))


def class_records(k, w, log_multiplicity):
    return np.rec.fromarrays([k, w, log_multiplicity], names="k,w,log_multiplicity")


def pairwise_over_rows(arr):
    """The pairwise tree over axis 0, as the sweep once ran it with items
    first: the reference for the items-last sweep."""
    if arr.shape[0] == 0:
        return np.zeros(arr.shape[1:], dtype=arr.dtype)
    while arr.shape[0] > 1:
        even = arr.shape[0] - (arr.shape[0] % 2)
        paired = arr[0:even:2] + arr[1:even:2]
        if arr.shape[0] % 2:
            paired = np.concatenate([paired, arr[even:]], axis=0)
        arr = paired
    return arr[0]


def reference_fold(field, log_weight):
    """fold_fields through one stable argsort and a reduceat over every run
    of equal fields: the reference for the faster sort."""
    order = np.argsort(field, kind="stable")
    first = np.flatnonzero(np.diff(np.asarray(field)[order], prepend=np.nan) != 0)
    logs = np.asarray(log_weight, dtype=float)[order]
    top = np.maximum.reduceat(logs, first)
    logs -= np.repeat(top, np.diff(first, append=len(logs)))
    np.exp(logs, out=logs)
    top += np.log(np.add.reduceat(logs, first))
    return order[first], top


class TestEnumerate:
    def test_small(self):
        assert np.concatenate(list(mask_blocks(3))).tolist() == list(range(8))

    def test_cap_names_collapse(self):
        with pytest.raises(CapacityError, match="collapse"):
            mask_blocks(ENUMERATION_CAP + 1)

    def test_cap_boundary_allowed(self):
        # capacity itself is fine; only beyond it raises
        blocks = mask_blocks(ENUMERATION_CAP)
        assert next(blocks)[0] == 0


class TestCollapseClasses:
    def test_two_site_open(self):
        assert class_table(2, Boundary.OPEN) == {(0, 0): 1, (1, 1): 2, (2, 0): 1}

    def test_multiplicities_cover_space_open(self):
        for n in range(1, 12):
            assert sum(multiplicities(collapse_classes(n, Boundary.OPEN))) == 1 << n

    def test_multiplicities_cover_space_periodic(self):
        for n in range(2, 12):
            assert sum(multiplicities(collapse_classes(n, Boundary.PERIODIC))) == 1 << n

    @given(st.integers(min_value=1, max_value=10), st.sampled_from(list(Boundary)))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, n, boundary):
        if boundary is Boundary.PERIODIC and n < 2:
            return
        expected = brute_force_classes(n, boundary)
        assert class_table(n, boundary) == expected

    @given(st.integers(min_value=1, max_value=40), st.sampled_from(list(Boundary)))
    @settings(max_examples=40, deadline=None)
    def test_up_down_symmetry(self, n, boundary):
        if boundary is Boundary.PERIODIC and n < 2:
            return
        table = class_table(n, boundary)
        assert all(table[(n - k, w)] == m for (k, w), m in table.items())

    def test_boundary_by_name(self):
        for boundary in Boundary:
            by_name = collapse_classes(4, boundary.value)
            by_enum = collapse_classes(4, boundary)
            assert by_name.tolist() == by_enum.tolist()
        assert len(collapse_classes(4, "periodic")) == 6
        with pytest.raises(ParameterError, match="^boundary must be open or periodic, got 'ring'"):
            collapse_classes(4, "ring")

    def test_class_count_scales_quadratically(self):
        # O(n^2) classes instead of 2^n patterns
        assert len(collapse_classes(50, Boundary.OPEN)) <= 50 * 50

    def test_cap(self):
        with pytest.raises(CapacityError):
            collapse_classes(COLLAPSE_CAP + 1, Boundary.OPEN)

    def test_sorted_by_k_then_w(self):
        classes = collapse_classes(9, Boundary.OPEN)
        keys = list(zip(classes.k.tolist(), classes.w.tolist()))
        assert keys == sorted(keys)

    def test_beyond_float_range(self):
        # at N = 1,100 the multiplicities overflow a float; their logs do not
        n = 1100
        for boundary in Boundary:
            classes = collapse_classes(n, boundary)
            top = classes.log_multiplicity.max()
            log_total = top + math.log(math.fsum(np.exp(classes.log_multiplicity - top)))
            assert log_total == pytest.approx(n * math.log(2.0), rel=1e-13)
        plus_x = pure_state([2 ** -0.5, 2 ** -0.5])
        points = bloch_trajectory(SystemParams(epsilon=2.0, delta=1.0),
                                  BathParams.uniform(n, 1.0, 1.0, 0.1), Thermal(1.0),
                                  Backend.COLLAPSE, plus_x,
                                  np.linspace(0.0, 5.0, 6), correlated=(True,))
        assert np.all(np.isfinite(points))
        assert np.linalg.norm(points, axis=-1).max() <= 1.0 + 1e-12


def ones(rows, t):
    return np.ones((rows.stop - rows.start, t.size, 1))


class TestMaskBlocks:
    def test_blocks_cover_every_mask_in_order(self):
        blocks = list(mask_blocks(14))
        assert len(blocks) > 1 and all(len(b) <= configspace.SETUP_BLOCK for b in blocks)
        assert np.array_equal(np.concatenate(blocks), np.arange(1 << 14))


class TestReduceWeighted:
    def test_counts_patterns_enumerate(self):
        means, log_partition = reduce_weighted(ones, np.zeros((1024, 1)), [0.0], 1)
        assert means[0, 0, 0] == 1.0
        assert log_partition[0] == math.log(1024.0)

    def test_counts_patterns_collapse(self):
        # folding every class at unit pattern weight counts all 2^N patterns
        for boundary in Boundary:
            classes = collapse_classes(10, boundary)
            first, folded = fold_fields(classes.k, classes.log_multiplicity)
            assert np.array_equal(first, np.flatnonzero(np.diff(classes.k, prepend=-1)))
            assert math.fsum(np.exp(folded)) == pytest.approx(1024.0, rel=1e-14)

    def test_class_multiplicity_is_applied(self):
        items = class_records([0, 1, 1], [0, 1, 2], [math.log(3), math.log(5), math.log(2)])
        first, folded = fold_fields(items.k, np.log([1.0, 2.0, 0.5]) + items.log_multiplicity)
        assert list(first) == [0, 1]
        assert np.exp(folded) == pytest.approx([3.0, 5.0 * 2.0 + 2.0 * 0.5], rel=1e-15)

    def test_fold_takes_multiplicities_beyond_float_range(self):
        # 2^1100 has no float; its log does
        items = class_records([0, 1, 1], [0, 1, 3], [0.0] + 2 * [math.log(2 ** 1100)])
        _, folded = fold_fields(items.k, np.array([0.0, -1000.0, -1000.0])
                                + items.log_multiplicity)
        assert folded[0] == 0.0
        assert folded[1] == pytest.approx(1101 * math.log(2.0) - 1000.0, rel=1e-15)

    def test_per_k_term_commutes_with_fold(self):
        # a log-weight term that depends on the field alone may be added
        # before or after the fold; the single-qubit correlation factor is
        # added after
        classes = collapse_classes(30, Boundary.OPEN)
        rng = np.random.default_rng(5)
        log_weight = rng.uniform(-50.0, 50.0, len(classes))
        per_k = rng.uniform(-50.0, 50.0, 31)
        first, folded = fold_fields(classes.k, log_weight)
        _, before = fold_fields(classes.k, log_weight + per_k[classes.k])
        assert np.abs(folded + per_k[classes.k[first]] - before).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError, match="shape"):
            reduce_weighted(lambda rows, t: np.ones((1, t.size, 2)), np.zeros((4, 1)), [0.0], 3)

    def test_empty_items(self):
        for log_weight in (np.zeros((0, 1)), np.zeros((4, 0)), np.zeros(4)):
            with pytest.raises(ParameterError, match="weight must be a non-empty"):
                reduce_weighted(ones, log_weight, [0.0, 1.0], 2)

    def test_non_finite_log_weight(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ParameterError, match="log weight is not finite"):
                reduce_weighted(ones, np.array([[0.0], [bad]]), [0.0], 1)

    def test_log_weights_beyond_float_range(self):
        # exp(1000) overflows; the per-column shift keeps the means exact
        values = np.array([1.0, 3.0])

        def term(rows, t):
            return np.broadcast_to(values[rows, None, None], (len(values[rows]), t.size, 1))

        log_weight = np.array([[1000.0, -1000.0], [1000.0 + math.log(3.0), -1000.0]])
        means, log_partition = reduce_weighted(term, log_weight, [0.0, 1.0], 1)
        assert means[0, :, 0] == pytest.approx([2.5, 2.5], rel=1e-15)
        assert np.array_equal(means[1, :, 0], [2.0, 2.0])
        assert log_partition == pytest.approx([1000.0 + math.log(4.0),
                                               -1000.0 + math.log(2.0)], rel=1e-15)

    def test_means_are_read_only(self):
        means, _ = reduce_weighted(ones, np.zeros((3, 2)), [0.0, 1.0], 1)
        assert means.shape == (2, 2, 1) and not means.flags.writeable

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=3000),
           st.sampled_from([1, 7, 50, 1 << 15]))
    @settings(max_examples=30, deadline=None)
    def test_time_blocks_bit_identical(self, seed, count, elements):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1e3, 1e3, (count, 2))
        log_weight = rng.uniform(-30.0, 30.0, (count, 2))
        times = np.linspace(0.0, 1.0, 9)

        def term(rows, t):
            return values[rows, None, :] * (1.0 + t[:, None])

        reference, log_partition = reduce_weighted(term, log_weight, times, 2)
        old = configspace.BLOCK_ELEMENTS
        configspace.BLOCK_ELEMENTS = elements
        try:
            blocked = reduce_weighted(term, log_weight, times, 2)
        finally:
            configspace.BLOCK_ELEMENTS = old
        assert np.array_equal(reference, blocked[0])
        assert np.array_equal(log_partition, blocked[1])
        for i, t in enumerate(times):
            assert np.array_equal(reduce_weighted(term, log_weight, [t], 2)[0][:, 0],
                                  reference[:, i])
        # each weight column sums as it would alone
        for column in range(2):
            alone = reduce_weighted(term, log_weight[:, column:column + 1], times, 2)
            assert np.array_equal(alone[0][0], reference[column])
            assert alone[1][0] == log_partition[column]

    def test_item_block_changes_no_bit(self, monkeypatch):
        # ITEM_BLOCK is a power of two, so the blockwise sweep and the
        # normalizer evaluate one pairwise tree over all items
        rng = np.random.default_rng(4)
        values = rng.uniform(-1.0, 1.0, (3001, 3))
        log_weight = rng.uniform(-20.0, 20.0, (3001, 2))

        def term(rows, t):
            return values[rows, None, :] * np.cos(t)[:, None]

        results = []
        for block in (256, 1024, 4096):
            monkeypatch.setattr(configspace, "ITEM_BLOCK", block)
            results.append(reduce_weighted(term, log_weight, np.linspace(0.0, 2.0, 5), 3))
        for means, log_partition in results[1:]:
            assert np.array_equal(means, results[0][0])
            assert np.array_equal(log_partition, results[0][1])

    @pytest.mark.parametrize("elements", [configspace.BLOCK_ELEMENTS, 97])
    @pytest.mark.parametrize("n_series", [1, 2])
    @pytest.mark.parametrize("dim, complex_terms", [(3, False), (16, True)])
    @pytest.mark.parametrize("n_points", [1, 3])
    @pytest.mark.parametrize("count", [1, 37, 1023, 1025, 3001, (1 << 16) + 1])
    def test_matches_items_first_tree(self, monkeypatch, count, n_points, dim,
                                      complex_terms, n_series, elements):
        # one pairwise tree over the whole (items, S, T, dim) product, with
        # the weights shifted and exp'd as the sweep does it
        rng = np.random.default_rng(count)
        values = rng.uniform(-1.0, 1.0, (count, dim))
        if complex_terms:
            values = values + 1j * rng.uniform(-1.0, 1.0, (count, dim))
        log_weight = rng.uniform(-30.0, 30.0, (count, n_series))
        times = np.linspace(0.0, 1.9, n_points)

        def term(rows, t):
            phase = np.exp(1j * t) if complex_terms else np.cos(t)
            return values[rows, None, :] * phase[:, None]

        monkeypatch.setattr(configspace, "BLOCK_ELEMENTS", elements)
        means, log_partition = reduce_weighted(term, log_weight, times, dim)
        shift = log_weight.max(axis=0)
        weight = np.exp(log_weight - shift)
        normalizer = pairwise_over_rows(weight)
        # one time point at a time keeps the reference's product small
        want = np.stack([pairwise_over_rows(term(slice(0, count), times[i:i + 1])[:, None]
                                            * weight[:, :, None, None])[:, 0]
                         for i in range(n_points)], axis=1) / normalizer[:, None, None]
        assert np.array_equal(means, want)
        assert np.array_equal(log_partition, shift + np.log(normalizer))

    def test_accuracy_near_fsum(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-1.0, 1.0, 100_000)
        got = reduce_weighted(lambda rows, t: values[rows, None, None],
                              np.zeros((values.size, 1)), [0.0], 1)[0][0, 0, 0]
        assert abs(got * values.size - math.fsum(values)) < 1e-10


def fold_inputs(kind, n, seed):
    """n fields of the given kind and their log weights, some of them
    signed zeros."""
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        field = rng.normal(size=n)
    elif kind == "few_values":
        field = rng.choice(rng.normal(size=rng.integers(2, 4)), n)
    elif kind == "signed_zeros":
        field = rng.choice([0.0, -0.0, 0.5], n)
    else:
        # collapse-class shaped: runs of one field per k, k ascending
        k = np.sort(rng.integers(0, n // 3 + 1, n))
        field = (0.7 if kind == "non_increasing" else -0.7) * (n - 2.0 * k)
    log_weight = rng.uniform(-40.0, 40.0, n)
    log_weight[rng.random(n) < 0.2] = rng.choice([0.0, -0.0])
    return field, log_weight


class TestFoldFields:
    @pytest.mark.parametrize("kind", ["gaussian", "few_values", "signed_zeros",
                                      "non_increasing", "non_decreasing"])
    @given(n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 3000)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_matches_stable_sort_reference(self, kind, n, seed):
        field, log_weight = fold_inputs(kind, n, seed)
        first, folded = fold_fields(field, log_weight)
        want_first, want_folded = reference_fold(field, log_weight)
        assert np.array_equal(first, want_first)
        # bit for bit, signed zeros included
        assert folded.tobytes() == want_folded.tobytes()

    def test_ties_out_of_order(self):
        # fields come back ascending, each with its first item and the
        # log-sum-exp of every item that shares it
        field = np.array([2.0, 1.0, 2.0, 1.0, 3.0])
        log_weight = np.log([1.0, 2.0, 4.0, 8.0, 16.0])
        first, folded = fold_fields(field, log_weight)
        assert first.tolist() == [1, 0, 4]
        assert np.exp(folded) == pytest.approx([10.0, 5.0, 16.0], rel=1e-15)

    def test_distinct_fields_keep_their_weights(self):
        rng = np.random.default_rng(3)
        field = rng.normal(size=200)
        log_weight = rng.uniform(-700.0, 700.0, 200)
        first, folded = fold_fields(field, log_weight)
        assert np.array_equal(first, np.argsort(field))
        assert np.array_equal(folded, log_weight[first])

    def test_signed_zeros_merge(self):
        first, folded = fold_fields(np.array([0.0, -1.0, -0.0]), np.log([1.0, 2.0, 3.0]))
        assert first.tolist() == [1, 0]
        assert np.exp(folded) == pytest.approx([2.0, 4.0], rel=1e-15)

    def test_rerun_bit_identical(self):
        rng = np.random.default_rng(8)
        field = rng.integers(-5, 5, 5000) * 0.1
        log_weight = rng.uniform(-30.0, 30.0, 5000)
        first, folded = fold_fields(field, log_weight)
        again = fold_fields(field.copy(), log_weight.copy())
        assert np.array_equal(first, again[0])
        assert np.array_equal(folded, again[1])
        assert len(first) == len(np.unique(field))


class TestBackend:
    def test_names_select_backend(self):
        sys1, th = SystemParams(epsilon=2.0, delta=1.0), Thermal(1.0)
        plus_x = pure_state([2 ** -0.5, 2 ** -0.5])
        times = np.linspace(0.0, 3.0, 4)
        uniform = BathParams.uniform(6, 1.0, 0.5, 0.1)
        by_name = bloch_trajectory(sys1, uniform, th, "collapse", plus_x, times, (True,))
        assert np.array_equal(by_name, bloch_trajectory(sys1, uniform, th, Backend.COLLAPSE,
                                                        plus_x, times, (True,)))
        # only the collapse route refuses a bath whose couplings vary
        ragged = BathParams(3, (1.0,) * 3, (1.0, 2.0, 1.0), (0.0, 0.0))
        bloch_trajectory(sys1, ragged, th, "enumerate", plus_x, times, (True,))
        with pytest.raises(ParameterError, match="g_i"):
            bloch_trajectory(sys1, ragged, th, "collapse", plus_x, times, (True,))
        pair = TwoQubitParams(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0)
        density_trajectory(pair, ragged, th, "enumerate", bell_state(), times, (True,))
        with pytest.raises(ParameterError, match="g_i"):
            density_trajectory(pair, ragged, th, "collapse", bell_state(), times, (True,))
        with pytest.raises(ValueError):
            bloch_trajectory(sys1, uniform, th, "bogus", plus_x, times, (True,))

"""Configuration iteration, degeneracy classes, and deterministic reduction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbath import configspace
from spinbath.configspace import (COLLAPSE_CAP, ENUMERATION_CAP, Backend, _require_capacity,
                                  _unit_phases, collapse_classes, fold_fields, reduce_weighted)
from spinbath.errors import CapacityError, ParameterError
from spinbath.model import BathParams, Boundary, SystemParams, Thermal, bath_sums, pure_state
from spinbath.single_qubit import bloch_trajectory
from spinbath.two_qubit import TwoQubitParams, _pair_fields, bell_state, density_trajectory


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
        assert _require_capacity(3, Backend.ENUMERATE) == 3
        assert bath_sums(BathParams.uniform(3, 1.0, 1.0, 0.1)).shape == (3, 8)

    def test_cap_names_collapse(self):
        with pytest.raises(CapacityError, match="collapse"):
            _require_capacity(ENUMERATION_CAP + 1, Backend.ENUMERATE)

    def test_cap_boundary_allowed(self):
        # capacity itself is fine; only beyond it raises
        assert _require_capacity(ENUMERATION_CAP, Backend.ENUMERATE) == ENUMERATION_CAP


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

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    @pytest.mark.parametrize("boundary", list(Boundary))
    def test_counts_fit_the_chain(self, boundary, n):
        # class_sums trusts its k and w: they come from here alone
        classes = collapse_classes(n, boundary)
        bonds = n if boundary is Boundary.PERIODIC else n - 1
        assert classes.k.dtype.kind == classes.w.dtype.kind == "i"
        assert classes.k.min() == 0 and classes.k.max() == n
        assert classes.w.min() == 0 and classes.w.max() <= bonds
        if boundary is Boundary.PERIODIC:
            assert np.all(classes.w % 2 == 0)

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


def block_spectra(constant, coefficients, frequencies, block=256):
    """Whole spectra, as reduce_weighted takes them: block fields at a time."""
    for start in range(0, coefficients.shape[1], block):
        rows = slice(start, start + block)
        yield constant[:, rows], coefficients[:, rows], frequencies[rows]


def constant_spectra(values, block=256):
    """The (fields, cols) values as spectra of one column set with constants
    alone: one frequency, at zero amplitude."""
    count, n_columns = values.shape
    return block_spectra(values[None].astype(complex),
                         np.zeros((1, count, 1, n_columns), dtype=complex),
                         np.zeros((count, 1)), block)


def random_spectrum(seed, count, n_sets, n_frequencies, n_columns):
    """Constants, coefficients and frequencies of count random fields."""
    rng = np.random.default_rng(seed)

    def entries(*shape):
        return rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)

    return (entries(n_sets, count, n_columns),
            entries(n_sets, count, n_frequencies, n_columns),
            rng.uniform(-5.0, 5.0, (count, n_frequencies)))


def fsum_last(values):
    """math.fsum over the last axis of a real array."""
    rows = values.reshape(-1, values.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in rows]).reshape(values.shape[:-1])


def fsum_reference(constant, coefficients, frequencies, log_weight, times):
    """The spectral sum with np.exp phases and every sum over fields a
    math.fsum of the weighted terms, divided by the fsum of the weights."""
    weight = np.exp(log_weight - log_weight.max(axis=0))
    out = np.empty((weight.shape[1], len(times)) + constant[:, 0].shape, dtype=complex)
    for i, t in enumerate(times):
        # (sets, fields, cols): each field's unweighted value at t
        values = constant + np.einsum("gfmc,fm->gfc", coefficients,
                                      np.exp(-1j * frequencies * t))
        # (series, sets, cols, fields): the weighted terms, fields last
        terms = np.einsum("gfc,fs->sgcf", values, weight)
        out[:, i] = fsum_last(terms.real) + 1j * fsum_last(terms.imag)
    return out / fsum_last(weight.T)[:, None, None, None]


class TestReduceWeighted:
    def test_counts_patterns_enumerate(self):
        means, log_partition = reduce_weighted(constant_spectra(np.ones((1024, 1))),
                                               np.zeros((1024, 1)), [0.0])
        assert means[0, 0, 0, 0] == 1.0
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

    def test_non_finite_log_weight(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ParameterError, match="log weight is not finite"):
                reduce_weighted(constant_spectra(np.ones((2, 1))), np.array([[0.0], [bad]]),
                                [0.0])

    def test_log_weights_beyond_float_range(self):
        # exp(1000) overflows; the per-column shift keeps the means exact
        log_weight = np.array([[1000.0, -1000.0], [1000.0 + math.log(3.0), -1000.0]])
        means, log_partition = reduce_weighted(constant_spectra(np.array([[1.0], [3.0]])),
                                               log_weight, [0.0, 1.0])
        assert means[0, :, 0, 0] == pytest.approx([2.5, 2.5], rel=1e-15)
        assert np.array_equal(means[1, :, 0, 0], [2.0, 2.0])
        assert log_partition == pytest.approx([1000.0 + math.log(4.0),
                                               -1000.0 + math.log(2.0)], rel=1e-15)

    def test_means_are_read_only(self):
        means, _ = reduce_weighted(block_spectra(*random_spectrum(1, 3, 2, 1, 5)),
                                   np.zeros((3, 2)), [0.0, 1.0])
        assert means.shape == (2, 2, 2, 5) and not means.flags.writeable

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=3000),
           st.sampled_from([1, 7, 97, configspace.BLOCK_ELEMENTS]))
    @settings(max_examples=30, deadline=None)
    def test_time_blocks_bit_identical(self, seed, count, elements):
        spectrum = random_spectrum(seed, count, 1, 3, 2)
        log_weight = np.random.default_rng(seed).uniform(-30.0, 30.0, (count, 2))
        times = np.linspace(0.0, 1.0, 9)
        reference, log_partition = reduce_weighted(block_spectra(*spectrum), log_weight, times)
        old = configspace.BLOCK_ELEMENTS
        configspace.BLOCK_ELEMENTS = elements
        try:
            blocked = reduce_weighted(block_spectra(*spectrum), log_weight, times)
        finally:
            configspace.BLOCK_ELEMENTS = old
        assert reference.tobytes() == blocked[0].tobytes()
        assert np.array_equal(log_partition, blocked[1])
        for i, t in enumerate(times):
            alone = reduce_weighted(block_spectra(*spectrum), log_weight, [t])[0]
            assert alone[:, 0].tobytes() == reference[:, i].tobytes()
        # each weight column sums as it would alone
        for column in range(2):
            alone = reduce_weighted(block_spectra(*spectrum), log_weight[:, column:column + 1],
                                    times)
            assert alone[0][0].tobytes() == reference[column].tobytes()
            assert alone[1][0] == log_partition[column]

    @pytest.mark.parametrize("elements", [configspace.BLOCK_ELEMENTS, 97])
    @pytest.mark.parametrize("n_series", [1, 2])
    # the one qubit's shape (one frequency, 3 columns) and the pair's (6, 16)
    @pytest.mark.parametrize("n_frequencies, n_columns", [(1, 3), (6, 16)])
    @pytest.mark.parametrize("times", [[1.9], np.linspace(0.0, 3.0, 11)],
                             ids=["one_point", "grid"])
    # counts around block_spectra's 256-field blocks, up to 17 blocks
    @pytest.mark.parametrize("count", [1, 37, 1023, 1025, 3001, (1 << 12) + 1])
    def test_no_bit_depends_on_time_blocks_series_or_column_sets(
            self, monkeypatch, count, times, n_frequencies, n_columns, n_series, elements):
        # every time point, series and column set is its own BLAS call of one
        # shape, and block sums join by one pairwise tree over field blocks
        constant, coefficients, frequencies = random_spectrum(count, count, 3, n_frequencies,
                                                              n_columns)
        log_weight = np.random.default_rng(count).uniform(-30.0, 30.0, (count, n_series))
        others = sorted({1, 7, 97, configspace.BLOCK_ELEMENTS} - {elements})
        monkeypatch.setattr(configspace, "BLOCK_ELEMENTS", elements)
        means, _ = reduce_weighted(block_spectra(constant, coefficients, frequencies),
                                   log_weight, times)
        for other in others:
            monkeypatch.setattr(configspace, "BLOCK_ELEMENTS", other)
            blocked, _ = reduce_weighted(block_spectra(constant, coefficients, frequencies),
                                         log_weight, times)
            assert blocked.tobytes() == means.tobytes()
        monkeypatch.setattr(configspace, "BLOCK_ELEMENTS", elements)
        for column in range(n_series):
            alone, _ = reduce_weighted(block_spectra(constant, coefficients, frequencies),
                                       log_weight[:, column:column + 1], times)
            assert alone.tobytes() == means[column:column + 1].tobytes()
        for sets in ([0], [2], [1, 2], [2, 0]):
            part, _ = reduce_weighted(block_spectra(constant[sets], coefficients[sets],
                                                    frequencies), log_weight, times)
            assert part.tobytes() == np.ascontiguousarray(means[:, :, sets]).tobytes()
        want = fsum_reference(constant, coefficients, frequencies, log_weight, times)
        assert np.abs(means - want).max() < 1e-13

    def test_accuracy_near_fsum(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(-1.0, 1.0, 100_000)
        got = reduce_weighted(constant_spectra(values[:, None]),
                              np.zeros((values.size, 1)), [0.0])[0][0, 0, 0, 0]
        assert got.imag == 0.0
        assert abs(got.real * values.size - math.fsum(values)) < 1e-10


class TestUnitPhases:
    def test_half_angle_phases_match_exp(self):
        # the sweep's phases from tau = tan(-wt/2) against np.exp(-iwt) at the
        # pair frequencies of real fields over a long grid, and at 0, pi,
        # 2 pi and their neighbours, where tau is 0 or about 1e16; the
        # modulus bound is 2 eps (worst measured 4.4e-16 over 10^6 random
        # angles in [-1000, 1000])
        rng = np.random.default_rng(5)
        bath = BathParams(6, tuple(rng.uniform(-2, 2, 6)), tuple(rng.uniform(-2, 2, 6)),
                          tuple(rng.uniform(-1, 1, 5)))
        energies, _, _ = _pair_fields(TwoQubitParams(eps1=1.0, eps2=2.0, delta1=4.0,
                                                     delta2=1.0, lam=0.8), bath,
                                      Thermal(1.0), Backend.ENUMERATE, bell_state(), (False,))
        times = np.linspace(0.0, 200.0, 401)
        special = [math.nextafter(x, direction) for x in (0.0, math.pi, 2 * math.pi)
                   for direction in (-9.0, 9.0)]
        angles = np.concatenate([(energies[:, None, :] * times[:, None]).ravel(),
                                 [0.0, -0.0, math.pi, -math.pi, 2 * math.pi], special])
        # a time of 1 scales no angle
        phases, = _unit_phases(angles, np.ones(1))
        assert np.abs(phases - np.exp(-1j * angles)).max() <= 1e-15
        assert np.abs(np.abs(phases) - 1.0).max() <= 2 * np.finfo(float).eps
        # t = 0 gives the identity exactly
        assert np.all(phases[angles == 0.0] == 1.0)
        assert np.all(_unit_phases(angles, np.zeros(1)) == 1.0)


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

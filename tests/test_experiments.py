"""Config files, figure presets, CSV output, and the oracle cross-check."""

import contextlib
import functools
import io
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinbath
from spinbath import experiments, model, single_qubit, two_qubit
from spinbath.configspace import Backend, _require_capacity, collapse_classes
from spinbath.errors import CapacityError, ParameterError, UsageError
from spinbath.experiments import (BathSpec, ExperimentConfig, GaussianStats,
                                  ResultTable, TimeGrid, config_from_keys,
                                  config_metadata, list_presets, oracle_check,
                                  parse_config_file, preset, run)
from spinbath.model import (ENUMERATION_CAP, BathParams, Boundary, SystemParams, Thermal,
                            bloch_components, pure_state)
from spinbath.numerics import RNG_ALGORITHM, RandomSpec, gaussian_draw, hermitian_eig
from spinbath.oracle import build_hamiltonian, evolve_and_reduce, initial_state
from spinbath.single_qubit import bloch_trajectory
from spinbath.two_qubit import TwoQubitParams, concurrence, density_trajectory
from test_oracle import refusal

README = Path(__file__).resolve().parents[1] / "README.md"


def single_keys(**overrides):
    keys = {
        "mode": "single",
        "system.epsilon": "2",
        "system.delta": "1",
        "bath.n_spins": "3",
        "bath.eps": "1",
        "bath.g": "0.5",
        "bath.chi": "0.1",
        "thermal.beta": "1",
        "grid.t_end": "4",
        "grid.n_points": "5",
    }
    keys.update(overrides)
    return keys


def pair_keys(**overrides):
    keys = {
        "mode": "two_qubit",
        "system.eps1": "1", "system.eps2": "2",
        "system.delta1": "4", "system.delta2": "1", "system.lambda": "3",
        "bath.n_spins": "4", "bath.eps": "1", "bath.g": "1", "bath.chi": "0.1",
        "thermal.beta": "1", "grid.t_end": "4", "grid.n_points": "6",
    }
    keys.update(overrides)
    return keys


def ragged(keys, **overrides):
    """keys(**overrides) with its uniform bath swapped for explicit per-site
    lists whose g varies from site to site, so the bath enumerates."""
    ragged_keys = keys(**overrides)
    n = int(ragged_keys["bath.n_spins"])
    for name in ("bath.eps", "bath.g", "bath.chi"):
        del ragged_keys[name]
    ragged_keys.update({"bath.eps_list": ",".join(["1"] * n),
                        "bath.g_list": ",".join(str(0.5 * site) for site in range(1, n + 1)),
                        "bath.chi_list": ",".join(["0.1"] * (n - 1))})
    return ragged_keys


reals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def configs(draw, max_spins=4, bath_values=reals,
            betas=st.floats(min_value=0.0, max_value=5.0)):
    """Small configurations across both modes, all bath styles and all state
    kinds, as a config file or CSV header can express them. Uniform and
    explicit bath parameters come from bath_values."""
    n = draw(st.integers(min_value=1, max_value=max_spins))
    boundary = draw(st.sampled_from(list(Boundary)))
    bonds = n if boundary is Boundary.PERIODIC else n - 1
    kind = draw(st.sampled_from(["uniform", "explicit", "random"]))
    if kind == "uniform":
        bath = BathSpec(n, kind, boundary, eps=draw(bath_values), g=draw(bath_values),
                        chi=draw(bath_values))
    elif kind == "explicit":
        lists = [tuple(draw(st.lists(bath_values, min_size=size, max_size=size)))
                 for size in (n, n, bonds)]
        bath = BathSpec(n, kind, boundary, eps_list=lists[0], g_list=lists[1],
                        chi_list=lists[2])
    else:
        stats = [GaussianStats(draw(reals), draw(st.floats(min_value=0.0, max_value=2.0)))
                 for _ in range(3)]
        bath = BathSpec(n, kind, boundary, seed=draw(st.integers(0, (1 << 64) - 1)),
                        g_stats=stats[0], eps_stats=stats[1], chi_stats=stats[2])
    mode = draw(st.sampled_from(["single", "two_qubit"]))
    if mode == "single":
        system = SystemParams(draw(reals), draw(reals))
        state_kind, state_params = "angles", (draw(reals), draw(reals))
    else:
        system = TwoQubitParams(*(draw(reals) for _ in range(5)))
        state_kind = draw(st.sampled_from(["bell", "product", "amplitudes"]))
        state_params = (tuple(draw(reals) for _ in range(8))
                        if state_kind == "amplitudes" else ())
    t_start = draw(reals)
    grid = TimeGrid(t_start, t_start + draw(st.floats(min_value=0.1, max_value=10.0)),
                    draw(st.integers(min_value=2, max_value=5)))
    return ExperimentConfig(
        mode=mode, system=system, bath=bath, beta=draw(betas),
        state_kind=state_kind, state_params=state_params, grid=grid,
        series=draw(st.sampled_from([("uncorrelated", "correlated"), ("uncorrelated",),
                                     ("correlated",)])),
        preset_name=draw(st.none() | st.sampled_from(list_presets())),
    )


class TestTimeGrid:
    def test_times(self):
        grid = TimeGrid(0.0, 2.0, 5)
        assert np.allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_reversed(self):
        with pytest.raises(UsageError):
            TimeGrid(3.0, 1.0, 5)

    def test_rejects_single_point(self):
        with pytest.raises(UsageError):
            TimeGrid(0.0, 1.0, 1)

    def test_point_cap(self):
        assert TimeGrid(0.0, 1.0, 1_000_000).n_points == 1_000_000
        with pytest.raises(UsageError, match=r"grid.n_points must be in \[2, 1000000\]"):
            TimeGrid(0.0, 1.0, 1_000_001)


class TestBathSpec:
    def test_uniform_materializes(self):
        spec = BathSpec(n_spins=3, kind="uniform", eps=1.0, g=0.5, chi=0.1)
        bath = spec.materialize()
        assert bath.g_i == (0.5,) * 3

    def test_random_reproducible(self):
        spec = BathSpec(n_spins=4, kind="random", seed=7,
                        g_stats=GaussianStats(5.0, 1.0),
                        eps_stats=GaussianStats(1.0, 0.2),
                        chi_stats=GaussianStats(1.0, 0.2))
        a, b = spec.materialize(), spec.materialize()
        assert a.g_i == b.g_i and a.eps_i == b.eps_i and a.chi_i == b.chi_i

    def test_random_substreams_differ(self):
        spec = BathSpec(n_spins=4, kind="random", seed=7,
                        g_stats=GaussianStats(0.0, 1.0),
                        eps_stats=GaussianStats(0.0, 1.0),
                        chi_stats=GaussianStats(0.0, 1.0))
        bath = spec.materialize()
        assert bath.g_i != bath.eps_i

    def test_resized_random_keeps_prefix_seed(self):
        spec = BathSpec(n_spins=6, kind="random", seed=3,
                        g_stats=GaussianStats(5.0, 1.0),
                        eps_stats=GaussianStats(1.0, 0.2),
                        chi_stats=GaussianStats(1.0, 0.2))
        small = spec.resized(4).materialize()
        big = spec.materialize()
        assert small.g_i == big.g_i[:4]

    def test_explicit_cannot_resize(self):
        spec = BathSpec(n_spins=2, kind="explicit", eps_list=(1.0, 1.0),
                        g_list=(1.0, 2.0), chi_list=(0.0,))
        with pytest.raises(UsageError):
            spec.resized(3)

    def test_missing_field(self):
        with pytest.raises(UsageError):
            BathSpec(n_spins=2, kind="uniform", eps=1.0, g=0.5)

    def test_boundary_by_name(self):
        # the ring's bonds are counted after the name becomes a Boundary
        spec = BathSpec(n_spins=6, kind="random", boundary="periodic", seed=1,
                        g_stats=GaussianStats(1.0, 0.2), eps_stats=GaussianStats(1.0, 0.2),
                        chi_stats=GaussianStats(0.1, 0.05))
        assert spec.boundary is Boundary.PERIODIC
        assert spec.bond_count == len(spec.materialize().chi_i) == 6


@pytest.mark.parametrize("build, field", [
    (lambda: BathSpec(n_spins=6, kind="uniform", boundary="ring", eps=1.0, g=0.5, chi=0.1),
     "bath.boundary"),
    (lambda: BathSpec(n_spins=6, kind="uniform", boundary=None, eps=1.0, g=0.5, chi=0.1),
     "bath.boundary"),
    (lambda: BathSpec(n_spins=5.5, kind="uniform", eps=1.0, g=0.5, chi=0.1), "bath.n_spins"),
    (lambda: BathSpec(n_spins=5.0, kind="uniform", eps=1.0, g=0.5, chi=0.1), "bath.n_spins"),
    (lambda: BathSpec(n_spins="5", kind="uniform", eps=1.0, g=0.5, chi=0.1), "bath.n_spins"),
    (lambda: TimeGrid(0.0, 1.0, 2.5), "grid.n_points"),
    (lambda: TimeGrid(0.0, 1.0, "40"), "grid.n_points"),
], ids=["ring", "no_boundary", "fractional_spins", "float_spins", "text_spins",
        "fractional_points", "text_points"])
def test_spec_fields_are_checked_on_construction(build, field):
    with pytest.raises(UsageError, match=field):
        build()


def _random_spec(**stats):
    defaults = {f"{name}_stats": GaussianStats(1.0, 0.1) for name in ("g", "eps", "chi")}
    return BathSpec(n_spins=4, kind="random", seed=1, **{**defaults, **stats})


def _bogus_backend_run():
    config = config_from_keys(single_keys())
    bloch_trajectory(config.system, config.bath.materialize(), config.thermal(), "bogus",
                     config.state_vector(), config.grid.times(), (False,))


# a record names its field with a ParameterError, a spec its config key with a
# UsageError
@pytest.mark.parametrize("build, error, field", [
    (lambda: SystemParams("a", 1), ParameterError, "epsilon"),
    (lambda: SystemParams(None, 1), ParameterError, "epsilon"),
    (lambda: TwoQubitParams(None, 1, 1, 1), ParameterError, "eps1"),
    (lambda: Thermal("x"), ParameterError, "beta"),
    (lambda: BathParams(1, ("a",), (1.0,), ()), ParameterError, "eps_i"),
    (lambda: BathParams(1, None, (1.0,), ()), ParameterError, "eps_i"),
    (lambda: BathParams(2, (1.0,) * 2, (1.0,) * 2, (0.0,), "ring"), ParameterError,
     "boundary"),
    (lambda: RandomSpec("a", 1, 0), ParameterError, "mean"),
    (lambda: RandomSpec(0, 1, "s"), ParameterError, "seed"),
    (lambda: TimeGrid(None, 1.0, 5), UsageError, "grid.t_start"),
    (lambda: TimeGrid(0, "1", 5), UsageError, "grid.t_end"),
    (lambda: BathSpec(4, "uniform", eps="a", g=1.0, chi=0.1).materialize(), UsageError,
     "bath.eps"),
    (lambda: BathSpec(2, "explicit", eps_list=(1.0, "b"), g_list=(1.0, 1.0), chi_list=(0.1,)),
     UsageError, "bath.eps_list"),
    (lambda: BathSpec(4, "explicit", eps_list=(1.0,) * 3, g_list=(1.0,) * 4,
                      chi_list=(0.1,) * 3), UsageError, "bath.eps_list"),
    (lambda: BathSpec(2, "explicit", eps_list=(1.0,) * 2, g_list=(1.0,) * 3, chi_list=(0.1,)),
     UsageError, "bath.g_list"),
    (lambda: BathSpec(4, "explicit", boundary="periodic", eps_list=(1.0,) * 4,
                      g_list=(1.0,) * 4, chi_list=(0.1,) * 3), UsageError, "bath.chi_list"),
    (lambda: _random_spec(g_stats=GaussianStats("a", 1)), UsageError, "bath.random.g.mean"),
    (_bogus_backend_run, ParameterError, "backend"),
], ids=["text_epsilon", "none_epsilon", "none_eps1", "text_beta", "text_eps_i",
        "none_eps_i", "ring_boundary", "text_mean", "text_seed", "none_t_start",
        "text_t_end", "text_eps", "text_list_entry", "short_eps_list", "long_g_list",
        "short_periodic_chi_list", "text_stats_mean", "bogus_backend"])
def test_non_numeric_inputs_raise_a_named_error(build, error, field):
    with pytest.raises(error, match=f"^{re.escape(field)} must be"):
        build()


_BATH = BathParams.uniform(3, 1.0, 0.5, 0.1)
_PAIR = TwoQubitParams(1.0, 2.0, 0.5, 0.5)


def _single_run(sys=SystemParams(2.0, 1.0), bath=_BATH, th=Thermal(1.0), times=(0.0, 1.0),
                correlated=(False,), components="xyz"):
    return bloch_trajectory(sys, bath, th, Backend.ENUMERATE, [1.0, 0.0], times, correlated,
                            components)


def _pair_run(sys2=_PAIR, bath=_BATH, th=Thermal(1.0), times=(0.0, 1.0), correlated=(False,)):
    return density_trajectory(sys2, bath, th, Backend.ENUMERATE, [1.0, 0.0, 0.0, 0.0],
                              times, correlated)


def _oracle_state(h=None, th=Thermal(1.0)):
    h = build_hamiltonian(SystemParams(2.0, 1.0), _BATH) if h is None else h
    return initial_state(h, th, [1, 0], True)


# array inputs that do not convert or hold a non-finite entry, integers that
# are not exact, and records of the wrong type: each is named, where it was a
# raw TypeError, ValueError or AttributeError (or, for bloch_components, no
# error at all)
@pytest.mark.parametrize("build, error, message", [
    (lambda: hermitian_eig("abc"), ParameterError, "matrix must be numeric"),
    (lambda: pure_state("ab"), ParameterError, "state amplitudes must be numeric"),
    (lambda: pure_state(np.ones((2, 2)) / 2), ParameterError,
     "state amplitudes must be one vector, got shape (2, 2)"),
    # a one-qubit |0><0| holds four entries, but it is no pair state |00>
    (lambda: density_trajectory(_PAIR, _BATH, Thermal(1.0), Backend.ENUMERATE,
                                np.array([[1.0, 0.0], [0.0, 0.0]]), [0.0, 1.0], (False,)),
     ParameterError, "state amplitudes must be one vector, got shape (2, 2)"),
    (lambda: bloch_components("ab"), ParameterError, "state amplitudes must be numeric"),
    (lambda: bloch_components([np.nan, 1.0]), ParameterError,
     "state amplitudes has non-finite entries"),
    (lambda: concurrence("abc"), ParameterError, "density matrix must be numeric"),
    (lambda: _single_run(times="ab"), ParameterError, "times must be numeric"),
    (lambda: RandomSpec(0.0, 1.0, 4.5), ParameterError, "seed must be an integer"),
    (lambda: RandomSpec(0.0, 1.0, True), ParameterError, "seed must be an integer"),
    (lambda: gaussian_draw(RandomSpec(0, 1, 1), 2.5), ParameterError,
     "count must be an integer"),
    (lambda: _require_capacity(4.5, Backend.ENUMERATE), ParameterError,
     "n_spins must be an integer"),
    (lambda: collapse_classes(4.5), ParameterError, "n_spins must be an integer"),
    (lambda: BathParams.uniform(4.5, 1, 1, 0), ParameterError, "n_spins must be an integer"),
    (lambda: BathParams(True, (1.0,), (1.0,), ()), ParameterError, "n_spins must be an integer"),
    (lambda: oracle_check(preset("fig4"), "3"), UsageError,
     "oracle bath size must be an integer"),
    (lambda: oracle_check(preset("fig4"), 2.5), UsageError,
     "oracle bath size must be an integer"),
    (lambda: _single_run(sys=_PAIR), ParameterError, "system must be a SystemParams"),
    (lambda: _single_run(bath="x"), ParameterError, "bath must be a BathParams"),
    (lambda: _single_run(th=1.0), ParameterError, "thermal must be a Thermal"),
    (lambda: _pair_run(sys2=SystemParams(2.0, 1.0)), ParameterError,
     "system must be a TwoQubitParams"),
    (lambda: _pair_run(bath="x"), ParameterError, "bath must be a BathParams"),
    (lambda: _pair_run(th=1.0), ParameterError, "thermal must be a Thermal"),
    (lambda: _oracle_state(th=1.0), ParameterError, "thermal must be a Thermal, got float"),
    (lambda: _oracle_state(h="h"), ParameterError, "h must be a FullHamiltonian, got str"),
    (lambda: build_hamiltonian(SystemParams(1, 1), "x"), ParameterError,
     "bath must be a BathParams, got str"),
    (lambda: evolve_and_reduce(None, np.eye(16), 1.0), ParameterError,
     "h must be a FullHamiltonian, got NoneType"),
    (lambda: _single_run(correlated=True), ParameterError,
     "correlated must be a sequence of bools, got True"),
    (lambda: _pair_run(correlated="ab"), ParameterError,
     "correlated must be a sequence of bools, got 'ab'"),
    (lambda: _pair_run(correlated=()), ParameterError,
     "correlated must hold at least one series flag"),
    (lambda: oracle_check(preset("fig4"), 3, analytic_beta_skew="x"), UsageError,
     "analytic_beta_skew must be a number, got 'x'"),
    (lambda: gaussian_draw("x", 3), ParameterError, "spec must be a RandomSpec, got str"),
    (lambda: run("fig4"), ParameterError, "config must be a ExperimentConfig, got str"),
    (lambda: oracle_check("fig4", 3), UsageError, "config must be a ExperimentConfig, got str"),
    (lambda: oracle_check(preset("fig4"), 3, analytic_beta_skew=-3.0), UsageError,
     "analytic_beta_skew must be >= -1, got -3.0"),
    (lambda: run(replace(preset("fig4"), state_params=(1.0,))), UsageError,
     "state.theta and state.phi must hold 2 numbers, got (1.0,)"),
    (lambda: run(replace(preset("fig13"), state_kind="amplitudes", state_params=(1.0, 0, 0))),
     UsageError, "state.amplitudes must hold 8 numbers, got (1.0, 0, 0)"),
    (lambda: BathSpec(3, "random", seed=1, g_stats=(1, 2), eps_stats=(1, 2),
                      chi_stats=(1, 2)), UsageError,
     "bath.random.g must be a GaussianStats, got (1, 2)"),
], ids=["text_matrix", "text_state", "matrix_state", "matrix_pair_state", "text_bloch_state",
        "nan_bloch_state", "text_concurrence", "text_times", "fractional_seed", "bool_seed",
        "fractional_count", "fractional_enumerate_spins", "fractional_class_spins",
        "fractional_uniform_spins", "bool_spins", "text_oracle_size", "fractional_oracle_size",
        "pair_for_single",
        "text_single_bath", "float_single_thermal", "single_for_pair", "text_pair_bath",
        "float_pair_thermal", "float_oracle_thermal", "text_oracle_h", "text_oracle_bath",
        "none_evolve_h", "bool_series_flags", "text_series_flags", "no_series_flags",
        "text_beta_skew", "text_random_spec", "text_run_config", "text_oracle_config",
        "negative_beta_skew", "one_state_angle", "three_state_amplitudes",
        "tuple_random_stats"])
def test_array_integer_and_record_inputs_raise_a_named_error(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        build()


_BAD_COMPONENTS = ("", "xx", "w", "X", 0, ("x",), None)


@pytest.mark.parametrize("run, module, arguments, message", [
    (_single_run, single_qubit, {"correlated": (False, 1)},
     "correlated must be a sequence of bools, got (False, 1)"),
    (_pair_run, two_qubit, {"correlated": (False, 1)},
     "correlated must be a sequence of bools, got (False, 1)"),
    *((_single_run, single_qubit, {"components": bad},
       "components must be a non-empty string of distinct letters from 'xyz', "
       f"got {bad!r}") for bad in _BAD_COMPONENTS),
], ids=["single_flags", "pair_flags", *(f"components_{bad!r}" for bad in _BAD_COMPONENTS)])
def test_series_flags_are_refused_before_any_bath_work(monkeypatch, run, module, arguments,
                                                        message):
    def no_bath_work(*args):
        raise AssertionError("bath work started")

    monkeypatch.setattr(module, "bath_sums", no_bath_work)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        run(**arguments)


# reduce_weighted trusts its grid: each trajectory checks it at entry
@pytest.mark.parametrize("times, message", [
    ((), "times must be a non-empty 1-d sequence"),
    (0.5, "times must be a non-empty 1-d sequence"),
    (((0.0, 1.0),), "times must be a non-empty 1-d sequence"),
    ((1.0, 0.0), "times must be ascending"),
    ((0.0, np.nan), "times has non-finite entries"),
    ((0.0, np.inf), "times has non-finite entries"),
    ("ab", "times must be numeric"),
], ids=["empty", "scalar", "two_d", "descending", "nan", "inf", "text"])
@pytest.mark.parametrize("run, module", [(_single_run, single_qubit), (_pair_run, two_qubit)])
def test_bad_time_grids_are_refused_before_any_bath_work(monkeypatch, run, module, times,
                                                         message):
    def no_bath_work(*args):
        raise AssertionError("bath work started")

    monkeypatch.setattr(module, "bath_sums", no_bath_work)
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        run(times=times)


def test_time_grid_may_repeat_a_point():
    for run in (_single_run, _pair_run):
        out = run(times=[0.0, 1.0, 1.0])
        assert np.array_equal(out[:, 1], out[:, 2])


# bath_sums trusts the cap: each trajectory refuses the bath before its tables exist
@pytest.mark.parametrize("run", [_single_run, _pair_run])
def test_beyond_enumeration_cap_is_refused_before_bath_tables(monkeypatch, run):
    calls = []
    monkeypatch.setattr(model, "_half_chain_tables", calls.append)
    bath = BathParams.uniform(ENUMERATION_CAP + 1, 0.5, 1.5, 0.1)
    with pytest.raises(CapacityError, match="only a uniform bath runs beyond"):
        run(bath=bath)
    assert calls == []


def test_text_that_converts_stays_accepted():
    assert SystemParams("1.5", 1).epsilon == 1.5
    assert BathParams(1, ("1.5",), (1.0,), ()).eps_i == (1.5,)
    assert BathSpec(4, "uniform", eps="1.5", g=1.0, chi=0.1).materialize().eps_i == (1.5,) * 4


def test_integer_inputs_take_text_and_numbers_that_int_keeps():
    assert RandomSpec(0.0, 1.0, "7").seed == 7
    assert RandomSpec(0.0, 1.0, 7.0).seed == 7
    assert BathParams("2", (1.0,) * 2, (1.0,) * 2, (0.0,)).n_spins == 2
    assert gaussian_draw(RandomSpec(0, 1, 1), 2.0).shape == (2,)


class TestConfigParsing:
    def test_minimal_single(self):
        config = config_from_keys(single_keys())
        assert config.mode == "single"
        assert config.system.epsilon == 2.0
        assert config.bath.kind == "uniform"
        assert config.grid.n_points == 5
        assert config.backend is Backend.COLLAPSE
        assert config.series == ("uncorrelated", "correlated")

    def test_unknown_key_is_named(self):
        with pytest.raises(UsageError, match="bogus.key"):
            config_from_keys(single_keys(**{"bogus.key": "1"}))

    def test_bath_picks_the_backend(self):
        assert config_from_keys(ragged(single_keys)).backend is Backend.ENUMERATE
        explicit_uniform = {**ragged(single_keys), "bath.g_list": "0.5,0.5,0.5"}
        assert config_from_keys(explicit_uniform).backend is Backend.COLLAPSE

    def test_missing_required(self):
        keys = single_keys()
        del keys["thermal.beta"]
        with pytest.raises(UsageError, match="thermal.beta"):
            config_from_keys(keys)

    def test_mixed_bath_styles_rejected(self):
        with pytest.raises(UsageError, match="pick one style"):
            config_from_keys(single_keys(**{"bath.g_list": "1,2,3"}))

    def test_two_qubit_defaults(self):
        keys = {
            "mode": "two_qubit",
            "system.eps1": "1", "system.eps2": "2",
            "system.delta1": "4", "system.delta2": "1",
            "bath.n_spins": "2", "bath.eps": "1", "bath.g": "1", "bath.chi": "0",
            "thermal.beta": "1",
        }
        config = config_from_keys(keys)
        assert config.state_kind == "bell"
        assert config.system.lam == 0.0
        assert config.grid.t_end == 10.0

    def test_amplitude_state_is_normalized(self):
        keys = {
            "mode": "two_qubit",
            "system.eps1": "1", "system.eps2": "2",
            "system.delta1": "4", "system.delta2": "1",
            "state.amplitudes": "1,0,0,0,0,0,1,0",
            "bath.n_spins": "2", "bath.eps": "1", "bath.g": "1", "bath.chi": "0",
            "thermal.beta": "1",
        }
        psi = config_from_keys(keys).state_vector()
        assert np.allclose(psi, [2 ** -0.5, 0.0, 0.0, 2 ** -0.5])

    @pytest.mark.parametrize("extreme, plain", [("1e308,0,1e308,0,0,0,0,0", "1,0,1,0,0,0,0,0"),
                                                ("1e-320,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0")],
                             ids=["huge", "subnormal"])
    def test_extreme_amplitudes_are_normalized(self, extreme, plain):
        psi = [config_from_keys({**pair_keys(), "state.amplitudes": amplitudes}).state_vector()
               for amplitudes in (extreme, plain)]
        assert np.array_equal(psi[0], psi[1])

    def test_zero_amplitudes_are_refused(self):
        with pytest.raises(UsageError, match="must not all be zero"):
            config_from_keys({**pair_keys(), "state.amplitudes": "0,0,0,0,0,0,0,0"}).state_vector()

    def test_amplitudes_need_eight_numbers(self):
        keys = single_keys()
        keys["mode"] = "two_qubit"
        for k in ("system.epsilon", "system.delta"):
            del keys[k]
        keys.update({"system.eps1": "1", "system.eps2": "2",
                     "system.delta1": "4", "system.delta2": "1",
                     "state.amplitudes": "1,0,0"})
        with pytest.raises(UsageError, match="8"):
            config_from_keys(keys)

    def test_series_filter(self):
        config = config_from_keys(single_keys(series="correlated"))
        assert config.series == ("correlated",)

    def test_parse_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "# a comment\n\nmode = single\nsystem.epsilon = 2\nsystem.delta = 1\n"
            "bath.n_spins = 3\nbath.eps = 1\nbath.g = 0.5\nbath.chi = 0.1\n"
            "thermal.beta = 1\ngrid.t_end = 4\ngrid.n_points = 5\n")
        config = parse_config_file(path)
        assert config == config_from_keys(single_keys())

    def test_parse_file_duplicate_key(self, tmp_path):
        path = tmp_path / "dup.ini"
        path.write_text("mode = single\nmode = single\n")
        with pytest.raises(UsageError, match="duplicate"):
            parse_config_file(path)

    def test_parse_file_garbage_line(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("mode single\n")
        with pytest.raises(UsageError, match="key = value"):
            parse_config_file(path)

    def test_readme_example_parses(self, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        config = parse_config_file(path)
        assert config.mode == "single" and config.bath.n_spins == 10
        assert config.output == "run.csv"

    def test_readme_library_example_runs(self):
        block = re.search(r"```python\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        values = [float(word) for word in out.getvalue().split()]
        assert len(values) == 2 and all(math.isfinite(v) for v in values)

    def test_key_of_other_mode_rejected(self):
        with pytest.raises(UsageError, match="system.eps1 does not apply to mode single"):
            config_from_keys(single_keys(**{"system.eps1": "1"}))

    def test_non_finite_real_rejected(self):
        for value in ("inf", "-inf", "nan"):
            with pytest.raises(UsageError, match="state.theta must be finite"):
                config_from_keys(single_keys(**{"state.theta": value}))

    def test_echo_rows_must_match_this_build(self):
        with pytest.raises(UsageError, match="tool must be spinbath"):
            config_from_keys(single_keys(tool="spinbath 0.0.0"))
        random_keys = single_keys(**{"bath.random.seed": "1", "rng.algorithm": "other"})
        for key in ("bath.eps", "bath.g", "bath.chi"):
            del random_keys[key]
        for name in ("g", "eps", "chi"):
            random_keys.update({f"bath.random.{name}.mean": "1",
                                f"bath.random.{name}.std": "0.1"})
        with pytest.raises(UsageError, match="rng.algorithm must be"):
            config_from_keys(random_keys)
        assert config_from_keys({**random_keys, "rng.algorithm": RNG_ALGORITHM}).bath.seed == 1


class TestReplay:
    def test_tool_row_names_package_version(self):
        rows = config_metadata(preset("fig1"))
        assert rows[0] == ("tool", f"spinbath {spinbath.__version__}")

    @pytest.mark.parametrize("name", list_presets())
    def test_preset_header_replays(self, name):
        config = preset(name)
        replayed = config_from_keys(dict(config_metadata(config)))
        assert replayed == config
        assert run(replayed).render() == run(config).render()

    @given(configs())
    @settings(max_examples=200, deadline=None)
    def test_generated_configs_round_trip(self, config):
        # through a written CSV: an explicit open chain of one spin echoes an
        # empty bond list
        table = ResultTable(columns=("t",), rows=np.zeros((1, 1)),
                            metadata=config_metadata(config))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "run.csv"
            table.write_csv(path)
            assert parse_config_file(path) == config

    def test_csv_file_replays(self, tmp_path):
        config = preset("fig11", seed=5)
        path = tmp_path / "fig11.csv"
        run(config).write_csv(path)
        assert parse_config_file(path) == config
        assert ("series", "both") in config_metadata(config)


class TestPresets:
    def test_catalog_is_complete(self):
        assert list_presets() == [f"fig{i}" for i in range(1, 20)]

    def test_single_qubit_regimes(self):
        config = preset("fig4")
        assert config.mode == "single"
        assert config.bath.n_spins == 50
        assert config.backend is Backend.COLLAPSE
        assert config.grid.t_end == 20.0
        assert config.beta == 1.0

    @pytest.mark.parametrize("name", list_presets())
    def test_preset_bath_picks_the_backend(self, name):
        # only the random baths of fig11 and fig12 enumerate
        config = preset(name)
        random = name in ("fig11", "fig12")
        assert (config.bath.kind == "random") is random
        assert config.backend is (Backend.ENUMERATE if random else Backend.COLLAPSE)

    def test_two_qubit_regimes(self):
        config = preset("fig18")
        assert config.mode == "two_qubit"
        assert config.system.lam == 3.0
        assert config.state_kind == "bell"
        assert config.grid.t_end == 10.0

    def test_product_state_preset(self):
        assert preset("fig19").state_kind == "product"
        assert preset("fig19").system.lam == 5.0

    def test_random_presets_record_seeds(self):
        assert preset("fig11").bath.seed == 11
        assert preset("fig12").bath.seed == 12

    def test_seed_override(self):
        assert preset("fig11", seed=99).bath.seed == 99

    def test_seed_override_rejected_for_fixed(self):
        with pytest.raises(UsageError, match="--seed"):
            preset("fig1", seed=5)

    def test_unknown_preset(self):
        with pytest.raises(UsageError, match="unknown preset"):
            preset("fig99")


@pytest.fixture(scope="module")
def tiny_table():
    return run(config_from_keys(single_keys()))


class TestRunAndCsv:
    def test_columns(self, tiny_table):
        assert tiny_table.columns == ("t", "px_uncorrelated", "px_correlated")

    def test_row_shape(self, tiny_table):
        assert tiny_table.rows.shape == (5, 3)
        assert tiny_table.rows[0, 0] == 0.0
        assert tiny_table.rows[0, 1] == 1.0  # theta defaults to +x

    def test_render_format(self, tiny_table):
        text = tiny_table.render()
        lines = text.split("\n")
        assert lines[0].startswith("# tool = spinbath ")
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "t,px_uncorrelated,px_correlated"
        assert text.endswith("\n")
        assert "\r" not in text

    def test_floats_roundtrip_exactly(self, tiny_table):
        lines = [l for l in tiny_table.render().split("\n") if l and not l.startswith("#")]
        for row_text, row in zip(lines[1:], tiny_table.rows):
            parsed = [float(x) for x in row_text.split(",")]
            assert parsed == list(row)

    def test_write_csv(self, tiny_table, tmp_path):
        path = tmp_path / "out.csv"
        tiny_table.write_csv(path)
        assert path.read_text() == tiny_table.render()

    def test_metadata_has_no_volatile_fields(self, tiny_table):
        keys = [k for k, _ in tiny_table.metadata]
        assert not any("time" in k or "date" in k or "host" in k for k in keys)

    def test_two_qubit_columns(self):
        keys = {
            "mode": "two_qubit",
            "system.eps1": "1", "system.eps2": "2",
            "system.delta1": "4", "system.delta2": "1",
            "bath.n_spins": "2", "bath.eps": "1", "bath.g": "1", "bath.chi": "0",
            "thermal.beta": "1", "grid.n_points": "3",
        }
        table = run(config_from_keys(keys))
        assert table.columns == ("t", "C_uncorrelated", "C_correlated")
        assert table.rows[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_series_filter_drops_column(self):
        table = run(config_from_keys(single_keys(series="uncorrelated")))
        assert table.columns == ("t", "px_uncorrelated")

    @pytest.mark.parametrize("n_spins", [25, 3_000_000])
    def test_over_cap_random_bath_is_not_drawn(self, monkeypatch, n_spins):
        # the cap is checked before a random bath's parameters are drawn
        def refuse(*args):
            raise AssertionError("gaussian_draw called")

        monkeypatch.setattr(experiments, "gaussian_draw", refuse)
        keys = {**single_keys(), "bath.n_spins": str(n_spins),
                "bath.random.seed": "3"}
        for name in ("g", "eps", "chi"):
            keys.update({f"bath.random.{name}.mean": "1", f"bath.random.{name}.std": "0.1"})
        for name in ("bath.eps", "bath.g", "bath.chi"):
            del keys[name]
        with pytest.raises(CapacityError, match="cap of 2\\^24; only a uniform bath"):
            run(config_from_keys(keys))

    def test_over_cap_uniform_bath_is_not_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("materialize called")

        monkeypatch.setattr(BathSpec, "materialize", refuse)
        config = config_from_keys(single_keys(**{"bath.n_spins": "3000000"}))
        with pytest.raises(CapacityError, match="collapse cap"):
            run(config)


def _random_keys(**overrides):
    keys = single_keys(**overrides, **{"bath.random.seed": "3"})
    for name in ("g", "eps", "chi"):
        keys.update({f"bath.random.{name}.mean": "1", f"bath.random.{name}.std": "0.1"})
    for name in ("bath.eps", "bath.g", "bath.chi"):
        del keys[name]
    return keys


class TestBackendFromSpec:
    """ExperimentConfig.backend reads the spec; run() builds the bath once."""

    @pytest.mark.parametrize("keys, backend", [(single_keys, Backend.COLLAPSE),
                                               (_random_keys, Backend.ENUMERATE)])
    @pytest.mark.parametrize("n_spins", ["3", "3000000"])
    def test_reading_the_backend_builds_no_bath(self, monkeypatch, keys, backend, n_spins):
        def refuse(*args):
            raise AssertionError("bath built")

        monkeypatch.setattr(BathSpec, "materialize", refuse)
        monkeypatch.setattr(experiments, "gaussian_draw", refuse)
        assert config_from_keys(keys(**{"bath.n_spins": n_spins})).backend is backend

    @pytest.mark.parametrize("keys", [single_keys, functools.partial(ragged, single_keys),
                                      _random_keys])
    def test_run_materializes_once(self, monkeypatch, keys):
        calls = []
        materialize = BathSpec.materialize

        def counted(spec):
            calls.append(spec.kind)
            return materialize(spec)

        monkeypatch.setattr(BathSpec, "materialize", counted)
        config = config_from_keys(keys())
        run(config)
        assert calls == [config.bath.kind]

    @pytest.mark.parametrize("keys", [single_keys, pair_keys])
    def test_run_builds_explicit_lists_once(self, monkeypatch, keys):
        # the uniform lists choose collapse and serve the run from one build
        builds = []

        def counted(*args):
            builds.append(args[0])
            return BathParams(*args)

        monkeypatch.setattr(experiments, "BathParams", counted)
        explicit = {name: value for name, value in keys().items()
                    if name not in ("bath.eps", "bath.g", "bath.chi")}
        n = int(explicit["bath.n_spins"])
        explicit.update({"bath.eps_list": ",".join(["1"] * n), "bath.g_list": ",".join(["2"] * n),
                         "bath.chi_list": ",".join(["0.1"] * (n - 1))})
        config = config_from_keys(explicit)
        for _ in range(2):
            run(config)
        assert builds == [n, n]

    def test_over_cap_explicit_lists_are_not_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bath built")

        n = 3_501
        spec = BathSpec(n, "explicit", eps_list=(1.0,) * n, g_list=(1.0,) * n,
                        chi_list=(0.1,) * (n - 1))
        config = replace(config_from_keys(single_keys()), bath=spec)
        monkeypatch.setattr(BathSpec, "materialize", refuse)
        monkeypatch.setattr(experiments, "BathParams", refuse)
        for read in (lambda: config.backend, lambda: run(config)):
            with pytest.raises(CapacityError, match="collapse cap"):
                read()


class TestSharedSweep:
    """Both series come from one trajectory call over one bath table."""

    @pytest.mark.parametrize("keys", [single_keys, pair_keys])
    def test_two_series_collapse_run_builds_classes_once(self, monkeypatch, keys):
        calls = []

        def counted(function):
            return lambda *args: calls.append(function.__name__) or function(*args)

        for module in (single_qubit, two_qubit):
            monkeypatch.setattr(module, "collapse_classes", counted(collapse_classes))
        for name in ("bloch_trajectory", "density_trajectory"):
            monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
        run(config_from_keys(keys()))
        trajectory = "bloch_trajectory" if keys is single_keys else "density_trajectory"
        assert sorted(calls) == sorted(["collapse_classes", trajectory])

    @pytest.mark.parametrize("keys", [single_keys, pair_keys])
    @pytest.mark.parametrize("backend", ["enumerate", "collapse"])
    def test_one_series_runs_match_both_byte_for_byte(self, keys, backend):
        if backend == "enumerate":
            keys = functools.partial(ragged, keys)
        assert config_from_keys(keys()).backend.value == backend
        both = run(config_from_keys(keys(series="both")))
        for column, series in ((1, "uncorrelated"), (2, "correlated")):
            alone = run(config_from_keys(keys(series=series)))
            assert alone.rows.shape == (both.rows.shape[0], 2)
            assert alone.rows[:, 1].tobytes() == both.rows[:, column].tobytes()

    def test_empty_flag_tuple_rejected(self):
        for keys, trajectory in ((single_keys, experiments.bloch_trajectory),
                                 (pair_keys, experiments.density_trajectory)):
            config = config_from_keys(keys())
            with pytest.raises(ParameterError, match="at least one"):
                trajectory(config.system, config.bath.materialize(), config.thermal(),
                           config.backend, config.state_vector(), config.grid.times(), ())


class TestOracleCheck:
    def test_passes_on_honest_run(self):
        config = config_from_keys(single_keys())
        report = oracle_check(config, n_override=3)
        assert report.passed
        assert {name for name, _ in report.entries} == {
            "bloch_uncorrelated", "bloch_correlated"}
        assert all(dev < 1e-9 for _, dev in report.entries)

    def test_two_qubit_entries(self):
        report = oracle_check(config_from_keys(pair_keys(**{"bath.n_spins": "5"})), n_override=3)
        assert report.passed
        assert {name for name, _ in report.entries} == {
            "rho_uncorrelated", "rho_correlated",
            "concurrence_uncorrelated", "concurrence_correlated"}

    # bath values from a small set, so coupling fields tie and partial folds run
    @given(configs(max_spins=5, bath_values=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
                   betas=st.sampled_from([0.0, 0.3, 2.0, 20.0])))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_generated_configs_match_the_oracle(self, config):
        assert oracle_check(config, config.bath.n_spins).passed
        if config.bath.kind == "uniform":
            trajectory = bloch_trajectory if config.mode == "single" else density_trajectory
            flags = tuple(series == "correlated" for series in config.series)
            enumerated, collapsed = (
                trajectory(config.system, config.bath.materialize(), config.thermal(), backend,
                           config.state_vector(), config.grid.times(), flags)
                for backend in Backend)
            assert np.abs(enumerated - collapsed).max() <= 1e-12

    @pytest.mark.parametrize("name", ["fig4", "fig13"])
    def test_passes_at_long_times(self, name):
        # both paths lose about eps |E| t to rounding; README states the limit
        config = preset(name)
        config = replace(config, grid=replace(config.grid, t_end=1e5, n_points=40))
        assert oracle_check(config, 3).passed

    def test_corrupted_weights_trip_the_check(self):
        config = config_from_keys(single_keys())
        report = oracle_check(config, n_override=3, analytic_beta_skew=1e-5)
        assert not report.passed

    def test_skew_of_minus_one_runs_at_beta_zero(self):
        # beta 0 is a valid analytic temperature, so the check runs and trips
        assert not oracle_check(preset("fig4"), 3, analytic_beta_skew=-1.0).passed

    @pytest.mark.parametrize("name", ["fig4", "fig13"])
    def test_one_evolve_call_serves_every_series(self, monkeypatch, name):
        calls = []

        def spy(h, rho0, t):
            calls.append(np.shape(rho0))
            return evolve_and_reduce(h, rho0, t)

        monkeypatch.setattr(experiments, "evolve_and_reduce", spy)
        config = preset(name)
        assert oracle_check(config, 3).passed
        dim = 1 << (3 + (1 if config.mode == "single" else 2))
        assert calls == [(len(config.series), dim, dim)]

    def test_run_sweeps_px_alone_and_the_oracle_the_whole_vector(self, monkeypatch):
        # run() writes p_x only, while the oracle check compares the whole
        # Bloch vector with the brute-force reduced state, so it needs all three
        calls = []

        def recorder(*args):
            result = bloch_trajectory(*args)
            calls.append((args[7:], result.shape[-1]))
            return result

        monkeypatch.setattr(experiments, "bloch_trajectory", recorder)
        run(preset("fig4"))
        assert oracle_check(preset("fig4"), 3).passed
        assert calls == [(("x",), 1), (("xyz",), 3)]

    def test_dimension_cap(self):
        config = config_from_keys(single_keys())
        with pytest.raises(CapacityError):
            oracle_check(config, n_override=20)

    @pytest.mark.parametrize("keys, limit", [(single_keys(), 11), (pair_keys(), 10)],
                             ids=["single", "pair"])
    def test_one_spin_over_the_limit_is_refused_first(self, monkeypatch, keys, limit):
        def refuse(*args):
            raise AssertionError("work started")

        for name in ("bloch_trajectory", "density_trajectory", "build_hamiltonian"):
            monkeypatch.setattr(experiments, name, refuse)
        with pytest.raises(CapacityError, match=refusal(limit)):
            oracle_check(config_from_keys(keys), n_override=limit + 1)

    def test_report_lines_mention_verdict(self):
        config = config_from_keys(single_keys())
        report = oracle_check(config, n_override=2)
        text = "\n".join(report.lines())
        assert "PASS" in text

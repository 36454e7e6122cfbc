"""Experiment configurations, figure presets, CSV output, and oracle checks.

A configuration is a flat record of physical parameters plus run plumbing
(time grid, series selection). One table, CONFIG_KEYS, gives each
dotted config key its type, default and the mode or bath style it applies
to; presets, config files and CSV headers are all read through it, and the
CSV metadata echoes it, so a CSV header replays its run byte-identically
(random bath parameters are regenerated from their recorded seed).
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from . import __version__
from .configspace import Backend, _require_capacity
from .errors import ParameterError, UsageError
from .model import (BathParams, Boundary, SystemParams, Thermal, TwoQubitParams,
                    _check_records, pure_state, require_uniform)
from .numerics import RNG_ALGORITHM, RandomSpec, gaussian_draw
from .oracle import build_hamiltonian, evolve_and_reduce, initial_state, require_dimension
from .single_qubit import bloch_trajectory
from .two_qubit import bell_state, concurrence, density_trajectory, product_state

TOOL = f"spinbath {__version__}"
ORACLE_TOLERANCE = 1e-9

MODES = ("single", "two_qubit")
SERIES_UNCORRELATED = "uncorrelated"
SERIES_CORRELATED = "correlated"
_SERIES_CHOICES = {
    "both": (SERIES_UNCORRELATED, SERIES_CORRELATED),
    SERIES_UNCORRELATED: (SERIES_UNCORRELATED,),
    SERIES_CORRELATED: (SERIES_CORRELATED,),
}


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        for name in ("t_start", "t_end"):
            object.__setattr__(self, name, _require_real(f"grid.{name}", getattr(self, name)))
        object.__setattr__(self, "n_points", _require_int("grid.n_points", self.n_points))
        if not math.isfinite(self.t_end - self.t_start):
            raise UsageError("grid.t_start, grid.t_end and their span must be finite, "
                             f"got [{self.t_start}, {self.t_end}]")
        if self.t_end <= self.t_start:
            raise UsageError(
                f"grid.t_end must exceed grid.t_start, got [{self.t_start}, {self.t_end}]"
            )
        # README gives the measured time and memory at the upper bound
        if not 2 <= self.n_points <= 1_000_000:
            raise UsageError(f"grid.n_points must be in [2, 1000000], got {self.n_points}")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)


@dataclass(frozen=True)
class GaussianStats:
    mean: float
    std: float


@dataclass(frozen=True)
class BathSpec:
    """Bath description before materialization: uniform values, explicit
    per-site lists, or Gaussian-random parameters with a recorded seed."""

    n_spins: int
    kind: str  # uniform | explicit | random
    boundary: Boundary = Boundary.OPEN
    eps: float | None = None
    g: float | None = None
    chi: float | None = None
    eps_list: tuple[float, ...] | None = None
    g_list: tuple[float, ...] | None = None
    chi_list: tuple[float, ...] | None = None
    seed: int | None = None
    g_stats: GaussianStats | None = None
    eps_stats: GaussianStats | None = None
    chi_stats: GaussianStats | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_spins", _require_int("bath.n_spins", self.n_spins))
        if self.n_spins < 1:
            raise UsageError(f"bath.n_spins must be >= 1, got {self.n_spins}")
        if not isinstance(self.boundary, Boundary):
            names = [b.value for b in Boundary]
            object.__setattr__(self, "boundary",
                               Boundary(_choose("bath.boundary", self.boundary, names)))
        needed = {
            "uniform": ("eps", "g", "chi"),
            "explicit": ("eps_list", "g_list", "chi_list"),
            "random": ("seed", "g_stats", "eps_stats", "chi_stats"),
        }
        if self.kind not in needed:
            raise UsageError(f"unknown bath kind {self.kind!r}")
        for field_name in needed[self.kind]:
            if getattr(self, field_name) is None:
                raise UsageError(f"bath spec is missing {field_name} for kind {self.kind!r}")
        # each value as a number, or a UsageError naming its config key
        if self.kind == "uniform":
            for name in ("eps", "g", "chi"):
                object.__setattr__(self, name, _parse_real(f"bath.{name}", getattr(self, name)))
        elif self.kind == "explicit":
            for name, length in (("eps_list", self.n_spins), ("g_list", self.n_spins),
                                 ("chi_list", self.bond_count)):
                values = getattr(self, name)
                if not isinstance(values, Iterable):
                    raise UsageError(f"bath.{name} must be a list of numbers, got {values!r}")
                values = tuple(_parse_real(f"bath.{name}", value) for value in values)
                if len(values) != length:
                    raise UsageError(f"bath.{name} must be a list of {length} numbers for "
                                     f"{self.n_spins} spins, {self.boundary.value} boundary, "
                                     f"got {len(values)}")
                object.__setattr__(self, name, values)
        else:
            object.__setattr__(self, "seed", _require_int("bath.random.seed", self.seed))
            for name in ("g", "eps", "chi"):
                stats = getattr(self, f"{name}_stats")
                _require_real(f"bath.random.{name}.mean", stats.mean)
                std = _require_real(f"bath.random.{name}.std", stats.std)
                if std < 0:
                    raise UsageError(f"bath.random.{name}.std must be >= 0, got {std}")

    @property
    def bond_count(self) -> int:
        return self.n_spins if self.boundary is Boundary.PERIODIC else self.n_spins - 1

    def materialize(self) -> BathParams:
        """Concrete per-site parameters; random draws are reproduced from the
        seed (substreams seed, seed+1, seed+2 for g, eps, chi in that order)."""
        n = self.n_spins
        if self.kind == "uniform":
            return BathParams.uniform(n, self.eps, self.g, self.chi, self.boundary)
        if self.kind == "explicit":
            return BathParams(n, self.eps_list, self.g_list, self.chi_list, self.boundary)
        mask = (1 << 64) - 1
        g = gaussian_draw(RandomSpec(self.g_stats.mean, self.g_stats.std, self.seed), n)
        eps = gaussian_draw(
            RandomSpec(self.eps_stats.mean, self.eps_stats.std, (self.seed + 1) & mask), n)
        chi = gaussian_draw(
            RandomSpec(self.chi_stats.mean, self.chi_stats.std, (self.seed + 2) & mask),
            self.bond_count)
        return BathParams(n, tuple(eps), tuple(g), tuple(chi), self.boundary)

    def resized(self, n_spins: int) -> "BathSpec":
        """Same bath description at a different size (oracle cross-checks)."""
        if self.kind == "explicit":
            if n_spins != self.n_spins:
                raise UsageError(
                    "bath with explicit per-site lists cannot be resized; "
                    f"lists are for {self.n_spins} spins"
                )
            return self
        return replace(self, n_spins=n_spins)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str  # single | two_qubit
    system: SystemParams | TwoQubitParams
    bath: BathSpec
    beta: float
    state_kind: str  # angles | bell | product | amplitudes
    state_params: tuple[float, ...]
    grid: TimeGrid
    series: tuple[str, ...] = (SERIES_UNCORRELATED, SERIES_CORRELATED)
    output: str | None = None
    preset_name: str | None = None

    def __post_init__(self):
        _choose("mode", self.mode, MODES)
        expected = SystemParams if self.mode == "single" else TwoQubitParams
        if not isinstance(self.system, expected):
            raise UsageError(f"mode {self.mode} needs {expected.__name__} system parameters")
        if self.mode == "single" and self.state_kind != "angles":
            raise UsageError("single mode takes state.theta/state.phi angles")
        if self.mode == "two_qubit" and self.state_kind == "angles":
            raise UsageError("two_qubit mode takes state.name or state.amplitudes")
        if self.series not in _SERIES_CHOICES.values():
            raise UsageError(f"series must be one of {list(_SERIES_CHOICES.values())}, "
                             f"got {self.series!r}")

    def state_vector(self) -> np.ndarray:
        if self.state_kind == "angles":
            theta, phi = self.state_params
            return pure_state([math.cos(theta / 2.0),
                               math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))])
        if self.state_kind == "bell":
            return bell_state()
        if self.state_kind == "product":
            return product_state()
        if self.state_kind == "amplitudes":
            # (re, im) pairs, scaled by the largest part so the norm neither
            # overflows nor underflows
            parts = np.array(self.state_params, dtype=float)
            largest = np.abs(parts).max()
            if largest == 0.0:
                raise UsageError("state.amplitudes must not all be zero")
            vec = (parts / largest).view(complex)
            return pure_state(vec / np.linalg.norm(vec))
        raise UsageError(f"unknown state kind {self.state_kind!r}")

    def thermal(self) -> Thermal:
        return Thermal(self.beta)

    @property
    def backend(self) -> Backend:
        """The exact sum the bath takes, read off its spec: a random bath
        enumerates and a uniform one collapses, neither drawn nor built; an
        explicit one collapses when require_uniform accepts its lists."""
        spec = self.bath
        if spec.kind != "explicit":
            return Backend.ENUMERATE if spec.kind == "random" else Backend.COLLAPSE
        # no list beyond the larger cap (collapse's) is built
        _require_capacity(spec.n_spins, Backend.COLLAPSE)
        bath = BathParams(spec.n_spins, spec.eps_list, spec.g_list, spec.chi_list, spec.boundary)
        try:
            require_uniform(bath)
        except ParameterError:
            return Backend.ENUMERATE
        return Backend.COLLAPSE


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _choose(key: str, text: str, choices) -> str:
    if text not in choices:
        *head, last = choices
        listed = f"{', '.join(head)} or {last}" if head else last
        raise UsageError(f"{key} must be {listed}, got {text!r}")
    return text


def _parse_real(key: str, text) -> float:
    """text, or a value float() converts, as a finite float, or a UsageError
    naming key."""
    try:
        value = float(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"{key} must be a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise UsageError(f"{key} must be finite, got {text!r}")
    return value


def _require_real(key: str, value) -> float:
    """value as a finite float, or a UsageError naming key; text is refused,
    as _require_int refuses it, and so is a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{key} must be a number, got {value!r}")
    return _parse_real(key, value)


def _require_int(key: str, value) -> int:
    """value as an int, or a UsageError naming key; a float is refused even
    when it is integral, and so is a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"{key} must be an integer, got {text!r}") from exc


@dataclass(frozen=True)
class _Type:
    """How a config value is read from its text and echoed back."""

    parse: Callable[[str, str], object]  # (key, text) -> value, or UsageError
    show: Callable[[object], str] = str


def _reals(count: int | None = None) -> _Type:
    def parse(key, text):
        values = tuple(_parse_real(key, v.strip()) for v in text.split(",") if v.strip())
        if count is not None and len(values) != count:
            raise UsageError(f"{key} needs {count} comma-separated reals, got {len(values)}")
        return values
    return _Type(parse, lambda values: ",".join(map(_fmt, values)))


def _words(*choices: str) -> _Type:
    return _Type(lambda key, text: _choose(key, text, choices))


_REAL = _Type(_parse_real, _fmt)
_INT = _Type(_parse_int)
_TEXT = _Type(lambda key, text: text)


@dataclass(frozen=True)
class _Key:
    """One config key: its type, its default (None: the key is required), the
    mode, bath style or two-qubit state style it applies to (None: all), and
    how its value is read from a configuration (default: the attribute path
    of its name; a None value is not echoed)."""

    name: str
    type: _Type
    default: object = None
    when: str | None = None
    get: Callable[[ExperimentConfig], object] | None = None

    def __post_init__(self):
        if self.get is None:
            object.__setattr__(self, "get", attrgetter(self.name))


_MODE = _Key("mode", _words(*MODES))
# in echo order; `output` is never echoed, since where a run is written is no
# part of the run
CONFIG_KEYS = (
    _Key("tool", _words(TOOL), TOOL, get=lambda config: TOOL),
    _Key("preset", _TEXT, "", get=attrgetter("preset_name")),
    _MODE,
    _Key("system.epsilon", _REAL, when="single"),
    _Key("system.delta", _REAL, when="single"),
    *(_Key(f"system.{name}", _REAL, when="two_qubit")
      for name in ("eps1", "eps2", "delta1", "delta2")),
    _Key("system.lambda", _REAL, 0.0, "two_qubit", attrgetter("system.lam")),
    _Key("bath.n_spins", _INT),
    _Key("bath.boundary", _words(*(b.value for b in Boundary)), Boundary.OPEN.value,
         get=attrgetter("bath.boundary.value")),
    _Key("bath.eps", _REAL, when="uniform"),
    _Key("bath.g", _REAL, when="uniform"),
    _Key("bath.chi", _REAL, 0.0, "uniform"),
    *(_Key(f"bath.{name}_list", _reals(), when="explicit") for name in ("eps", "g", "chi")),
    _Key("bath.random.seed", _INT, when="random", get=attrgetter("bath.seed")),
    *(_Key(f"bath.random.{name}.{stat}", _REAL, when="random",
           get=attrgetter(f"bath.{name}_stats.{stat}"))
      for name in ("g", "eps", "chi") for stat in ("mean", "std")),
    _Key("rng.algorithm", _words(RNG_ALGORITHM), RNG_ALGORITHM, "random",
         lambda config: RNG_ALGORITHM),
    _Key("thermal.beta", _REAL, get=attrgetter("beta")),
    _Key("state.theta", _REAL, math.pi / 2.0, "single", lambda config: config.state_params[0]),
    _Key("state.phi", _REAL, 0.0, "single", lambda config: config.state_params[1]),
    _Key("state.amplitudes", _reals(8), when="amplitudes", get=attrgetter("state_params")),
    _Key("state.name", _words("bell", "product"), "bell", "named", attrgetter("state_kind")),
    _Key("grid.t_start", _REAL, 0.0),
    _Key("grid.t_end", _REAL, 20.0, "single"),
    _Key("grid.t_end", _REAL, 10.0, "two_qubit"),
    _Key("grid.n_points", _INT, 400),
    _Key("series", _words(*_SERIES_CHOICES), "both",
         get=lambda config: next(word for word, series in _SERIES_CHOICES.items()
                                 if series == config.series)),
    _Key("output", _TEXT, "", get=lambda config: None),
)


def _applying(mode: str, bath_style: str, state_style: str) -> list[_Key]:
    """The rows of CONFIG_KEYS that apply to a mode, a bath style and, in
    two_qubit mode, a state style."""
    active = {None, mode, bath_style, state_style if mode == "two_qubit" else None}
    return [key for key in CONFIG_KEYS if key.when in active]


def _style(keys, styles: tuple[str, ...], conflict: str) -> str:
    """The one style of a group whose keys are given; the first if none is."""
    used = [style for style in styles
            if any(key.when == style and key.name in keys for key in CONFIG_KEYS)]
    if len(used) > 1:
        raise UsageError(conflict)
    return used[0] if used else styles[0]


def _read(key: _Key, keys: dict[str, str]):
    text = keys.get(key.name)
    if text is not None:
        return key.type.parse(key.name, text)
    if key.default is None:
        raise UsageError(f"missing required key {key.name}")
    return key.default


def config_from_keys(keys: dict[str, str]) -> ExperimentConfig:
    """Configuration from key -> value texts, read and checked by CONFIG_KEYS."""
    unknown = sorted(set(keys) - {key.name for key in CONFIG_KEYS})
    if unknown:
        raise UsageError(f"unknown key {unknown[0]!r} in config")
    mode = _read(_MODE, keys)
    applying = _applying(
        mode, _style(keys, ("uniform", "explicit", "random"),
                     "mix of uniform, explicit-list and random bath keys; pick one style"),
        _style(keys, ("named", "amplitudes"),
               "give either state.name or state.amplitudes, not both"))
    for name in keys:
        if all(key.name != name for key in applying):
            raise UsageError(f"{name} does not apply to mode {mode}")
    v = {key.name: _read(key, keys) for key in applying}

    if mode == "single":
        system = SystemParams(v["system.epsilon"], v["system.delta"])
        state_kind, state_params = "angles", (v["state.theta"], v["state.phi"])
    else:
        system = TwoQubitParams(v["system.eps1"], v["system.eps2"], v["system.delta1"],
                                v["system.delta2"], v["system.lambda"])
        state_kind, state_params = (("amplitudes", v["state.amplitudes"])
                                    if "state.amplitudes" in v else (v["state.name"], ()))
    n_spins, boundary = v["bath.n_spins"], v["bath.boundary"]
    if "bath.eps" in v:
        bath = BathSpec(n_spins, "uniform", boundary,
                        eps=v["bath.eps"], g=v["bath.g"], chi=v["bath.chi"])
    elif "bath.eps_list" in v:
        bath = BathSpec(n_spins, "explicit", boundary, eps_list=v["bath.eps_list"],
                        g_list=v["bath.g_list"], chi_list=v["bath.chi_list"])
    else:
        bath = BathSpec(n_spins, "random", boundary, seed=v["bath.random.seed"], **{
            f"{name}_stats": GaussianStats(v[f"bath.random.{name}.mean"],
                                           v[f"bath.random.{name}.std"])
            for name in ("g", "eps", "chi")})
    return ExperimentConfig(
        mode=mode, system=system, bath=bath, beta=v["thermal.beta"],
        state_kind=state_kind, state_params=state_params,
        grid=TimeGrid(v["grid.t_start"], v["grid.t_end"], v["grid.n_points"]),
        series=_SERIES_CHOICES[v["series"]],
        output=v["output"] or None, preset_name=v["preset"] or None,
    )


def config_metadata(config: ExperimentConfig) -> tuple[tuple[str, str], ...]:
    """Canonical (key, value) echo of a configuration in CONFIG_KEYS order; no
    timestamps, and config_from_keys reads it back to an equal configuration."""
    state_style = "amplitudes" if config.state_kind == "amplitudes" else "named"
    return tuple((key.name, key.type.show(value))
                 for key in _applying(config.mode, config.bath.kind, state_style)
                 if (value := key.get(config)) is not None)


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: np.ndarray
    metadata: tuple[tuple[str, str], ...]

    def render(self) -> str:
        return "".join(f"# {key} = {value}\n" for key, value in self.metadata) + self.body()

    def body(self) -> str:
        """Everything below the metadata block; the determinism contract
        applies to this part (metadata carries no timestamps either)."""
        lines = [",".join(self.columns)] + [",".join(map(_fmt, row)) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        write_text(path, self.render())


def write_text(path, text: str) -> None:
    """Write text to path with LF line endings; an unwritable path is a
    UsageError that names it."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}") from exc


def _trajectories(config: ExperimentConfig, bath: BathParams, th: Thermal,
                  backend: Backend, components: str) -> np.ndarray:
    """The configured series over the configured grid, from one trajectory
    call: the named Bloch components (S, T, len(components)) in single mode,
    pair states (S, T, 4, 4) in two_qubit mode."""
    flags = tuple(series == SERIES_CORRELATED for series in config.series)
    args = (config.system, bath, th, backend, config.state_vector(), config.grid.times(), flags)
    if config.mode == "single":
        return bloch_trajectory(*args, components)
    return density_trajectory(*args)


def run(config: ExperimentConfig) -> ResultTable:
    """Compute the configured trajectories and return the plot-ready table."""
    _check_records(("config", config, ExperimentConfig))
    backend = config.backend
    # before materialize(), which draws a random bath's parameters one by one
    _require_capacity(config.bath.n_spins, backend)
    # a single-qubit CSV holds p_x alone, so the sweep computes no other component
    computed = _trajectories(config, config.bath.materialize(), config.thermal(), backend, "x")
    if config.mode == "single":
        prefix, values = "px", computed[..., 0]
    else:
        prefix, values = "C", concurrence(computed)
    return ResultTable(columns=("t", *(f"{prefix}_{series}" for series in config.series)),
                       rows=np.column_stack([config.grid.times(), *values]),
                       metadata=config_metadata(config))


_SINGLE = {"mode": "single", "system.epsilon": "2", "system.delta": "1"}
_PAIR = {"mode": "two_qubit", "system.eps1": "1", "system.eps2": "2",
         "system.delta1": "4", "system.delta2": "1"}


def _bath(n_spins, eps, g, chi, beta):
    return {"bath.n_spins": n_spins, "bath.eps": eps, "bath.g": g, "bath.chi": chi,
            "thermal.beta": beta}


def _random_bath(seed, g, eps, chi):
    """Gaussian (mean, std) couplings on ten enumerated spins at beta = 10."""
    keys = {"bath.n_spins": "10", "bath.random.seed": seed, "thermal.beta": "10"}
    for name, (mean, std) in (("g", g), ("eps", eps), ("chi", chi)):
        keys.update({f"bath.random.{name}.mean": mean, f"bath.random.{name}.std": std})
    return keys


# figure regimes as config keys; every key left out takes its default
_PRESETS = {name: config_from_keys({**keys, "preset": name}) for name, keys in {
    "fig1": {**_SINGLE, **_bath("50", "1", "0.1", "0", "1")},
    "fig2": {**_SINGLE, **_bath("50", "1", "1", "0", "0.1")},
    "fig3": {**_SINGLE, **_bath("50", "1", "0.5", "0", "1")},
    "fig4": {**_SINGLE, **_bath("50", "1", "1", "0", "1")},
    "fig5": {**_SINGLE, **_bath("50", "1", "1", "0", "10")},
    "fig6": {**_SINGLE, **_bath("50", "0.01", "1", "0", "10")},
    "fig7": {**_SINGLE, **_bath("10", "1", "1", "0.1", "1")},
    "fig8": {**_SINGLE, **_bath("10", "1", "1", "0.1", "10")},
    "fig9": {**_SINGLE, **_bath("10", "0.01", "1", "1", "10")},
    "fig10": {**_SINGLE, **_bath("10", "1", "5", "1", "10")},
    "fig11": {**_SINGLE, **_random_bath("11", ("5", "0.01"), ("1", "0.001"), ("1", "0.01"))},
    "fig12": {**_SINGLE, **_random_bath("12", ("5", "1"), ("1", "0.2"), ("1", "0.2"))},
    "fig13": {**_PAIR, **_bath("50", "1", "0.1", "0", "1")},
    "fig14": {**_PAIR, **_bath("50", "1", "0.5", "0", "1")},
    "fig15": {**_PAIR, **_bath("50", "1", "1", "0", "10")},
    "fig16": {**_PAIR, **_bath("50", "0.01", "1", "0", "10")},
    "fig17": {**_PAIR, **_bath("10", "0.01", "1", "0.1", "10")},
    "fig18": {**_PAIR, **_bath("50", "1", "1", "0", "1"), "system.lambda": "3"},
    "fig19": {**_PAIR, **_bath("50", "1", "0.5", "0", "1"), "system.lambda": "5",
              "state.name": "product"},
}.items()}


def list_presets() -> list[str]:
    return sorted(_PRESETS, key=lambda name: int(name[3:]))


def preset(name: str, seed: int | None = None) -> ExperimentConfig:
    """Named figure-regime configuration; seed overrides the embedded seed of
    random-bath presets."""
    if name not in _PRESETS:
        raise UsageError(f"unknown preset {name!r}; available: {', '.join(list_presets())}")
    config = _PRESETS[name]
    if seed is not None:
        if config.bath.kind != "random":
            raise UsageError(f"preset {name} has no random parameters; --seed does not apply")
        config = replace(config, bath=replace(config.bath, seed=seed))
    return config


def parse_config_file(path) -> ExperimentConfig:
    """Strict flat dotted-key config parser; unknown keys are errors.

    A CSV this tool wrote (its first line is `# tool = ...`) reads as its
    leading `# key = value` lines, and the table below them is ignored, so
    running it replays the run.
    """
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    if lines and lines[0].startswith("# tool ="):
        header = itertools.takewhile(lambda line: line.startswith("# "), lines)
        entries = [(lineno, line[2:].strip()) for lineno, line in enumerate(header, start=1)]
    else:
        entries = [(lineno, line.strip()) for lineno, line in enumerate(lines, start=1)
                   if line.strip() and not line.strip().startswith("#")]
    keys: dict[str, str] = {}
    for lineno, line in entries:
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise UsageError(f"{path}:{lineno}: empty key")
        if key in keys:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        keys[key] = value
    return config_from_keys(keys)


@dataclass(frozen=True)
class OracleReport:
    """Per-series maximum deviations between the analytic and brute-force
    paths, at a possibly reduced bath size."""

    n_spins: int
    entries: tuple[tuple[str, float], ...]

    @property
    def passed(self) -> bool:
        return all(dev <= ORACLE_TOLERANCE for _, dev in self.entries)

    def lines(self) -> list[str]:
        out = [f"oracle cross-check at N={self.n_spins} (threshold {ORACLE_TOLERANCE:g})"]
        for name, dev in self.entries:
            verdict = "ok" if dev <= ORACLE_TOLERANCE else "FAIL"
            out.append(f"  {name}: max deviation {dev:.3e} [{verdict}]")
        out.append("PASS" if self.passed else "FAIL")
        return out


def _bloch_of_density(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3) of a stack of single-qubit density matrices."""
    return np.stack([2.0 * rho[..., 0, 1].real, -2.0 * rho[..., 0, 1].imag,
                     (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


def oracle_check(config: ExperimentConfig, n_override: int,
                 analytic_beta_skew: float = 0.0) -> OracleReport:
    """Run the analytic and brute-force paths on the same configuration at a
    small bath size and report max deviations per series.

    analytic_beta_skew is a test hook: it scales the analytic path's inverse
    temperature so the detector can be shown to trip on a corrupted weight.
    """
    _check_records(("config", config, ExperimentConfig), error=UsageError)
    if (isinstance(n_override, bool) or not isinstance(n_override, numbers.Integral)
            or n_override < 1):
        raise UsageError(f"oracle bath size must be an integer >= 1, got {n_override!r}")
    skew = _require_real("analytic_beta_skew", analytic_beta_skew)
    # the analytic path runs at beta (1 + skew), which must not be negative
    if skew < -1.0:
        raise UsageError(f"analytic_beta_skew must be >= -1, got {skew!r}")
    require_dimension(1 if config.mode == "single" else 2, n_override)
    small = replace(config, bath=config.bath.resized(n_override))
    bath = small.bath.materialize()
    # the whole Bloch vector, which the oracle's reduced state is compared with
    analytic = _trajectories(small, bath, Thermal(small.beta * (1.0 + skew)),
                             Backend.ENUMERATE, "xyz")
    h = build_hamiltonian(small.system, bath)
    entries: list[tuple[str, float]] = []
    # the brute-force reference evolves every series in one call; each state
    # is written into one preallocated stack, so no stacked copy is made
    psi, dim = small.state_vector(), h.system_dim * h.bath_dim
    rho0 = np.empty((len(small.series), dim, dim), dtype=complex)
    for state, series in zip(rho0, small.series):
        state[...] = initial_state(h, small.thermal(), psi, series == SERIES_CORRELATED)
    evolved = evolve_and_reduce(h, rho0, small.grid.times())
    for series, computed, reduced in zip(small.series, analytic, evolved):
        if small.mode == "single":
            entries.append((f"bloch_{series}",
                            float(np.abs(computed - _bloch_of_density(reduced)).max())))
        else:
            entries.append((f"rho_{series}", float(np.abs(computed - reduced).max())))
            entries.append((f"concurrence_{series}",
                            float(np.abs(concurrence(computed) - concurrence(reduced)).max())))
    return OracleReport(n_spins=n_override, entries=tuple(entries))

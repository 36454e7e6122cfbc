"""Experiment configurations, figure presets, CSV output, and oracle checks.

A configuration is a flat record of physical parameters plus run plumbing
(time grid, backend, series selection). It can come from a named preset or
from a strict dotted-key config file; either way the same record drives the
run, is echoed verbatim into the CSV metadata, and replays byte-identically
because random bath parameters are regenerated from their recorded seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .configspace import Backend, ReductionPlan
from .errors import CapacityError, ParameterError, UsageError
from .model import (BathParams, Boundary, SystemParams, Thermal, pure_state,
                    require_uniform)
from .numerics import RNG_ALGORITHM, RandomSpec, gaussian_draw
from .oracle import DIMENSION_CAP, build_hamiltonian, evolve_and_reduce, initial_state
from .single_qubit import BlochVector, bloch_trajectory
from .two_qubit import (TwoQubitParams, bell_state, concurrence,
                        density_trajectory, product_state)

TOOL_VERSION = "0.1.0"
ORACLE_TOLERANCE = 1e-9

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
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise UsageError("grid.t_start and grid.t_end must be finite")
        if self.t_end <= self.t_start:
            raise UsageError(
                f"grid.t_end must exceed grid.t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.n_points < 2:
            raise UsageError(f"grid.n_points must be >= 2, got {self.n_points}")

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
        if self.n_spins < 1:
            raise UsageError(f"bath.n_spins must be >= 1, got {self.n_spins}")
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
    backend: Backend
    series: tuple[str, ...] = (SERIES_UNCORRELATED, SERIES_CORRELATED)
    output: str | None = None
    preset_name: str | None = None

    def __post_init__(self):
        if self.mode not in ("single", "two_qubit"):
            raise UsageError(f"mode must be single or two_qubit, got {self.mode!r}")
        expected = SystemParams if self.mode == "single" else TwoQubitParams
        if not isinstance(self.system, expected):
            raise UsageError(f"mode {self.mode} needs {expected.__name__} system parameters")
        if self.mode == "single" and self.state_kind != "angles":
            raise UsageError("single mode takes state.theta/state.phi angles")
        if self.mode == "two_qubit" and self.state_kind == "angles":
            raise UsageError("two_qubit mode takes state.name or state.amplitudes")
        for s in self.series:
            if s not in (SERIES_UNCORRELATED, SERIES_CORRELATED):
                raise UsageError(f"unknown series {s!r}")

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
            raw = self.state_params
            vec = np.array([complex(raw[2 * i], raw[2 * i + 1])
                            for i in range(len(raw) // 2)])
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                raise UsageError("state.amplitudes must not all be zero")
            return pure_state(vec / norm)
        raise UsageError(f"unknown state kind {self.state_kind!r}")

    def plan(self) -> ReductionPlan:
        return ReductionPlan(backend=self.backend)

    def thermal(self) -> Thermal:
        return Thermal(self.beta)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def config_metadata(config: ExperimentConfig) -> tuple[tuple[str, str], ...]:
    """Canonical (key, value) echo of a configuration; fixed order, no
    timestamps, sufficient to replay the run byte-identically."""
    rows: list[tuple[str, str]] = [("tool", f"spinbath {TOOL_VERSION}")]
    if config.preset_name:
        rows.append(("preset", config.preset_name))
    rows.append(("mode", config.mode))
    sys = config.system
    if config.mode == "single":
        rows += [("system.epsilon", _fmt(sys.epsilon)), ("system.delta", _fmt(sys.delta))]
    else:
        rows += [("system.eps1", _fmt(sys.eps1)), ("system.eps2", _fmt(sys.eps2)),
                 ("system.delta1", _fmt(sys.delta1)), ("system.delta2", _fmt(sys.delta2)),
                 ("system.lambda", _fmt(sys.lam))]
    bath = config.bath
    rows += [("bath.n_spins", str(bath.n_spins)), ("bath.boundary", bath.boundary.value)]
    if bath.kind == "uniform":
        rows += [("bath.eps", _fmt(bath.eps)), ("bath.g", _fmt(bath.g)),
                 ("bath.chi", _fmt(bath.chi))]
    elif bath.kind == "explicit":
        rows += [("bath.eps_list", ",".join(map(_fmt, bath.eps_list))),
                 ("bath.g_list", ",".join(map(_fmt, bath.g_list))),
                 ("bath.chi_list", ",".join(map(_fmt, bath.chi_list)))]
    else:
        rows += [("bath.random.seed", str(bath.seed)),
                 ("bath.random.g.mean", _fmt(bath.g_stats.mean)),
                 ("bath.random.g.std", _fmt(bath.g_stats.std)),
                 ("bath.random.eps.mean", _fmt(bath.eps_stats.mean)),
                 ("bath.random.eps.std", _fmt(bath.eps_stats.std)),
                 ("bath.random.chi.mean", _fmt(bath.chi_stats.mean)),
                 ("bath.random.chi.std", _fmt(bath.chi_stats.std)),
                 ("rng.algorithm", RNG_ALGORITHM)]
    rows.append(("thermal.beta", _fmt(config.beta)))
    if config.state_kind == "angles":
        rows += [("state.theta", _fmt(config.state_params[0])),
                 ("state.phi", _fmt(config.state_params[1]))]
    elif config.state_kind == "amplitudes":
        rows.append(("state.amplitudes", ",".join(map(_fmt, config.state_params))))
    else:
        rows.append(("state.name", config.state_kind))
    rows += [("grid.t_start", _fmt(config.grid.t_start)),
             ("grid.t_end", _fmt(config.grid.t_end)),
             ("grid.n_points", str(config.grid.n_points)),
             ("backend", config.backend.value),
             ("series", "+".join(config.series))]
    return tuple(rows)


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: np.ndarray
    metadata: tuple[tuple[str, str], ...]

    def render(self) -> str:
        lines = [f"# {key} = {value}" for key, value in self.metadata]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(x) for x in row))
        return "\n".join(lines) + "\n"

    def body(self) -> str:
        """Everything below the metadata block; the determinism contract
        applies to this part (metadata carries no timestamps either)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(x) for x in row))
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


def run(config: ExperimentConfig) -> ResultTable:
    """Compute the configured trajectories and return the plot-ready table."""
    bath = config.bath.materialize()
    if config.backend is Backend.COLLAPSE:
        try:
            require_uniform(bath)
        except ParameterError as exc:
            raise UsageError(f"backend=collapse needs uniform bath parameters: {exc}") from exc
    th = config.thermal()
    plan = config.plan()
    psi = config.state_vector()
    times = config.grid.times()
    columns = ["t"]
    series_values = []
    for series in config.series:
        correlated = series == SERIES_CORRELATED
        if config.mode == "single":
            points = bloch_trajectory(config.system, bath, th, plan, psi, times, correlated)
            columns.append(f"px_{series}")
            series_values.append([p.px for p in points])
        else:
            states = density_trajectory(config.system, bath, th, plan, psi, times, correlated)
            columns.append(f"C_{series}")
            series_values.append([concurrence(rho) for rho in states])
    table = np.column_stack([times] + [np.asarray(v) for v in series_values])
    return ResultTable(columns=tuple(columns), rows=table,
                       metadata=config_metadata(config))


_TWO_QUBIT_BASE = dict(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0)


def _single_preset(n, eps, g, chi, beta, backend, seed=None, random=None):
    if random is None:
        bath = BathSpec(n_spins=n, kind="uniform", eps=eps, g=g, chi=chi)
    else:
        bath = BathSpec(n_spins=n, kind="random", seed=seed,
                        g_stats=GaussianStats(*random["g"]),
                        eps_stats=GaussianStats(*random["eps"]),
                        chi_stats=GaussianStats(*random["chi"]))
    return ExperimentConfig(
        mode="single", system=SystemParams(epsilon=2.0, delta=1.0), bath=bath,
        beta=beta, state_kind="angles", state_params=(math.pi / 2.0, 0.0),
        grid=TimeGrid(0.0, 20.0, 400), backend=backend,
    )


def _pair_preset(n, eps, g, chi, beta, lam, state, backend):
    bath = BathSpec(n_spins=n, kind="uniform", eps=eps, g=g, chi=chi)
    return ExperimentConfig(
        mode="two_qubit", system=TwoQubitParams(lam=lam, **_TWO_QUBIT_BASE), bath=bath,
        beta=beta, state_kind=state, state_params=(),
        grid=TimeGrid(0.0, 10.0, 400), backend=backend,
    )


def _build_presets() -> dict[str, ExperimentConfig]:
    enum, coll = Backend.ENUMERATE, Backend.COLLAPSE
    presets = {
        "fig1": _single_preset(50, 1.0, 0.1, 0.0, 1.0, coll),
        "fig2": _single_preset(50, 1.0, 1.0, 0.0, 0.1, coll),
        "fig3": _single_preset(50, 1.0, 0.5, 0.0, 1.0, coll),
        "fig4": _single_preset(50, 1.0, 1.0, 0.0, 1.0, coll),
        "fig5": _single_preset(50, 1.0, 1.0, 0.0, 10.0, coll),
        "fig6": _single_preset(50, 0.01, 1.0, 0.0, 10.0, coll),
        "fig7": _single_preset(10, 1.0, 1.0, 0.1, 1.0, enum),
        "fig8": _single_preset(10, 1.0, 1.0, 0.1, 10.0, enum),
        "fig9": _single_preset(10, 0.01, 1.0, 1.0, 10.0, enum),
        "fig10": _single_preset(10, 1.0, 5.0, 1.0, 10.0, enum),
        "fig11": _single_preset(10, None, None, None, 10.0, enum, seed=11,
                                random=dict(g=(5.0, 0.01), eps=(1.0, 0.001), chi=(1.0, 0.01))),
        "fig12": _single_preset(10, None, None, None, 10.0, enum, seed=12,
                                random=dict(g=(5.0, 1.0), eps=(1.0, 0.2), chi=(1.0, 0.2))),
        "fig13": _pair_preset(50, 1.0, 0.1, 0.0, 1.0, 0.0, "bell", coll),
        "fig14": _pair_preset(50, 1.0, 0.5, 0.0, 1.0, 0.0, "bell", coll),
        "fig15": _pair_preset(50, 1.0, 1.0, 0.0, 10.0, 0.0, "bell", coll),
        "fig16": _pair_preset(50, 0.01, 1.0, 0.0, 10.0, 0.0, "bell", coll),
        "fig17": _pair_preset(10, 0.01, 1.0, 0.1, 10.0, 0.0, "bell", enum),
        "fig18": _pair_preset(50, 1.0, 1.0, 0.0, 1.0, 3.0, "bell", coll),
        "fig19": _pair_preset(50, 1.0, 0.5, 0.0, 1.0, 5.0, "product", coll),
    }
    return {name: replace(cfg, preset_name=name) for name, cfg in presets.items()}


_PRESETS = _build_presets()


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


def _parse_scalar(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise UsageError(f"{key} must be a number, got {value!r}") from exc


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"{key} must be an integer, got {value!r}") from exc


def _parse_list(key: str, value: str) -> tuple[float, ...]:
    items = [v.strip() for v in value.split(",") if v.strip()]
    return tuple(_parse_scalar(key, v) for v in items)


def parse_config_file(path) -> ExperimentConfig:
    """Strict flat dotted-key config parser; unknown keys are errors."""
    keys: dict[str, str] = {}
    try:
        handle = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise UsageError(f"{path}:{lineno}: empty key or value")
            if key in keys:
                raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
            keys[key] = value
    return config_from_keys(keys)


def config_from_keys(keys: dict[str, str]) -> ExperimentConfig:
    pending = dict(keys)

    def take(key, default=None):
        return pending.pop(key, default)

    mode = take("mode")
    if mode is None:
        raise UsageError("missing required key mode")
    if mode not in ("single", "two_qubit"):
        raise UsageError(f"mode must be single or two_qubit, got {mode!r}")

    if mode == "single":
        epsilon = take("system.epsilon")
        delta = take("system.delta")
        if epsilon is None or delta is None:
            raise UsageError("single mode requires system.epsilon and system.delta")
        system = SystemParams(_parse_scalar("system.epsilon", epsilon),
                              _parse_scalar("system.delta", delta))
        state_kind = "angles"
        theta = take("state.theta", str(math.pi / 2.0))
        phi = take("state.phi", "0")
        state_params = (_parse_scalar("state.theta", theta), _parse_scalar("state.phi", phi))
    else:
        values = {}
        for short in ("eps1", "eps2", "delta1", "delta2"):
            raw = take(f"system.{short}")
            if raw is None:
                raise UsageError(f"two_qubit mode requires system.{short}")
            values[short] = _parse_scalar(f"system.{short}", raw)
        lam = take("system.lambda", "0")
        system = TwoQubitParams(lam=_parse_scalar("system.lambda", lam), **values)
        name = take("state.name")
        amplitudes = take("state.amplitudes")
        if name is not None and amplitudes is not None:
            raise UsageError("give either state.name or state.amplitudes, not both")
        if amplitudes is not None:
            state_params = _parse_list("state.amplitudes", amplitudes)
            if len(state_params) != 8:
                raise UsageError(
                    "state.amplitudes needs 8 comma-separated reals "
                    "(re,im per amplitude), got "
                    f"{len(state_params)}"
                )
            state_kind = "amplitudes"
        else:
            state_kind = name if name is not None else "bell"
            if state_kind not in ("bell", "product"):
                raise UsageError(f"state.name must be bell or product, got {state_kind!r}")
            state_params = ()

    n_spins_raw = take("bath.n_spins")
    if n_spins_raw is None:
        raise UsageError("missing required key bath.n_spins")
    n_spins = _parse_int("bath.n_spins", n_spins_raw)
    boundary_raw = take("bath.boundary", "open")
    try:
        boundary = Boundary(boundary_raw)
    except ValueError as exc:
        raise UsageError(f"bath.boundary must be open or periodic, got {boundary_raw!r}") from exc

    uniform_keys = {k: take(f"bath.{k}") for k in ("eps", "g", "chi")}
    list_keys = {k: take(f"bath.{k}") for k in ("eps_list", "g_list", "chi_list")}
    random_raw = {k: take(f"bath.random.{k}") for k in
                  ("seed", "g.mean", "g.std", "eps.mean", "eps.std", "chi.mean", "chi.std")}
    has_uniform = any(v is not None for v in uniform_keys.values())
    has_lists = any(v is not None for v in list_keys.values())
    has_random = any(v is not None for v in random_raw.values())
    if sum((has_uniform, has_lists, has_random)) > 1:
        raise UsageError("mix of uniform, explicit-list and random bath keys; pick one style")
    if has_lists:
        lists = {}
        for k, v in list_keys.items():
            if v is None:
                raise UsageError(f"explicit bath needs bath.{k}")
            lists[k] = _parse_list(f"bath.{k}", v)
        bath = BathSpec(n_spins=n_spins, kind="explicit", boundary=boundary,
                        eps_list=lists["eps_list"], g_list=lists["g_list"],
                        chi_list=lists["chi_list"])
    elif has_random:
        for k, v in random_raw.items():
            if v is None:
                raise UsageError(f"random bath needs bath.random.{k}")
        bath = BathSpec(
            n_spins=n_spins, kind="random", boundary=boundary,
            seed=_parse_int("bath.random.seed", random_raw["seed"]),
            g_stats=GaussianStats(_parse_scalar("bath.random.g.mean", random_raw["g.mean"]),
                                  _parse_scalar("bath.random.g.std", random_raw["g.std"])),
            eps_stats=GaussianStats(_parse_scalar("bath.random.eps.mean", random_raw["eps.mean"]),
                                    _parse_scalar("bath.random.eps.std", random_raw["eps.std"])),
            chi_stats=GaussianStats(_parse_scalar("bath.random.chi.mean", random_raw["chi.mean"]),
                                    _parse_scalar("bath.random.chi.std", random_raw["chi.std"])),
        )
    else:
        missing = [k for k, v in uniform_keys.items() if v is None and k != "chi"]
        if missing:
            raise UsageError(f"uniform bath needs bath.{missing[0]}")
        bath = BathSpec(n_spins=n_spins, kind="uniform", boundary=boundary,
                        eps=_parse_scalar("bath.eps", uniform_keys["eps"]),
                        g=_parse_scalar("bath.g", uniform_keys["g"]),
                        chi=_parse_scalar("bath.chi", uniform_keys["chi"] or "0"))

    beta_raw = take("thermal.beta")
    if beta_raw is None:
        raise UsageError("missing required key thermal.beta")
    beta = _parse_scalar("thermal.beta", beta_raw)

    default_end = "20" if mode == "single" else "10"
    grid = TimeGrid(_parse_scalar("grid.t_start", take("grid.t_start", "0")),
                    _parse_scalar("grid.t_end", take("grid.t_end", default_end)),
                    _parse_int("grid.n_points", take("grid.n_points", "400")))

    backend_raw = take("backend", "enumerate")
    try:
        backend = Backend(backend_raw)
    except ValueError as exc:
        raise UsageError(f"backend must be enumerate or collapse, got {backend_raw!r}") from exc

    series_raw = take("series", "both")
    if series_raw not in _SERIES_CHOICES:
        raise UsageError(f"series must be both, uncorrelated or correlated, got {series_raw!r}")

    config = ExperimentConfig(
        mode=mode, system=system, bath=bath, beta=beta,
        state_kind=state_kind, state_params=state_params, grid=grid,
        backend=backend,
        series=_SERIES_CHOICES[series_raw],
        output=take("output"),
    )
    if pending:
        raise UsageError(f"unknown key {sorted(pending)[0]!r} in config")
    return config


@dataclass(frozen=True)
class OracleReport:
    """Per-series maximum deviations between the analytic and brute-force
    paths, at a possibly reduced bath size."""

    n_spins: int
    entries: tuple[tuple[str, float], ...]
    threshold: float = ORACLE_TOLERANCE

    @property
    def passed(self) -> bool:
        return all(dev <= self.threshold for _, dev in self.entries)

    def lines(self) -> list[str]:
        out = [f"oracle cross-check at N={self.n_spins} (threshold {self.threshold:g})"]
        for name, dev in self.entries:
            verdict = "ok" if dev <= self.threshold else "FAIL"
            out.append(f"  {name}: max deviation {dev:.3e} [{verdict}]")
        out.append("PASS" if self.passed else "FAIL")
        return out


def _bloch_of_density(rho: np.ndarray) -> np.ndarray:
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag,
                     (rho[0, 0] - rho[1, 1]).real])


def oracle_check(config: ExperimentConfig, n_override: int,
                 analytic_beta_skew: float = 0.0) -> OracleReport:
    """Run the analytic and brute-force paths on the same configuration at a
    small bath size and report max deviations per series.

    analytic_beta_skew is a test hook: it scales the analytic path's inverse
    temperature so the detector can be shown to trip on a corrupted weight.
    """
    n_system = 1 if config.mode == "single" else 2
    if (1 << (n_system + n_override)) > DIMENSION_CAP:
        raise CapacityError(
            f"oracle dimension 2^{n_system + n_override} exceeds the cap {DIMENSION_CAP}"
        )
    small = replace(config, bath=config.bath.resized(n_override))
    bath = small.bath.materialize()
    th = small.thermal()
    analytic_th = Thermal(small.beta * (1.0 + analytic_beta_skew))
    plan = ReductionPlan(backend=Backend.ENUMERATE)
    psi = small.state_vector()
    times = small.grid.times()
    h = build_hamiltonian(small.system, bath)
    entries: list[tuple[str, float]] = []
    for series in small.series:
        correlated = series == SERIES_CORRELATED
        rho0 = initial_state(h, th, psi, correlated)
        reduced = [evolve_and_reduce(h, rho0, float(t)) for t in times]
        if small.mode == "single":
            points = bloch_trajectory(small.system, bath, analytic_th, plan, psi,
                                      times, correlated)
            deviation = max(
                float(np.abs(p.as_array() - _bloch_of_density(rho)).max())
                for p, rho in zip(points, reduced))
            entries.append((f"bloch_{series}", deviation))
        else:
            states = density_trajectory(small.system, bath, analytic_th, plan, psi,
                                        times, correlated)
            rho_dev = max(float(np.abs(a - b).max()) for a, b in zip(states, reduced))
            conc_dev = max(abs(concurrence(a) - concurrence(np.asarray(b)))
                           for a, b in zip(states, reduced))
            entries.append((f"rho_{series}", rho_dev))
            entries.append((f"concurrence_{series}", conc_dev))
    return OracleReport(n_spins=n_override, entries=tuple(entries))

"""End-to-end acceptance suite.

Each criterion prints exactly one PASS/FAIL line with its measured numbers
(run pytest with -s to see the lines for passing tests as well). Tolerances
are pinned here and never loosened to fit the build; the qualitative-contrast
thresholds in criterion 5 were frozen from the first verified build of this
package and act as regression anchors.
"""

import time

import numpy as np
import pytest

from spinbath import configspace
from spinbath.configspace import Backend
from spinbath.experiments import list_presets, preset, run
from spinbath.model import BathParams, SystemParams, Thermal, pure_state
from spinbath.oracle import build_hamiltonian, evolve_and_reduce, initial_state
from spinbath.single_qubit import _qubit_fields, bloch_trajectory
from spinbath.two_qubit import (TwoQubitParams, bell_state, concurrence,
                                density_trajectory, product_state)

BASE_PAIR = dict(eps1=1.0, eps2=2.0, delta1=4.0, delta2=1.0)

# frozen from the first verified build (criterion 5 contrast anchors)
FIG8_NEAR_ZERO = 0.05      # measured 0.0394
FIG9_NEAR_ZERO = 0.005     # measured 0.00015
FIG10_SUBSTANTIAL = 1.0    # measured 1.99


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {criterion}: {detail}"


def bloch_of_density(rho):
    """Bloch vectors (..., 3) of one qubit density matrix or a stack of them."""
    return np.stack([2.0 * rho[..., 0, 1].real, -2.0 * rho[..., 0, 1].imag,
                     (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


@pytest.fixture(scope="session")
def preset_trajectories():
    """Raw trajectories of every preset, computed once for criteria 5-7."""
    out = {}
    for name in list_presets():
        config = preset(name)
        bath = config.bath.materialize()
        th, backend = config.thermal(), config.backend
        psi, times = config.state_vector(), config.grid.times()
        if config.mode == "single":
            u, c = bloch_trajectory(config.system, bath, th, backend, psi, times,
                                    (False, True))
            out[name] = ("single", times, u, c)
        else:
            u, c = density_trajectory(config.system, bath, th, backend, psi, times,
                                      (False, True))
            out[name] = ("pair", times, u, c)
    return out


class TestCriterion1:
    def test_single_qubit_oracle_equivalence(self):
        start = time.perf_counter()
        times = np.linspace(0.0, 10.0, 50)
        sys1 = SystemParams(epsilon=2.0, delta=1.0)
        backend = Backend.ENUMERATE
        worst = 0.0
        for set_index in range(5):
            rng = np.random.default_rng(1000 + set_index)
            n = 6
            bath = BathParams(
                n, tuple(rng.uniform(-2.0, 2.0, n)), tuple(rng.uniform(-2.0, 2.0, n)),
                tuple(rng.uniform(-1.0, 1.0, n - 1)))
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = pure_state(amps / np.linalg.norm(amps))
            h = build_hamiltonian(sys1, bath)
            for beta in (0.0, 1.0, 10.0):
                th = Thermal(beta)
                both = bloch_trajectory(sys1, bath, th, backend, psi, times, (False, True))
                for correlated, points in zip((False, True), both):
                    rho = evolve_and_reduce(h, initial_state(h, th, psi, correlated), times)
                    worst = max(worst, float(np.abs(points - bloch_of_density(rho)).max()))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-9 and elapsed < 30.0
        report(1, ok, f"single-qubit vs oracle: max dev {worst:.3e} (tol 1e-9), "
                      f"{elapsed:.1f}s (budget 30s)")


class TestCriterion2:
    def test_two_qubit_oracle_equivalence(self):
        start = time.perf_counter()
        times = np.linspace(0.0, 10.0, 50)
        backend = Backend.ENUMERATE
        rng = np.random.default_rng(2000)
        n = 5
        bath = BathParams(
            n, tuple(rng.uniform(-2.0, 2.0, n)), tuple(rng.uniform(-2.0, 2.0, n)),
            tuple(rng.uniform(-1.0, 1.0, n - 1)))
        worst_rho = worst_conc = 0.0
        for lam in (0.0, 3.0):
            sys2 = TwoQubitParams(lam=lam, **BASE_PAIR)
            h = build_hamiltonian(sys2, bath)
            for psi in (bell_state(), product_state()):
                for beta in (0.0, 1.0, 10.0):
                    th = Thermal(beta)
                    both = density_trajectory(sys2, bath, th, backend, psi, times,
                                              (False, True))
                    for correlated, states in zip((False, True), both):
                        rho_o = evolve_and_reduce(h, initial_state(h, th, psi, correlated),
                                                  times)
                        worst_rho = max(worst_rho, float(np.abs(states - rho_o).max()))
                        worst_conc = max(worst_conc, float(np.abs(
                            concurrence(states) - concurrence(rho_o)).max()))
        elapsed = time.perf_counter() - start
        ok = worst_rho < 1e-9 and worst_conc < 1e-9 and elapsed < 60.0
        report(2, ok, f"two-qubit vs oracle: rho dev {worst_rho:.3e}, "
                      f"concurrence dev {worst_conc:.3e} (tol 1e-9), "
                      f"{elapsed:.1f}s (budget 60s)")


class TestCriterion3:
    def test_exact_limit_identities(self):
        times = np.linspace(0.0, 10.0, 40)
        backend = Backend.ENUMERATE
        sys1 = SystemParams(epsilon=2.0, delta=1.0)
        rng = np.random.default_rng(3000)
        n = 5
        generic = BathParams(
            n, tuple(rng.uniform(-2.0, 2.0, n)), tuple(rng.uniform(-2.0, 2.0, n)),
            tuple(rng.uniform(-1.0, 1.0, n - 1)))
        decoupled = BathParams(n, generic.eps_i, (0.0,) * n, generic.chi_i)
        psi1 = pure_state([2 ** -0.5, 2 ** -0.5])
        worst = 0.0
        for bath, th in ((generic, Thermal(0.0)), (decoupled, Thermal(5.0))):
            u, c = bloch_trajectory(sys1, bath, th, backend, psi1, times, (False, True))
            worst = max(worst, float(np.abs(u - c).max()))
            sys2 = TwoQubitParams(lam=3.0, **BASE_PAIR)
            ru, rc = density_trajectory(sys2, bath, th, backend, bell_state(), times,
                                        (False, True))
            worst = max(worst, float(np.abs(ru - rc).max()))
        ok = worst < 1e-12
        report(3, ok, f"beta=0 and g=0 limits: max correlated-uncorrelated dev "
                      f"{worst:.3e} (tol 1e-12)")


class TestCriterion4:
    def test_backend_equivalence_and_speed(self):
        sys1 = SystemParams(epsilon=2.0, delta=1.0)
        bath = BathParams.uniform(14, 1.0, 1.0, 0.1)
        th = Thermal(1.0)
        psi = pure_state([2 ** -0.5, 2 ** -0.5])
        enum = Backend.ENUMERATE
        coll = Backend.COLLAPSE
        times = np.array([0.0, 0.7, 2.3, 5.9, 10.0])
        worst = 0.0
        # along +z, +x and +y, so the uncorrelated series are the columns of
        # the normalized Bloch map
        for prepared in ([1.0, 0.0], [2 ** -0.5, 2 ** -0.5], [2 ** -0.5, 1j * 2 ** -0.5]):
            axis = pure_state(prepared)
            a, b = (bloch_trajectory(sys1, bath, th, backend, axis, times, (False, True))
                    for backend in (enum, coll))
            # Bloch components are O(1), so the absolute gap between them is
            # a relative measure of the raw sums
            worst = max(worst, float(np.abs(a - b).max()))
            a, b = (np.logaddexp.reduce(_qubit_fields(sys1, bath, th, backend, axis,
                                                      (False, True))[2], axis=0)
                    for backend in (enum, coll))
            worst = max(worst, float(np.abs(np.expm1(a - b)).max()))
        big = BathParams.uniform(50, 1.0, 1.0, 0.1)
        start = time.perf_counter()
        points, = bloch_trajectory(sys1, big, th, coll, psi,
                                   np.linspace(0.0, 20.0, 40), (True,))
        per_point = (time.perf_counter() - start) / len(points)
        ok = worst < 1e-12 and per_point < 1.0
        report(4, ok, f"enumerate vs collapse at N=14: rel dev {worst:.3e} "
                      f"(tol 1e-12); collapse N=50: {per_point * 1000:.1f} ms/point "
                      f"(budget 1s)")


class TestCriterion5:
    def test_figure_regime_contrast(self, preset_trajectories):
        d = {}
        for name in ("fig1", "fig2", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10"):
            kind, _, u, c = preset_trajectories[name]
            assert kind == "single"
            d[name] = float(np.abs(u[:, 0] - c[:, 0]).max())
        checks = [
            d["fig1"] < d["fig4"],
            d["fig2"] < d["fig4"],
            d["fig5"] < 0.1 * d["fig6"],
            d["fig10"] > FIG10_SUBSTANTIAL,
            d["fig8"] < FIG8_NEAR_ZERO,
            d["fig9"] < FIG9_NEAR_ZERO,
        ]
        detail = ", ".join(f"D({k})={v:.3g}" for k, v in sorted(d.items()))
        report(5, all(checks), detail)


class TestCriterion6:
    def test_entanglement_phenomenology(self, preset_trajectories):
        _, _, u16, c16 = preset_trajectories["fig16"]
        conc_u16, conc_c16 = concurrence(u16), concurrence(c16)
        sudden_death = min(conc_u16) == 0.0
        protected = min(conc_c16) > 0.5

        _, _, u19, c19 = preset_trajectories["fig19"]
        conc_u19, conc_c19 = concurrence(u19), concurrence(c19)
        generated = max(conc_u19) > 0.0 and max(conc_c19) > 0.0
        split = max(abs(a - b) for a, b in zip(conc_u19, conc_c19)) > 0.05

        ok = sudden_death and protected and generated and split
        report(6, ok, f"fig16: min C_uc={min(conc_u16):.3g} (=0), "
                      f"min C_c={min(conc_c16):.3g} (>0.5); "
                      f"fig19: max C_uc={max(conc_u19):.3g}, "
                      f"max C_c={max(conc_c19):.3g} (>0), "
                      f"max split={max(abs(a - b) for a, b in zip(conc_u19, conc_c19)):.3g}"
                      f" (>0.05)")


class TestCriterion7:
    def test_state_validity_suite(self, preset_trajectories):
        worst_norm = 0.0
        worst_herm = worst_trace = 0.0
        lowest_eig = 0.0
        for name, (kind, _, u, c) in preset_trajectories.items():
            if kind == "single":
                worst_norm = max(worst_norm, float(np.linalg.norm([u, c], axis=-1).max()))
            else:
                for rho in (*u, *c):
                    worst_herm = max(worst_herm,
                                     float(np.abs(rho - rho.conj().T).max()))
                    worst_trace = max(worst_trace,
                                      abs(complex(np.trace(rho)) - 1.0))
                    lowest_eig = min(lowest_eig,
                                     float(np.linalg.eigvalsh(rho).min()))
        ok = (worst_norm <= 1.0 + 1e-9 and worst_herm <= 1e-12
              and worst_trace <= 1e-12 and lowest_eig >= -1e-10)
        report(7, ok, f"all presets: max Bloch norm {worst_norm:.12f} (<=1+1e-9), "
                      f"max hermiticity dev {worst_herm:.3e} (<=1e-12), "
                      f"max trace dev {worst_trace:.3e} (<=1e-12), "
                      f"min eigenvalue {lowest_eig:.3e} (>=-1e-10)")


class TestCriterion8:
    def test_csv_determinism_across_runs_and_time_blocks(self, monkeypatch):
        names = ("fig7", "fig11", "fig13")
        renders = {name: set() for name in names}
        for elements in (configspace.BLOCK_ELEMENTS, 97):
            monkeypatch.setattr(configspace, "BLOCK_ELEMENTS", elements)
            for name in names:
                for _ in range(2):
                    renders[name].add(run(preset(name)).render())
        ok = all(len(texts) == 1 for texts in renders.values())
        report(8, ok, "fig7, fig11 and fig13 CSVs byte-identical over two runs "
                      "at each of two time-block sizes")

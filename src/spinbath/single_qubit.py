"""Exact reduced dynamics of one central qubit.

Because the bath couples through sigma_z only, the qubit evolves under a
different 2x2 Hamiltonian for each bath pattern, and the reduced state is the
thermally weighted mixture of those conditional evolutions. On the Bloch
sphere each conditional evolution rotates the prepared Bloch vector p0, so
p(t) = p0 + sum_b W_b d_b(t) / Z, where d_b is p0's displacement under the
rotation for coupling field b, W_b sums the weights of b's patterns and Z
sums all the weights. A correlated preparation (system projected out of a
jointly thermalized state) only changes the weights, multiplying each by the
field's correlation factor.

Per field the rotation is by the angle 2*rabi*t about the unit axis
n = (v, 0, u), with (u, v) = (splitting, delta)/(2*rabi). By Rodrigues'
formula, with A = n x p0 and B = p0 - n (n . p0), the displacement is

        d(t) = A sin(2 rabi t) - B (1 - cos(2 rabi t)) = -Re((B + iA) (1 - exp(-2i rabi t))),

one coefficient B + iA at the frequency 2 rabi, which configspace.reduce_weighted
sums. At rabi == 0 (n = 0) and at t == 0 the displacement is exactly zero;
the rows at t == 0 are p0 itself.
"""

from __future__ import annotations

import numpy as np

from .configspace import (SETUP_BLOCK, Backend, _require_capacity, _series_flags, _time_grid,
                          collapse_classes, fold_fields, reduce_weighted, series_log_weights)
from .errors import ParameterError
from .model import (BathParams, SystemParams, Thermal, _check_records, bath_sums,
                    bloch_components, class_quantities, class_sums, config_quantities,
                    log_correlation_factor, log_thermal_weight, pure_state,
                    require_uniform)


# overflowing parameters surface as a named ParameterError, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _qubit_fields(sys: SystemParams, bath: BathParams, th: Thermal,
                  backend: Backend, psi, correlated: tuple[bool, ...]):
    """Per distinct coupling field, in ascending order: the splitting, the
    rabi frequency, and the log weights, one column per series."""
    collapse = Backend(backend) is Backend.COLLAPSE
    if collapse:
        require_uniform(bath)
        classes = collapse_classes(bath.n_spins, bath.boundary)
        g_sum, eps_sum, chi_sum = class_sums(bath, classes.k, classes.w)
        log_multiplicity = classes.log_multiplicity
    else:
        # the cap is checked before the half-chain tables exist
        _require_capacity(bath.n_spins, Backend.ENUMERATE)
        g_sum, eps_sum, chi_sum = bath_sums(bath)
        log_multiplicity = 0.0
    first, log_weight = fold_fields(
        g_sum, log_thermal_weight(th.beta, eps_sum, chi_sum) + log_multiplicity)
    splitting, rabi = (class_quantities(sys, bath, classes.k[first], classes.w[first])
                       if collapse else config_quantities(sys, g_sum[first]))
    # only the folded fields go on to the per-field work
    del g_sum, eps_sum, chi_sum
    log_factor = np.empty(len(first))
    # slice by slice, so the factor's temporaries stay block-sized
    for start in range(0, len(first), SETUP_BLOCK):
        rows = slice(start, start + SETUP_BLOCK)
        log_factor[rows] = log_correlation_factor(sys, th, splitting[rows], rabi[rows], psi)
    return splitting, rabi, series_log_weights(log_weight, log_factor, correlated)


def _component_indices(components) -> list[int]:
    """Positions in (x, y, z) of the requested Bloch components, in order."""
    if (not isinstance(components, str) or not components
            or len(set(components)) < len(components) or not set(components) <= set("xyz")):
        raise ParameterError("components must be a non-empty string of distinct letters "
                             f"from 'xyz', got {components!r}")
    return ["xyz".index(letter) for letter in components]


def _bloch_spectra(delta: float, p0, splitting, rabi, idx: list[int]):
    """reduce_weighted's spectra of minus the displacements of the components
    idx, one column set each, SETUP_BLOCK fields a block: the coefficient
    B + iA at the frequency 2 rabi."""
    for start in range(0, len(rabi), SETUP_BLOCK):
        rows = slice(start, start + SETUP_BLOCK)
        twice = 2.0 * rabi[rows]
        # rabi == 0 forces splitting == delta == 0: the zero axis leaves p0 in place
        u, v = (np.divide(x, twice, out=np.zeros_like(twice), where=twice != 0.0)
                for x in (splitting[rows], delta))
        # the axis's zero y entry keeps its exact zeros (0.0 * pz, 0.0 * dot), so
        # each component rounds as in the full vector; i - 2, i - 1 index i + 1, i + 2
        axis, dot = (v, 0.0, u), v * p0[0] + u * p0[2]
        perp = np.array([p0[i] - axis[i] * dot for i in idx])
        cross = np.array([axis[i - 2] * p0[i - 1] - axis[i - 1] * p0[i - 2] for i in idx])
        yield np.stack([perp, cross], axis=-1).view(complex)[..., None], twice[:, None]


def bloch_trajectory(sys: SystemParams, bath: BathParams, th: Thermal,
                     backend: Backend, psi, times, correlated: tuple[bool, ...],
                     components: str = "xyz") -> np.ndarray:
    """Bloch vector components of the prepared state psi at each requested
    time, as a read-only (S, T, len(components)) array: one series per flag
    of correlated, False for a product preparation and True for a correlated
    one, all from one sweep; components names the ones computed, in order
    (each the same bits as in the full "xyz" call)."""
    _check_records(("system", sys, SystemParams), ("bath", bath, BathParams),
                   ("thermal", th, Thermal))
    # a bad flag, time grid or component is refused before any bath work
    correlated, times = _series_flags(correlated), _time_grid(times)
    idx = _component_indices(components)
    psi = pure_state(psi)
    p0 = np.array(bloch_components(psi))
    splitting, rabi, log_weight = _qubit_fields(sys, bath, th, backend, psi, correlated)
    sums, _ = reduce_weighted(_bloch_spectra(sys.delta, p0, splitting, rabi, idx),
                              log_weight, times)
    p = p0[idx] - sums.real[..., 0]
    # the sums are signed zeros at t == 0, and subtracting a -0 would turn a
    # -0.0 of p0 into +0.0: those rows are p0 as it is
    p[:, times == 0.0] = p0[idx]
    p.setflags(write=False)
    return p

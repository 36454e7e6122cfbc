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
formula the displacement is

        d(t) = (n x p0) sin(2 rabi t) - (p0 - n (n . p0)) (1 - cos(2 rabi t)),

which is bounded by 2|p0| and exactly 0 at t = 0, so the prepared state
comes back bit for bit; rabi == 0 leaves p0 in place through n = 0 with no
special casing.
"""

from __future__ import annotations

import numpy as np

from .configspace import (SETUP_BLOCK, Backend, _series_flags, _time_grid, collapse_classes,
                          fold_fields, mask_blocks, reduce_weighted, series_log_weights)
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
        sums = class_sums(bath, classes.k, classes.w)
        log_multiplicity = classes.log_multiplicity
    else:
        # mask_blocks checks the enumeration cap before anything 2^N-sized
        blocks = mask_blocks(bath.n_spins)
        sums = np.empty((3, 1 << bath.n_spins))
        for masks in blocks:
            sums[:, masks[0]:masks[-1] + 1] = bath_sums(bath, masks)
        log_multiplicity = 0.0
    g_sum, eps_sum, chi_sum = sums
    first, log_weight = fold_fields(
        g_sum, log_thermal_weight(th.beta, eps_sum, chi_sum) + log_multiplicity)
    # only the folded fields reach the qubit: the per-item sums are released
    # before the per-field work
    del sums, g_sum, eps_sum, chi_sum
    splitting, rabi = (class_quantities(sys, bath, classes.k[first], classes.w[first])
                       if collapse else config_quantities(sys, bath, first))
    log_factor = np.empty(len(first))
    # slice by slice, so the factor's temporaries stay block-sized
    for start in range(0, len(first), SETUP_BLOCK):
        rows = slice(start, start + SETUP_BLOCK)
        log_factor[rows] = log_correlation_factor(sys, th, splitting[rows], rabi[rows], psi)
    return splitting, rabi, series_log_weights(log_weight, log_factor, correlated)


def bloch_trajectory(sys: SystemParams, bath: BathParams, th: Thermal,
                     backend: Backend, psi, times,
                     correlated: tuple[bool, ...]) -> np.ndarray:
    """Bloch vectors of the prepared state psi at each requested time, as a
    read-only (S, T, 3) array: one series per flag of correlated, False for a
    product preparation and True for a correlated one, all from one sweep."""
    _check_records(("system", sys, SystemParams), ("bath", bath, BathParams),
                   ("thermal", th, Thermal))
    # a bad flag or time grid is refused before any bath work
    correlated, times = _series_flags(correlated), _time_grid(times)
    psi = pure_state(psi)
    p0 = np.array(bloch_components(psi))
    splitting, rabi, log_weight = _qubit_fields(sys, bath, th, backend, psi, correlated)
    # rabi == 0 forces splitting == delta == 0, where the conditional
    # Hamiltonian vanishes and the zero axis leaves p0 in place
    u = np.divide(splitting, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)
    v = np.divide(sys.delta, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)

    px, py, pz = p0

    def term(rows, t):
        # block by block, so nothing field-sized is held beyond u and v; the
        # axis's zero y entry keeps its exact zeros (0.0 * pz, 0.0 * dot)
        # so the components round as n x p0 and n (n . p0) with n = (v, 0, u)
        ur, vr = u[rows, None], v[rows, None]
        dot = vr * px + ur * pz
        angle = 2.0 * rabi[rows, None] * t
        sine, versine = np.sin(angle), 1.0 - np.cos(angle)
        out = np.empty(angle.shape + (3,))
        out[..., 0] = (0.0 * pz - ur * py) * sine - (px - vr * dot) * versine
        out[..., 1] = (ur * px - vr * pz) * sine - (py - 0.0 * dot) * versine
        out[..., 2] = (vr * py - 0.0 * px) * sine - (pz - ur * dot) * versine
        return out

    displacement, _ = reduce_weighted(term, log_weight, times, 3)
    p = p0 + displacement
    p.setflags(write=False)
    return p

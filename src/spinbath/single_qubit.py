"""Exact reduced dynamics of one central qubit.

Because the bath couples through sigma_z only, the qubit evolves under a
different 2x2 Hamiltonian for each bath pattern, and the reduced state is the
thermally weighted mixture of those conditional evolutions. On the Bloch
sphere the mixture is a linear map: p(t) = S(t) p(0) / Z, where S sums a 3x3
rotation-like kernel over the patterns' distinct coupling fields, each with
its patterns' summed weight, and Z sums the weights. A correlated
preparation (system projected out of a jointly thermalized state) only
changes the weights, multiplying each by the field's correlation factor.

Entry kernel, per field, with c = cos(2*rabi*t), s = sin(2*rabi*t) and the
unit direction (u, v) = (splitting, delta)/(2*rabi):

        [ c + v^2 (1-c)    -u s       u v (1-c) ]
        [     u s            c          -v s    ]
        [ u v (1-c)          v s     c + u^2 (1-c) ]

u^2 + v^2 = 1, so every entry stays bounded; rabi == 0 degenerates to the
identity map with no special casing beyond u = v = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configspace import (ITEM_BLOCK, Backend, collapse_classes, fold_fields,
                          mask_blocks, reduce_weighted)
from .errors import ParameterError
from .model import (BathParams, SystemParams, Thermal, bloch_components,
                    class_quantities, class_sums, config_quantities,
                    log_correlation_factor, pure_state, require_uniform)


@dataclass(frozen=True)
class BlochPropagator:
    """Normalized Bloch map at one time, and the log of the partition-style
    weight sum it was normalized by (in log space, so it never overflows at
    large beta*N)."""

    matrix: np.ndarray
    log_partition: float

    def apply(self, p) -> np.ndarray:
        return self.matrix @ np.asarray(p, dtype=float)


# overflowing parameters surface as a named ParameterError, not as warnings
@np.errstate(over="ignore", invalid="ignore")
def _qubit_fields(sys: SystemParams, bath: BathParams, th: Thermal,
                  backend: Backend, psi, correlated: tuple[bool, ...]):
    """Per distinct coupling field, in ascending order: the splitting, the
    rabi frequency, and the log weights, one column per series."""
    if not correlated:
        raise ParameterError("correlated must hold at least one series flag")
    if Backend(backend) is Backend.COLLAPSE:
        require_uniform(bath)
        classes = collapse_classes(bath.n_spins, bath.boundary)
        g_sum, eps_sum, chi_sum = class_sums(bath, classes.k, classes.w)
        first, log_weight = fold_fields(
            g_sum, -th.beta * (chi_sum + 0.5 * eps_sum) + classes.log_multiplicity)
        q = class_quantities(sys, bath, th, classes.k[first], classes.w[first])
        splitting, rabi = q.splitting, q.rabi
    else:
        # filled block by block, so no array is held twice
        quantities = np.empty((4, 1 << bath.n_spins))
        for masks in mask_blocks(bath.n_spins):
            q = config_quantities(sys, bath, th, masks)
            quantities[:, masks] = q.g_sum, q.log_weight, q.splitting, q.rabi
        first, log_weight = fold_fields(*quantities[:2])
        splitting, rabi = quantities[2:, first]
    log_weights = np.repeat(log_weight[:, None], len(correlated), axis=1)
    if any(correlated):
        # slice by slice, so the factor's temporaries stay block-sized
        for start in range(0, len(first), ITEM_BLOCK):
            rows = slice(start, start + ITEM_BLOCK)
            log_weights[rows, np.array(correlated)] += log_correlation_factor(
                sys, th, splitting[rows], rabi[rows], psi)[:, None]
    return splitting, rabi, log_weights


def _bloch_maps(sys: SystemParams, bath: BathParams, th: Thermal, backend: Backend,
                psi, correlated: tuple[bool, ...], times):
    """Normalized Bloch maps (S, T, 3, 3) and log partitions (S,)."""
    splitting, rabi, log_weight = _qubit_fields(sys, bath, th, backend, psi, correlated)
    # unit direction (u, v); rabi == 0 forces splitting == delta == 0, where
    # the conditional Hamiltonian vanishes and any direction works
    u = np.divide(splitting, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)
    v = np.divide(sys.delta, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)

    def term(rows, t):
        ur, vr = u[rows, None], v[rows, None]
        cos2 = np.cos(2.0 * rabi[rows, None] * t)
        sin2 = np.sin(2.0 * rabi[rows, None] * t)
        rem = 1.0 - cos2
        return np.stack((cos2 + vr * vr * rem, -ur * sin2, ur * vr * rem,
                         ur * sin2, cos2, -vr * sin2,
                         ur * vr * rem, vr * sin2, cos2 + ur * ur * rem), axis=-1)

    maps, log_partition = reduce_weighted(term, log_weight, times, 9)
    return maps.reshape(*maps.shape[:2], 3, 3), log_partition


def _propagator(sys, bath, th, backend, psi, correlated, t) -> BlochPropagator:
    maps, log_partition = _bloch_maps(sys, bath, th, backend, psi, (correlated,), [t])
    return BlochPropagator(matrix=maps[0, 0], log_partition=float(log_partition[0]))


def propagator_uncorrelated(sys: SystemParams, bath: BathParams, th: Thermal,
                            backend: Backend, t: float) -> BlochPropagator:
    """Bloch map at time t for a product (independently thermal) preparation."""
    return _propagator(sys, bath, th, backend, None, False, t)


def propagator_correlated(sys: SystemParams, bath: BathParams, th: Thermal,
                          backend: Backend, psi, t: float) -> BlochPropagator:
    """Bloch map at time t for a jointly thermalized, projectively prepared
    state. psi is both the prepared qubit state and the state whose pattern
    weights the map carries."""
    return _propagator(sys, bath, th, backend, pure_state(psi), True, t)


def bloch_trajectory(sys: SystemParams, bath: BathParams, th: Thermal,
                     backend: Backend, psi, times,
                     correlated: tuple[bool, ...]) -> np.ndarray:
    """Bloch vectors of the prepared state psi at each requested time, as a
    read-only (S, T, 3) array: one series per flag of correlated, False for a
    product preparation and True for a correlated one, all from one sweep."""
    psi = pure_state(psi)
    px, py, pz = bloch_components(psi)
    m, _ = _bloch_maps(sys, bath, th, backend, psi, correlated, times)
    p = m[..., 0] * px + m[..., 1] * py + m[..., 2] * pz
    p.setflags(write=False)
    return p

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

which is bounded by 2|p0|. The sweep evaluates it from one tangent of the
half angle, tau = tan(rabi t), through sin = 2 tau / (1 + tau^2) and
1 - cos = 2 tau^2 / (1 + tau^2) (the Weierstrass substitution):

        d(t) = 2 tau ((n x p0) - (p0 - n (n . p0)) tau) / (1 + tau^2),

one transcendental per field and time point where sin and cos were two.
tau is +-0 at t = 0 and at rabi == 0, so d is +-0 and the prepared state
comes back exactly with no special casing (rabi == 0 also gives n = 0).
For a finite float64 argument |tau| stays below about 1.6e16, so tau^2
never overflows; an overflowing phase gives nan, which the sweep reports.
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
    # rabi == 0 forces splitting == delta == 0, where the conditional
    # Hamiltonian vanishes and the zero axis leaves p0 in place
    u = np.divide(splitting, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)
    del splitting
    v = np.divide(sys.delta, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)
    # Rodrigues' n x p0 and p0 - n (n . p0) per field and requested component,
    # for the axis n = (v, 0, u); its zero y entry keeps its exact zeros
    # (0.0 * pz, 0.0 * dot), so each component rounds as in the full vector
    axis, dot = (v, 0.0, u), v * p0[0] + u * p0[2]
    cross, perp = np.empty((2, len(rabi), len(idx)))
    for column, i in enumerate(idx):
        # i - 2, i - 1 index components i + 1, i + 2 cyclically; written in place
        np.multiply(axis[i - 2], p0[i - 1], out=cross[:, column])
        cross[:, column] -= axis[i - 1] * p0[i - 2]
        np.multiply(axis[i], dot, out=perp[:, column])
        np.subtract(p0[i], perp[:, column], out=perp[:, column])
    del axis, dot, u, v

    def term(rows, t):
        # tau = tan(rabi t) of half the angle, and d = 2 tau (n x p0 - tau perp)
        # / (1 + tau^2), built in place on one block-sized buffer
        tau = np.tan(rabi[rows, None] * t)[..., None]
        d = perp[rows, None] * tau
        np.subtract(cross[rows, None], d, out=d)
        d *= tau
        d *= 2.0
        tau *= tau
        tau += 1.0
        d /= tau
        return d

    displacement, _ = reduce_weighted(term, log_weight, times, len(idx))
    p = p0[idx] + displacement
    p.setflags(write=False)
    return p

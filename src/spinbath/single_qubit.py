"""Exact reduced dynamics of one central qubit.

Because the bath couples through sigma_z only, the qubit evolves under a
different 2x2 Hamiltonian for each bath pattern, and the reduced state is the
thermally weighted mixture of those conditional evolutions. On the Bloch
sphere the mixture is a linear map: p(t) = S(t) p(0) / Z, where S sums a 3x3
rotation-like kernel over patterns and Z sums the weights. A correlated
preparation (system projected out of a jointly thermalized state) only
changes the weights, multiplying each by the pattern's correlation factor.

Entry kernel, per pattern, with c = cos(2*rabi*t), s = sin(2*rabi*t) and the
unit direction (u, v) = (splitting, delta)/(2*rabi):

        [ c + v^2 (1-c)    -u s       u v (1-c) ]
        [     u s            c          -v s    ]
        [ u v (1-c)          v s     c + u^2 (1-c) ]

u^2 + v^2 = 1, so every entry stays bounded; rabi == 0 degenerates to the
identity map with no special casing beyond u = v = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configspace import (Backend, collapse_classes, fold_classes, mask_blocks,
                          reduce_weighted)
from .errors import NumericError, ParameterError
from .model import (BathParams, SystemParams, Thermal, bloch_components,
                    class_quantities, config_quantities, log_correlation_factor,
                    pure_state, require_uniform)


@dataclass(frozen=True)
class BlochVector:
    px: float
    py: float
    pz: float

    @property
    def norm(self) -> float:
        return math.sqrt(self.px ** 2 + self.py ** 2 + self.pz ** 2)

    def as_array(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz], dtype=float)

    @classmethod
    def of_state(cls, psi) -> "BlochVector":
        return cls(*bloch_components(psi))


@dataclass(frozen=True)
class BlochPropagator:
    """Raw entry sums s, their normalizer, and the shared log-weight shift.

    The physical normalizer (the partition-style sum the entries are divided
    by) is normalizer * exp(log_scale); the shift cancels in apply() and is
    kept so weights never overflow at large beta*N.
    """

    s: np.ndarray
    normalizer: float
    log_scale: float = 0.0

    def normalized(self) -> np.ndarray:
        return self.s / self.normalizer

    def apply(self, p: BlochVector) -> BlochVector:
        out = self.normalized() @ p.as_array()
        return BlochVector(float(out[0]), float(out[1]), float(out[2]))


def _weighted_fields(sys: SystemParams, bath: BathParams, th: Thermal,
                     backend: Backend, psi, correlated: bool):
    """Per summed item (a mask, or a down-spin count under collapse): the
    splitting, the rabi frequency, and the log weight."""
    def log_weight(q):
        if correlated:
            return q.log_weight + log_correlation_factor(sys, th, q, psi)
        return q.log_weight

    if Backend(backend) is Backend.COLLAPSE:
        require_uniform(bath)
        classes = collapse_classes(bath.n_spins, bath.boundary)
        q = class_quantities(sys, bath, th, classes.k, classes.w)
        first, folded = fold_classes(classes, log_weight(q))
        return q.splitting[first], q.rabi[first], folded
    parts = [(q.splitting, q.rabi, log_weight(q)) for q in
             (config_quantities(sys, bath, th, masks) for masks in mask_blocks(bath.n_spins))]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _bloch_sums(sys: SystemParams, bath: BathParams, th: Thermal, backend: Backend,
                psi, correlated: bool, times) -> tuple[np.ndarray, np.ndarray, float]:
    """Entry sums (T, 3, 3), normalizers (T,) and the log-weight shift."""
    splitting, rabi, log_weight = _weighted_fields(sys, bath, th, backend, psi, correlated)
    shift = float(log_weight.max())
    weight = np.exp(log_weight - shift)
    # unit direction (u, v); rabi == 0 forces splitting == delta == 0, where
    # the conditional Hamiltonian vanishes and any direction works
    u = np.divide(splitting, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)
    v = np.divide(sys.delta, 2.0 * rabi, out=np.zeros_like(rabi), where=rabi != 0.0)

    def term(rows, t):
        w, ur, vr = weight[rows, None], u[rows, None], v[rows, None]
        cos2 = np.cos(2.0 * rabi[rows, None] * t)
        sin2 = np.sin(2.0 * rabi[rows, None] * t)
        rem = 1.0 - cos2
        kernel = (cos2 + vr * vr * rem, -ur * sin2, ur * vr * rem,
                  ur * sin2, cos2, -vr * sin2,
                  ur * vr * rem, vr * sin2, cos2 + ur * ur * rem)
        return np.stack([w * entry for entry in kernel]
                        + [np.broadcast_to(w, cos2.shape)], axis=-1)

    sums = reduce_weighted(term, len(weight), times, 10)
    normalizer = sums[:, 9]
    if not np.all(normalizer > 0.0):
        raise NumericError(f"weight normalizer is not positive: {normalizer.min()}")
    return sums[:, :9].reshape(-1, 3, 3), normalizer, shift


def _qubit_state(psi) -> np.ndarray:
    psi = pure_state(psi)
    if psi.shape != (2,):
        raise ParameterError(f"expected a single-qubit state, got shape {psi.shape}")
    return psi


def _propagator(sys, bath, th, backend, psi, correlated, t) -> BlochPropagator:
    s, normalizer, shift = _bloch_sums(sys, bath, th, backend, psi, correlated, [t])
    matrix = s[0].copy()
    matrix.setflags(write=False)
    return BlochPropagator(s=matrix, normalizer=float(normalizer[0]), log_scale=shift)


def propagator_uncorrelated(sys: SystemParams, bath: BathParams, th: Thermal,
                            backend: Backend, t: float) -> BlochPropagator:
    """Bloch map at time t for a product (independently thermal) preparation."""
    return _propagator(sys, bath, th, backend, None, False, t)


def propagator_correlated(sys: SystemParams, bath: BathParams, th: Thermal,
                          backend: Backend, psi, t: float) -> BlochPropagator:
    """Bloch map at time t for a jointly thermalized, projectively prepared
    state. psi is both the prepared qubit state and the state whose pattern
    weights the map carries."""
    return _propagator(sys, bath, th, backend, _qubit_state(psi), True, t)


def bloch_trajectory(sys: SystemParams, bath: BathParams, th: Thermal,
                     backend: Backend, psi, times,
                     correlated: bool) -> list[BlochVector]:
    """Bloch vector of the prepared state psi at each requested time."""
    psi = _qubit_state(psi)
    s, normalizer, _ = _bloch_sums(sys, bath, th, backend, psi, correlated, times)
    m = s / normalizer[:, None, None]
    px, py, pz = bloch_components(psi)
    p = m[:, :, 0] * px + m[:, :, 1] * py + m[:, :, 2] * pz
    return [BlochVector(*map(float, row)) for row in p]

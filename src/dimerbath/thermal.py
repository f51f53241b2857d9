"""Thermal initial states and truncation selection.

The bath starts in its Gibbs state exp(-beta sum_k omega_k n_k) / Z, which
depends only on the bath energy of each row of the occupation basis; the
initial state of every evolution is an electronic state times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import DimensionCapError, TotalModel
from .spaces import DensityMatrix, ProductState

#: extra Fock levels kept above the thermal support; the (b^dag + b) coupling
#: displaces population beyond thermal occupancy, so the tail bound alone
#: underestimates the truncation the dynamics need.
DYNAMICAL_HEADROOM = 4


@dataclass(frozen=True)
class ThermalSpec:
    """Inverse temperature and acceptable weight on truncated Fock levels.

    beta = +inf selects the oscillator ground state.
    """

    beta: float
    tail_tol: float = 1e-8

    def __post_init__(self):
        if not (self.beta > 0):
            raise ValueError(f"beta must be positive (or +inf), got {self.beta}")
        if not (0.0 < self.tail_tol < 1.0):
            raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol}")


def choose_truncation(omega: float, spec: ThermalSpec) -> int:
    """Smallest truncation holding the Gibbs tail below tail_tol, plus headroom.

    The untruncated geometric tail above level n - 1 is bounded by
    exp(-beta omega n); the returned value adds DYNAMICAL_HEADROOM levels
    and never drops below that headroom. A beta omega so small that the
    level count is not finite raises DimensionCapError.
    """
    if not (omega > 0):
        raise ValueError(f"omega must be positive, got {omega}")
    if math.isinf(spec.beta):
        n_thermal = 0
    else:
        # smallest n with exp(-beta omega n) < tail_tol; beta omega may
        # underflow to 0
        rate = spec.beta * omega
        levels = -math.log(spec.tail_tol) / rate if rate > 0 else math.inf
        if not math.isfinite(levels):
            raise DimensionCapError(
                f"thermal truncation at beta {spec.beta:g} and omega "
                f"{omega:g} is unbounded: -log(tail_tol)/(beta omega) "
                "is not finite")
        n_thermal = math.floor(levels) + 1
    return max(DYNAMICAL_HEADROOM, n_thermal + DYNAMICAL_HEADROOM)


def initial_state(rho_e0: DensityMatrix, model: TotalModel,
                  spec: ThermalSpec) -> ProductState:
    """Product state: electronic rho_e0 times the bath Gibbs state, one
    diagonal over the occupation basis with weights exp(-beta E) / Z, E the
    bath energy sum_k omega_k n_k of each row. At beta = inf all weight is
    on the ground row E = 0; a finite beta E that overflows has weight 0.
    rho_e0, a ``DensityMatrix``, is the checked 2x2 state;
    ``ProductState`` checks the weights."""
    frequencies = np.asarray(model.factor_frequencies)
    energy = model.truncation.basis(frequencies.size) @ frequencies
    if math.isinf(spec.beta):  # beta E would be inf * 0 on the ground row
        weights = (energy == 0.0).astype(float)
    else:
        with np.errstate(over="ignore"):
            weights = np.exp(-(spec.beta * energy))
        weights /= weights.sum()
    return ProductState(model.layout, rho_e0, weights)

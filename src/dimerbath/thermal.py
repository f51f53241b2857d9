"""Gibbs initial states for the phonon factors and truncation selection."""

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


def gibbs_state(omega: float, beta: float, n_max: int) -> np.ndarray:
    """Thermal state of one truncated mode as its diagonal in the Fock
    basis: the n_max weights p_n ~ exp(-beta omega n), summing to 1."""
    if not (omega > 0):
        raise ValueError(f"omega must be positive, got {omega}")
    if not (beta > 0):
        raise ValueError(f"beta must be positive (or +inf), got {beta}")
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if math.isinf(beta):
        p = np.zeros(n_max)
        p[0] = 1.0
    else:
        p = np.exp(-beta * omega * np.arange(n_max))
        p /= p.sum()
    return p


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
    diagonal over the occupation basis, the 1-D kron of the Gibbs weights
    of each Fock factor. rho_e0, a ``DensityMatrix``, is the checked 2x2
    state; ``ProductState`` checks the weights."""
    weights = np.ones(1)
    for omega in model.factor_frequencies:
        weights = np.kron(weights, gibbs_state(omega, spec.beta, model.n_max))
    return ProductState(model.layout, rho_e0, weights)

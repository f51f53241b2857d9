"""Verification suite: reduced-dynamics equivalence, center-of-mass-mode
decoupling, spectral equivalence, and truncation-convergence certificates.

Equivalence between model families holds exactly only in the untruncated
limit, so every reduced-dynamics comparison is paired with a convergence
certificate: the comparison is repeated with every Fock factor enlarged by
two levels and the change of the maximal distance is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    ReducedTrajectory,
    SpectralPropagator,
    TimeGrid,
    evolve_reduced,
)
from .models import (
    CENTER_OF_MASS_B,
    ElectronicParams,
    ModeSpec,
    TotalModel,
    build_reduced_effective,
    effective_coupling,
)
from .spaces import (
    DensityMatrix,
    partial_trace_matrix,
    permute_factors_matrix,
)
from .thermal import ThermalSpec, initial_state

CONVERGENCE_STEP = 2
CONVERGENCE_TOL = 1e-7


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) sum |eig(rho - sigma)|; a metric with values in [0, 1]."""
    if rho.layout != sigma.layout:
        raise ValueError("states live on different layouts")
    return _trace_distance_matrix(rho.matrix, sigma.matrix)


def _trace_distance_matrix(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())


def pointwise_distances(a: ReducedTrajectory, b: ReducedTrajectory) -> np.ndarray:
    diff = a.states - b.states
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-time reduced-state distances between two models plus the
    truncation-convergence certificate and model_a's trajectory."""

    model_a: str
    model_b: str
    grid: TimeGrid
    per_time_distance: np.ndarray
    max_distance: float
    n_max_used: int
    converged: bool
    convergence_delta: float
    trajectory_a: ReducedTrajectory

    def __post_init__(self):
        d = np.asarray(self.per_time_distance, dtype=float)
        if d.min() < -1e-15 or d.max() > 1.0 + 1e-12:
            raise ValueError("trace distances must lie in [0, 1]")
        if abs(self.max_distance - d.max()) > 1e-15:
            raise ValueError("max_distance inconsistent with per-time values")


def _reduced(model: TotalModel, rho_e0: DensityMatrix, spec: ThermalSpec,
             grid: TimeGrid, dim_cap: int) -> ReducedTrajectory:
    rho0 = initial_state(rho_e0, model, spec)
    return evolve_reduced(model, rho0, grid, dim_cap=dim_cap)


def compare_reduced(model_a: TotalModel, model_b: TotalModel,
                    rho_e0: DensityMatrix, spec: ThermalSpec, grid: TimeGrid,
                    dim_cap: int = DEFAULT_DIM_CAP) -> ComparisonReport:
    """Trace distance of the two reduced trajectories at every grid time.

    Both models are re-run with every Fock factor enlarged by
    CONVERGENCE_STEP levels; ``converged`` is true iff that changes the
    maximal distance by less than CONVERGENCE_TOL. A refinement that would
    exceed ``dim_cap`` is reported as non-converged (delta = nan) rather
    than raised, since the base comparison itself is still valid.
    """
    if model_a.electronic != model_b.electronic:
        raise ValueError("models must share electronic parameters")
    traj_a = _reduced(model_a, rho_e0, spec, grid, dim_cap)
    traj_b = _reduced(model_b, rho_e0, spec, grid, dim_cap)
    distances = pointwise_distances(traj_a, traj_b)
    max_distance = float(distances.max())

    converged = False
    delta = math.nan
    try:
        # reject an over-cap refinement before materializing its Hamiltonian
        for model in (model_a, model_b):
            n_fock = len(model.layout.dims) - 1
            fine_dim = 2 * (model.n_max + CONVERGENCE_STEP) ** n_fock
            if fine_dim > dim_cap:
                raise DimensionCapError(
                    f"refined dimension {fine_dim} exceeds cap {dim_cap}")
        fine_a = model_a.rebuild(model_a.n_max + CONVERGENCE_STEP)
        fine_b = model_b.rebuild(model_b.n_max + CONVERGENCE_STEP)
        fine_max = float(pointwise_distances(
            _reduced(fine_a, rho_e0, spec, grid, dim_cap),
            _reduced(fine_b, rho_e0, spec, grid, dim_cap)).max())
    except DimensionCapError:
        pass
    else:
        delta = abs(fine_max - max_distance)
        converged = delta < CONVERGENCE_TOL

    return ComparisonReport(
        model_a=model_a.describe(), model_b=model_b.describe(), grid=grid,
        per_time_distance=distances, max_distance=max_distance,
        n_max_used=max(model_a.n_max, model_b.n_max),
        converged=converged, convergence_delta=delta, trajectory_a=traj_a)


def spectrum_equivalence(model_a: TotalModel, model_b: TotalModel,
                         lowest_fraction: float = 0.25) -> float:
    """Relative discrepancy of the low sorted spectra of two models.

    Returns max |eig_a - eig_b| / (1 + spectral radius) over the lowest
    ``lowest_fraction`` of both sorted spectra. The upper spectrum of a
    truncated Fock space is truncation-dominated and does not converge as
    n_max grows, so only the low-lying part carries the unitary-equivalence
    signal; ``lowest_fraction=1`` compares everything.
    """
    if model_a.layout.total_dim != model_b.layout.total_dim:
        raise ValueError("models must have equal total dimension")
    if not 0.0 < lowest_fraction <= 1.0:
        raise ValueError("lowest_fraction must be in (0, 1]")
    e_a = np.linalg.eigvalsh(model_a.hamiltonian.matrix)
    e_b = np.linalg.eigvalsh(model_b.hamiltonian.matrix)
    radius = max(np.abs(e_a).max(), np.abs(e_b).max())
    k = max(1, int(round(lowest_fraction * e_a.size)))
    return float(np.abs(e_a[:k] - e_b[:k]).max() / (1.0 + radius))


def factorization_check(model: TotalModel, rho0: DensityMatrix, grid: TimeGrid,
                        dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Per-time distance of the full state from (rest x center-of-mass) form.

    For the transformed model the center-of-mass factors couple only through
    the electronic identity, so an initially factorized state stays
    factorized; the returned values measure the defect
    T(rho(t), rho_rest(t) x rho_B(t)) at every grid point.
    """
    fock_index = [i + 1 for i, lbl in enumerate(model.bath_partition)
                  if lbl == CENTER_OF_MASS_B]
    if not fock_index:
        raise ValueError("model has no center-of-mass partition labels")
    dims = model.layout.dims
    n = len(dims)
    rest_index = [i for i in range(n) if i not in fock_index]
    order = rest_index + fock_index

    prop = SpectralPropagator(model, dim_cap)
    v = prop.eigenvectors
    rt0 = v.conj().T @ rho0.matrix @ v
    values = np.empty(grid.n_steps + 1)
    for k, t in enumerate(grid.points):
        phase = np.exp(-1j * prop.eigenvalues * t)
        rho_t = (v * phase) @ rt0 @ (v * phase).conj().T
        rho_rest = partial_trace_matrix(rho_t, dims, rest_index)
        rho_b = partial_trace_matrix(rho_t, dims, fock_index)
        rho_perm = permute_factors_matrix(rho_t, dims, order)
        values[k] = 0.5 * np.abs(
            np.linalg.eigvalsh(rho_perm - np.kron(rho_rest, rho_b))).sum()
    return values


@dataclass(frozen=True)
class AlphaSweepResult:
    """Coherence series of the reduced-effective model across alpha values."""

    alphas: tuple[float, ...]
    #: shape (n_alpha, n_modes): effective coupling per alpha and mode
    effective_couplings: np.ndarray
    #: shape (n_alpha, n_points): |rho12(t)| per alpha
    coherence: np.ndarray
    grid: TimeGrid

    def couplings_strictly_decreasing(self) -> bool:
        """|effective coupling| strictly decreasing in alpha for every g != 0 mode."""
        mags = np.abs(self.effective_couplings)
        nonzero = mags[0] > 0
        if not nonzero.any():
            return True
        return bool((np.diff(mags[:, nonzero], axis=0) < 0).all())


def coherence_vs_alpha(p: ElectronicParams, modes: Sequence[ModeSpec],
                       spec: ThermalSpec, grid: TimeGrid,
                       alphas: Sequence[float], n_max: int,
                       rho_e0: DensityMatrix,
                       dim_cap: int = DEFAULT_DIM_CAP) -> AlphaSweepResult:
    """Reduced-effective coherence |rho12(t)| for each alpha, ascending."""
    alphas = tuple(float(a) for a in alphas)
    if list(alphas) != sorted(alphas):
        raise ValueError("alphas must be sorted ascending")
    couplings = np.array([[effective_coupling(m.g, a) for m in modes]
                          for a in alphas])
    coherence = np.empty((len(alphas), grid.n_steps + 1))
    for i, a in enumerate(alphas):
        model = build_reduced_effective(p, modes, n_max, a)
        traj = _reduced(model, rho_e0, spec, grid, dim_cap)
        coherence[i] = np.abs(traj.rho12)
    return AlphaSweepResult(alphas, couplings, coherence, grid)

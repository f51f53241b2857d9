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
    exciton_dim,
    partial_trace_matrix,
    permute_factors_matrix,
)
from .thermal import ThermalSpec, initial_state

CONVERGENCE_STEP = 2
CONVERGENCE_TOL = 1e-7


def pointwise_distances(a: ReducedTrajectory, b: ReducedTrajectory) -> np.ndarray:
    diff = a.states - b.states
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-time reduced-state distances between two models plus the
    truncation-convergence certificate and model_a's trajectory."""

    model_a: str
    model_b: str
    per_time_distance: np.ndarray
    n_max_used: int
    converged: bool
    convergence_delta: float
    trajectory_a: ReducedTrajectory

    def __post_init__(self):
        d = np.asarray(self.per_time_distance, dtype=float)
        if d.min() < -1e-15 or d.max() > 1.0 + 1e-12:
            raise ValueError("trace distances must lie in [0, 1]")

    @property
    def max_distance(self) -> float:
        return float(np.max(self.per_time_distance))


def _reduced(model: TotalModel, rho_e0: DensityMatrix, spec: ThermalSpec,
             grid: TimeGrid, dim_cap: int) -> ReducedTrajectory:
    rho0 = initial_state(rho_e0, model, spec)
    return evolve_reduced(model, rho0, grid, dim_cap=dim_cap)


def compare_trajectories(model_a: TotalModel, model_b: TotalModel,
                         rho_e0: DensityMatrix, spec: ThermalSpec,
                         grid: TimeGrid, dim_cap: int
                         ) -> tuple[ReducedTrajectory, np.ndarray]:
    """model_a's reduced trajectory and its trace distance from model_b's at
    every grid time, both started from rho_e0 and the thermal bath state."""
    traj_a = _reduced(model_a, rho_e0, spec, grid, dim_cap)
    traj_b = _reduced(model_b, rho_e0, spec, grid, dim_cap)
    return traj_a, pointwise_distances(traj_a, traj_b)


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
    traj_a, distances = compare_trajectories(model_a, model_b, rho_e0, spec,
                                             grid, dim_cap)
    max_distance = float(distances.max())

    converged = False
    delta = math.nan
    try:
        # reject an over-cap refinement before materializing its Hamiltonian
        for model in (model_a, model_b):
            fine_dim = exciton_dim(len(model.bath_partition),
                                   model.n_max + CONVERGENCE_STEP)
            if fine_dim > dim_cap:
                raise DimensionCapError(
                    f"refined dimension {fine_dim} exceeds cap {dim_cap}")
        fine_a = model_a.rebuild(model_a.n_max + CONVERGENCE_STEP)
        fine_b = model_b.rebuild(model_b.n_max + CONVERGENCE_STEP)
        _, fine = compare_trajectories(fine_a, fine_b, rho_e0, spec, grid,
                                       dim_cap)
        fine_max = float(fine.max())
    except DimensionCapError:
        pass
    else:
        delta = abs(fine_max - max_distance)
        converged = delta < CONVERGENCE_TOL

    return ComparisonReport(
        model_a=model_a.describe(), model_b=model_b.describe(),
        per_time_distance=distances,
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
    # rho(t) = V X V^T with X = rt0 o exp(-i (L_m - L_n) t), rt0 = V^T rho0 V,
    # formed from real matrices: with cos_d = cos((L_m - L_n) t) and
    # sin_d = sin((L_n - L_m) t), Re X = Re rt0 o cos_d - Im rt0 o sin_d and
    # Im X = Re rt0 o sin_d + Im rt0 o cos_d
    rho = rho0.matrix
    rt_re = v.T @ rho.real @ v
    rt_im = v.T @ rho.imag @ v if np.iscomplexobj(rho) else None
    x, vx = np.empty_like(rt_re), np.empty_like(rt_re)
    rho_t = np.empty(rho.shape, dtype=np.complex128)
    values = np.empty(grid.n_steps + 1)
    for k, t in enumerate(grid.points):
        cos, sin = (p[:, 0] for p in prop.phases(t))
        # rank-2 factors: cos_d = cs @ cos_f and sin_d = cs @ sin_f
        cs = np.stack([cos, sin], axis=1)
        cos_f, sin_f = cs.T, np.stack([sin, -cos])
        for part, with_re, with_im in ((rho_t.real, cos_f, -sin_f),
                                       (rho_t.imag, sin_f, cos_f)):
            np.multiply(np.matmul(cs, with_re, out=x), rt_re, out=x)
            if rt_im is not None:
                x += np.multiply(np.matmul(cs, with_im, out=vx), rt_im,
                                 out=vx)
            np.matmul(v, x, out=vx)
            part[...] = np.matmul(vx, v.T, out=x)
        rho_rest = partial_trace_matrix(rho_t, dims, rest_index)
        rho_b = partial_trace_matrix(rho_t, dims, fock_index)
        # the defect in place: rho_t is rewritten at the next step anyway
        defect = permute_factors_matrix(rho_t, dims, order)
        defect -= np.kron(rho_rest, rho_b)
        values[k] = 0.5 * np.abs(np.linalg.eigvalsh(defect)).sum()
    return values


@dataclass(frozen=True)
class AlphaSweepResult:
    """Reduced-effective trajectories across alpha values."""

    alphas: tuple[float, ...]
    #: shape (n_alpha, n_modes): effective coupling per alpha and mode
    effective_couplings: np.ndarray
    #: one reduced trajectory per alpha, in the order of ``alphas``
    trajectories: tuple[ReducedTrajectory, ...]

    @property
    def coherence(self) -> np.ndarray:
        """Shape (n_alpha, n_points): |rho12(t)| per alpha."""
        return np.array([np.abs(t.rho12) for t in self.trajectories])

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
                       dim_cap: int = DEFAULT_DIM_CAP,
                       build=build_reduced_effective) -> AlphaSweepResult:
    """Reduced-effective trajectory for each alpha, ascending.

    ``build(p, modes, n_max, alpha)`` makes each model; a caller that maps
    build errors to its own failures passes its own builder.
    """
    alphas = tuple(float(a) for a in alphas)
    if list(alphas) != sorted(alphas):
        raise ValueError("alphas must be sorted ascending")
    couplings = np.array([[effective_coupling(m.g, a) for m in modes]
                          for a in alphas])
    trajectories = tuple(
        _reduced(build(p, modes, n_max, a), rho_e0, spec, grid, dim_cap)
        for a in alphas)
    return AlphaSweepResult(alphas, couplings, trajectories)

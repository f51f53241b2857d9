"""Verification suite: reduced-dynamics equivalence, center-of-mass-mode
decoupling, spectral equivalence, and truncation-convergence certificates.

Equivalence between model families holds exactly only in the untruncated
limit, so every reduced-dynamics comparison is a ladder: one rung per
truncation, in ascending order, each the maximal distance of the two models'
reduced trajectories. ``compare_ladder`` is the one rung loop, and its
report holds the one certificate, the change of the maximal distance
between the two finest rungs. ``compare_reduced`` is the two-rung ladder
of a box and its refinement, ``Box.refined``; the CLI's ``convergence``
task is the ladder over an explicit n_max list.

``factorization_check`` certifies the center-of-mass decoupling on the full
state of a product initial state. It never forms the dense rho(0): it
rebuilds rho(t) = F F^H at every grid time from the propagator's factor
V^T rho(0) V = G G^H, with F = V (exp(-i L t) o G), in 2 dim^3
multiply-adds per grid time for a pure rho_e and a thermal bath (one
real product for F, one syrk for Re rho(t), one product for Im rho(t)),
against 4 dim^3 for V X V^T. Per grid time it then takes two partial
traces, one factor permutation and one eigvalsh of the explicit defect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import (
    ReducedTrajectory,
    SpectralPropagator,
    TimeGrid,
    evolve_reduced,
)
from .models import (
    CENTER_OF_MASS_B,
    CONVERGENCE_STEP,  # unused; bench/workloads.py reads it
    DEFAULT_DIM_CAP,
    DimensionCapError,
    TotalModel,
    build,
    build_reduced_effective,  # unused; bench/tests/test_bench.py reads it
)
from .spaces import (
    DensityMatrix,
    ProductState,
    eigenvalues_2x2,
    partial_trace_matrix,
    permute_factors_matrix,
)
from .thermal import ThermalSpec, initial_state

CONVERGENCE_TOL = 1e-7


def pointwise_distances(a: ReducedTrajectory, b: ReducedTrajectory) -> np.ndarray:
    """Trace distance at every grid time, from the closed-form eigenvalues
    of each 2x2 difference."""
    low, high = eigenvalues_2x2(a.states - b.states)
    return 0.5 * (np.abs(low) + np.abs(high))


@dataclass(frozen=True)
class ComparisonReport:
    """A comparison ladder: the maximal distance of two models per rung,
    plus the first rung's per-time distances and model_a trajectory."""

    model_a: str
    model_b: str
    per_time_distance: np.ndarray
    trajectory_a: ReducedTrajectory
    n_max: tuple[int, ...]  # per rung
    max_distances: tuple[float, ...]  # per rung

    def __post_init__(self):
        d = np.asarray(self.per_time_distance, dtype=float)
        if d.min() < -1e-15 or d.max() > 1.0 + 1e-12:
            raise ValueError("trace distances must lie in [0, 1]")

    @property
    def max_distance(self) -> float:
        return self.max_distances[0]

    @property
    def n_max_used(self) -> int:
        return self.n_max[0]

    @property
    def convergence_delta(self) -> float:
        """|d[-1] - d[-2]| of the two finest rungs; nan with one rung."""
        d = self.max_distances
        return abs(d[-1] - d[-2]) if len(d) > 1 else math.nan

    @property
    def converged(self) -> bool:
        return bool(self.convergence_delta < CONVERGENCE_TOL)


def _reduced(model: TotalModel, rho_e0: DensityMatrix, spec: ThermalSpec,
             grid: TimeGrid) -> ReducedTrajectory:
    """The reduced trajectory of rho_e0 and the model's thermal bath; every
    CLI task forms its trajectories here."""
    rho0 = initial_state(rho_e0, model, spec)
    return evolve_reduced(model, rho0, grid)


def compare_ladder(pairs: Sequence[tuple[TotalModel, TotalModel]],
                   rho_e0: DensityMatrix, spec: ThermalSpec,
                   grid: TimeGrid) -> ComparisonReport:
    """One rung per (model_a, model_b) pair, in ascending truncation: the
    reduced trajectories' trace distance at every grid time. Every rung is
    built before any trajectory, so a cap or build failure comes first.
    Only the first rung's arrays are kept; of every later rung only its
    maximum outlives the rung."""
    if not pairs:
        raise ValueError("pairs must be non-empty")
    n_max = tuple(max(a.box.n_max, b.box.n_max) for a, b in pairs)
    if any(a.electronic != b.electronic for a, b in pairs):
        raise ValueError("models must share electronic parameters")

    def rung(model_a, model_b):
        trajectory_a = _reduced(model_a, rho_e0, spec, grid)
        return trajectory_a, pointwise_distances(
            trajectory_a, _reduced(model_b, rho_e0, spec, grid))

    trajectory_a, distances = rung(*pairs[0])
    maxima = (float(distances.max()),
              *(float(rung(*pair)[1].max()) for pair in pairs[1:]))
    return ComparisonReport(
        pairs[0][0].describe(), pairs[0][1].describe(), distances,
        trajectory_a, n_max, maxima)


def compare_reduced(model_a: TotalModel, model_b: TotalModel,
                    rho_e0: DensityMatrix, spec: ThermalSpec, grid: TimeGrid,
                    dim_cap: int = DEFAULT_DIM_CAP) -> ComparisonReport:
    """The ladder of the two models and both in their refined box, with
    CONVERGENCE_STEP more levels per Fock factor. A refinement that would
    exceed ``dim_cap`` is left out, so the report is non-converged
    (delta = nan) rather than raised, since the base comparison itself is
    still valid."""
    pairs = [(model_a, model_b)]
    try:
        # both refinements are checked before either is assembled
        for model in (model_a, model_b):
            model.box.refined().check_cap(model.kind, len(model.modes),
                                          dim_cap)
    except DimensionCapError:
        pass
    else:
        pairs.append(tuple(
            build(m.kind, m.electronic, m.modes, m.box.refined().n_max,
                  m.alpha, m.coupling_scale, dim_cap)
            for m in (model_a, model_b)))
    return compare_ladder(pairs, rho_e0, spec, grid)


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
    e_a = np.linalg.eigvalsh(model_a.hamiltonian.lower_triangle())
    e_b = np.linalg.eigvalsh(model_b.hamiltonian.lower_triangle())
    radius = max(np.abs(e_a).max(), np.abs(e_b).max())
    k = max(1, int(round(lowest_fraction * e_a.size)))
    return float(np.abs(e_a[:k] - e_b[:k]).max() / (1.0 + radius))


def factorization_check(model: TotalModel, rho0: ProductState,
                        grid: TimeGrid) -> np.ndarray:
    """Per-time distance of the full state from (rest x center-of-mass) form.

    For the transformed model the center-of-mass factors couple only through
    the electronic identity, so an initially factorized state stays
    factorized; the returned values measure the defect
    T(rho(t), rho_rest(t) x rho_B(t)) at every grid point.

    The dense ``matrix`` of rho0 is never read. rho(t) is rebuilt at every
    grid time from the factor V^T rho0 V = G G^H of
    ``SpectralPropagator.factor`` (r columns): F = V (Phi(t) o G),
    Phi(t) = exp(-i L t) scaling the rows, is one real product of V with
    [Re | Im] (dim^2 2r multiply-adds), and rho(t) = F F^H is
    Re F Re F^T + Im F Im F^T, one symmetric rank-2r update (syrk,
    dim^2 r), plus i (A - A^T) with A = Im F Re F^T (dim^2 r). For a pure
    rho_e and a thermal bath (r = dim/2) that is 2 dim^3 per grid time.
    Per grid time the check then takes two partial traces, one factor
    permutation, and one eigvalsh of the explicit defect, from which
    rho_rest x rho_B is subtracted in place by broadcasting.
    """
    fock_index = [i + 1 for i, lbl in enumerate(model.bath_partition)
                  if lbl == CENTER_OF_MASS_B]
    if not fock_index:
        raise ValueError("model has no center-of-mass partition labels")
    dims = model.layout.dims
    n = len(dims)
    rest_index = [i for i in range(n) if i not in fock_index]
    order = rest_index + fock_index
    d_b = math.prod(dims[i] for i in fock_index)
    d_rest = model.layout.total_dim // d_b

    prop = SpectralPropagator(model)
    v = prop.eigenvectors
    g = prop.factor(rho0)
    dim, r = g.shape
    g_re, g_im = (g.real, g.imag) if np.iscomplexobj(g) else (g, None)
    # [Re | Im] of Phi o G in x, then of F = V (Phi o G) in f. x is dead
    # once f is formed, so Re rho(t) and then A are written over it
    f = np.empty((dim, 2 * r))
    shared = np.empty(dim * max(2 * r, dim))
    x = shared[:f.size].reshape(f.shape)
    part = shared[:dim * dim].reshape(dim, dim)
    rho_t = np.empty((dim, dim), dtype=np.complex128)
    values = np.empty(grid.n_steps + 1)
    for k, t in enumerate(grid.points):
        cos, sin = prop.phases(t)
        # exp(-i L t) (G_re + i G_im): real part cos G_re + sin G_im,
        # imaginary part cos G_im - sin G_re
        np.multiply(cos, g_re, out=x[:, :r])
        np.multiply(-sin, g_re, out=x[:, r:])
        if g_im is not None:
            x[:, :r] += sin * g_im
            x[:, r:] += cos * g_im
        np.matmul(v, x, out=f)
        rho_t.real[...] = np.matmul(f, f.T, out=part)
        np.matmul(f[:, r:], f[:, :r].T, out=part)
        np.subtract(part, part.T, out=rho_t.imag)
        rho_rest = partial_trace_matrix(rho_t, dims, rest_index)
        rho_b = partial_trace_matrix(rho_t, dims, fock_index)
        # the defect in place: rho_t is rewritten at the next step anyway
        defect = permute_factors_matrix(rho_t, dims, order)
        defect.reshape(d_rest, d_b, d_rest, d_b)[...] -= (
            rho_rest[:, None, :, None] * rho_b[None, :, None, :])
        values[k] = 0.5 * np.abs(np.linalg.eigvalsh(defect)).sum()
    return values


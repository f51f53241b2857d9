"""Exact unitary propagation and reduced electronic trajectories.

Propagation is spectral: one Hermitian eigendecomposition of the total
Hamiltonian gives rho(t) = V exp(-i L t) V^dag rho(0) V exp(+i L t) V^dag at
every grid time with no step-to-step error accumulation. Reduced 2x2
trajectories are extracted without ever forming the full rho(t): in the
eigenbasis each matrix element of rho_e(t) is a sum of phase factors, which
batches over fixed-size chunks of the time grid as one matrix product each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import TotalModel
from .spaces import DensityMatrix, Operator, SpaceLayout, partial_trace_matrix

DEFAULT_DIM_CAP = 4096

# complex elements per (dim x chunk) phase array in reduced_trajectory
PHASE_CHUNK_ELEMENTS = 1 << 20


class DimensionCapError(RuntimeError):
    """Total dimension exceeds the configured dense-solver cap."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k t_max / n_steps for k = 0 .. n_steps."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_max > 0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass(frozen=True)
class ReducedTrajectory:
    """2x2 electronic states over a time grid, with derived observables."""

    grid: TimeGrid
    states: np.ndarray  # (n_points, 2, 2) complex

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.complex128)
        if s.shape != (self.grid.n_steps + 1, 2, 2):
            raise ValueError(f"states shape {s.shape} does not match grid")
        traces = np.einsum("kii->k", s)
        if np.abs(traces - 1.0).max() > 1e-10:
            raise ValueError("reduced states are not unit trace")
        if np.abs(s - s.conj().transpose(0, 2, 1)).max() > 1e-12:
            raise ValueError("reduced states are not Hermitian")
        if np.linalg.eigvalsh(s).min() < -1e-10:
            raise ValueError("reduced states are not positive semidefinite")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "states", s)

    @property
    def rho11(self) -> np.ndarray:
        return self.states[:, 0, 0].real

    @property
    def rho22(self) -> np.ndarray:
        return self.states[:, 1, 1].real

    @property
    def rho12(self) -> np.ndarray:
        return self.states[:, 0, 1]

    def state_at(self, k: int) -> DensityMatrix:
        return DensityMatrix(SpaceLayout.electronic_only(), self.states[k])


class SpectralPropagator:
    """Eigendecomposition-backed evolution for one total model.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, model: TotalModel, dim_cap: int = DEFAULT_DIM_CAP):
        dim = model.layout.total_dim
        if dim > dim_cap:
            raise DimensionCapError(
                f"total dimension {dim} exceeds cap {dim_cap}")
        if not model.hamiltonian.is_hermitian():
            raise ValueError("Hamiltonian must be Hermitian")
        self.model = model
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(
            model.hamiltonian.matrix)
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    def unitary(self, t: float) -> np.ndarray:
        """U(t) = V exp(-i L t) V^dag."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.conj().T

    def evolve(self, rho0: DensityMatrix, t: float) -> DensityMatrix:
        """Full rho(t); cost is two dense products at the total dimension."""
        if rho0.layout != self.model.layout:
            raise ValueError("rho0 layout does not match model")
        u = self.unitary(t)
        return DensityMatrix(self.model.layout, u @ rho0.matrix @ u.conj().T)

    def reduced_trajectory(self, rho0: DensityMatrix,
                           grid: TimeGrid) -> ReducedTrajectory:
        """rho_e(t_k) at every grid point from the one eigendecomposition.

        With rt0 = V^dag rho0 V and Q_ab = V_b^dag V_a built from the
        electronic row blocks of V,
        rho_e(t)[a,b] = sum_mn rt0[m,n] Q_ab[n,m] exp(-i (L_m - L_n) t),
        evaluated with one matrix product per element and chunk of grid
        times. Only (0,0), (1,1) and (0,1) are contracted; rho_e[1,0] is the
        conjugate of rho_e[0,1].
        """
        if rho0.layout != self.model.layout:
            raise ValueError("rho0 layout does not match model")
        v = self.eigenvectors
        dim = v.shape[0]
        d_ph = dim // 2
        rt0 = v.conj().T @ rho0.matrix @ v
        blocks = (v[:d_ph, :], v[d_ph:, :])
        elements = ((0, 0), (1, 1), (0, 1))

        def weighted(a, b):
            m = (blocks[b].conj().T @ blocks[a]).T
            m *= rt0
            return m

        points = grid.points
        step = max(1, PHASE_CHUNK_ELEMENTS // dim)
        # a grid of several chunks keeps all three elements so that each
        # chunk's phases are computed once; one chunk forms them one by one
        kept = ([weighted(a, b) for a, b in elements]
                if points.size > step else None)
        states = np.empty((points.size, 2, 2), dtype=np.complex128)
        for start in range(0, points.size, step):
            chunk = slice(start, start + step)
            phases = np.exp(1j * np.outer(self.eigenvalues, points[chunk]))
            conj = phases.conj()
            for i, (a, b) in enumerate(elements):
                m = weighted(a, b) if kept is None else kept[i]
                terms = m @ phases
                del m
                np.multiply(conj, terms, out=terms)
                states[chunk, a, b] = np.sum(terms, axis=0)
        states[:, 1, 0] = states[:, 0, 1].conj()
        # project out float noise so trajectory invariants hold exactly
        states = 0.5 * (states + states.conj().transpose(0, 2, 1))
        tr = np.einsum("kii->k", states).real
        states[:, 0, 0] -= (tr - 1.0) / 2.0
        states[:, 1, 1] -= (tr - 1.0) / 2.0
        return ReducedTrajectory(grid, states)


def evolve_reduced(model: TotalModel, rho0: DensityMatrix, grid: TimeGrid,
                   dim_cap: int = DEFAULT_DIM_CAP) -> ReducedTrajectory:
    """Reduced electronic trajectory of rho0 under the model Hamiltonian."""
    if not model.layout.has_electronic:
        raise ValueError("model layout has no electronic factor")
    return SpectralPropagator(model, dim_cap).reduced_trajectory(rho0, grid)


def expectation(op: Operator, rho: DensityMatrix) -> complex:
    """Tr[op rho]."""
    if op.layout != rho.layout:
        raise ValueError("operator and state layouts differ")
    return complex(np.einsum("ij,ji->", op.matrix, rho.matrix))


def coherence_abs(traj: ReducedTrajectory) -> np.ndarray:
    """|rho12(t_k)| per grid point; bounded by sqrt(rho11 rho22) <= 1/2."""
    return np.abs(traj.rho12)


def reduce_total(rho: DensityMatrix) -> DensityMatrix:
    """Partial trace of a total state onto its electronic factor."""
    if not rho.layout.has_electronic:
        raise ValueError("state layout has no electronic factor")
    reduced = partial_trace_matrix(rho.matrix, rho.layout.dims, [0])
    return DensityMatrix(SpaceLayout.electronic_only(), reduced)

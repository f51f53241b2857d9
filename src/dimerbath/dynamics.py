"""Exact unitary propagation and reduced electronic trajectories.

Propagation is spectral: one eigendecomposition of the total Hamiltonian
gives rho(t) = V exp(-i L t) V^T rho(0) V exp(+i L t) V^T at every grid time
with no step-to-step error accumulation. A ``spaces.Operator`` is real by
type, so V and L are real and the work runs in real arithmetic; rho(0) is
float64 unless its imaginary part is nonzero.
Reduced 2x2 trajectories are extracted without ever forming the full
rho(t): in the eigenbasis each matrix element of rho_e(t) is a sum of phase
factors, which batches over fixed-size chunks of the time grid as two real
matrix products each, one against cos(L t) and one against sin(L t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# DEFAULT_DIM_CAP is re-exported: models.build checks the cap before assembly
from .models import DEFAULT_DIM_CAP, TotalModel  # noqa: F401
from .spaces import DensityMatrix

# (cos, sin) element pairs per (dim x chunk) phase block in reduced_trajectory
PHASE_CHUNK_ELEMENTS = 1 << 20


class TrajectoryError(ValueError):
    """A reduced trajectory fails a check; names it and the first bad time."""


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
            raise TrajectoryError(f"states shape {s.shape} does not match grid")

        def check(bad: np.ndarray, what: str):
            if bad.any():
                t = self.grid.points[bad.argmax()]
                raise TrajectoryError(f"{what} at t={t:g}")

        # NaN passes every comparison below, so it is rejected first
        check(~np.isfinite(s).all(axis=(1, 2)), "non-finite value")
        check(np.abs(np.einsum("kii->k", s) - 1.0) > 1e-10,
              "reduced state off unit trace")
        check(np.abs(s - s.conj().transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-12,
              "reduced state not Hermitian")
        # project out float noise so trajectory invariants hold exactly
        s = 0.5 * (s + s.conj().transpose(0, 2, 1))
        tr = np.einsum("kii->k", s).real
        s[:, 0, 0] -= (tr - 1.0) / 2.0
        s[:, 1, 1] -= (tr - 1.0) / 2.0
        check(np.linalg.eigvalsh(s).min(axis=1) < -1e-10,
              "reduced state not positive semidefinite")
        # the checks above bound any excursion outside [0, 1] by about 1e-10
        for i in (0, 1):
            np.clip(s[:, i, i].real, 0.0, 1.0, out=s[:, i, i].real)
        p1, p2 = s[:, 0, 0].real, s[:, 1, 1].real
        check(np.abs(p1 + p2 - 1.0) > 1e-9, "population sum off unit trace")
        check(np.abs(s[:, 0, 1]) > np.sqrt(p1 * p2) + 1e-9,
              "coherence bound violated")
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


class SpectralPropagator:
    """Eigendecomposition-backed evolution for one total model.

    The Hamiltonian is real (``Operator`` rejects a complex matrix) and must
    be symmetric; the eigenvectors are then real. Immutable after
    construction; safe to share across threads.
    """

    def __init__(self, model: TotalModel):
        h = model.hamiltonian
        if not h.is_hermitian():
            raise ValueError("Hamiltonian must be Hermitian")
        self.model = model
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(h.matrix)
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    def phases(self, times) -> tuple[np.ndarray, np.ndarray]:
        """cos(L t) and sin(L t): one row per eigenvalue, one column per time.

        Raises TrajectoryError, before any phase is formed, when
        max|L| * max|t| is not finite.
        """
        times = np.atleast_1d(times)
        bound = float(np.abs(self.eigenvalues).max()) * float(
            np.abs(times).max())
        if not math.isfinite(bound):
            raise TrajectoryError(
                f"non-finite value of max|eigenvalue| * t = {bound:g}: "
                "the phases overflow")
        angles = np.outer(self.eigenvalues, times)
        sin = np.sin(angles)
        return np.cos(angles, out=angles), sin

    def unitary(self, t: float) -> np.ndarray:
        """U(t) = V exp(-i L t) V^T."""
        v = self.eigenvectors
        return (v * np.exp(-1j * self.eigenvalues * t)) @ v.T

    def evolve(self, rho0: DensityMatrix, t: float) -> DensityMatrix:
        """Full rho(t); cost is two dense products at the total dimension."""
        if rho0.layout != self.model.layout:
            raise ValueError("rho0 layout does not match model")
        u = self.unitary(t)
        return DensityMatrix(self.model.layout, u @ rho0.matrix @ u.conj().T)

    def reduced_trajectory(self, rho0: DensityMatrix,
                           grid: TimeGrid) -> ReducedTrajectory:
        """rho_e(t_k) at every grid point from the one eigendecomposition.

        With rt0 = V^T rho0 V and Q_ab = V_b^T V_a built from the electronic
        row blocks of V,
        rho_e(t)[a,b] = sum_mn rt0[m,n] Q_ab[n,m] exp(-i (L_m - L_n) t).
        The weights rt0[m,n] Q_ab[n,m] split into the real matrices of
        Re rho0 and Im rho0 (the second only for a complex rho0); the
        sum is linear in them, so both run through one real kernel. Only
        (0,0), (1,1) and (0,1) are contracted; rho_e[1,0] is the conjugate
        of rho_e[0,1].
        """
        if rho0.layout != self.model.layout:
            raise ValueError("rho0 layout does not match model")
        points = grid.points
        v = self.eigenvectors
        dim = v.shape[0]
        blocks = (v[:dim // 2, :], v[dim // 2:, :])
        rho = rho0.matrix
        halves = [(1.0, rho.real)] + (
            [(1j, rho.imag)] if np.iscomplexobj(rho) else [])
        weighted = []
        for unit, part in halves:
            rt0 = v.T @ part @ v
            for a, b in ((0, 0), (1, 1), (0, 1)):
                w = blocks[a].T @ blocks[b]
                w *= rt0
                weighted.append((a, b, unit, w))
            del rt0

        step = max(1, PHASE_CHUNK_ELEMENTS // dim)
        states = np.zeros((points.size, 2, 2), dtype=np.complex128)
        for start in range(0, points.size, step):
            chunk = slice(start, start + step)
            cos, sin = self.phases(points[chunk])
            for a, b, unit, w in weighted:
                states[chunk, a, b] += unit * _phase_sum(w, cos, sin)
        states[:, 1, 0] = states[:, 0, 1].conj()
        return ReducedTrajectory(grid, states)


def _phase_sum(w: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """sum_mn w[m,n] exp(-i (L_m - L_n) t) for real w, one value per column.

    With x + iy = w exp(i L t): (x + iy)(cos - i sin) summed over m.
    """
    x = w @ cos
    y = w @ sin
    re = np.einsum("mk,mk->k", x, cos) + np.einsum("mk,mk->k", y, sin)
    im = np.einsum("mk,mk->k", y, cos) - np.einsum("mk,mk->k", x, sin)
    return re + 1j * im


def evolve_reduced(model: TotalModel, rho0: DensityMatrix,
                   grid: TimeGrid) -> ReducedTrajectory:
    """Reduced electronic trajectory of rho0 under the model Hamiltonian."""
    return SpectralPropagator(model).reduced_trajectory(rho0, grid)

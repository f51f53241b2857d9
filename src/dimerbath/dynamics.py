"""Exact unitary propagation and reduced electronic trajectories.

Propagation is spectral: one eigendecomposition of the total Hamiltonian
gives rho(t) = V exp(-i L t) V^T rho(0) V exp(+i L t) V^T at every grid time
with no step-to-step error accumulation. A ``spaces.Operator`` is real by
type, so V and L are real and the work runs in real arithmetic.
Reduced 2x2 trajectories are extracted without ever forming the full
rho(t), or the full rho(0): in the eigenbasis each matrix element of
rho_e(t) is a sum of dim^2 phase factors exp(-i (L_m - L_n) t) with fixed
real weights.

The weights come from the product initial state rho(0) = rho_e x diag(p)
(``spaces.ProductState``), which one map takes into the eigenbasis:
``SpectralPropagator.factor`` gives G with V^T rho(0) V = G G^H. From it
``reduced_trajectory`` forms rt0, real, with a second real half Im rt0
only for a complex rho_e, and ``equivalence.factorization_check``
rebuilds the full rho(t); neither forms the dense rho(0), and
``DensityMatrix`` has checked that rho_e, and so rho(0), is positive
semidefinite. The weight matrices W_ab = Q_ab o rt0 of the elements
(0,0) and (0,1) come from a generator, one at a time, so beside the
Hamiltonian, V and rt0 one W is alive. rho_e[1,1] takes no W: since
Q_00 + Q_11 = V^T V = I and the phases of the diagonal are 1, it is
tr(rt0) - rho_e[0,0] at every t. Two kernels evaluate the phase sum,
chosen by dim and grid length:

* grids shorter than FFT_MIN_POINTS, and every grid below dim FFT_MIN_DIM,
  batch over fixed-size chunks of the time grid as two real matrix
  products each, one against cos(L t) and one against sin(L t):
  O(dim^2 n_points). A grid of one chunk, as in every bundled config but
  the dim-2592 model of many_mode_equivalence.cfg (501 points, two
  chunks), forms its phases once for all W. On a grid of several
  chunks each W forms each chunk's phases again, twice in all (four
  times for a complex rho_e), which costs O(dim n_points) against the
  contraction's O(dim^2 n_points); at small dim, where sin and cos
  outweigh the contraction, that is most of the time;
* longer grids from dim FFT_MIN_DIM up use that the grid is uniform,
  t_k = k h: the sum is a non-uniform DFT of the dim (dim - 1) / 2
  frequencies L_m - L_n (m < n), evaluated by binning each phase
  (L_m - L_n) h onto the nearest point of an FFT grid of M points, the
  smallest power of two >= n_points, and correcting the offset
  |delta| <= pi / M with a Taylor series, one real FFT per term and weight
  row (Anderson & Dahleh, SIAM J. Sci. Comput. 17, 913 (1996); Dutt &
  Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993)):
  O(dim^2 terms + terms M log M). With b = (n_points - 1) pi / M <= pi and
  R + 1 terms, the truncation error of a row of weights w is at most
  sum|w| b^(R+1) / (R+1)! e^b; R + 1 is the smallest count that makes
  b^(R+1) / (R+1)! e^b <= 1e-17, about 31 at b = pi.

README.md ("Propagation kernels") has the timings of both kernels by dim
and grid length, from which FFT_MIN_POINTS and FFT_MIN_DIM are set, and
their agreement with each other and with a long-double reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# DEFAULT_DIM_CAP is re-exported: models.build checks the cap before assembly
from .models import DEFAULT_DIM_CAP, DimensionCapError, TotalModel  # noqa: F401
from .spaces import POSITIVITY_TOL, ProductState, eigenvalues_2x2

# (cos, sin) element pairs per (dim x chunk) phase block in reduced_trajectory
PHASE_CHUNK_ELEMENTS = 1 << 20

# grids of at least FFT_MIN_POINTS points at dim FFT_MIN_DIM or more take
# the FFT phase sum. In README's kernel table it wins at every length
# from 5001 points at dim 50 and up (and from 1001 points at dims 392 and
# 1250), and below dim 50 loses at every length. Every bundled
# config and every benchmark workload but long_trajectory (dim 392) stays
# on the GEMM kernel.
FFT_MIN_POINTS = 2048
FFT_MIN_DIM = 50

# truncation error of the Taylor series in the FFT phase sum, per unit weight
FFT_TAYLOR_TOL = 1e-17

# the largest eps max|L| t_max a trajectory may reach. eigh gives each
# eigenvalue to about eps max|L|, and each angle L t is rounded to eps |L t|,
# so every phase, and with it every reduced state, is off by up to about
# eps max|L| t_max. 1e-8 keeps that an order below the 1e-7 certificates of
# the comparisons; the bundled configs reach at most 5.5e-13.
PHASE_ROUNDING_TOL = 1e-8

# TimeGrid's point cap: a trajectory run peaks at about 210 bytes per grid
# point (rabi.cfg through the CLI: 255 MB at 10^6 steps, 849 MB at 4 10^6),
# so the largest grid stays under 1 GB
MAX_GRID_POINTS = 4_000_001


class TrajectoryError(ValueError):
    """A reduced trajectory fails a check; names it and the first bad time."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k t_max / n_steps for k = 0 .. n_steps.

    More than MAX_GRID_POINTS points raise DimensionCapError here, before
    any point is allocated.
    """

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_max > 0):
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.n_steps + 1 > MAX_GRID_POINTS:
            raise DimensionCapError(
                f"evolution.n_steps {self.n_steps} gives {self.n_steps + 1} "
                f"time points, over cap {MAX_GRID_POINTS}")

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The n_steps + 1 times, built once per grid and read-only."""
        p = np.linspace(0.0, self.t_max, self.n_steps + 1)
        p.flags.writeable = False
        return p


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
        check(eigenvalues_2x2(s)[0] < -POSITIVITY_TOL,
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
        max|L| * max|t| is not finite or eps times it exceeds
        PHASE_ROUNDING_TOL.
        """
        times = np.atleast_1d(times)
        self._check_phase_bound(float(np.abs(times).max()))
        angles = np.outer(self.eigenvalues, times)
        sin = np.sin(angles)
        return np.cos(angles, out=angles), sin

    def _check_phase_bound(self, t_max: float):
        bound = float(np.abs(self.eigenvalues).max()) * t_max
        if not math.isfinite(bound):
            raise TrajectoryError(
                f"non-finite value of max|eigenvalue| * t = {bound:g}: "
                "the phases overflow")
        rounding = np.finfo(float).eps * bound
        if rounding > PHASE_ROUNDING_TOL:
            raise TrajectoryError(
                f"phase rounding eps * max|eigenvalue| * t = {rounding:.3g} "
                f"exceeds {PHASE_ROUNDING_TOL:g}: the phases lack precision")

    def reduced_trajectory(self, rho0: ProductState,
                           grid: TimeGrid) -> ReducedTrajectory:
        """rho_e(t_k) at every grid point from the one eigendecomposition.

        With rt0 = V^T rho0 V and Q_ab = V_b^T V_a built from the electronic
        row blocks of V,
        rho_e(t)[a,b] = sum_mn rt0[m,n] Q_ab[n,m] exp(-i (L_m - L_n) t).
        rt0 = G G^H comes from ``factor`` in real arithmetic, with
        G = Gr + i Gi: Re rt0 = Gr Gr^T + Gi Gi^T is one syrk over [Gr | Gi]
        (over G alone for a real G), exactly symmetric, and for a complex G
        Im rt0 = A - A^T with A = Gi Gr^T, exactly antisymmetric, as the FFT
        kernel needs; [Gr | Gi] is freed before Im rt0 is formed. The
        weights W_ab[m,n] = rt0[m,n] Q_ab[n,m] split into the real matrices
        of Re rt0 and Im rt0; the sum is linear in them, so both run through
        one real kernel. Only (0,0) and (0,1) are contracted, two weight
        matrices per half: Q_00 + Q_11 = I makes rho_e[1,1] = tr(Re rt0) -
        rho_e[0,0], set once after either kernel, and rho_e[1,0] is the
        conjugate of rho_e[0,1]. The trace is that of rt0, not 1, so that a
        V off orthonormal still fails the unit-trace check of
        ``ReducedTrajectory``. The weight matrices are formed one at a time
        (``_weighted``), so one is alive at a time in either kernel. Grids
        of FFT_MIN_POINTS or more at dim FFT_MIN_DIM or more take the FFT
        kernel (module docstring); the rest the chunked GEMM kernel. It
        forms the phases of a one-chunk grid once for all weight matrices;
        on a longer grid it forms each chunk's phases once per weight
        matrix, twice per half of rt0.
        """
        self._check_phase_bound(grid.t_max)  # before any dim^3 work
        dim = self.eigenvectors.shape[0]
        n_points = grid.n_steps + 1
        states = np.zeros((n_points, 2, 2), dtype=np.complex128)
        g = self.factor(rho0)  # checks the layout of rho0
        a = None
        if np.iscomplexobj(g):
            r = g.shape[1]
            g = np.concatenate([g.real, g.imag], axis=1)  # [Gr | Gi]
            a = g[:, r:] @ g[:, :r].T  # Gi Gr^T
        halves = [(1.0, g @ g.T)]
        del g  # before Im rt0 is formed
        if a is not None:
            halves.append((1j, a - a.T))
        del a
        trace = np.trace(halves[0][1])  # Im rt0 has a zero diagonal
        # only the generator holds rt0, which it frees after the last W
        weighted = self._weighted(halves)
        del halves
        if n_points < FFT_MIN_POINTS or dim < FFT_MIN_DIM:
            points = grid.points
            step = max(1, PHASE_CHUNK_ELEMENTS // dim)
            chunks = [slice(s, s + step) for s in range(0, n_points, step)]
            whole = self.phases(points) if len(chunks) == 1 else None
            for b, unit, w in weighted:
                for chunk in chunks:
                    cos, sin = whole or self.phases(points[chunk])
                    states[chunk, 0, b] += unit * _phase_sum(w, cos, sin)
                del w  # before the generator forms the next one
        else:
            # pair m < n: w[m,n] e^{-i x} + w[n,m] e^{+i x}, x = (L_m - L_n) t,
            # is (w + w^T)[m,n] cos x - i (w - w^T)[m,n] sin x. Q_00 is
            # symmetric and the real (imaginary) half of rt0 is symmetric
            # (antisymmetric), so each half feeds only the real part of
            # unit * sum, and rho_e[0,0] needs one row per half.
            upper = np.triu(np.ones((dim, dim), dtype=bool), 1)
            rows, targets = [], []
            for b, unit, w in weighted:
                if b or unit == 1.0:
                    states[:, 0, b] += unit * np.trace(w)
                    rows.append((w + w.T)[upper])
                    targets.append((b, unit, np.real))
                if b or unit == 1j:
                    rows.append((w - w.T)[upper])
                    targets.append((b, 1j * unit, np.imag))
                del w  # before the generator forms the next one
            h = grid.t_max / grid.n_steps
            # halved, so the difference is finite whenever max|L| t_max is;
            # fmod is exact and keeps the small phases that matter exact
            half = 0.5 * h * self.eigenvalues
            sums = _uniform_phase_sums(rows, 2.0 * np.fmod(
                np.subtract.outer(half, half)[upper], np.pi), n_points)
            for (b, unit, part), f in zip(targets, sums):
                states[:, 0, b] += unit * part(f)
        states[:, 1, 1] = trace - states[:, 0, 0]
        states[:, 1, 0] = states[:, 0, 1].conj()
        return ReducedTrajectory(grid, states)

    def _weighted(self, halves: list[tuple[complex, np.ndarray]]):
        """Yield (b, unit, W_0b) for b = 0, 1 and each half (unit, Re rt0
        or Im rt0): the real weights of rho_e[0,b]; rho_e[1,1] and
        rho_e[1,0] need none (``reduced_trajectory``). One W is alive at a
        time, so a caller must be done with each W before it asks for the
        next."""
        v = self.eigenvectors
        half = v.shape[0] // 2
        for unit, rt0 in halves:
            for b in (0, 1):
                w = v[:half].T @ v[b * half:(b + 1) * half]
                w *= rt0
                yield b, unit, w
                del w

    def factor(self, rho0: ProductState) -> np.ndarray:
        """G with V^T rho0 V = G G^H, from the closed-form eigenpairs
        (lambda_j, u_j) of the 2x2 rho_e of rho0 = rho_e x diag(p): the one
        map of a product state into the eigenbasis.

        With G_c = sqrt(p) o V_c, the Gibbs-weighted electronic row block c
        of V without the rows of weight zero (k x dim for the k nonzero
        weights, k = 1 for a ground-state bath), the block of G of u_j is
        sqrt(lambda_j) (u_j[0] G_0 + u_j[1] G_1)^T: k columns per kept
        lambda_j and no LAPACK call. A G_c is formed once, and only when
        some u_j[c] is nonzero. G G^H then takes dim^2 r / 2 multiply-adds
        for a real G of r columns, one symmetric rank-r update (syrk):
        dim^3 / 4 for a pure real rho_e and a thermal bath. A complex G
        takes 2 dim^2 r, up to 2 dim^3 at rank 2, as much as V^T rho0 V.
        Only eigenvalues above rank precision, lambda > 2 eps max lambda,
        are kept. That also drops a negative one of float noise, which
        ``DensityMatrix`` admits down to -POSITIVITY_TOL, so G G^H differs
        from V^T rho0 V by at most POSITIVITY_TOL in trace norm. G is real
        when rho_e is.
        """
        if rho0.layout != self.model.layout:
            raise ValueError("rho0 layout does not match model")
        lam, u = _eigh2(rho0.electronic.matrix)
        keep = lam > lam.size * np.finfo(float).eps * lam.max()
        u = u[:, keep] * np.sqrt(lam[keep])
        v = self.eigenvectors
        half = v.shape[0] // 2
        rows = np.flatnonzero(rho0.weights)
        root = np.sqrt(rho0.weights[rows])[:, None]
        # G^T, one k x dim block per kept eigenvector
        gt = np.zeros((u.shape[1], rows.size, v.shape[0]), dtype=u.dtype)
        for c in np.flatnonzero(u.any(axis=1)):
            block = v[c * half + rows]
            block *= root
            for out, x in zip(gt, u[c]):
                out += x * block
        return gt.reshape(-1, v.shape[0]).T


def _eigh2(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues, descending, and orthonormal eigenvectors (columns) of a
    Hermitian 2x2 [[a, c], [c*, b]] in closed form: (a + b) / 2 +- rho with
    rho = hypot((a - b) / 2, |c|). The first eigenvector is
    (lambda_1 - b, c*) when a >= b and (c, lambda_1 - a) otherwise, so its
    large entry lambda_1 - min(a, b) has no cancellation; the second is its
    orthogonal complement (-u_1*, u_0*)."""
    a, b, c = r[0, 0].real, r[1, 1].real, r[0, 1]
    mean, radius = 0.5 * (a + b), math.hypot(0.5 * (a - b), abs(c))
    if radius == 0.0:
        return np.array([mean, mean]), np.eye(2, dtype=r.dtype)
    u = (np.array([radius + 0.5 * (a - b), np.conj(c)]) if a >= b
         else np.array([c, radius + 0.5 * (b - a)]))
    u /= np.linalg.norm(u)
    return (np.array([mean + radius, mean - radius]),
            np.stack([u, [-np.conj(u[1]), np.conj(u[0])]], axis=1))


def _phase_sum(w: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """sum_mn w[m,n] exp(-i (L_m - L_n) t) for real w, one value per column.

    With x + iy = w exp(i L t): (x + iy)(cos - i sin) summed over m. y is
    written over x, so one (dim x chunk) product is alive at a time.
    """
    x = w @ cos
    re = np.einsum("mk,mk->k", x, cos)
    x_sin = np.einsum("mk,mk->k", x, sin)
    y = np.matmul(w, sin, out=x)
    re += np.einsum("mk,mk->k", y, sin)
    im = np.einsum("mk,mk->k", y, cos) - x_sin
    return re + 1j * im


def _uniform_phase_sums(rows: list[np.ndarray], x: np.ndarray,
                        n_points: int) -> np.ndarray:
    """f[r, k] = sum_p rows[r, p] exp(-i x_p k) for k < n_points.

    Each phase x_p is binned to the nearest point 2 pi j_p / M of an FFT grid
    of M points, the smallest power of two >= n_points, leaving
    |delta_p| = |x_p - 2 pi j_p / M| <= pi / M; then
    f[r, k] = sum_s (-i k)^s / s! F_s[k], where F_s is the DFT of the binned
    weights rows[r] delta^s. The weights are real, so F_s[k] for k > M / 2
    is the conjugate of F_s[M - k], added to f straight from the half
    spectrum. Terms are streamed: one grid of M points per term and row,
    never all terms at once. The arrays in ``rows`` are overwritten.
    """
    m = 1 << (n_points - 1).bit_length()
    u = x * (m / (2.0 * np.pi))
    bins = np.rint(u)
    u -= bins  # delta M / (2 pi), in [-1/2, 1/2]
    bins = bins.astype(np.intp)
    bins %= m
    # |delta k| <= b: after n terms the Taylor remainder of exp(-i delta k)
    # is at most b^n / n! e^b
    b = (n_points - 1) * np.pi / m
    n_terms, bound = 1, b * math.exp(b)
    while bound > FFT_TAYLOR_TOL:
        n_terms += 1
        bound *= b / n_terms
    z = (-2j * np.pi / m) * np.arange(n_points)
    coef = np.ones(n_points, dtype=np.complex128)
    out = np.zeros((len(rows), n_points), dtype=np.complex128)
    half = m // 2 + 1
    for s in range(n_terms):
        if s:
            for w in rows:
                w *= u
            coef *= z / s
        for row, w in zip(out, rows):
            spec = np.fft.rfft(np.bincount(bins, w, minlength=m))
            if n_points > half:
                row[half:] += coef[half:] * (
                    spec[m - n_points + 1:m - half + 1][::-1].conj())
            row[:half] += coef[:half] * spec[:n_points]
    return out


def evolve_reduced(model: TotalModel, rho0: ProductState,
                   grid: TimeGrid) -> ReducedTrajectory:
    """Reduced electronic trajectory of rho0 under the model Hamiltonian."""
    return SpectralPropagator(model).reduced_trajectory(rho0, grid)

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
(0,0) and (0,1) are formed one row block at a time, so beside the
Hamiltonian, V and rt0 no whole W is alive. rho_e[1,1] takes no W:
since Q_00 + Q_11 = V^T V = I and the phases of the diagonal are 1, it
is tr(rt0) - rho_e[0,0] at every t. Two kernels evaluate the
phase sum, chosen by dim and grid length:

* grids shorter than FFT_MIN_POINTS, and every grid below dim FFT_MIN_DIM,
  batch over fixed-size chunks of the time grid as two real matrix
  products each, one against cos(L t) and one against sin(L t):
  O(dim^2 n_points). Each chunk forms its phases once and contracts each
  W against them in blocks of ROW_BLOCK rows, so no whole W exists. W is
  formed again for each chunk, dim^3 / 2 multiply-adds against the
  chunk's 2 dim^2 per point, so a chunk takes at least dim points, and
  so at least sqrt(PHASE_CHUNK_ELEMENTS) = 1024: a grid shorter than
  FFT_MIN_POINTS takes at most two chunks, and every bundled config one;
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
  b^(R+1) / (R+1)! e^b <= 1e-17, about 31 at b = pi. The weight rows,
  bins and offsets over the pairs are built from blocks of PAIR_BLOCK
  rows straight into arrays of dim (dim - 1) / 2, rt0 is freed before the
  terms, and each term adds straight into the states: at dim 392 on
  20001 points it peaks at 4.5 dim^2 (6.0 for a complex rho_e), in the
  terms.

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

# (cos, sin) element pairs per (dim x chunk) phase block in reduced_trajectory,
# or dim^2 where that is more
PHASE_CHUNK_ELEMENTS = 1 << 20

# rows per block of a weight matrix in the GEMM phase sum
ROW_BLOCK = 256

# rows per block of the weight matrices and pair phases of the FFT phase sum
PAIR_BLOCK = ROW_BLOCK // 4

# grids of at least FFT_MIN_POINTS points at dim FFT_MIN_DIM or more take
# the FFT phase sum. In README's kernel table it wins at dims 50 to 392 on
# 2048 to 20001 points, for a real and a complex rho_e (one tie), and
# loses at dim 8 at every length and at dims 50 and 72 on 10^6 points.
# Every bundled config and every benchmark workload but long_trajectory
# (dim 392) stays on the GEMM kernel.
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

# TimeGrid's point cap: a trajectory run peaks at about 160 bytes per grid
# point (rabi.cfg through the CLI: 192 MB at 10^6 steps, 673 MB at 4 10^6),
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
        # the one copy kept; it is cleaned in place, with no temporary of
        # the (n_points, 2, 2) shape, so the checks add at most 32 bytes a
        # point to its 64
        s = np.array(self.states, dtype=np.complex128)
        if s.shape != (self.grid.n_steps + 1, 2, 2):
            raise TrajectoryError(f"states shape {s.shape} does not match grid")

        def check(bad: np.ndarray, what: str):
            if bad.any():
                t = self.grid.points[bad.argmax()]
                raise TrajectoryError(f"{what} at t={t:g}")

        off, low = s[:, 0, 1], s[:, 1, 0]
        # NaN passes every comparison below, so it is rejected first
        check(~np.isfinite(s).all(axis=(1, 2)), "non-finite value")
        x = s[:, 0, 0] + s[:, 1, 1]
        x -= 1.0
        check(np.abs(x) > 1e-10, "reduced state off unit trace")
        # max|s - s^H| over the entries: |s01 - s10*| off the diagonal,
        # 2 |Im s_ii| on it
        np.conj(low, out=x)
        np.subtract(off, x, out=x)
        bad = np.abs(x)
        for i in (0, 1):
            np.maximum(bad, 2.0 * np.abs(s[:, i, i].imag), out=bad)
        check(bad > 1e-12, "reduced state not Hermitian")
        del bad
        # project out float noise so trajectory invariants hold exactly:
        # (s + s^H) / 2, then the trace fixed to 1 on the diagonal
        np.conj(low, out=x)
        off += x
        off *= 0.5
        np.conj(off, out=low)
        del x
        fix = s[:, 0, 0].real + s[:, 1, 1].real
        fix -= 1.0
        fix /= 2.0
        for i in (0, 1):
            s[:, i, i].imag = 0.0
            s[:, i, i].real -= fix
        del fix
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
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(
            h.lower_triangle())
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
        ``ReducedTrajectory``. Grids of FFT_MIN_POINTS or more at dim
        FFT_MIN_DIM or more take the FFT kernel (module docstring); the rest
        the chunked GEMM kernel. For each chunk the GEMM kernel forms the
        phases once, forms the weights W_0b[R] = (V_0^T[R] V_b) o rt0[R] in
        blocks R of ROW_BLOCK rows (``_weights``), contracts each block
        against the phases and adds its sums into the states, so no whole W
        exists: beside rt0 and the chunk's phases, one block and its
        (block x chunk) product are alive, and the phases are freed before
        the next chunk's are formed. The FFT kernel forms W and W^T in blocks of PAIR_BLOCK
        rows R, over the columns from min R on, and copies their pairs
        m < n straight into the rows (W + W^T)[m<n] and (W - W^T)[m<n],
        three arrays of dim (dim - 1) / 2 per half of rt0; each half is
        freed once its rows are built, and the pairs' bins and offsets are
        formed the same way. Its Taylor terms add straight into the states,
        and its rows, bins and offsets are freed before ``ReducedTrajectory``
        copies the states.
        """
        self._check_phase_bound(grid.t_max)  # before any dim^3 work
        v = self.eigenvectors
        dim = v.shape[0]
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
        if n_points < FFT_MIN_POINTS or dim < FFT_MIN_DIM:
            # at least dim points a chunk, since each chunk forms W again
            step = max(PHASE_CHUNK_ELEMENTS, dim * dim) // dim
            for start in range(0, n_points, step):
                chunk = slice(start, start + step)
                cos, sin = self.phases(grid.points[chunk])
                for unit, rt0 in halves:
                    for b in (0, 1):
                        for r in range(0, dim, ROW_BLOCK):
                            rows = slice(r, r + ROW_BLOCK)
                            w = _weights(v, rt0, 0, b, rows)
                            states[chunk, 0, b] += unit * _phase_sum(
                                w, cos, sin, rows)
                            del w  # before the next block is formed
                del cos, sin  # before the next chunk's phases are formed
            del halves  # rt0, before ReducedTrajectory copies the states
        else:
            # pair m < n: w[m,n] e^{-i x} + w[n,m] e^{+i x}, x = (L_m - L_n) t,
            # is (w + w^T)[m,n] cos x - i (w - w^T)[m,n] sin x. Q_00 is
            # symmetric and the real (imaginary) half of rt0 is symmetric
            # (antisymmetric), so each half feeds only the real part of
            # unit * sum, and rho_e[0,0] needs one row per half. The sum f
            # of a row adds z part(f) to rho_e[0,b], z = unit for w + w^T
            # and unit i for w - w^T: part(f) adds to Re (z = 1) or Im
            # (z = i) of rho_e[0,b], or is subtracted from Re (z = -1)
            outs = [(states[:, 0, b].imag if z == 1j else states[:, 0, b].real,
                     part, np.subtract if z == -1 else np.add)
                    for unit, _ in halves for b in (0, 1)
                    for z, part in ((unit, np.real), (1j * unit, np.imag))
                    if b or z != 1j]
            rows = []
            while halves:  # each half of rt0 freed once its rows are built
                unit, rt0 = halves.pop(0)
                new = np.empty((3, dim * (dim - 1) // 2))
                for b in (0, 1):
                    diag = 0.0
                    for blk, pairs, upper in _pair_blocks(dim):
                        cols = slice(blk.start, None)
                        w = _weights(v, rt0, 0, b, blk, cols)
                        diag += np.trace(w)
                        if b:
                            # W^T[blk, cols] = (V_1^T V_0 o rt0^T)[blk, cols],
                            # rt0^T = +-rt0 for the real (imaginary) half
                            t = _weights(v, rt0, 1, 0, blk, cols)
                            if unit != 1.0:
                                np.negative(t, out=t)
                            np.compress(upper, w + t, out=new[1, pairs])
                            w -= t
                            del t
                        else:  # W_00^T = +-W_00: its one row is 2 W_00
                            w += w
                        np.compress(upper, w, out=new[2 * b, pairs])
                        del w
                    states[:, 0, b] += unit * diag
                rows.extend(new)
                del rt0, new
            # halved, so the difference is finite whenever max|L| t_max is
            _uniform_phase_sums(
                rows, 0.5 * (grid.t_max / grid.n_steps) * self.eigenvalues,
                outs)
            del rows, outs
        states[:, 1, 1] = trace - states[:, 0, 0]
        states[:, 1, 0] = states[:, 0, 1].conj()
        return ReducedTrajectory(grid, states)

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


def _weights(v: np.ndarray, rt0: np.ndarray, a: int, b: int, rows: slice,
             cols: slice = slice(None)) -> np.ndarray:
    """The block (V_a^T[rows] V_b[:, cols]) o rt0[rows, cols] of a real
    weight matrix, V_c the electronic row block c of the eigenvectors v."""
    half = v.shape[0] // 2
    w = v[a * half:(a + 1) * half, rows].T @ v[b * half:(b + 1) * half, cols]
    w *= rt0[rows, cols]
    return w


def _phase_sum(w: np.ndarray, cos: np.ndarray, sin: np.ndarray,
               rows: slice) -> np.ndarray:
    """sum_(m in rows) sum_n W[m,n] exp(-i (L_m - L_n) t) for a real weight
    matrix W of which w = W[rows], one value per column of cos and sin.

    With x + iy = w exp(i L t): (x + iy)(cos - i sin)[rows] summed over m.
    y is written over x, so one (block x chunk) product is alive at a time.
    """
    c, s = cos[rows], sin[rows]
    x = w @ cos
    re = np.einsum("mk,mk->k", x, c)
    x_sin = np.einsum("mk,mk->k", x, s)
    y = np.matmul(w, sin, out=x)
    re += np.einsum("mk,mk->k", y, s)
    im = np.einsum("mk,mk->k", y, c) - x_sin
    return re + 1j * im


def _pair_blocks(dim: int):
    """Yield (rows, pairs, upper) for each block of PAIR_BLOCK rows R: the
    pairs (m, n), m in R and n > m, fill the slice ``pairs`` of the pairs
    m < n in row-major order (that of np.triu), and the mask ``upper`` picks
    them from the block's columns n >= min R. Row m's pairs start at
    m (2 dim - m - 1) / 2."""
    for r in range(0, dim, PAIR_BLOCK):
        h = min(PAIR_BLOCK, dim - r)
        yield (slice(r, r + h),
               slice(r * (2 * dim - r - 1) // 2,
                     (r + h) * (2 * dim - r - h - 1) // 2),
               np.less.outer(np.arange(h), np.arange(dim - r)).ravel())


def _uniform_phase_sums(rows: list[np.ndarray], theta: np.ndarray,
                        outs: list):
    """add(out, part(f[r]), out=out) for each row r and its (out, part, add)
    in ``outs``, where out is a real view of n_points values and
    f[r, k] = sum_p rows[r, p] exp(-i x_p k) for k < n_points, over the pairs
    p = (m, n), m < n, in the order of ``_pair_blocks``, with
    x_p = 2 fmod(theta_m - theta_n, pi).

    Each phase x_p is binned to the nearest point 2 pi j_p / M of an FFT grid
    of M points, the smallest power of two >= n_points, leaving
    |delta_p| = |x_p - 2 pi j_p / M| <= pi / M; the phases, bins and offsets
    are formed one block of PAIR_BLOCK rows m at a time. Then
    f[r, k] = sum_s (-i k)^s / s! F_s[k], where F_s is the DFT of the binned
    weights rows[r] delta^s. The weights are real, so F_s[k] for k > M / 2
    is the conjugate of F_s[M - k], taken straight from the half spectrum.
    Terms are streamed: one grid of M points per term and row, added
    straight into out, so no f is ever whole. The arrays in ``rows`` are
    overwritten.
    """
    n_points = len(outs[0][0])
    m = 1 << (n_points - 1).bit_length()
    u = np.empty(len(rows[0]))
    bins = np.empty(len(rows[0]), dtype=np.intp)
    for blk, pairs, upper in _pair_blocks(len(theta)):
        # fmod is exact and keeps the small phases that matter exact
        x = u[pairs]
        np.compress(upper, np.subtract.outer(theta[blk], theta[blk.start:]),
                    out=x)
        np.fmod(x, np.pi, out=x)
        x *= m / np.pi  # x_p in units of 2 pi / M
        bins[pairs] = np.rint(x)
        x -= bins[pairs]  # delta M / (2 pi), in [-1/2, 1/2]
        bins[pairs] %= m
    # |delta k| <= b: after n terms the Taylor remainder of exp(-i delta k)
    # is at most b^n / n! e^b
    b = (n_points - 1) * np.pi / m
    n_terms, bound = 1, b * math.exp(b)
    while bound > FFT_TAYLOR_TOL:
        n_terms += 1
        bound *= b / n_terms
    coef = np.ones(n_points, dtype=np.complex128)  # (-2 pi i k / M)^s / s!
    half = m // 2 + 1
    for s in range(n_terms):
        if s:
            for w in rows:
                w *= u
            coef *= np.arange(n_points)
            coef *= -2j * np.pi / (m * s)
        for w, (out, part, add) in zip(rows, outs):
            spec = np.fft.rfft(np.bincount(bins, w, minlength=m))
            if n_points > half:
                top = spec[m - n_points + 1:m - half + 1][::-1].conj()
                top *= coef[half:]
                add(out[half:], part(top), out=out[half:])
            spec = spec[:n_points]
            spec *= coef[:half]
            add(out[:half], part(spec), out=out[:half])


def evolve_reduced(model: TotalModel, rho0: ProductState,
                   grid: TimeGrid) -> ReducedTrajectory:
    """Reduced electronic trajectory of rho0 under the model Hamiltonian."""
    return SpectralPropagator(model).reduced_trajectory(rho0, grid)

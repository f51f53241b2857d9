"""Composite Hilbert spaces and dense operator algebra.

A space is an ordered tensor product of factors, described by their
dimensions: the two-level electronic factor first, when present, followed
by truncated Fock factors. The bath of an exciton space is one
occupation-number basis, listed by :func:`occupation_basis`. Operators and
states are stored dense, in float64 when their imaginary part is exactly
zero and in complex128 otherwise; one converter makes that choice. The
exception is :class:`ProductState`, the initial state of every evolution:
a positive semidefinite 2x2 electronic state times a bath state diagonal in
the occupation basis, stored as the 2x2 factor and one weight per basis
row. An :class:`Operator` is a Hamiltonian and must be real, as every model
Hamiltonian is. All values are immutable after construction and all
operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITICITY_RTOL = 1e-12

# the most negative eigenvalue a 2x2 electronic state may have: float noise
# of a positive semidefinite state, not a physical negativity
POSITIVITY_TOL = 1e-10


class LayoutError(ValueError):
    """Raised for inconsistent factor layouts or dimension mismatches."""


@dataclass(frozen=True)
class SpaceLayout:
    """Dimensions of the tensor factors of a composite space, in order."""

    dims: tuple[int, ...]

    @classmethod
    def electronic_only(cls) -> "SpaceLayout":
        return cls((2,))

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))


def exciton_dim(n_fock: int, n_max: int) -> int:
    """Dimension 2 n_max^n_fock of the electronic factor times the bath basis."""
    return 2 * n_max ** n_fock


def occupation_basis(n_fock: int, n_max: int) -> np.ndarray:
    """Occupation tuples with every n_k < n_max, one row per bath state.

    Rows are in the order of the Fock factors' tensor product: the last
    mode's occupation varies fastest.
    """
    return np.indices((n_max,) * n_fock).reshape(n_fock, -1).T


def _as_square(matrix, dim: int) -> np.ndarray:
    """Read-only float64 array, or complex128 if any imaginary part is nonzero."""
    m = np.asarray(matrix)
    if np.iscomplexobj(m) and np.isreal(m).all():
        m = m.real
    m = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if m.shape != (dim, dim):
        raise LayoutError(f"matrix shape {m.shape} does not match layout dim {dim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    # an array that owns its data and is already read-only is taken as is
    if m.flags.writeable or not m.flags.owndata:
        m = m.copy()
        m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Operator:
    """A real dense Hamiltonian tagged with the layout it acts on."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, self.layout.total_dim)
        if np.iscomplexobj(m):
            raise ValueError("Hamiltonian must be real: the propagator "
                             "diagonalizes real symmetric matrices only")
        object.__setattr__(self, "matrix", m)

    def is_hermitian(self, rtol: float = HERMITICITY_RTOL) -> bool:
        """||A - A^T||_F <= rtol max|A_ij|, in O(dim^2) without an SVD."""
        m = self.matrix
        scale = np.abs(m).max()
        if scale == 0.0:
            return True
        # ||.||_2 <= ||.||_F and max|A_ij| <= ||A||_2: implies the spectral test
        return np.linalg.norm(m - m.T) <= rtol * scale


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace state tagged with its layout.

    Construction checks trace and Hermiticity (cheap), not positivity.
    """

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, self.layout.total_dim)
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} is not 1")
        tol = 1e-10 * max(1.0, np.abs(m).max())
        d = np.conj(m)  # a new array; m.conj() is m itself when m is real
        d -= m.T  # conj(A - A^dag), in one dim^2 temporary
        np.abs(d, out=d)
        if d.real.max() > tol:
            raise ValueError("density matrix is not Hermitian")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ProductState:
    """rho_e x diag(weights): a 2x2 electronic state times a bath state that
    is diagonal in the occupation basis, one weight per basis row.

    Construction checks that rho_e is positive semidefinite, its smallest
    eigenvalue no lower than -POSITIVITY_TOL, and the weights in O(dim): a
    1-D array of length dim/2, finite, non-negative and summing to 1. The
    dense matrix is formed only when ``matrix`` is read.
    """

    layout: SpaceLayout
    electronic: DensityMatrix
    weights: np.ndarray

    def __post_init__(self):
        if (self.electronic.layout != SpaceLayout.electronic_only()
                or self.layout.dims[0] != 2):
            raise LayoutError("a product state needs a 2x2 electronic factor "
                              "first in its layout")
        lowest = lowest_eigenvalues(self.electronic.matrix[None])[0]
        if lowest < -POSITIVITY_TOL:
            raise ValueError("electronic state is not positive semidefinite: "
                             f"smallest eigenvalue {lowest:g}")
        w = np.array(self.weights, dtype=np.float64)
        if w.shape != (self.layout.total_dim // 2,):
            raise LayoutError(f"bath weights of shape {w.shape} do not match "
                              f"layout dim {self.layout.total_dim}")
        if not np.isfinite(w).all():
            raise ValueError("bath weights have a non-finite entry")
        if (w < 0.0).any():
            raise ValueError("bath weights have a negative entry")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"bath weights sum to {w.sum()}, not 1")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def matrix(self) -> np.ndarray:
        """The dense rho_e x diag(weights), dim^2 entries, formed anew on
        every read; complex128 exactly when rho_e is."""
        m = np.kron(self.electronic.matrix, np.diag(self.weights))
        m.flags.writeable = False
        return m


def eigenvalues_2x2(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smaller, larger) eigenvalue of each Hermitian 2x2 [[p1, c], [c*, p2]]
    in s: m -+ r with m = (p1 + p2) / 2 and r = hypot((p1 - p2) / 2, |c|),
    in closed form with no LAPACK call."""
    p1, p2 = s[:, 0, 0].real, s[:, 1, 1].real
    m = 0.5 * (p1 + p2)
    r = np.hypot(0.5 * (p1 - p2), np.abs(s[:, 0, 1]))
    return m - r, m + r


def lowest_eigenvalues(s: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian 2x2 in s (``eigenvalues_2x2``)."""
    return eigenvalues_2x2(s)[0]


def annihilation_matrix(n_max: int) -> Operator:
    """Truncated bosonic annihilation operator on a single Fock factor.

    Entries a[n-1, n] = sqrt(n); the commutator with its adjoint equals the
    identity except on the top truncated level.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    a = np.diag(np.sqrt(np.arange(1, n_max)), k=1)
    return Operator(SpaceLayout((n_max,)), a)


def partial_trace_matrix(matrix: np.ndarray, dims: Sequence[int],
                         keep: Sequence[int]) -> np.ndarray:
    """Partial trace on a raw square array whose axes factor as dims x dims."""
    n = len(dims)
    keep = sorted(keep)
    tensor = matrix.reshape(tuple(dims) * 2)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row + col, out)
    d = int(np.prod([dims[i] for i in keep]))
    return np.ascontiguousarray(reduced.reshape(d, d))


def permute_factors_matrix(matrix: np.ndarray, dims: Sequence[int],
                           order: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a square matrix to the given factor order."""
    n = len(dims)
    if sorted(order) != list(range(n)):
        raise LayoutError(f"order {order} is not a permutation of {n} factors")
    tensor = matrix.reshape(tuple(dims) * 2)
    perm = list(order) + [n + i for i in order]
    d = int(np.prod(dims))
    return np.ascontiguousarray(tensor.transpose(perm).reshape(d, d))

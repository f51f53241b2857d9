"""Composite Hilbert spaces and operator algebra.

A space is an ordered tensor product of factors, described by their
dimensions: the two-level electronic factor first, when present, followed
by truncated Fock factors. The bath of an exciton space is one
occupation-number basis, listed by ``models.Box.basis``. An
:class:`Operator` is a Hamiltonian and must be real, as every model
Hamiltonian is; it is built from (row, col, value) triplets, stored as
such and formed dense only when read: as its lower triangle for ``eigh``,
whole when its ``matrix`` is read. A :class:`DensityMatrix`, the one
checked 2x2 electronic state, is stored dense, in float64 when its
imaginary part is exactly zero and in complex128 otherwise.
:class:`ProductState`, the initial state of every
evolution, is a :class:`DensityMatrix` times a bath state diagonal in the
occupation basis, stored as the 2x2 factor and one weight per basis row.
All values are immutable after construction and all operations are pure
functions.
"""

from __future__ import annotations

import mmap
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


@dataclass(frozen=True)
class Operator:
    """A real Hamiltonian tagged with the layout it acts on, stored as
    (row, col, value) triplets: H[rows[i], cols[i]] = values[i], every other
    entry +0.0.

    Construction sorts the triplets by (row, col), rejects a complex value,
    an index outside the layout, a non-finite value and a (row, col) given
    twice, and freezes the arrays. Dense forms are made anew on every read:
    ``lower_triangle`` for eigensolvers, ``matrix`` for every other reader.
    """

    layout: SpaceLayout
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("Hamiltonian must be real: the propagator "
                             "diagonalizes real symmetric matrices only")
        dim = self.layout.total_dim
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        values = np.asarray(self.values, dtype=np.float64)
        if rows.ndim != 1 or not rows.shape == cols.shape == values.shape:
            raise LayoutError("rows, cols and values must be 1-D arrays of "
                              "one length")
        if rows.size and (min(rows.min(), cols.min()) < 0
                          or max(rows.max(), cols.max()) >= dim):
            raise LayoutError(f"an index is outside layout dim {dim}")
        if not np.isfinite(values).all():
            raise ValueError("Hamiltonian has a non-finite entry")
        order = np.argsort(rows * dim + cols)
        rows, cols, values = rows[order], cols[order], values[order]
        twice = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
        if twice.size:
            i = twice[0]
            raise ValueError(f"entry ({rows[i]}, {cols[i]}) is given twice")
        for name, a in (("rows", rows), ("cols", cols), ("values", values)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def matrix(self) -> np.ndarray:
        """The dense float64 dim x dim array, read-only, scattered from the
        triplets on every read."""
        dim = self.layout.total_dim
        m = np.zeros((dim, dim))
        m[self.rows, self.cols] = self.values
        m.flags.writeable = False
        return m

    def lower_triangle(self) -> np.ndarray:
        """tril(H), read-only, for eigh and eigvalsh, which read only the
        lower triangle: a dim x dim view of a (2 dim - 1) x dim array whose
        row dim - 1 + i - j holds the diagonal i - j, indexed by j.

        Only the diagonals on and below the main one that hold an entry are
        written. The array lies in a private anonymous mapping, zeroed, whose
        pages take memory only where written, so a banded H costs a few rows
        of dim entries here, not dim^2, and reading the rest costs nothing.
        """
        dim = self.layout.total_dim
        low = self.rows >= self.cols
        cols = self.cols[low]
        # private: in a shared mapping each page read would take memory
        pages = mmap.mmap(-1, 8 * (2 * dim - 1) * dim, access=mmap.ACCESS_COPY)
        diagonals = np.frombuffer(pages).reshape(2 * dim - 1, dim)
        diagonals[dim - 1 + self.rows[low] - cols, cols] = self.values[low]
        size = diagonals.itemsize
        view = np.ndarray((dim, dim), buffer=diagonals,
                          offset=size * dim * (dim - 1),
                          strides=(size * dim, size * (1 - dim)))
        view.flags.writeable = False
        return view

    def is_hermitian(self) -> bool:
        """||A - A^T||_F <= HERMITICITY_RTOL max|A_ij|, on the triplets:
        each entry is paired with its transpose by a search of the sorted
        (row, col) keys, in O(nnz log nnz) and with no dense array."""
        if not self.values.any():
            return True
        scale = np.abs(self.values).max()
        dim = self.layout.total_dim
        keys = self.rows * dim + self.cols
        mirror = self.cols * dim + self.rows
        at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
        paired = keys[at] == mirror
        diff = self.values - np.where(paired, self.values[at], 0.0)
        # an entry with no partner stands at (i, j) and, negated, at (j, i)
        diff = np.concatenate((diff, diff[~paired]))
        # ||.||_2 <= ||.||_F and max|A_ij| <= ||A||_2: implies the spectral test
        return np.linalg.norm(diff) <= HERMITICITY_RTOL * scale


@dataclass(frozen=True)
class DensityMatrix:
    """The 2x2 electronic state, on ``SpaceLayout.electronic_only()`` only:
    Hermitian, unit trace and positive semidefinite, its smallest eigenvalue
    (``eigenvalues_2x2``) no lower than -POSITIVITY_TOL."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self):
        if self.layout != SpaceLayout.electronic_only():
            raise LayoutError("an electronic state has the layout (2,), got "
                              f"{self.layout.dims}")
        m = np.asarray(self.matrix)
        if np.iscomplexobj(m) and np.isreal(m).all():
            m = m.real
        m = np.array(m, dtype=np.complex128 if np.iscomplexobj(m)
                     else np.float64)
        if m.shape != (2, 2):
            raise LayoutError(f"matrix shape {m.shape} is not 2x2")
        if not np.isfinite(m).all():
            raise ValueError("matrix has a non-finite entry")
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if np.abs(m - m.conj().T).max() > 1e-10 * max(1.0, np.abs(m).max()):
            raise ValueError("density matrix is not Hermitian")
        lowest = eigenvalues_2x2(m[None])[0][0]
        if lowest < -POSITIVITY_TOL:
            raise ValueError("electronic state is not positive semidefinite: "
                             f"smallest eigenvalue {lowest:g}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ProductState:
    """rho_e x diag(weights): a 2x2 electronic state times a bath state that
    is diagonal in the occupation basis, one weight per basis row.

    rho_e, a ``DensityMatrix``, has checked itself. Construction checks
    that the layout's first factor is 2 and the weights, in O(dim): a 1-D
    array of length dim/2, finite, non-negative and summing to 1. The dense
    matrix is formed only when ``matrix`` is read.
    """

    layout: SpaceLayout
    electronic: DensityMatrix
    weights: np.ndarray

    def __post_init__(self):
        if self.layout.dims[0] != 2:
            raise LayoutError("a product state needs a 2x2 electronic factor "
                              "first in its layout")
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

"""Composite Hilbert spaces and dense operator algebra.

A space is an ordered tensor product of factors: an optional two-level
electronic factor (always first when present) followed by truncated Fock
factors. Everything is dense complex128; all values are immutable after
construction and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

ELECTRONIC = "electronic"
FOCK = "fock"

HERMITICITY_RTOL = 1e-12


class LayoutError(ValueError):
    """Raised for inconsistent factor layouts or dimension mismatches."""


@dataclass(frozen=True)
class Factor:
    """One tensor factor: the 2-level electronic space or a truncated Fock space."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind == ELECTRONIC:
            if self.dim != 2:
                raise LayoutError("electronic factor must have dimension 2")
        elif self.kind == FOCK:
            if self.dim < 2:
                raise LayoutError(f"Fock factor needs n_max >= 2, got {self.dim}")
        else:
            raise LayoutError(f"unknown factor kind {self.kind!r}")


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered factor list of a composite space.

    An electronic factor, when present, is unique and sits first. Layouts
    without an electronic factor occur for single-mode operators such as
    ladder matrices.
    """

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise LayoutError("layout needs at least one factor")
        for i, f in enumerate(self.factors):
            if f.kind == ELECTRONIC and i != 0:
                raise LayoutError("electronic factor must come first")
        if sum(f.kind == ELECTRONIC for f in self.factors) > 1:
            raise LayoutError("at most one electronic factor")

    @classmethod
    def exciton(cls, fock_dims: Iterable[int]) -> "SpaceLayout":
        """Electronic factor followed by one Fock factor per entry of fock_dims."""
        return cls((Factor(ELECTRONIC, 2),)
                   + tuple(Factor(FOCK, int(n)) for n in fock_dims))

    @classmethod
    def electronic_only(cls) -> "SpaceLayout":
        return cls((Factor(ELECTRONIC, 2),))

    @classmethod
    def single_fock(cls, n_max: int) -> "SpaceLayout":
        return cls((Factor(FOCK, int(n_max)),))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.dim for f in self.factors)

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def has_electronic(self) -> bool:
        return self.factors[0].kind == ELECTRONIC


def _as_square_complex(matrix, dim: int) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise LayoutError(f"matrix shape {m.shape} does not match layout dim {dim}")
    m = m.copy()
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class Operator:
    """A dense operator tagged with the layout it acts on."""

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _as_square_complex(self.matrix, self.layout.total_dim))

    def is_hermitian(self, rtol: float = HERMITICITY_RTOL) -> bool:
        """||A - A^dag||_F <= rtol max|A_ij|, in O(dim^2) without an SVD."""
        m = self.matrix
        scale = np.abs(m).max()
        if scale == 0.0:
            return True
        # ||.||_2 <= ||.||_F and max|A_ij| <= ||A||_2: implies the spectral test
        return np.linalg.norm(m - m.conj().T) <= rtol * scale


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace state tagged with its layout.

    Construction checks trace and Hermiticity (cheap); positivity is
    exposed through :meth:`min_eigenvalue` since it needs a solve.
    """

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_complex(self.matrix, self.layout.total_dim)
        tr = np.trace(m)
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if np.abs(m - m.conj().T).max() > 1e-10 * max(1.0, np.abs(m).max()):
            raise ValueError("density matrix is not Hermitian")
        object.__setattr__(self, "matrix", m)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def annihilation_matrix(n_max: int) -> Operator:
    """Truncated bosonic annihilation operator on a single Fock factor.

    Entries a[n-1, n] = sqrt(n); the commutator with its adjoint equals the
    identity except on the top truncated level.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    a = np.diag(np.sqrt(np.arange(1, n_max)), k=1).astype(np.complex128)
    return Operator(SpaceLayout.single_fock(n_max), a)


def number_matrix(n_max: int) -> Operator:
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    return Operator(SpaceLayout.single_fock(n_max),
                    np.diag(np.arange(n_max)).astype(np.complex128))


def embed_matrix(matrix: np.ndarray, factor_index: int,
                 dims: Sequence[int]) -> np.ndarray:
    """Lift a single-factor matrix to the full space, identity elsewhere."""
    left = int(np.prod(dims[:factor_index], initial=1))
    right = int(np.prod(dims[factor_index + 1:], initial=1))
    out = np.kron(np.eye(left, dtype=np.complex128), matrix)
    return np.kron(out, np.eye(right, dtype=np.complex128))


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

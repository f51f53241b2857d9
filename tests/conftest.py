import math

import numpy as np
import pytest

from dimerbath.models import ElectronicParams, ModeSpec
from dimerbath.spaces import DensityMatrix, Operator, ProductState, SpaceLayout


@pytest.fixture
def params():
    """Detuned, coupled dimer used throughout (criterion-1 electronic set)."""
    return ElectronicParams(0.25, -0.25, 0.5)


@pytest.fixture
def mode():
    return ModeSpec(1.0, 0.2)


@pytest.fixture
def site1():
    return DensityMatrix(SpaceLayout.electronic_only(),
                         np.diag([1.0, 0.0]).astype(complex))


def unitary(prop, t: float) -> np.ndarray:
    """U(t) = V exp(-i L t) V^T of a SpectralPropagator."""
    v = prop.eigenvectors
    return (v * np.exp(-1j * prop.eigenvalues * t)) @ v.T


def evolve(prop, rho0: ProductState, t: float) -> np.ndarray:
    """Full rho(t) under a SpectralPropagator's model: two dense products
    at the total dimension, a reference for the reduced contraction."""
    if rho0.layout != prop.model.layout:
        raise ValueError("rho0 layout does not match model")
    u = unitary(prop, t)
    return u @ rho0.matrix @ u.conj().T


def thermal_occupation(omega: float, beta: float) -> float:
    """Bose-Einstein mean occupation 1/(exp(beta omega) - 1)."""
    if not (omega > 0 and beta > 0):
        raise ValueError("omega and beta must be positive")
    if math.isinf(beta):
        return 0.0
    return 1.0 / math.expm1(beta * omega)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def ladder(n_max: int) -> np.ndarray:
    """Truncated annihilation operator of one Fock factor, a[n - 1, n] =
    sqrt(n): the reference the assembler's couplings are checked against."""
    return np.diag(np.sqrt(np.arange(1, n_max)), k=1)


def dense_operator(layout: SpaceLayout, matrix) -> Operator:
    """The Operator of a dense array: one triplet per entry that is not
    +0.0, so that -0.0 survives and a complex array reaches Operator."""
    m = np.asarray(matrix)
    rows, cols = np.nonzero((m != 0.0) | np.signbit(m.real))
    return Operator(layout, rows, cols, m[rows, cols])


def embed_matrix(matrix: np.ndarray, factor_index: int, dims) -> np.ndarray:
    """Lift a single-factor matrix to the full space, identity elsewhere."""
    left = int(np.prod(dims[:factor_index], initial=1))
    right = int(np.prod(dims[factor_index + 1:], initial=1))
    out = np.kron(np.eye(left, dtype=np.complex128), matrix)
    return np.kron(out, np.eye(right, dtype=np.complex128))


_P1 = np.diag([1.0, 0.0]).astype(np.complex128)
_P2 = np.diag([0.0, 1.0]).astype(np.complex128)


def _kron_couplings(model) -> list[tuple[np.ndarray, float]]:
    """(electronic operator, coupling) of every Fock factor, in factor order."""
    from dimerbath import models

    if model.kind == "shared":
        return [(_P1 - _P2, m.g) for m in model.modes]
    if model.kind == "reduced_effective":
        return [(_P1 - _P2, models.effective_coupling(m.g, model.alpha))
                for m in model.modes]
    if model.kind == "independent":
        s = model.coupling_scale
        return [c for m in model.modes for c in ((_P1, s * m.g), (_P2, s * m.g))]
    if model.kind == "transformed":
        eye = np.eye(2, dtype=np.complex128)
        return [c for m in model.modes for c in ((_P1 - _P2, m.g), (eye, m.g))]
    a = model.alpha
    return [c for m in model.modes
            for c in ((_P1 + a * _P2, m.g), (_P2 + a * _P1, m.g))]


def kron_hamiltonian(model) -> np.ndarray:
    """The model's Hamiltonian summed term by term from np.kron embeddings.

    H_e, then omega_k n_k for every Fock factor, then g_k (el_op_k x x_k);
    a reference for the index-lookup assembly in ``models``, which shares
    none of its code.
    """
    couplings = _kron_couplings(model)
    per_mode = len(couplings) // len(model.modes)
    n_max = model.truncation.n_max
    dims = (2,) + (n_max,) * len(couplings)
    a = ladder(n_max).astype(np.complex128)
    x = a + a.conj().T
    num = np.diag(np.arange(n_max)).astype(np.complex128)
    p = model.electronic
    h_e = np.array([[p.eps1, p.j], [p.j, p.eps2]], dtype=np.float64)
    h = embed_matrix(h_e, 0, dims)
    for k in range(len(couplings)):
        omega = model.modes[k // per_mode].omega
        h += omega * embed_matrix(num, k + 1, dims)
    for k, (el_op, g) in enumerate(couplings):
        if g == 0.0:
            continue
        h += g * np.kron(el_op, embed_matrix(x, k, dims[1:]))
    return h

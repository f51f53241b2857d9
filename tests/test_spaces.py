import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from dimerbath.spaces import (
    HERMITICITY_RTOL,
    DensityMatrix,
    LayoutError,
    Operator,
    SpaceLayout,
    annihilation_matrix,
    commutator,
    embed,
    identity,
    number_matrix,
    partial_trace,
    partial_trace_matrix,
    permute_factors_matrix,
)


def test_annihilation_smallest_truncation():
    a = annihilation_matrix(2).matrix
    assert np.array_equal(a, [[0, 1], [0, 0]])


def test_annihilation_sqrt_entries():
    a = annihilation_matrix(3).matrix
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(np.sqrt(2), abs=1e-12)


def test_annihilation_rejects_small_truncation():
    with pytest.raises(ValueError):
        annihilation_matrix(1)


@pytest.mark.parametrize("n_max", [3, 4, 8])
def test_truncated_commutator_identity_below_top(n_max):
    a = annihilation_matrix(n_max)
    c = commutator(a, a.dagger()).matrix - np.eye(n_max)
    # the identity holds exactly except on the top truncated level
    p = n_max - 1
    assert np.abs(c[:p, :p]).max() < 1e-12


def test_layout_requires_electronic_first():
    from dimerbath.spaces import ELECTRONIC, FOCK, Factor

    with pytest.raises(LayoutError):
        SpaceLayout((Factor(FOCK, 3), Factor(ELECTRONIC, 2)))


def test_layout_dims():
    layout = SpaceLayout.exciton([3, 4])
    assert layout.dims == (2, 3, 4)
    assert layout.total_dim == 24


def test_embed_identity_is_identity():
    layout = SpaceLayout.exciton([3, 3])
    eye3 = Operator(SpaceLayout.single_fock(3), np.eye(3))
    assert np.array_equal(embed(eye3, 1, layout).matrix, np.eye(18))


def test_embed_distinct_factors_commute():
    layout = SpaceLayout.exciton([4, 4])
    a = annihilation_matrix(4)
    lhs = embed(a, 1, layout)
    rhs = embed(a.dagger(), 2, layout)
    assert np.abs(commutator(lhs, rhs).matrix).max() < 1e-13


def test_embed_trace_scales_with_other_dims():
    layout = SpaceLayout.exciton([3, 5])
    num = number_matrix(5)
    emb = embed(num, 2, layout)
    assert np.trace(emb.matrix) == pytest.approx(np.trace(num.matrix) * 6)


def test_embed_preserves_spectral_norm():
    rng = np.random.default_rng(7)
    layout = SpaceLayout.exciton([3, 4])
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = Operator(SpaceLayout.single_fock(4), m)
    assert np.linalg.norm(embed(op, 2, layout).matrix, 2) == pytest.approx(
        np.linalg.norm(m, 2), rel=1e-12)


def test_embed_dimension_mismatch():
    layout = SpaceLayout.exciton([3])
    with pytest.raises(LayoutError):
        embed(annihilation_matrix(4), 1, layout)
    with pytest.raises(LayoutError):
        embed(annihilation_matrix(3), 2, layout)


def test_partial_trace_product_state_marginal():
    rng = np.random.default_rng(1)
    layout = SpaceLayout.exciton([3])
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    rho = DensityMatrix(layout, np.kron(rho_a, rho_b))
    marg = partial_trace(rho, [0])
    assert np.abs(marg.matrix - rho_a).max() < 1e-13


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    layout = SpaceLayout.exciton([2])
    rho = DensityMatrix(layout, np.outer(psi, psi.conj()))
    for keep in ([0], [1]):
        marg = partial_trace(rho, keep)
        assert np.abs(marg.matrix - np.eye(2) / 2).max() < 1e-13


def test_partial_trace_empty_keep_rejected():
    rng = np.random.default_rng(2)
    rho = DensityMatrix(SpaceLayout.exciton([2]), random_density(4, rng))
    with pytest.raises(LayoutError):
        partial_trace(rho, [])
    with pytest.raises(LayoutError):
        partial_trace(rho, [5])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.exciton([2, 3])
    rho = DensityMatrix(layout, random_density(12, rng))
    reduced = partial_trace(rho, [0, 2])
    assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-13)
    assert reduced.min_eigenvalue() >= -1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sequential_trace_equals_joint(seed):
    rng = np.random.default_rng(seed)
    layout = SpaceLayout.exciton([2, 2, 3])
    rho = DensityMatrix(layout, random_density(24, rng))
    joint = partial_trace(rho, [0])
    seq = partial_trace(partial_trace(rho, [0, 1]), [0])
    assert np.abs(joint.matrix - seq.matrix).max() < 1e-13


def test_partial_trace_is_linear():
    rng = np.random.default_rng(3)
    dims = (2, 3)
    a = random_density(6, rng)
    b = random_density(6, rng)
    mixed = partial_trace_matrix(0.3 * a + 0.7 * b, dims, [0])
    parts = (0.3 * partial_trace_matrix(a, dims, [0])
             + 0.7 * partial_trace_matrix(b, dims, [0]))
    assert np.abs(mixed - parts).max() < 1e-14


def test_commutator_layout_mismatch():
    with pytest.raises(LayoutError):
        commutator(annihilation_matrix(3), annihilation_matrix(4))


def test_self_commutator_vanishes():
    layout = SpaceLayout.exciton([3])
    h = identity(layout)
    assert np.abs(commutator(h, h).matrix).max() == 0.0


def test_permute_factors_round_trip():
    rng = np.random.default_rng(4)
    dims = (2, 3, 4)
    rho = random_density(24, rng)
    perm = permute_factors_matrix(rho, dims, [2, 0, 1])
    back = permute_factors_matrix(perm, (4, 2, 3), [1, 2, 0])
    assert np.abs(back - rho).max() < 1e-15


def test_permute_factors_matches_kron_swap():
    rng = np.random.default_rng(5)
    a = random_density(2, rng)
    b = random_density(3, rng)
    swapped = permute_factors_matrix(np.kron(a, b), (2, 3), [1, 0])
    assert np.abs(swapped - np.kron(b, a)).max() < 1e-15


def test_density_matrix_validation():
    layout = SpaceLayout.electronic_only()
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityMatrix(layout, np.array([[0.5, 0.3], [0.1, 0.5]]))


def test_is_hermitian_accepts_hermitian_and_zero_rejects_perturbed():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = x + x.conj().T
    layout = SpaceLayout.exciton([3])
    assert Operator(layout, h).is_hermitian()
    assert Operator(layout, np.zeros((6, 6))).is_hermitian()
    h[2, 4] += 1e-6
    assert not Operator(layout, h).is_hermitian()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
       log_eps=st.one_of(st.none(), st.floats(-18.0, -8.0)))
def test_is_hermitian_implies_spectral_norm_bound(seed, dim, log_eps):
    # Hermitian matrices perturbed around the threshold, so both outcomes occur
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = x + x.conj().T
    if log_eps is not None:
        a = a + 10.0**log_eps * (rng.normal(size=(dim, dim))
                                 + 1j * rng.normal(size=(dim, dim)))
    if Operator(SpaceLayout.single_fock(dim), a).is_hermitian():
        assert (np.linalg.norm(a - a.conj().T, 2)
                <= HERMITICITY_RTOL * np.linalg.norm(a, 2))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_operator, embed_matrix, ladder, random_density
from dimerbath.models import Box
from dimerbath.spaces import (
    HERMITICITY_RTOL,
    DensityMatrix,
    LayoutError,
    Operator,
    SpaceLayout,
    eigenvalues_2x2,
    partial_trace_matrix,
    permute_factors_matrix,
)


@pytest.mark.parametrize("n_max", [3, 4, 8])
def test_truncated_commutator_identity_below_top(n_max):
    a = ladder(n_max)
    c = a @ a.conj().T - a.conj().T @ a - np.eye(n_max)
    # the identity holds exactly except on the top truncated level
    p = n_max - 1
    assert np.abs(c[:p, :p]).max() < 1e-12


def test_layout_dims():
    layout = SpaceLayout((2, 3, 4))
    assert layout.dims == (2, 3, 4)
    assert layout.total_dim == 24
    assert SpaceLayout.electronic_only().dims == (2,)


BOX_CASES = pytest.mark.parametrize(
    "n_fock,n_max", [(1, 2), (1, 5), (2, 3), (3, 2), (4, 3)])


@BOX_CASES
def test_occupation_basis_is_kron_order(n_fock, n_max):
    # row i holds the occupations that the kron-embedded number operators
    # of the bath factors give state i
    dims = (n_max,) * n_fock
    basis = Box(n_max).basis(n_fock)
    num = np.diag(np.arange(n_max))
    for k in range(n_fock):
        assert np.array_equal(basis[:, k], np.diag(embed_matrix(num, k, dims)).real)
    assert 2 * len(basis) == 2 * n_max ** n_fock


@BOX_CASES
def test_box_lookup_inverts_basis(n_fock, n_max):
    box = Box(n_max)
    assert np.array_equal(box.lookup(box.basis(n_fock)),
                          np.arange(n_max ** n_fock))


def test_embed_identity_is_identity():
    dims = (2, 3, 3)
    assert np.array_equal(embed_matrix(np.eye(3), 1, dims), np.eye(18))


def test_embed_distinct_factors_commute():
    dims = (2, 4, 4)
    a = ladder(4)
    lhs = embed_matrix(a, 1, dims)
    rhs = embed_matrix(a.conj().T, 2, dims)
    assert np.abs(lhs @ rhs - rhs @ lhs).max() < 1e-13


def test_embed_trace_scales_with_other_dims():
    dims = (2, 3, 5)
    num = np.diag(np.arange(5))
    emb = embed_matrix(num, 2, dims)
    assert np.trace(emb) == pytest.approx(np.trace(num) * 6)


def test_embed_preserves_spectral_norm():
    rng = np.random.default_rng(7)
    dims = (2, 3, 4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.linalg.norm(embed_matrix(m, 2, dims), 2) == pytest.approx(
        np.linalg.norm(m, 2), rel=1e-12)


def test_partial_trace_product_state_marginal():
    rng = np.random.default_rng(1)
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    marg = partial_trace_matrix(np.kron(rho_a, rho_b), (2, 3), [0])
    assert np.abs(marg - rho_a).max() < 1e-13


def test_partial_trace_bell_state():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    for keep in ([0], [1]):
        marg = partial_trace_matrix(rho, (2, 2), keep)
        assert np.abs(marg - np.eye(2) / 2).max() < 1e-13


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 2, 3)
    reduced = partial_trace_matrix(random_density(12, rng), dims, [0, 2])
    assert np.trace(reduced) == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.eigvalsh(reduced).min() >= -1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sequential_trace_equals_joint(seed):
    rng = np.random.default_rng(seed)
    dims = (2, 2, 2, 3)
    rho = random_density(24, rng)
    joint = partial_trace_matrix(rho, dims, [0])
    seq = partial_trace_matrix(partial_trace_matrix(rho, dims, [0, 1]),
                               dims[:2], [0])
    assert np.abs(joint - seq).max() < 1e-13


def test_partial_trace_is_linear():
    rng = np.random.default_rng(3)
    dims = (2, 3)
    a = random_density(6, rng)
    b = random_density(6, rng)
    mixed = partial_trace_matrix(0.3 * a + 0.7 * b, dims, [0])
    parts = (0.3 * partial_trace_matrix(a, dims, [0])
             + 0.7 * partial_trace_matrix(b, dims, [0]))
    assert np.abs(mixed - parts).max() < 1e-14


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    # NaN fails every comparison, so the trace and Hermiticity tests alone
    # would let it through
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(SpaceLayout.electronic_only(), [[bad, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("dims", [(3,), (2, 3)])
def test_density_matrix_is_electronic_only(dims):
    # a valid state of the layout's dimension: only the layout is wrong
    layout = SpaceLayout(dims)
    with pytest.raises(LayoutError,
                       match=r"electronic state has the layout \(2,\)"):
        DensityMatrix(layout, np.eye(layout.total_dim) / layout.total_dim)


@pytest.mark.parametrize("lowest", [-0.2, -2e-10])
def test_density_matrix_rejects_state_that_is_not_positive(lowest):
    # diag(1 - lowest, lowest): unit trace, Hermitian, one eigenvalue
    # below -POSITIVITY_TOL
    with pytest.raises(ValueError, match=(
            "electronic state is not positive semidefinite: smallest "
            f"eigenvalue {lowest:g}")):
        DensityMatrix(SpaceLayout.electronic_only(),
                      np.diag([1.0 - lowest, lowest]))


def test_density_matrix_positivity_tolerance():
    # float noise of a positive state: c = sqrt(p (1 - p)) + 5e-11 gives
    # the smallest eigenvalue -5e-11
    c = 0.5 + 5e-11
    DensityMatrix(SpaceLayout.electronic_only(), [[0.5, c], [c, 0.5]])


def test_is_hermitian_accepts_hermitian_and_zero_rejects_perturbed():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 6))
    h = x + x.T
    layout = SpaceLayout((2, 3))
    assert dense_operator(layout, h).is_hermitian()
    assert dense_operator(layout, np.zeros((6, 6))).is_hermitian()
    h[2, 4] += 1e-6
    assert not dense_operator(layout, h).is_hermitian()


def test_operator_keeps_every_entry_bit_for_bit():
    h = np.array([[1.5, -0.0, 0.0], [-0.0, 0.0, 2.0], [0.0, 2.0, -3.0]])
    op = dense_operator(SpaceLayout((3,)), h)
    assert op.values.size == 6
    assert op.matrix.tobytes() == h.tobytes()


def test_operator_sorts_and_checks_triplets():
    layout = SpaceLayout((3,))
    op = Operator(layout, [2, 0, 1], [1, 0, 2], [0.5, 1, 0.5])
    assert op.rows.tolist() == [0, 1, 2] and op.cols.tolist() == [0, 2, 1]
    assert op.values.dtype == np.float64 and not op.values.flags.writeable
    assert np.array_equal(op.matrix, [[1.0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]])
    assert op.is_hermitian()
    with pytest.raises(ValueError, match=r"entry \(0, 1\) is given twice"):
        Operator(layout, [0, 0], [1, 1], [1.0, 2.0])
    with pytest.raises(LayoutError, match="outside layout dim 3"):
        Operator(layout, [3], [0], [1.0])
    with pytest.raises(ValueError, match="must be real"):
        Operator(layout, [0], [0], [1j])
    with pytest.raises(ValueError, match="non-finite entry"):
        Operator(layout, [0], [0], [np.inf])


def test_lower_triangle_is_tril_and_gives_eigh_bit_for_bit():
    x = np.random.default_rng(5).normal(size=(9, 9))
    op = dense_operator(SpaceLayout((9,)), x + x.T)
    low = op.lower_triangle()
    assert np.array_equal(low, np.tril(op.matrix))
    assert not low.flags.writeable
    for a, b in zip(np.linalg.eigh(low), np.linalg.eigh(op.matrix)):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 12),
       log_eps=st.one_of(st.none(), st.floats(-18.0, -8.0)))
def test_is_hermitian_implies_spectral_norm_bound(seed, dim, log_eps):
    # real symmetric matrices perturbed around the threshold, so both
    # outcomes occur
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim))
    a = x + x.T
    if log_eps is not None:
        a = a + 10.0**log_eps * rng.normal(size=(dim, dim))
    if dense_operator(SpaceLayout((dim,)), a).is_hermitian():
        assert (np.linalg.norm(a - a.T, 2)
                <= HERMITICITY_RTOL * np.linalg.norm(a, 2))


@pytest.mark.parametrize("scale", [1.0, 1e-15])
def test_eigenvalues_2x2_match_eigvalsh(scale):
    # random Hermitian 2x2, not traceless, plus the zero matrix and a
    # traceless and a diagonal one
    rng, n = np.random.default_rng(17), 10000
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    s = np.concatenate([a + a.conj().transpose(0, 2, 1), np.zeros((1, 2, 2)),
                        [[[1.0, 2 - 1j], [2 + 1j, -1.0]]],
                        [np.diag([3.0, -2.0])]]) * scale
    low, high = eigenvalues_2x2(s)
    exact = np.linalg.eigvalsh(s)
    assert (low <= high).all()
    # both sides round: measured within 1.3e-15 of the largest entry
    tol = 4e-15 * np.abs(s).max(axis=(1, 2))
    assert (np.abs(low - exact[:, 0]) <= tol).all()
    assert (np.abs(high - exact[:, 1]) <= tol).all()
    # the trace norm, as equivalence.pointwise_distances takes it
    norm = np.abs(low) + np.abs(high)
    assert (np.abs(norm - np.abs(exact).sum(axis=1)) <= 2 * tol).all()
    assert norm[n] == 0.0

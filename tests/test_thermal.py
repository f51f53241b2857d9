import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimerbath.models import (
    DimensionCapError,
    MODEL_KINDS,
    ModeSpec,
    build,
    build_independent_local,
    build_shared_anticorrelated,
)
from dimerbath.spaces import (
    DensityMatrix,
    LayoutError,
    ProductState,
    SpaceLayout,
)
from dimerbath.thermal import (
    ThermalSpec,
    choose_truncation,
    gibbs_state,
    initial_state,
)

from conftest import thermal_occupation


class TestGibbsState:
    def test_ground_state_at_infinite_beta(self):
        p = gibbs_state(1.0, np.inf, 5)
        assert np.array_equal(p, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_diagonal_geometric_weights(self):
        # independent oracle: explicit normalized Boltzmann weights
        beta, omega, n = 0.7, 1.3, 8
        w = np.exp(-beta * omega * np.arange(n))
        p = gibbs_state(omega, beta, n)
        assert p.shape == (n,)
        assert np.abs(p - w / w.sum()).max() < 1e-15

    def test_trace_one(self):
        p = gibbs_state(2.0, 0.1, 12)
        assert p.sum() == pytest.approx(1.0, abs=1e-14)

    def test_high_temperature_approaches_uniform(self):
        p = gibbs_state(1.0, 1e-9, 4)
        assert p == pytest.approx([0.25] * 4, abs=1e-8)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            gibbs_state(1.0, -0.1, 4)


class TestThermalOccupation:
    def test_bose_einstein_value(self):
        # n(omega, beta) = 1 / (exp(beta omega) - 1)
        assert thermal_occupation(1.0, np.log(2.0)) == pytest.approx(1.0,
                                                                     abs=1e-12)

    def test_zero_at_infinite_beta(self):
        assert thermal_occupation(1.0, np.inf) == 0.0

    @given(omega=st.floats(0.1, 10.0), beta=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_matches_gibbs_expectation(self, omega, beta):
        n_max = choose_truncation(omega, ThermalSpec(beta, tail_tol=1e-14))
        mean_n = float(gibbs_state(omega, beta, n_max) @ np.arange(n_max))
        assert mean_n == pytest.approx(thermal_occupation(omega, beta),
                                       rel=1e-5, abs=1e-10)


class TestChooseTruncation:
    def test_reference_values(self):
        assert choose_truncation(1.0, ThermalSpec(beta=1.0, tail_tol=1e-8)) == 23
        assert choose_truncation(1.0, ThermalSpec(beta=np.inf)) == 4

    def test_colder_needs_fewer_levels(self):
        warm = choose_truncation(1.0, ThermalSpec(beta=0.5))
        cold = choose_truncation(1.0, ThermalSpec(beta=4.0))
        assert cold < warm

    @pytest.mark.parametrize("beta, omega", [
        (1e-300, 1e-10),  # -log(tail_tol) / (beta omega) overflows to inf
        (1e-300, 1e-300),  # beta omega underflows to 0
    ])
    def test_unbounded_level_count_is_resource_cap(self, beta, omega):
        with pytest.raises(DimensionCapError, match=(
                f"thermal truncation at beta 1e-300 and omega {omega:g} is "
                "unbounded")):
            choose_truncation(omega, ThermalSpec(beta))

    def test_tail_below_tolerance(self):
        spec = ThermalSpec(beta=0.8, tail_tol=1e-10)
        omega = 1.5
        n_max = choose_truncation(omega, spec)
        w = np.exp(-spec.beta * omega * np.arange(n_max + 200))
        p = w / w.sum()
        assert p[n_max:].sum() < spec.tail_tol


class TestInitialState:
    def test_shared_model_product_structure(self, params, mode, site1):
        model = build_shared_anticorrelated(params, [mode], 5)
        rho0 = initial_state(site1, model, ThermalSpec(beta=1.0))
        expected = np.kron(site1.matrix,
                           np.diag(gibbs_state(mode.omega, 1.0, 5)))
        assert np.abs(rho0.matrix - expected).max() < 1e-15

    def test_independent_model_uses_all_factor_frequencies(self, params, site1):
        modes = [ModeSpec(1.0, 0.1), ModeSpec(2.0, 0.2)]
        model = build_independent_local(params, modes, 3)
        rho0 = initial_state(site1, model, ThermalSpec(beta=0.5))
        expected = site1.matrix
        for omega in model.factor_frequencies:
            expected = np.kron(expected, np.diag(gibbs_state(omega, 0.5, 3)))
        assert np.abs(rho0.matrix - expected).max() < 1e-15

    def test_result_is_valid_density_matrix(self, params, mode, site1):
        model = build_shared_anticorrelated(params, [mode], 6)
        rho0 = initial_state(site1, model, ThermalSpec(beta=2.0))
        assert np.trace(rho0.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho0.matrix)[0] > -1e-14

    @pytest.mark.parametrize("name", sorted(MODEL_KINDS))
    @pytest.mark.parametrize("rho_e, dtype", [
        (np.diag([1.0, 0.0]), np.float64),  # site1
        (np.full((2, 2), 0.5), np.float64),  # plus
        # explicit states, stored complex only when rho12_im != 0
        (np.array([[0.6, 0.1 + 0j], [0.1 - 0j, 0.4]]), np.float64),
        (np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]), np.complex128),
    ])
    def test_real_matrices_are_stored_real(self, params, mode, name, rho_e,
                                           dtype):
        model = build(name, params, [mode], 3, alpha=0.3)
        assert model.hamiltonian.matrix.dtype == np.float64
        rho_e0 = DensityMatrix(SpaceLayout.electronic_only(), rho_e)
        rho0 = initial_state(rho_e0, model, ThermalSpec(beta=1.0))
        assert rho_e0.matrix.dtype == rho0.matrix.dtype == dtype

    def test_bath_weights_are_one_diagonal(self, params, site1):
        modes = [ModeSpec(1.0, 0.1), ModeSpec(2.0, 0.2)]
        model = build_independent_local(params, modes, 3)
        rho0 = initial_state(site1, model, ThermalSpec(beta=0.5))
        assert rho0.electronic is site1
        assert rho0.weights.shape == (model.layout.total_dim // 2,)
        assert np.array_equal(np.diag(rho0.weights), rho0.matrix[:81, :81])


class TestProductState:
    LAYOUT = SpaceLayout((2, 3, 3))  # 9 bath rows

    def test_matrix_is_kron_of_factors(self, site1):
        w = np.arange(1.0, 10.0) / 45.0
        state = ProductState(self.LAYOUT, site1, w)
        assert not state.weights.flags.writeable
        assert not state.matrix.flags.writeable
        assert np.array_equal(state.matrix, np.kron(site1.matrix, np.diag(w)))

    @pytest.mark.parametrize("weights, match", [
        (np.full(8, 1 / 8), r"shape \(8,\) do not match layout dim 18"),
        (np.full((3, 3), 1 / 9), r"shape \(3, 3\)"),
        (np.r_[-0.1, 0.2, np.full(7, 0.9 / 7)], "negative entry"),
        (np.r_[np.nan, np.full(8, 1 / 8)], "non-finite entry"),
        (np.r_[np.inf, np.full(8, 1 / 8)], "non-finite entry"),
        (np.full(9, 0.1), "sum to 0.9"),
        (np.full(9, (1.0 + 2e-9) / 9), "not 1"),
    ])
    def test_rejects_bad_weights(self, site1, weights, match):
        with pytest.raises(ValueError, match=match):
            ProductState(self.LAYOUT, site1, weights)

    @pytest.mark.parametrize("lowest", [-0.2, -2e-10])
    def test_rejects_electronic_state_that_is_not_positive(self, lowest):
        # diag(1 - lowest, lowest): unit trace, Hermitian, one eigenvalue
        # below -POSITIVITY_TOL
        rho_e = DensityMatrix(SpaceLayout.electronic_only(),
                              np.diag([1.0 - lowest, lowest]))
        with pytest.raises(ValueError, match=(
                "electronic state is not positive semidefinite: smallest "
                f"eigenvalue {lowest:g}")):
            ProductState(self.LAYOUT, rho_e, np.full(9, 1 / 9))

    def test_electronic_positivity_tolerance(self):
        # float noise of a positive state: c = sqrt(p (1 - p)) + 5e-11 gives
        # the smallest eigenvalue -5e-11
        c = 0.5 + 5e-11
        rho_e = DensityMatrix(SpaceLayout.electronic_only(),
                              [[0.5, c], [c, 0.5]])
        ProductState(self.LAYOUT, rho_e, np.full(9, 1 / 9))

    def test_weight_sum_tolerance(self, site1):
        w = np.full(9, (1.0 + 5e-10) / 9)
        assert ProductState(self.LAYOUT, site1, w).weights.sum() != 1.0

    @pytest.mark.parametrize("layout, rho_e", [
        # a qutrit electronic factor
        (SpaceLayout((3, 3)), DensityMatrix(SpaceLayout((3,)), np.eye(3) / 3)),
        # a 2x2 state on a layout whose first factor is not electronic
        (SpaceLayout((3, 6)), DensityMatrix(SpaceLayout((2,)), np.eye(2) / 2)),
    ])
    def test_rejects_non_2x2_electronic_factor(self, layout, rho_e):
        with pytest.raises(LayoutError, match="2x2 electronic factor"):
            ProductState(layout, rho_e, np.full(layout.total_dim // 2,
                                                2.0 / layout.total_dim))

    @pytest.mark.parametrize("rho_e, dtype", [
        (np.diag([1.0, 0.0]), np.float64),
        (np.array([[0.6, 0.1 + 0j], [0.1 - 0j, 0.4]]), np.float64),
        (np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]), np.complex128),
    ])
    def test_matrix_complex_exactly_when_electronic_is(self, rho_e, dtype):
        rho_e0 = DensityMatrix(SpaceLayout.electronic_only(), rho_e)
        state = ProductState(self.LAYOUT, rho_e0, np.full(9, 1 / 9))
        assert rho_e0.matrix.dtype == state.matrix.dtype == dtype

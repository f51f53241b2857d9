import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimerbath.dynamics import (
    ReducedTrajectory,
    SpectralPropagator,
    TimeGrid,
    evolve_reduced,
)
from dimerbath import models
from dimerbath.equivalence import (
    CONVERGENCE_TOL,
    coherence_vs_alpha,
    compare_ladder,
    compare_reduced,
    factorization_check,
    pointwise_distances,
    spectrum_equivalence,
)
from dimerbath.models import (
    DimensionCapError,
    ModeSpec,
    build_correlated_alpha,
    build_independent_local,
    build_reduced_effective,
    build_shared_anticorrelated,
    build_transformed,
)
from dimerbath.spaces import (
    DensityMatrix,
    ProductState,
    SpaceLayout,
    partial_trace_matrix,
)
from dimerbath.thermal import ThermalSpec, initial_state

from conftest import evolve, random_density

GROUND = ThermalSpec(beta=np.inf)
GRID = TimeGrid(t_max=20.0, n_steps=80)


def _density(matrix):
    layout = SpaceLayout.electronic_only()
    return DensityMatrix(layout, np.asarray(matrix, dtype=complex))


def _distance(rho, sigma) -> float:
    """pointwise_distances of the two-point trajectories (rho, rho), (sigma, sigma)."""
    grid = TimeGrid(t_max=1.0, n_steps=1)
    a, b = (ReducedTrajectory(grid, np.stack([m.matrix, m.matrix]))
            for m in (rho, sigma))
    d = pointwise_distances(a, b)
    assert d.shape == (2,) and d[0] == d[1]
    return float(d[0])


class TestTraceDistance:
    def test_identical_states(self, site1):
        assert _distance(site1, site1) == 0.0

    def test_orthogonal_pure_states(self, site1):
        site2 = _density([[0, 0], [0, 1]])
        assert _distance(site1, site2) == pytest.approx(1.0, abs=1e-14)

    def test_hand_computed_value(self):
        # rho - sigma = diag(0.2, -0.2), distance = 0.2
        rho = _density([[0.7, 0], [0, 0.3]])
        sigma = _density([[0.5, 0], [0, 0.5]])
        assert _distance(rho, sigma) == pytest.approx(0.2, abs=1e-14)

    @given(seed_a=st.integers(0, 10**6), seed_b=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms(self, seed_a, seed_b):
        a = _density(random_density(2, np.random.default_rng(seed_a)))
        b = _density(random_density(2, np.random.default_rng(seed_b)))
        d = _distance(a, b)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(_distance(b, a), abs=1e-14)


class TestCompareReduced:
    def test_model_against_itself_is_zero(self, params, mode, site1):
        model = build_shared_anticorrelated(params, [mode], 8)
        report = compare_reduced(model, model, site1, GROUND, GRID)
        assert report.max_distance == 0.0
        assert report.converged
        assert report.convergence_delta == 0.0

    def test_shared_vs_independent_ground_state(self, params, mode, site1):
        # the frozen scale at n_max = 8, beta = inf is a few times 1e-7
        shared = build_shared_anticorrelated(params, [mode], 8)
        indep = build_independent_local(params, [mode], 8)
        report = compare_reduced(shared, indep, site1, GROUND, GRID)
        assert report.max_distance < 5e-6
        assert report.per_time_distance.shape == (GRID.n_steps + 1,)
        assert report.per_time_distance[0] < 1e-14

    def test_correlated_alpha_vs_reduced_effective(self, params, mode, site1):
        corr = build_correlated_alpha(params, [mode], 8, 0.5)
        reduced = build_reduced_effective(params, [mode], 8, 0.5)
        report = compare_reduced(corr, reduced, site1, GROUND, GRID)
        assert report.max_distance < 5e-6

    def test_decoupled_alpha_one_matches_uncoupled(self, params, mode, site1):
        corr = build_correlated_alpha(params, [mode], 6, 1.0)
        bare = build_shared_anticorrelated(
            params, [ModeSpec(mode.omega, 0.0)], 6)
        report = compare_reduced(corr, bare, site1, GROUND, GRID)
        assert report.max_distance < 1e-10

    def test_cap_breach_on_rerun_reports_not_raises(self, params, mode, site1):
        shared = build_shared_anticorrelated(params, [mode], 8)
        indep = build_independent_local(params, [mode], 8)
        # independent rerun needs 2 * 10^2 = 200 > 150
        report = compare_reduced(shared, indep, site1, GROUND, GRID,
                                 dim_cap=150)
        assert not report.converged
        assert np.isnan(report.convergence_delta)
        assert np.isfinite(report.max_distance)

    def test_refinement_over_cap_is_one_rung_and_never_built(
            self, params, mode, site1, monkeypatch):
        shared = build_shared_anticorrelated(params, [mode], 8)
        indep = build_independent_local(params, [mode], 8)
        monkeypatch.setattr(models, "build",
                            lambda *args, **kw: pytest.fail("model built"))
        report = compare_reduced(shared, indep, site1, GROUND, GRID,
                                 dim_cap=150)
        assert report.n_max == (8,) and len(report.max_distances) == 1

    def test_electronic_mismatch_rejected(self, params, mode, site1):
        from dimerbath.models import ElectronicParams

        a = build_shared_anticorrelated(params, [mode], 4)
        b = build_shared_anticorrelated(ElectronicParams(0, 0, 0.5), [mode], 4)
        with pytest.raises(ValueError):
            compare_reduced(a, b, site1, GROUND, GRID)


class TestCompareLadder:
    def _pairs(self, params, mode, truncations):
        return [(build_shared_anticorrelated(params, [mode], n),
                 build_independent_local(params, [mode], n))
                for n in truncations]

    def test_one_rung_has_no_certificate(self, params, mode, site1):
        report = compare_ladder(self._pairs(params, mode, [4]), site1,
                                GROUND, GRID)
        assert report.n_max == (4,) and report.n_max_used == 4
        assert report.max_distance == report.per_time_distance.max() > 0
        assert math.isnan(report.convergence_delta)
        assert report.converged is False

    def test_compare_reduced_is_the_two_rung_ladder(self, params, mode,
                                                     site1):
        pairs = self._pairs(params, mode, [4, 6])
        ladder = compare_ladder(pairs, site1, GROUND, GRID)
        report = compare_reduced(*pairs[0], site1, GROUND, GRID)
        assert report.n_max == ladder.n_max == (4, 6)
        assert report.max_distances == ladder.max_distances
        d4, d6 = ladder.max_distances
        assert report.convergence_delta == abs(d6 - d4) > 0
        assert report.converged == (abs(d6 - d4) < CONVERGENCE_TOL)
        assert np.array_equal(report.per_time_distance,
                              ladder.per_time_distance)
        assert np.array_equal(report.trajectory_a.states,
                              ladder.trajectory_a.states)

    def test_three_rungs_certify_the_two_finest(self, params, mode, site1):
        report = compare_ladder(self._pairs(params, mode, [4, 6, 8]), site1,
                                GROUND, GRID)
        d4, d6, d8 = report.max_distances
        assert report.max_distance == d4
        assert report.convergence_delta == abs(d8 - d6)


class TestPointwiseDistances:
    def test_shapes_and_zero_diagonal(self, params, mode, site1):
        model = build_shared_anticorrelated(params, [mode], 6)
        rho0 = initial_state(site1, model, GROUND)
        traj = evolve_reduced(model, rho0, GRID)
        d = pointwise_distances(traj, traj)
        assert d.shape == (GRID.n_steps + 1,)
        assert np.abs(d).max() == 0.0


class TestSpectrumEquivalence:
    def test_identical_models(self, params, mode):
        m = build_shared_anticorrelated(params, [mode], 6)
        assert spectrum_equivalence(m, m, lowest_fraction=1.0) == 0.0

    def test_independent_vs_transformed_decreases_with_truncation(
            self, params, mode):
        values = []
        for n in (6, 8, 10):
            indep = build_independent_local(params, [mode], n)
            trans = build_transformed(params, [mode], n)
            values.append(spectrum_equivalence(indep, trans))
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-3

    def test_dimension_mismatch_rejected(self, params, mode):
        a = build_shared_anticorrelated(params, [mode], 4)
        b = build_independent_local(params, [mode], 4)
        with pytest.raises(ValueError):
            spectrum_equivalence(a, b)

    def test_fraction_validation(self, params, mode):
        m = build_shared_anticorrelated(params, [mode], 4)
        with pytest.raises(ValueError):
            spectrum_equivalence(m, m, lowest_fraction=0.0)


class TestFactorizationCheck:
    def test_transformed_state_stays_factorized(self, params, mode, site1):
        model = build_transformed(params, [mode], 5)
        rho0 = initial_state(site1, model, ThermalSpec(beta=1.0, tail_tol=1e-4))
        defect = factorization_check(model, rho0, GRID)
        assert defect.max() < 1e-10

    def test_shared_model_has_no_com_partition(self, params, mode, site1):
        model = build_shared_anticorrelated(params, [mode], 5)
        rho0 = initial_state(site1, model, GROUND)
        with pytest.raises(ValueError):
            factorization_check(model, rho0, GRID)

    @pytest.mark.parametrize("rho_e", [
        np.diag([1.0, 0.0]),  # site1
        np.diag([0.0, 1.0]),  # site2
        np.full((2, 2), 0.5),  # plus
        # a complex pure state, as `explicit` gives
        np.outer([0.6, 0.8j], [0.6, -0.8j]),
        # mixed, of rank 2
        np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]]),
    ], ids=["site1", "site2", "plus", "explicit", "mixed"])
    @pytest.mark.parametrize("correlated_bath", [False, True])
    def test_product_state_matches_dense_reference(self, params, mode, rho_e,
                                                   correlated_bath):
        model = build_transformed(params, [mode], 4)
        rho0 = initial_state(_density(rho_e), model,
                             ThermalSpec(beta=1.0, tail_tol=1e-4))
        if correlated_bath:
            # bath weights that are no product of relative and center-of-mass
            # factors: the state is not factorized, so the defect is large
            w = np.random.default_rng(3).random(rho0.weights.size)
            rho0 = ProductState(model.layout, rho0.electronic, w / w.sum())
        defect = factorization_check(model, rho0, GRID)
        prop = SpectralPropagator(model)
        for k in (0, 1, 40, 80):
            reference = _direct_defect(prop, rho0, GRID.points[k])
            assert abs(defect[k] - reference) < 1e-12
        if correlated_bath:
            assert defect.min() > 1e-3
        else:
            assert defect.max() < 1e-12

    def test_dense_initial_state_never_formed(self, params, mode, monkeypatch):
        def dense(state):
            pytest.fail("the dense rho0 was formed")

        model = build_transformed(params, [mode], 4)
        rho0 = initial_state(_density(np.full((2, 2), 0.5)), model,
                             ThermalSpec(beta=1.0))
        monkeypatch.setattr(ProductState, "matrix", property(dense))
        assert factorization_check(model, rho0, GRID).max() < 1e-12

    def test_layout_mismatch_rejected(self, params, mode, site1):
        # (2, 16) and (2, 4, 4) have the same total dimension
        shared = build_shared_anticorrelated(params, [mode], 16)
        rho0 = initial_state(site1, shared, GROUND)
        model = build_transformed(params, [mode], 4)
        assert rho0.layout.total_dim == model.layout.total_dim
        with pytest.raises(ValueError, match="rho0 layout does not match"):
            factorization_check(model, rho0, GRID)


def _direct_defect(prop, rho0, t: float) -> float:
    """T(rho(t), rho_rest(t) x rho_B(t)) of a one-mode transformed model from
    the dense rho0, propagated by two dense products."""
    dims = prop.model.layout.dims
    rho_t = evolve(prop, rho0, t)
    product = np.kron(partial_trace_matrix(rho_t, dims, [0, 1]),
                      partial_trace_matrix(rho_t, dims, [2]))
    return 0.5 * np.abs(np.linalg.eigvalsh(rho_t - product)).sum()


class TestCoherenceVsAlpha:
    def test_monotone_couplings_and_shapes(self, params, mode, site1):
        alphas = [-0.5, 0.0, 0.5, 1.0]
        result = coherence_vs_alpha(params, [mode], GROUND, GRID, alphas,
                                    n_max=6, rho_e0=site1)
        assert result.alphas == (-0.5, 0.0, 0.5, 1.0)
        assert result.effective_couplings.shape == (4, 1)
        assert result.coherence.shape == (4, GRID.n_steps + 1)
        assert len(result.trajectories) == 4
        assert result.couplings_strictly_decreasing()

    def test_alpha_one_row_matches_uncoupled_dimer(self, params, mode, site1):
        result = coherence_vs_alpha(params, [mode], GROUND, GRID, [1.0],
                                    n_max=6, rho_e0=site1)
        bare = build_shared_anticorrelated(
            params, [ModeSpec(mode.omega, 0.0)], 6)
        rho0 = initial_state(site1, bare, GROUND)
        traj = evolve_reduced(bare, rho0, GRID)
        assert result.coherence[0] == pytest.approx(np.abs(traj.rho12),
                                                    abs=1e-12)

    def test_unsorted_alphas_rejected(self, params, mode, site1):
        with pytest.raises(ValueError):
            coherence_vs_alpha(params, [mode], GROUND, GRID, [0.5, 0.0],
                               n_max=4, rho_e0=site1)

    def test_default_build_is_capped(self, params, mode, site1):
        # 2 * 65^2 states, over the default cap of 4096
        with pytest.raises(DimensionCapError, match="over cap 4096"):
            coherence_vs_alpha(params, [mode, mode], GROUND, GRID, [0.5],
                               n_max=65, rho_e0=site1)

    def test_dim_cap_is_honoured(self, params, mode, site1):
        # 2 * 5^2 = 50 states, over a cap of 40
        with pytest.raises(DimensionCapError, match="over cap 40"):
            coherence_vs_alpha(params, [mode, mode], GROUND, GRID, [0.5],
                               n_max=5, rho_e0=site1, dim_cap=40)

    def test_zero_coupling_modes_never_decrease(self, params, site1):
        result = coherence_vs_alpha(params, [ModeSpec(1.0, 0.0)], GROUND,
                                    GRID, [0.0, 0.5], n_max=4, rho_e0=site1)
        assert result.couplings_strictly_decreasing()

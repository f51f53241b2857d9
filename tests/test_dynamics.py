import numpy as np
import pytest

from dimerbath import dynamics
from dimerbath.dynamics import (
    DimensionCapError,
    ReducedTrajectory,
    SpectralPropagator,
    TimeGrid,
    expectation,
)
from dimerbath.models import (
    ElectronicParams,
    ModeSpec,
    build_shared_anticorrelated,
)
from dimerbath.spaces import DensityMatrix, Operator, partial_trace_matrix
from dimerbath.thermal import ThermalSpec, initial_state


@pytest.fixture()
def small_model(params, mode):
    return build_shared_anticorrelated(params, [mode], 6)


@pytest.fixture()
def rho0(small_model, site1):
    return initial_state(site1, small_model, ThermalSpec(beta=1.0))


class TestTimeGrid:
    def test_points_include_endpoints(self):
        grid = TimeGrid(t_max=5.0, n_steps=10)
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 5.0
        assert len(grid.points) == 11

    def test_uniform_spacing(self):
        grid = TimeGrid(t_max=2.0, n_steps=8)
        assert np.diff(grid.points) == pytest.approx([0.25] * 8, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            TimeGrid(t_max=-1.0, n_steps=10)
        with pytest.raises(ValueError):
            TimeGrid(t_max=1.0, n_steps=0)


class TestUnitary:
    def test_identity_at_time_zero(self, small_model):
        prop = SpectralPropagator(small_model)
        u = prop.unitary(0.0)
        assert np.abs(u - np.eye(u.shape[0])).max() < 1e-12

    def test_unitarity(self, small_model):
        prop = SpectralPropagator(small_model)
        u = prop.unitary(3.7)
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10

    def test_group_property(self, small_model):
        prop = SpectralPropagator(small_model)
        composed = prop.unitary(1.1) @ prop.unitary(2.3)
        assert np.abs(composed - prop.unitary(3.4)).max() < 1e-10

    def test_dimension_cap(self, small_model):
        with pytest.raises(DimensionCapError):
            SpectralPropagator(small_model, dim_cap=4)


class TestEvolve:
    def test_preserves_trace_and_positivity(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        rho_t = prop.evolve(rho0, 4.0)
        assert np.trace(rho_t.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert rho_t.min_eigenvalue() > -1e-12

    def test_purity_invariant(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        before = rho0.purity()
        after = prop.evolve(rho0, 6.0).purity()
        assert after == pytest.approx(before, abs=1e-11)

    def test_energy_conserved(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        h = small_model.hamiltonian.matrix
        e0 = np.einsum("ij,ji->", h, rho0.matrix).real
        e1 = np.einsum("ij,ji->", h, prop.evolve(rho0, 8.0).matrix).real
        assert e1 == pytest.approx(e0, rel=1e-9, abs=1e-12)


class TestReducedTrajectory:
    def test_matches_direct_evolution(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        grid = TimeGrid(t_max=5.0, n_steps=20)
        traj = prop.reduced_trajectory(rho0, grid)
        for k in (0, 7, 20):
            full = prop.evolve(rho0, grid.points[k]).matrix
            direct = partial_trace_matrix(full, small_model.layout.dims, [0])
            assert np.abs(traj.states[k] - direct).max() < 1e-11

    def test_chunked_grid_matches_one_chunk(self, small_model, rho0,
                                            monkeypatch):
        prop = SpectralPropagator(small_model)
        grid = TimeGrid(t_max=12.0, n_steps=40)
        whole = prop.reduced_trajectory(rho0, grid).states
        dim = small_model.layout.total_dim
        monkeypatch.setattr(dynamics, "PHASE_CHUNK_ELEMENTS", 7 * dim)
        chunked = prop.reduced_trajectory(rho0, grid)
        assert np.abs(chunked.states - whole).max() < 1e-15
        for k in (0, 6, 7, 20, 40):  # chunk edges and interiors
            full = prop.evolve(rho0, grid.points[k]).matrix
            direct = partial_trace_matrix(full, small_model.layout.dims, [0])
            assert np.abs(chunked.states[k] - direct).max() < 1e-12

    def test_lower_coherence_is_exact_conjugate(self, small_model, rho0):
        traj = SpectralPropagator(small_model).reduced_trajectory(
            rho0, TimeGrid(t_max=9.0, n_steps=30))
        assert np.array_equal(traj.states[:, 1, 0],
                              traj.states[:, 0, 1].conj())

    def test_initial_state_recovered(self, small_model, rho0, site1):
        prop = SpectralPropagator(small_model)
        grid = TimeGrid(t_max=1.0, n_steps=4)
        traj = prop.reduced_trajectory(rho0, grid)
        assert np.abs(traj.states[0] - site1.matrix).max() < 1e-12

    def test_rabi_oscillation_without_coupling(self, site1):
        # g = 0, eps1 = eps2: pop_site1(t) = cos^2(j t), exactly solvable
        p = ElectronicParams(0.0, 0.0, 0.4)
        model = build_shared_anticorrelated(p, [ModeSpec(1.0, 0.0)], 4)
        rho0 = initial_state(site1, model, ThermalSpec(beta=1.0))
        grid = TimeGrid(t_max=10.0, n_steps=100)
        traj = SpectralPropagator(model).reduced_trajectory(rho0, grid)
        assert traj.rho11 == pytest.approx(np.cos(0.4 * grid.points) ** 2,
                                           abs=1e-9)

    def test_populations_frozen_without_hopping(self, site1):
        # j = 0: the exciton cannot move, populations stay put at any coupling
        p = ElectronicParams(0.3, -0.3, 0.0)
        model = build_shared_anticorrelated(p, [ModeSpec(1.0, 0.4)], 12)
        rho0 = initial_state(site1, model, ThermalSpec(beta=1.0))
        grid = TimeGrid(t_max=20.0, n_steps=50)
        traj = SpectralPropagator(model).reduced_trajectory(rho0, grid)
        assert traj.rho11 == pytest.approx(np.ones(51), abs=1e-10)

    def test_trace_exactly_one(self, small_model, rho0):
        grid = TimeGrid(t_max=10.0, n_steps=30)
        traj = SpectralPropagator(small_model).reduced_trajectory(rho0, grid)
        sums = traj.rho11 + traj.rho22
        assert np.abs(sums - 1.0).max() < 1e-14

    def test_coherence_bound(self, small_model, rho0):
        grid = TimeGrid(t_max=15.0, n_steps=60)
        traj = SpectralPropagator(small_model).reduced_trajectory(rho0, grid)
        bound = np.sqrt(traj.rho11 * traj.rho22)
        assert (np.abs(traj.rho12) <= bound + 1e-10).all()

    def test_state_at_returns_density_matrix(self, small_model, rho0):
        grid = TimeGrid(t_max=2.0, n_steps=4)
        traj = SpectralPropagator(small_model).reduced_trajectory(rho0, grid)
        state = traj.state_at(2)
        assert isinstance(state, DensityMatrix)
        assert state.matrix.shape == (2, 2)

    def test_rejects_malformed_states(self):
        grid = TimeGrid(t_max=1.0, n_steps=1)
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[:, 0, 0] = 0.7  # trace 0.7, not 1
        with pytest.raises(ValueError):
            ReducedTrajectory(grid, bad)


class TestExpectation:
    def test_number_operator_grows_from_thermal_seed(self, site1):
        p = ElectronicParams(0.5, -0.5, 0.5)
        model = build_shared_anticorrelated(p, [ModeSpec(1.0, 0.3)], 14)
        prop = SpectralPropagator(model)
        rho0 = initial_state(site1, model, ThermalSpec(beta=np.inf))
        num = Operator(model.layout, np.kron(
            np.eye(2), np.diag(np.arange(14.0))).astype(complex))
        n0 = expectation(num, rho0).real
        nt = expectation(num, prop.evolve(rho0, 3.0)).real
        assert n0 == pytest.approx(0.0, abs=1e-13)
        assert nt > 1e-4

    def test_hermitian_observable_real(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        val = expectation(small_model.hamiltonian, prop.evolve(rho0, 2.0))
        assert abs(val.imag) < 1e-12

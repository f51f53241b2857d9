
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_operator, evolve, random_density, unitary
from dimerbath import dynamics
from dimerbath.dynamics import (
    ReducedTrajectory,
    SpectralPropagator,
    TimeGrid,
    TrajectoryError,
    evolve_reduced,
)
from dimerbath.equivalence import compare_reduced
from dimerbath.models import (
    MODEL_KINDS,
    DimensionCapError,
    ElectronicParams,
    ModeSpec,
    build,
    build_correlated_alpha,
    build_independent_local,
    build_shared_anticorrelated,
)
from dimerbath.spaces import (
    DensityMatrix,
    ProductState,
    SpaceLayout,
    eigenvalues_2x2,
    partial_trace_matrix,
)
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
        # an infinite t_max gave the points [nan, inf, inf, ...]
        for t_max in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                TimeGrid(t_max=t_max, n_steps=10)

    def test_point_count_capped(self):
        cap = dynamics.MAX_GRID_POINTS
        assert TimeGrid(t_max=1.0, n_steps=cap - 1).n_steps == cap - 1
        with pytest.raises(DimensionCapError, match=(
                f"evolution.n_steps {cap} gives {cap + 1} time points, "
                f"over cap {cap}")):
            TimeGrid(t_max=1.0, n_steps=cap)

    def test_points_built_once_and_read_only(self):
        grid = TimeGrid(t_max=5.0, n_steps=10)
        assert grid.points is grid.points
        assert not grid.points.flags.writeable
        with pytest.raises(ValueError):
            grid.points[0] = 1.0
        # the cached array is no field: equality and hash are unchanged
        fresh = TimeGrid(t_max=5.0, n_steps=10)
        assert grid == fresh and hash(grid) == hash(fresh)


class TestRealPath:
    @pytest.mark.parametrize("name", sorted(MODEL_KINDS))
    def test_eigenvectors_are_real(self, params, mode, name):
        model = build(name, params, [mode], 3, alpha=0.3,
                      coupling_scale=np.sqrt(2.0))
        assert SpectralPropagator(model).eigenvectors.dtype == np.float64

    def test_complex_hamiltonian_rejected(self, small_model):
        # i (|1><2| - |2><1|) x identity is Hermitian but not real
        h = small_model.hamiltonian.matrix + 1e-3j * np.kron(
            [[0.0, 1.0], [-1.0, 0.0]], np.eye(small_model.box.n_max))
        with pytest.raises(ValueError, match="Hamiltonian must be real"):
            dense_operator(small_model.layout, h)


class TestUnitary:
    def test_identity_at_time_zero(self, small_model):
        prop = SpectralPropagator(small_model)
        u = unitary(prop, 0.0)
        assert np.abs(u - np.eye(u.shape[0])).max() < 1e-12

    def test_unitarity(self, small_model):
        prop = SpectralPropagator(small_model)
        u = unitary(prop, 3.7)
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10

    def test_group_property(self, small_model):
        prop = SpectralPropagator(small_model)
        composed = unitary(prop, 1.1) @ unitary(prop, 2.3)
        assert np.abs(composed - unitary(prop, 3.4)).max() < 1e-10


class TestEvolve:
    def test_preserves_trace_and_positivity(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        rho_t = evolve(prop, rho0, 4.0)
        assert np.abs(rho_t - rho_t.conj().T).max() < 1e-12
        assert np.trace(rho_t).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho_t)[0] > -1e-12

    def test_purity_invariant(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        rho_t = evolve(prop, rho0, 6.0)
        before = np.einsum("ij,ji->", rho0.matrix, rho0.matrix).real
        after = np.einsum("ij,ji->", rho_t, rho_t).real
        assert after == pytest.approx(before, abs=1e-11)

    def test_energy_conserved(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        h = small_model.hamiltonian.matrix
        e0 = np.einsum("ij,ji->", h, rho0.matrix).real
        e1 = np.einsum("ij,ji->", h, evolve(prop, rho0, 8.0)).real
        assert e1 == pytest.approx(e0, rel=1e-9, abs=1e-12)


class TestReducedTrajectory:
    def test_matches_direct_evolution(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        grid = TimeGrid(t_max=5.0, n_steps=20)
        traj = prop.reduced_trajectory(rho0, grid)
        for k in (0, 7, 20):
            full = evolve(prop, rho0, grid.points[k])
            direct = partial_trace_matrix(full, small_model.layout.dims, [0])
            assert np.abs(traj.states[k] - direct).max() < 1e-11

    def test_chunked_grid_matches_one_chunk(self, small_model, rho0,
                                            monkeypatch):
        prop = SpectralPropagator(small_model)
        grid = TimeGrid(t_max=12.0, n_steps=40)
        whole = prop.reduced_trajectory(rho0, grid).states
        dim = small_model.layout.total_dim
        # chunks of dim = 12 points, the least a chunk takes
        monkeypatch.setattr(dynamics, "PHASE_CHUNK_ELEMENTS", dim * dim)
        chunked = prop.reduced_trajectory(rho0, grid)
        assert np.abs(chunked.states - whole).max() < 1e-15
        for k in (0, 11, 12, 20, 24, 40):  # chunk edges and interiors
            full = evolve(prop, rho0, grid.points[k])
            direct = partial_trace_matrix(full, small_model.layout.dims, [0])
            assert np.abs(chunked.states[k] - direct).max() < 1e-12

    @pytest.mark.parametrize("complex_state", [False, True])
    def test_chunked_grid_from_fft_min_dim(self, params, mode, monkeypatch,
                                           complex_state):
        # a shared model at dim FFT_MIN_DIM, real and complex rho_e, on a
        # grid of three chunks of dim points: each chunk forms W again
        model = build_shared_anticorrelated(params, [mode], 25)
        dim = model.layout.total_dim
        assert dim == dynamics.FFT_MIN_DIM
        rho_e0 = (random_density(2, np.random.default_rng(7)) if complex_state
                  else np.diag([1.0, 0.0]))
        rho0 = initial_state(DensityMatrix(SpaceLayout.electronic_only(),
                                           rho_e0), model, ThermalSpec(1.0))
        prop = SpectralPropagator(model)
        grid = TimeGrid(t_max=36.0, n_steps=120)
        whole = prop.reduced_trajectory(rho0, grid).states
        monkeypatch.setattr(dynamics, "PHASE_CHUNK_ELEMENTS", dim * dim)
        chunked = prop.reduced_trajectory(rho0, grid).states
        assert np.abs(chunked - whole).max() < 1e-15
        for k in (0, 49, 50, 80, 99, 100, 120):  # chunk edges and interiors
            full = evolve(prop, rho0, grid.points[k])
            direct = partial_trace_matrix(full, model.layout.dims, [0])
            assert np.abs(chunked[k] - direct).max() < 1e-12

    def test_complex_initial_state_matches_direct_evolution(
            self, params, mode, monkeypatch):
        # Im rho_e0 != 0 runs the imaginary half of rt0 through the kernel
        rho_e0 = random_density(2, np.random.default_rng(7))
        assert abs(rho_e0[0, 1].imag) > 0.05
        model = build_independent_local(params, [mode], 4)
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(), rho_e0), model,
            ThermalSpec(beta=1.0))
        prop = SpectralPropagator(model)
        grid = TimeGrid(t_max=12.0, n_steps=40)
        # chunks of dim = 32 points, the least a chunk takes
        dim = model.layout.total_dim
        monkeypatch.setattr(dynamics, "PHASE_CHUNK_ELEMENTS", dim * dim)
        traj = prop.reduced_trajectory(rho0, grid)
        for k in (0, 20, 31, 32, 40):  # chunk edges and interiors
            full = evolve(prop, rho0, grid.points[k])
            direct = partial_trace_matrix(full, model.layout.dims, [0])
            assert np.abs(traj.states[k] - direct).max() < 1e-12

    @pytest.mark.parametrize("fft", [False, True])
    def test_ground_state_bath_matches_direct_evolution(
            self, params, mode, monkeypatch, fft):
        # at beta = inf one bath weight of 16 is nonzero, and only its rows
        # of V enter rt0 and the factor; a complex rho_e0 of rank 2 runs
        # both halves of rt0
        if fft:
            force_fft(monkeypatch)
        rho_e0 = random_density(2, np.random.default_rng(7))
        model = build_independent_local(params, [mode], 4)
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(), rho_e0), model,
            ThermalSpec(beta=np.inf))
        assert np.count_nonzero(rho0.weights) == 1
        prop = SpectralPropagator(model)
        assert prop.factor(rho0).shape == (model.layout.total_dim, 2)
        grid = TimeGrid(t_max=12.0, n_steps=40)
        traj = prop.reduced_trajectory(rho0, grid)
        for k in (0, 7, 20, 40):
            full = evolve(prop, rho0, grid.points[k])
            direct = partial_trace_matrix(full, model.layout.dims, [0])
            assert np.abs(traj.states[k] - direct).max() < 1e-12

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

    @pytest.mark.parametrize("omega, g", [(1.0, 0.2), (0.8, 0.3)])
    def test_pure_dephasing_matches_closed_form(self, omega, g):
        # ground-state bath: the sites displace the shared mode by -+g/omega
        model = build_shared_anticorrelated(DEPHASING, [ModeSpec(omega, g)],
                                            16)
        exact = independent_boson_rho12(np.inf, [(omega, g, 1.0, -1.0)])
        rho12 = dephasing_rho12(model, np.inf)
        assert np.abs(rho12 - exact).max() < 1e-12
        # rho12 = <1|rho|2>: the conjugate phase is far off
        assert np.abs(rho12 - exact.conj()).max() > 0.5

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

    def test_rejects_malformed_states(self):
        grid = TimeGrid(t_max=1.0, n_steps=1)
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[:, 0, 0] = 0.7  # trace 0.7, not 1
        with pytest.raises(ValueError):
            ReducedTrajectory(grid, bad)

    @pytest.mark.parametrize("state, check", [
        ([[np.nan, 0.0], [0.0, 1.0]], "non-finite value"),
        ([[1.0, 1e-6], [1e-6, 0.0]], "coherence bound violated"),
        # |s01 - s10*| = 2e-12 off the diagonal, 2 |Im s_ii| = 2e-12 on it
        ([[0.5, 0.1 + 1e-12j], [0.1 + 1e-12j, 0.5]], "not Hermitian"),
        ([[0.5 + 1e-12j, 0.0], [0.0, 0.5 - 1e-12j]], "not Hermitian"),
    ])
    def test_rejects_invalid_state_at_its_time(self, state, check):
        # the first point is valid, so the message must name t = 2
        grid = TimeGrid(t_max=2.0, n_steps=1)
        states = np.array([np.diag([1.0, 0.0]), state], dtype=complex)
        with pytest.raises(TrajectoryError, match=f"{check} at t=2$"):
            ReducedTrajectory(grid, states)

    def test_clean_up_is_hermitian_part_at_unit_trace(self):
        # states within the checks' tolerances come out as (s + s^H) / 2
        # with the trace defect split over the diagonal, and the input
        # array is left as it was
        rng, n = np.random.default_rng(5), 1000
        grid = TimeGrid(t_max=1.0, n_steps=n - 1)
        p1 = rng.uniform(0.2, 0.8, n)
        c = 0.3 * np.sqrt(p1 * (1.0 - p1)) * np.exp(2j * np.pi * rng.random(n))
        s = np.empty((n, 2, 2), dtype=complex)
        s[:, 0, 0], s[:, 1, 1] = p1, 1.0 - p1
        s[:, 0, 1], s[:, 1, 0] = c, c.conj()
        noise = rng.random((n, 2, 2)) + 1j * rng.random((n, 2, 2))
        s += 4e-13 * (noise - 0.5 - 0.5j)
        given = s.copy()
        traj = ReducedTrajectory(grid, s)
        assert np.array_equal(s, given)
        expected = 0.5 * (s + s.conj().transpose(0, 2, 1))
        fix = (np.einsum("kii->k", expected).real - 1.0) / 2.0
        expected[:, 0, 0] -= fix
        expected[:, 1, 1] -= fix
        assert np.array_equal(traj.states, expected)
        assert np.array_equal(traj.states[:, 1, 0], traj.states[:, 0, 1].conj())

    def test_lowest_eigenvalue_closed_form(self):
        # Hermitian, unit trace, not necessarily positive
        rng, n = np.random.default_rng(11), 10000
        p1 = rng.uniform(-0.5, 1.5, n)
        c = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.random(n))
        s = np.empty((n, 2, 2), dtype=complex)
        s[:, 0, 0], s[:, 1, 1] = p1, 1.0 - p1
        s[:, 0, 1], s[:, 1, 0] = c, c.conj()
        exact = np.linalg.eigvalsh(s).min(axis=1)
        assert np.abs(eigenvalues_2x2(s)[0] - exact).max() < 1e-15

    def test_positivity_threshold(self):
        # [[1/2, c], [c, 1/2]] has the eigenvalues 1/2 + c and 1/2 - c; the
        # states at t = 1 and t = 2 are the same, so t = 1 must be named
        grid = TimeGrid(t_max=2.0, n_steps=2)

        def states(lowest):
            c = 0.5 - lowest
            return np.array([np.diag([1.0, 0.0])] + 2 * [[[0.5, c], [c, 0.5]]],
                            dtype=complex)

        ReducedTrajectory(grid, states(-5e-11))
        with pytest.raises(TrajectoryError,
                           match="not positive semidefinite at t=1$"):
            ReducedTrajectory(grid, states(-2e-10))

    def test_trace_defect_of_propagator_rejected(self, small_model):
        # eigenvectors off unit norm by 1e-6 scale rt0, and so its trace
        # and rho_e[0,0] + rho_e[1,1], by (1 + 1e-6)^2; a mixed state keeps
        # the populations positive after any clean-up. Taking rho_e[1,1]
        # as 1 - rho_e[0,0] would hide the defect
        mixed = DensityMatrix(SpaceLayout.electronic_only(),
                              np.diag([0.6, 0.4]).astype(complex))
        rho0 = initial_state(mixed, small_model, ThermalSpec(beta=1.0))
        prop = SpectralPropagator(small_model)
        prop.eigenvectors = prop.eigenvectors * (1.0 + 1e-6)
        with pytest.raises(TrajectoryError, match="off unit trace at t=0$"):
            prop.reduced_trajectory(rho0, TimeGrid(t_max=1.0, n_steps=4))

    def test_trace_defect_of_propagator_rejected_by_fft_kernel(
            self, small_model, monkeypatch):
        force_fft(monkeypatch)
        self.test_trace_defect_of_propagator_rejected(small_model)

    @pytest.mark.parametrize("complex_state", [False, True])
    @pytest.mark.parametrize("chunk_points, chunks", [(None, 1), (7, 6)])
    def test_two_weight_matrices_per_half(self, small_model, monkeypatch,
                                          complex_state, chunk_points, chunks):
        # rho_e[1,1] comes from the trace: W_00 and W_01 per half of rt0,
        # each contracted once per chunk of the 71-point grid. A chunk
        # takes at least dim = 12 points, so 7 points a chunk give 6 chunks
        calls = []
        kernel = dynamics._phase_sum
        monkeypatch.setattr(dynamics, "_phase_sum",
                            lambda *args: calls.append(1) or kernel(*args))
        if chunk_points:
            monkeypatch.setattr(dynamics, "PHASE_CHUNK_ELEMENTS",
                                chunk_points * small_model.layout.total_dim)
        rho_e0 = (random_density(2, np.random.default_rng(7)) if complex_state
                  else np.diag([1.0, 0.0]))
        rho0 = initial_state(DensityMatrix(SpaceLayout.electronic_only(),
                                           rho_e0), small_model,
                             ThermalSpec(1.0))
        SpectralPropagator(small_model).reduced_trajectory(
            rho0, TimeGrid(t_max=21.0, n_steps=70))
        assert len(calls) == (4 if complex_state else 2) * chunks

    @pytest.mark.parametrize("complex_state", [False, True])
    @pytest.mark.parametrize("chunk_points, formed, rows", [
        # one chunk: phases formed once, each W in blocks of 5, 5 and 2 rows
        (None, [71], [5, 5, 2]),
        # 6 chunks of at least dim points: each chunk's phases formed once,
        # and each W in blocks of 5, 5 and 2 rows against them
        (7, [12, 12, 12, 12, 12, 11], [5, 5, 2])])
    def test_phases_per_chunk_and_row_blocks(
            self, small_model, monkeypatch, complex_state, chunk_points,
            formed, rows):
        prop = SpectralPropagator(small_model)
        dim = small_model.layout.total_dim
        assert dim == 12
        monkeypatch.setattr(dynamics, "ROW_BLOCK", 5)
        if chunk_points:
            monkeypatch.setattr(dynamics, "PHASE_CHUNK_ELEMENTS",
                                chunk_points * dim)
        phases, sums = [], []
        kernel, form = dynamics._phase_sum, prop.phases
        monkeypatch.setattr(dynamics, "_phase_sum",
                            lambda w, *args: sums.append(w.shape[0])
                            or kernel(w, *args))
        monkeypatch.setattr(prop, "phases",
                            lambda t: phases.append(len(t)) or form(t))
        rho_e0 = (random_density(2, np.random.default_rng(7)) if complex_state
                  else np.diag([1.0, 0.0]))
        rho0 = initial_state(DensityMatrix(SpaceLayout.electronic_only(),
                                           rho_e0), small_model,
                             ThermalSpec(1.0))
        prop.reduced_trajectory(rho0, TimeGrid(t_max=21.0, n_steps=70))
        n_w = 4 if complex_state else 2  # W_00 and W_01 per half of rt0
        assert phases == formed
        assert sums == rows * n_w * len(formed)

    @pytest.mark.parametrize("complex_state", [False, True])
    def test_row_blocks_match_one_block(self, params, mode, monkeypatch,
                                        complex_state):
        # blocks of 7 rows at dim 32 add the sums in another order than
        # one block of all rows, within a few ulps
        model = build_independent_local(params, [mode], 4)
        rho_e0 = (random_density(2, np.random.default_rng(7)) if complex_state
                  else np.diag([1.0, 0.0]))
        rho0 = initial_state(DensityMatrix(SpaceLayout.electronic_only(),
                                           rho_e0), model, ThermalSpec(1.0))
        prop = SpectralPropagator(model)
        grid = TimeGrid(t_max=12.0, n_steps=60)
        runs = []
        for height in (7, model.layout.total_dim):
            monkeypatch.setattr(dynamics, "ROW_BLOCK", height)
            runs.append(prop.reduced_trajectory(rho0, grid).states)
        assert np.abs(runs[0] - runs[1]).max() < 1e-14

    def test_phase_rounding_gate(self, small_model, rho0, monkeypatch):
        # finite phases off by eps max|L| t: the largest t within the gate,
        # then 1 % past it, rejected before any rt0 is formed
        prop = SpectralPropagator(small_model)
        t = dynamics.PHASE_ROUNDING_TOL / (np.finfo(float).eps
                                           * np.abs(prop.eigenvalues).max())
        prop.phases(0.99 * t)
        with pytest.raises(TrajectoryError, match="phase rounding"):
            prop.phases(1.01 * t)
        monkeypatch.setattr(prop, "factor",
                            lambda *args: pytest.fail("rt0 formed"))
        with pytest.raises(TrajectoryError, match="the phases lack precision"):
            prop.reduced_trajectory(rho0, TimeGrid(t_max=1.01 * t, n_steps=20))


FACTOR_STATES = [
    (np.diag([1.0, 0.0]), 1),
    (np.diag([0.0, 1.0]), 1),
    (np.full((2, 2), 0.5), 1),
    (np.eye(2) / 2, 2),  # degenerate: no eigenvector is preferred
    (np.outer([0.6, 0.8j], [0.6, -0.8j]), 1),
    (np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]]), 2),
]


class TestFactor:
    @pytest.mark.parametrize("rho_e, rank", FACTOR_STATES)
    def test_product_state_factor_gives_rotated_state(self, params, mode,
                                                      rho_e, rank,
                                                      beta=1.0):
        model = build("independent", params, [mode], 4)
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(), rho_e), model,
            ThermalSpec(beta=beta))
        prop = SpectralPropagator(model)
        g = prop.factor(rho0)
        v = prop.eigenvectors
        dim = model.layout.total_dim
        # one column per kept eigenvalue of rho_e and nonzero bath weight
        assert g.shape == (dim, rank * np.count_nonzero(rho0.weights))
        assert np.iscomplexobj(g) == np.iscomplexobj(rho0.electronic.matrix)
        np.testing.assert_allclose(g @ g.conj().T, v.T @ rho0.matrix @ v,
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rho_e, rank", FACTOR_STATES)
    def test_ground_state_bath_factor(self, params, mode, rho_e, rank):
        # a ground-state bath has one nonzero weight: one column per kept
        # eigenvalue of rho_e
        self.test_product_state_factor_gives_rotated_state(
            params, mode, rho_e, rank, beta=np.inf)

    @pytest.mark.parametrize("fft", [False, True])
    @pytest.mark.parametrize("beta", [1.0, np.inf])
    @pytest.mark.parametrize("rho_e, rank", FACTOR_STATES)
    def test_trajectory_from_factor_matches_direct_evolution(
            self, params, mode, monkeypatch, rho_e, rank, beta, fft):
        # rt0 = G G^H from the factor, for every kind of rho_e, on both
        # kernels
        if fft:
            force_fft(monkeypatch)
        model = build("independent", params, [mode], 4)
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(), rho_e), model,
            ThermalSpec(beta=beta))
        prop = SpectralPropagator(model)
        grid = TimeGrid(t_max=12.0, n_steps=40)
        traj = prop.reduced_trajectory(rho0, grid)
        for k, t in enumerate(grid.points):
            direct = partial_trace_matrix(evolve(prop, rho0, t),
                                          model.layout.dims, [0])
            assert np.abs(traj.states[k] - direct).max() < 1e-12

    @pytest.mark.parametrize("rho_e, rank", FACTOR_STATES)
    def test_reduced_trajectory_takes_rt0_from_one_factor(
            self, small_model, monkeypatch, rho_e, rank):
        # one factor per trajectory, and halves of rt0 that are exactly
        # symmetric and antisymmetric, as the FFT kernel needs
        calls, halves = [], []
        factor = SpectralPropagator.factor
        weights = dynamics._weights

        def recording(v, rt0, *args):
            if not any(rt0 is h for h in halves):
                halves.append(rt0)
            return weights(v, rt0, *args)

        monkeypatch.setattr(SpectralPropagator, "factor",
                            lambda self, rho0: calls.append(1)
                            or factor(self, rho0))
        monkeypatch.setattr(dynamics, "_weights", recording)
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(), rho_e), small_model,
            ThermalSpec(beta=1.0))
        SpectralPropagator(small_model).reduced_trajectory(
            rho0, TimeGrid(t_max=12.0, n_steps=40))
        assert len(calls) == 1
        assert len(halves) == (2 if np.iscomplexobj(rho_e) else 1)
        assert np.array_equal(halves[0], halves[0].T)
        for im in halves[1:]:
            assert np.array_equal(im, -im.T)


class TestWorkingSet:
    @pytest.mark.parametrize("rho_e, halves", [
        (np.diag([1.0, 0.0]), 1),  # site1
        (np.full((2, 2), 0.5), 1),  # plus
        (np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]), 2),
    ])
    def test_reduced_trajectory_peak(self, params, mode, rho_e, halves):
        # dim 392 on 301 points: one chunk, so the phases are formed once.
        # 3.73 dim^2 measured for a real rho_e, 4.73 for a complex one; a
        # whole W would take 4.34 and 5.34. The set-up before the kernel
        # peaks at 1.5 dim^2 for site1 and plus (G and rt0) and at 4.0 for
        # the complex rank-2 state: G (2 dim^2) and its copy
        # [Re G | Im G], then that copy, Re rt0 and A = Im G Re G^T, the
        # copy freed before Im rt0 = A - A^T
        self.check_gemm_peak(params, mode, rho_e, halves,
                             TimeGrid(t_max=30.0, n_steps=300), 301)

    @pytest.mark.parametrize("rho_e, halves", [
        (np.diag([1.0, 0.0]), 1),
        (np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]), 2),
    ], ids=["site1", "complex"])
    def test_chunked_grid_peak(self, params, mode, monkeypatch, rho_e,
                               halves):
        # dim 392 on 1201 points in chunks of dim points (392, 392, 392
        # and 25): each chunk's phases are formed once and freed before the
        # next chunk's, and W is contracted against them in row blocks.
        # 4.40 dim^2 measured for site1 and 5.39 for the complex state;
        # each W whole, with each chunk's phases formed once per W, would
        # take 6.07 and 7.07
        monkeypatch.setattr(dynamics, "PHASE_CHUNK_ELEMENTS", 392 ** 2)
        self.check_gemm_peak(params, mode, rho_e, halves,
                             TimeGrid(t_max=120.0, n_steps=1200), 392)

    @staticmethod
    def check_gemm_peak(params, mode, rho_e, halves, grid, chunk):
        """The traced peak of one GEMM-kernel trajectory at dim 392, whose
        chunks have at most ``chunk`` points, within its working set."""
        model = build("independent", params, [mode], 14)
        dim = model.layout.total_dim
        step = max(dynamics.PHASE_CHUNK_ELEMENTS, dim * dim) // dim
        assert dim == 392 and min(step, grid.n_steps + 1) == chunk
        assert grid.n_steps + 1 < dynamics.FFT_MIN_POINTS
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(), rho_e), model,
            ThermalSpec(beta=1.0))
        prop = SpectralPropagator(model)
        grid.points  # cached before tracing
        tracemalloc.start()
        try:
            prop.reduced_trajectory(rho0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the kernel holds one real dim^2 matrix per half of rt0, one
        # chunk's phases (cos and sin, dim x chunk each) and, of the weight
        # matrix W, one block of h = min(ROW_BLOCK, dim) rows and its
        # h x chunk product. A quarter dim^2 is spare
        h = min(dynamics.ROW_BLOCK, dim)
        bound = ((halves + 0.25) * dim ** 2 + h * (dim + chunk)
                 + 2 * dim * chunk) * 8
        assert peak < bound

    @pytest.mark.parametrize("rho_e, bound", [
        (np.diag([1.0, 0.0]), 4.7),
        (np.full((2, 2), 0.5), 4.7),
        (np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]]), 6.2),
    ], ids=["site1", "plus", "complex"])
    def test_fft_kernel_peak(self, params, mode, rho_e, bound):
        # dim 392 on 20001 points takes the FFT kernel. It builds the rows
        # of the weights over pairs m < n (dim^2 / 2 each, three per half of
        # rt0) from blocks of PAIR_BLOCK rows, frees rt0 and adds each
        # Taylor term into the states. Its peak is in those terms: the rows,
        # the pairs' bins and offsets (dim^2), the states (1.04 dim^2) and
        # one FFT grid's work: 4.49, 4.49 and 5.99 dim^2 measured, 6.11,
        # 6.11 and 8.38 with W whole
        model = build("independent", params, [mode], 14)
        dim = model.layout.total_dim
        grid = TimeGrid(t_max=200.0, n_steps=20000)
        assert grid.n_steps + 1 >= dynamics.FFT_MIN_POINTS
        assert dim >= dynamics.FFT_MIN_DIM
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(), rho_e),
            model, ThermalSpec(beta=1.0))
        prop = SpectralPropagator(model)
        # a first call fills numpy's FFT plan cache (0.1 dim^2), which
        # later calls reuse
        prop.reduced_trajectory(rho0, grid)
        tracemalloc.start()
        try:
            prop.reduced_trajectory(rho0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * dim ** 2 * 8

    def test_clean_up_peak(self):
        # ReducedTrajectory keeps one 64-byte copy per point and cleans it in
        # place: 96 bytes a point measured at 10^5 points; a symmetrization
        # through (n_points, 2, 2) temporaries peaks at 128
        n = 100_001
        grid = TimeGrid(t_max=10.0, n_steps=n - 1)
        t = grid.points
        states = np.zeros((n, 2, 2), dtype=complex)
        states[:, 0, 0], states[:, 1, 1] = np.cos(t) ** 2, np.sin(t) ** 2
        states[:, 0, 1] = 0.5j * np.sin(2.0 * t)
        states[:, 1, 0] = states[:, 0, 1].conj()
        tracemalloc.start()
        try:
            ReducedTrajectory(grid, states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * n

    @pytest.mark.parametrize("fft", [False, True])
    def test_dense_initial_state_never_formed(self, params, mode, monkeypatch,
                                              fft):
        def dense(state):
            pytest.fail("the dense rho0 was formed")

        if fft:
            force_fft(monkeypatch)
        monkeypatch.setattr(ProductState, "matrix", property(dense))
        rho_e0 = DensityMatrix(SpaceLayout.electronic_only(),
                               random_density(2, np.random.default_rng(7)))
        spec = ThermalSpec(beta=1.0)
        grid = TimeGrid(t_max=10.0, n_steps=40)
        shared = build("shared", params, [mode], 4)
        evolve_reduced(shared, initial_state(rho_e0, shared, spec), grid)
        report = compare_reduced(shared, build("independent", params, [mode], 4),
                                 rho_e0, spec, grid)
        assert len(report.max_distances) == 2


DEPHASING = ElectronicParams(0.25, -0.25, 0.0)  # j = 0: pure dephasing
DEPHASING_GRID = TimeGrid(t_max=50.0, n_steps=200)


def independent_boson_rho12(beta: float, factors) -> np.ndarray:
    """rho12(t) on DEPHASING_GRID of the plus state under DEPHASING.

    Each Fock factor (omega, g, c1, c2) couples as g (c1 |1><1| + c2 |2><2|)
    (a + a^dag) to a mode of frequency omega in a Gibbs state at beta. The
    independent-boson closed form, with d = (c1 - c2) g / omega, is
    rho12(t) = rho12(0) e^{-i (eps1 - eps2) t}
               prod_k exp(-d^2 coth(beta omega / 2) (1 - cos omega t))
                 exp(i (c1^2 - c2^2) (g / omega)^2 (omega t - sin omega t)).
    """
    t = DEPHASING_GRID.points
    log = -1j * (DEPHASING.eps1 - DEPHASING.eps2) * t
    for omega, g, c1, c2 in factors:
        d = (c1 - c2) * g / omega
        coth = 1.0 / np.tanh(0.5 * beta * omega)  # 1 at beta = inf
        log = (log - d**2 * coth * (1.0 - np.cos(omega * t))
               + 1j * (c1**2 - c2**2) * (g / omega)**2
               * (omega * t - np.sin(omega * t)))
    return 0.5 * np.exp(log)


def dephasing_rho12(model, beta: float) -> np.ndarray:
    """rho12(t) of the model from the plus state on DEPHASING_GRID."""
    plus = DensityMatrix(SpaceLayout.electronic_only(), np.full((2, 2), 0.5))
    rho0 = initial_state(plus, model, ThermalSpec(beta))
    return SpectralPropagator(model).reduced_trajectory(
        rho0, DEPHASING_GRID).rho12


class TestThermalDephasing:
    """Thermal baths at j = 0 against ``independent_boson_rho12``: the error
    must shrink from the coarse to the fine truncation and meet a tolerance
    at the fine one, and the conjugate closed form stays far off."""

    @staticmethod
    def check(coarse, fine, beta, factors, tol):
        exact = independent_boson_rho12(beta, factors)
        rho12 = [dephasing_rho12(m, beta) for m in (coarse, fine)]
        errors = [np.abs(r - exact).max() for r in rho12]
        assert errors[1] < errors[0]
        assert errors[1] < tol
        assert np.abs(rho12[1] - exact.conj()).max() > 0.5

    # measured at n_max 24 -> 32: 2.0e-9 -> 1.1e-12, 8.8e-7 -> 4.7e-9 and
    # 2.7e-7 -> 2.0e-9
    @pytest.mark.parametrize("omega, g, beta, tol", [
        (1.0, 0.2, 1.0, 1e-11), (0.8, 0.3, 1.0, 1e-8), (1.3, 0.1, 0.5, 1e-8)])
    def test_shared_mode(self, omega, g, beta, tol):
        mode = [ModeSpec(omega, g)]
        self.check(*(build_shared_anticorrelated(DEPHASING, mode, n)
                     for n in (24, 32)),
                   beta, [(omega, g, 1.0, -1.0)], tol)

    # measured at n_max 16 -> 20: 2.4e-6 to 2.6e-6 -> 5.2e-8 to 5.6e-8
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.3])
    def test_correlated_mode(self, mode, alpha):
        self.check(*(build_correlated_alpha(DEPHASING, [mode], n, alpha)
                     for n in (16, 20)),
                   1.0, [(mode.omega, mode.g, 1.0, alpha),
                         (mode.omega, mode.g, alpha, 1.0)], 1e-7)

    # measured at n_max 16 -> 20: 8.8e-6 -> 2.5e-7
    def test_independent_mode(self, mode):
        s = np.sqrt(2.0)
        self.check(*(build_independent_local(DEPHASING, [mode], n, s)
                     for n in (16, 20)),
                   1.0, [(mode.omega, mode.g, s, 0.0),
                         (mode.omega, mode.g, 0.0, s)], 5e-7)

    # two thermal modes on one shared model, the closed form a product over
    # both; measured at n_max 20 -> 24: 1.03e-6 -> 4.55e-8
    def test_two_shared_modes(self):
        modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, 0.1)]
        self.check(*(build_shared_anticorrelated(DEPHASING, modes, n)
                     for n in (20, 24)),
                   1.0, [(m.omega, m.g, 1.0, -1.0) for m in modes], 1e-7)

    # n_max 40: the Gibbs tail exp(-beta omega n_max) is at most 2.7e-14;
    # the largest error, at the corner (0.8, 0.3, 1), is 1.3e-11
    @settings(max_examples=30, deadline=None)
    @given(omega=st.floats(0.8, 1.5), g=st.floats(0.0, 0.3),
           beta=st.floats(1.0, 5.0))
    def test_shared_mode_property(self, omega, g, beta):
        model = build_shared_anticorrelated(DEPHASING, [ModeSpec(omega, g)],
                                            40)
        exact = independent_boson_rho12(beta, [(omega, g, 1.0, -1.0)])
        assert np.abs(dephasing_rho12(model, beta) - exact).max() < 5e-11


def force_fft(monkeypatch):
    """Send every grid at every dim to the FFT kernel."""
    monkeypatch.setattr(dynamics, "FFT_MIN_POINTS", 1)
    monkeypatch.setattr(dynamics, "FFT_MIN_DIM", 1)


def both_kernels(prop, rho0, grid, monkeypatch):
    """(GEMM, FFT) reduced trajectories, each path forced by the thresholds."""
    monkeypatch.setattr(dynamics, "FFT_MIN_POINTS", grid.n_steps + 2)
    gemm = prop.reduced_trajectory(rho0, grid)
    force_fft(monkeypatch)
    return gemm, prop.reduced_trajectory(rho0, grid)


class TestFFTKernel:
    @pytest.mark.parametrize("name, n_max", [
        ("shared", 4), ("independent", 6), ("independent", 14)])
    @pytest.mark.parametrize("beta", [1.0, np.inf])
    @pytest.mark.parametrize("complex_state", [False, True])
    def test_matches_gemm_kernel(self, params, mode, monkeypatch, name, n_max,
                                 beta, complex_state):
        # dims 8, 72 and 392
        rho_e0 = (random_density(2, np.random.default_rng(7)) if complex_state
                  else np.diag([1.0, 0.0]))
        model = build(name, params, [mode], n_max)
        rho0 = initial_state(DensityMatrix(SpaceLayout.electronic_only(),
                                           rho_e0), model, ThermalSpec(beta))
        assert np.iscomplexobj(rho0.matrix) == complex_state
        gemm, fft = both_kernels(SpectralPropagator(model), rho0,
                                 TimeGrid(t_max=40.0, n_steps=300),
                                 monkeypatch)
        assert np.abs(fft.states - gemm.states).max() < 1e-12

    @pytest.mark.parametrize("name, n_max", [
        ("shared", 4), ("independent", 6), ("independent", 14)])
    @pytest.mark.parametrize("beta", [1.0, np.inf])
    @pytest.mark.parametrize("complex_state", [False, True])
    def test_matches_gemm_kernel_in_small_pair_blocks(
            self, params, mode, monkeypatch, name, n_max, beta,
            complex_state):
        # blocks of 5 rows: dims 8, 72 and 392 take 2, 15 and 79 blocks,
        # the last of 3, 2 and 2 rows
        monkeypatch.setattr(dynamics, "PAIR_BLOCK", 5)
        self.test_matches_gemm_kernel(params, mode, monkeypatch, name, n_max,
                                      beta, complex_state)

    @pytest.mark.parametrize("n_points, m", [
        (2048, 2048),  # M = n_points: the upper half is mirrored
        (2049, 4096),  # n_points = M / 2 + 1: no mirrored half
        (3000, 4096)])  # mirrored half again
    def test_power_of_two_grid(self, params, mode, monkeypatch, n_points, m):
        sizes = set()
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft",
                            lambda a: sizes.add(a.size) or rfft(a))
        model = build("independent", params, [mode], 6)
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(),
                          random_density(2, np.random.default_rng(5))),
            model, ThermalSpec(beta=1.0))
        gemm, fft = both_kernels(SpectralPropagator(model), rho0,
                                 TimeGrid(t_max=0.1 * n_points,
                                          n_steps=n_points - 1),
                                 monkeypatch)
        assert sizes == {m}
        assert np.abs(fft.states - gemm.states).max() < 1e-12

    def test_phase_angles_near_1e4(self, params, mode, monkeypatch):
        model = build("independent", params, [mode], 6)
        rho0 = initial_state(
            DensityMatrix(SpaceLayout.electronic_only(),
                          random_density(2, np.random.default_rng(3))),
            model, ThermalSpec(beta=1.0))
        prop = SpectralPropagator(model)
        grid = TimeGrid(t_max=1000.0, n_steps=700)
        spread = prop.eigenvalues.max() - prop.eigenvalues.min()
        assert 5e3 < spread * grid.t_max < 5e4
        gemm, fft = both_kernels(prop, rho0, grid, monkeypatch)
        assert np.abs(fft.states - gemm.states).max() < 1e-12

    def test_degenerate_spectrum(self, params, site1, monkeypatch):
        # g = 0: two equal local modes make (n1, n2) and (n2, n1) degenerate
        model = build_independent_local(params, [ModeSpec(1.0, 0.0)], 5)
        rho0 = initial_state(site1, model, ThermalSpec(beta=1.0))
        prop = SpectralPropagator(model)
        gaps = np.abs(np.subtract.outer(prop.eigenvalues, prop.eigenvalues))
        assert (gaps < 1e-12).sum() > 2 * model.layout.total_dim
        gemm, fft = both_kernels(prop, rho0, TimeGrid(t_max=30.0, n_steps=200),
                                 monkeypatch)
        assert np.abs(fft.states - gemm.states).max() < 1e-12

    @pytest.mark.parametrize("dim, fft", [(4, False), (50, True)])
    def test_dispatch_on_dim_and_grid_length(self, params, site1, monkeypatch,
                                             dim, fft):
        # past FFT_MIN_POINTS, dim 4 stays on the chunked kernel and dim 50,
        # FFT_MIN_DIM, takes the FFT kernel
        calls = []
        kernel = dynamics._uniform_phase_sums
        monkeypatch.setattr(dynamics, "_uniform_phase_sums",
                            lambda *args: calls.append(1) or kernel(*args))
        model = build_shared_anticorrelated(params, [ModeSpec(1.0, 0.2)],
                                            dim // 2)
        assert model.layout.total_dim == dim
        rho0 = initial_state(site1, model, ThermalSpec(beta=1.0))
        grid = TimeGrid(t_max=400.0, n_steps=4095)
        assert grid.n_steps + 1 >= dynamics.FFT_MIN_POINTS
        SpectralPropagator(model).reduced_trajectory(rho0, grid)
        assert calls == ([1] if fft else [])

    @pytest.mark.parametrize("complex_state, n_rows", [(False, 3), (True, 6)])
    def test_rows_per_weight_matrix(self, small_model, monkeypatch,
                                    complex_state, n_rows):
        # one row for rho_e[0,0] and two for rho_e[0,1] per half of rt0; no
        # row for rho_e[1,1], which comes from the trace
        force_fft(monkeypatch)
        counts = []
        kernel = dynamics._uniform_phase_sums
        monkeypatch.setattr(dynamics, "_uniform_phase_sums",
                            lambda rows, *args: counts.append(len(rows))
                            or kernel(rows, *args))
        rho_e0 = (random_density(2, np.random.default_rng(7)) if complex_state
                  else np.diag([1.0, 0.0]))
        rho0 = initial_state(DensityMatrix(SpaceLayout.electronic_only(),
                                           rho_e0), small_model,
                             ThermalSpec(1.0))
        SpectralPropagator(small_model).reduced_trajectory(
            rho0, TimeGrid(t_max=12.0, n_steps=40))
        assert counts == [n_rows]

    def test_matches_direct_evolution(self, small_model, rho0, monkeypatch):
        force_fft(monkeypatch)
        prop = SpectralPropagator(small_model)
        grid = TimeGrid(t_max=25.0, n_steps=250)
        traj = prop.reduced_trajectory(rho0, grid)
        for k in (0, 125, 250):
            full = evolve(prop, rho0, grid.points[k])
            direct = partial_trace_matrix(full, small_model.layout.dims, [0])
            assert np.abs(traj.states[k] - direct).max() < 1e-12

    def test_overflowing_phases_rejected(self, params, site1, monkeypatch):
        force_fft(monkeypatch)
        model = build_shared_anticorrelated(params, [ModeSpec(1.0, 1e308)], 4)
        rho0 = initial_state(site1, model, ThermalSpec(beta=np.inf))
        monkeypatch.setattr(dynamics, "_uniform_phase_sums",
                            lambda *args: pytest.fail("phases formed"))
        with pytest.raises(TrajectoryError, match="the phases overflow"):
            SpectralPropagator(model).reduced_trajectory(
                rho0, TimeGrid(t_max=10.0, n_steps=20))


class TestExpectation:
    def test_number_operator_grows_from_thermal_seed(self, site1):
        p = ElectronicParams(0.5, -0.5, 0.5)
        model = build_shared_anticorrelated(p, [ModeSpec(1.0, 0.3)], 14)
        prop = SpectralPropagator(model)
        rho0 = initial_state(site1, model, ThermalSpec(beta=np.inf))
        num = np.kron(np.eye(2), np.diag(np.arange(14.0)))
        n0 = np.einsum("ij,ji->", num, rho0.matrix).real
        nt = np.einsum("ij,ji->", num, evolve(prop, rho0, 3.0)).real
        assert n0 == pytest.approx(0.0, abs=1e-13)
        assert nt > 1e-4

    def test_hermitian_observable_real(self, small_model, rho0):
        prop = SpectralPropagator(small_model)
        val = np.einsum("ij,ji->", small_model.hamiltonian.matrix,
                        evolve(prop, rho0, 2.0))
        assert abs(val.imag) < 1e-12

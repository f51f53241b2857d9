import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_operator, embed_matrix, kron_hamiltonian
from dimerbath import models
from dimerbath.models import (
    DimensionCapError,
    ElectronicParams,
    ModeSpec,
    build_correlated_alpha,
    build_independent_local,
    build_reduced_effective,
    build_shared_anticorrelated,
    build_transformed,
    effective_coupling,
    ohmic_drude_modes,
)
from dimerbath.spaces import HERMITICITY_RTOL, Operator, SpaceLayout

SQRT2 = np.sqrt(2.0)


KIND_ARGS = [("shared", {}), ("independent", {}),
             ("independent", {"coupling_scale": -0.6}), ("transformed", {}),
             ("correlated", {"alpha": -0.4}), ("correlated", {"alpha": 0.0}),
             ("reduced_effective", {"alpha": 0.3})]


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


class TestKronReference:
    """The index-lookup assembly equals the kron-embedded sum bit for bit."""

    @pytest.mark.parametrize("name,extra", KIND_ARGS)
    @pytest.mark.parametrize("n_modes,n_max", [(1, 2), (1, 3), (1, 5),
                                               (2, 2), (2, 3), (2, 4)])
    def test_bit_identical(self, params, name, extra, n_modes, n_max):
        modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, -0.1)][:n_modes]
        model = models.build(name, params, modes, n_max, **extra)
        reference = kron_hamiltonian(model)
        assert not reference.imag.any()
        assert _bitwise_equal(model.hamiltonian.matrix, reference.real)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(models.MODEL_KINDS)),
           modes=st.lists(st.tuples(st.floats(0.05, 5.0),
                                    st.one_of(st.just(0.0),
                                              st.floats(-2.0, 2.0))),
                          min_size=1, max_size=2),
           n_max=st.integers(2, 4),
           alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(-1.5, 1.5)),
           scale=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))
    def test_bit_identical_random_parameters(self, name, modes, n_max, alpha,
                                             scale):
        params = ElectronicParams(0.25, -0.25, 0.5)
        modes = [ModeSpec(w, g) for w, g in modes]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # |alpha| > 1
            model = models.build(name, params, modes, n_max, alpha, scale)
        reference = kron_hamiltonian(model)
        assert not reference.imag.any()
        assert _bitwise_equal(model.hamiltonian.matrix, reference.real)


class TestTriplets:
    def test_built_model_holds_no_dense_hamiltonian(self, params):
        # pair_2mode's independent model: 4 Fock factors at 5 levels, dim
        # 1250, whose dense H alone would take 12.5 MB
        modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, 0.1)]
        tracemalloc.start()
        try:
            model = models.build("independent", params, modes, 5)
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            # the check a SpectralPropagator repeats forms no dense array
            assert model.hamiltonian.is_hermitian()
            checked = tracemalloc.get_traced_memory()[1] - kept
        finally:
            tracemalloc.stop()
        assert model.layout.total_dim == 1250
        assert kept < 1 << 20 and checked < 1 << 20
        a, b = model.hamiltonian.matrix, model.hamiltonian.matrix
        assert not np.shares_memory(a, b)
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable

    def test_lower_triangle_takes_no_huge_pages(self, params):
        # the same model's tril(H) sits in a zeroed 25 MB buffer with 6 rows
        # written; in 2 MiB huge pages those rows grew VmRSS by 4 to 6 MiB,
        # and in a shared mapping the read of every entry by 19.6 MB
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("no /proc/self/status to read VmRSS from")

        def vm_rss():
            line = next(line for line in status.read_text().splitlines()
                        if line.startswith("VmRSS:"))
            return int(line.split()[1]) * 1024

        modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, 0.1)]
        h = models.build("independent", params, modes, 5).hamiltonian
        # numpy's private switch, where it has one, advises huge pages for
        # its own allocations; the buffer is numpy's in no numpy version
        for core in ("_core", "core"):
            multiarray = getattr(getattr(np, core, None), "multiarray", None)
            switch = getattr(multiarray, "_set_madvise_hugepage", None)
            if switch is not None:
                break
        advised = switch(True) if switch else None
        try:
            before = vm_rss()
            low = h.lower_triangle()
            low.sum()  # reads every entry, as eigh's copy does
            grown = vm_rss() - before
        finally:
            if switch:
                switch(advised)
        assert grown < 1 << 20


class TestElectronicHamiltonian:
    """H_e, read as the bath ground state's block of the g = 0 model."""

    @staticmethod
    def block(p):
        model = build_shared_anticorrelated(p, [ModeSpec(1.0, 0.0)], 2)
        return model.hamiltonian.matrix[np.ix_([0, 2], [0, 2])]

    def test_zero(self):
        h = self.block(ElectronicParams(0, 0, 0))
        assert np.abs(h).max() == 0.0

    def test_pure_coupling_eigenvalues(self):
        h = self.block(ElectronicParams(0, 0, 0.7))
        assert np.linalg.eigvalsh(h) == pytest.approx([-0.7, 0.7])

    def test_detuned_eigenvalues(self):
        # closed form: eps_avg +- sqrt((deps/2)^2 + j^2) for (0.5, 0, 1)
        h = self.block(ElectronicParams(0.5, 0.0, 1.0))
        expected = [0.25 - np.sqrt(0.0625 + 1.0), 0.25 + np.sqrt(0.0625 + 1.0)]
        assert np.linalg.eigvalsh(h) == pytest.approx(expected, abs=1e-12)
        assert np.linalg.eigvalsh(h) == pytest.approx([-0.7807764064, 1.2807764064])


class TestSharedAnticorrelated:
    def test_decoupled_limit_is_sum(self, params):
        m = build_shared_anticorrelated(params, [ModeSpec(1.0, 0.0)], 4)
        h_e = np.array([[params.eps1, params.j], [params.j, params.eps2]])
        h_ph = np.diag(np.arange(4)).astype(complex)
        expected = np.kron(h_e, np.eye(4)) + np.kron(np.eye(2), h_ph)
        assert np.abs(m.hamiltonian.matrix - expected).max() == 0.0

    def test_single_mode_four_by_four(self):
        m = build_shared_anticorrelated(ElectronicParams(0, 0, 0),
                                        [ModeSpec(1.0, 0.3)], 2)
        expected = np.array([
            [0.0, 0.3, 0.0, 0.0],
            [0.3, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -0.3],
            [0.0, 0.0, -0.3, 1.0],
        ])
        assert np.abs(m.hamiltonian.matrix - expected).max() < 1e-15

    def test_polaron_spectrum_at_zero_electronic_coupling(self):
        # j = 0: each electronic branch is a displaced oscillator with
        # spectrum eps_j + omega n - g^2/omega (computed analytically)
        omega, g, n_max = 1.3, 0.25, 40
        m = build_shared_anticorrelated(ElectronicParams(0.4, -0.1, 0.0),
                                        [ModeSpec(omega, g)], n_max)
        eig = np.linalg.eigvalsh(m.hamiltonian.matrix)
        shift = g**2 / omega
        analytic = np.sort(np.concatenate(
            [0.4 + omega * np.arange(n_max) - shift,
             -0.1 + omega * np.arange(n_max) - shift]))
        # compare well below the truncation edge
        assert eig[:30] == pytest.approx(analytic[:30], abs=1e-8)

    def test_rejects_bad_inputs(self, params):
        with pytest.raises(ValueError):
            build_shared_anticorrelated(params, [], 4)
        with pytest.raises(ValueError):
            build_shared_anticorrelated(params, [ModeSpec(1.0, 0.1)], 1)


class TestIndependentLocal:
    def test_decoupled_spectrum(self, params):
        m = build_independent_local(params, [ModeSpec(1.0, 0.0)], 3)
        eig_e = np.linalg.eigvalsh([[params.eps1, params.j],
                                    [params.j, params.eps2]])
        expected = np.sort([e + n1 + n2 for e in eig_e
                            for n1 in range(3) for n2 in range(3)])
        assert np.linalg.eigvalsh(m.hamiltonian.matrix) == pytest.approx(
            expected, abs=1e-12)

    def test_zero_scale_equals_zero_coupling(self, params):
        scaled = build_independent_local(params, [ModeSpec(1.0, 0.4)], 3,
                                         coupling_scale=0.0)
        bare = build_independent_local(params, [ModeSpec(1.0, 0.0)], 3)
        assert np.abs(scaled.hamiltonian.matrix
                      - bare.hamiltonian.matrix).max() == 0.0

    def test_layout_interleaves_site_pairs(self, params):
        m = build_independent_local(
            params, [ModeSpec(1.0, 0.1), ModeSpec(2.0, 0.2)], 3)
        assert m.bath_partition == (models.LOCAL_SITE_1, models.LOCAL_SITE_2,
                                    models.LOCAL_SITE_1, models.LOCAL_SITE_2)
        assert m.factor_frequencies == (1.0, 1.0, 2.0, 2.0)
        assert m.layout.total_dim == 2 * 3**4


class TestTransformed:
    def test_center_of_mass_coupling_is_electronic_identity(self, params):
        mode = ModeSpec(1.0, 0.2)
        m = build_transformed(params, [mode], 4)
        bare = build_shared_anticorrelated(params, [mode], 4)
        # H_transformed minus (shared part on factor 1 + harmonic B term)
        dims = (2, 4, 4)
        a = np.diag(np.sqrt(np.arange(1, 4)), 1).astype(complex)
        x = a + a.conj().T
        num = a.conj().T @ a
        shared_part = np.kron(bare.hamiltonian.matrix, np.eye(4))
        rest = (m.hamiltonian.matrix - shared_part
                - embed_matrix(num, 2, dims))
        expected = mode.g * embed_matrix(x, 2, dims)
        assert np.abs(rest - expected).max() < 1e-13

    def test_partition_labels(self, params):
        m = build_transformed(params, [ModeSpec(1.0, 0.1)] * 2, 3)
        assert m.bath_partition == (
            models.RELATIVE_B, models.CENTER_OF_MASS_B,
            models.RELATIVE_B, models.CENTER_OF_MASS_B)

    def test_low_spectrum_matches_independent(self, params):
        # unitary equivalence shows up in the truncation-converged low spectrum
        from dimerbath.equivalence import spectrum_equivalence

        mode = ModeSpec(1.0, 0.2)
        trans = build_transformed(params, [mode], 10)
        indep = build_independent_local(params, [mode], 10)
        assert spectrum_equivalence(indep, trans) < 1e-3


class TestCorrelatedAlpha:
    def test_alpha_zero_is_independent_unit_scale(self, params):
        corr = build_correlated_alpha(params, [ModeSpec(1.0, 0.3)], 4, 0.0)
        indep = build_independent_local(params, [ModeSpec(1.0, 0.3)], 4,
                                        coupling_scale=1.0)
        assert np.abs(corr.hamiltonian.matrix
                      - indep.hamiltonian.matrix).max() < 1e-13

    def test_alpha_one_coupling_proportional_to_identity(self, params):
        m = build_correlated_alpha(params, [ModeSpec(1.0, 0.3)], 3, 1.0)
        decoupled = build_independent_local(params, [ModeSpec(1.0, 0.0)], 3)
        dims = (2, 3, 3)
        a = np.diag(np.sqrt(np.arange(1, 3)), 1).astype(complex)
        x = a + a.conj().T
        coupling = m.hamiltonian.matrix - decoupled.hamiltonian.matrix
        expected = 0.3 * (embed_matrix(x, 1, dims) + embed_matrix(x, 2, dims))
        assert np.abs(coupling - expected).max() < 1e-13

    def test_alpha_beyond_one_warns(self, params):
        with pytest.warns(UserWarning):
            build_correlated_alpha(params, [ModeSpec(1.0, 0.1)], 3, 1.5)


class TestReducedEffective:
    @pytest.mark.parametrize("alpha,scale", [(1.0, 0.0), (0.0, 1 / SQRT2),
                                             (-0.5, 1.5 / SQRT2)])
    def test_equals_rescaled_shared(self, params, alpha, scale):
        mode = ModeSpec(1.0, 1.0)
        reduced = build_reduced_effective(params, [mode], 4, alpha)
        rescaled = build_shared_anticorrelated(
            params, [ModeSpec(1.0, scale)], 4)
        assert np.abs(reduced.hamiltonian.matrix
                      - rescaled.hamiltonian.matrix).max() < 1e-13

    def test_alpha_one_fully_decoupled(self, params):
        reduced = build_reduced_effective(params, [ModeSpec(1.0, 0.9)], 4, 1.0)
        bare = build_shared_anticorrelated(params, [ModeSpec(1.0, 0.0)], 4)
        assert np.abs(reduced.hamiltonian.matrix
                      - bare.hamiltonian.matrix).max() == 0.0

    def test_rebuild_rescales_from_original_modes(self, params):
        reduced = build_reduced_effective(params, [ModeSpec(1.0, 0.8)], 3, 0.5)
        again = models.build(reduced.kind, params, reduced.modes, 5,
                             reduced.alpha)
        direct = build_reduced_effective(params, [ModeSpec(1.0, 0.8)], 5, 0.5)
        assert np.abs(again.hamiltonian.matrix
                      - direct.hamiltonian.matrix).max() == 0.0


class TestEffectiveCoupling:
    def test_reference_values(self):
        assert effective_coupling(1.0, 0.0) == pytest.approx(1 / SQRT2, abs=1e-12)
        assert effective_coupling(1.0, 1.0) == 0.0
        assert effective_coupling(0.4, -1.0) == pytest.approx(0.8 / SQRT2,
                                                              abs=1e-12)

    def test_strictly_decreasing_magnitude(self):
        alphas = np.linspace(-1, 1, 21)
        mags = np.abs([effective_coupling(0.7, a) for a in alphas])
        assert (np.diff(mags) < 0).all()


def _shift(i, j, fraction):
    """Edit adding fraction rtol max|A_ij| to the entry (i, j)."""
    def edit(h, bound):
        h[i, j] += fraction * bound
        return h
    return edit


class TestHermiticity:
    @pytest.mark.parametrize("build", [
        lambda p, m, n: build_shared_anticorrelated(p, m, n),
        lambda p, m, n: build_independent_local(p, m, n),
        lambda p, m, n: build_transformed(p, m, n),
        lambda p, m, n: build_correlated_alpha(p, m, n, -0.3),
        lambda p, m, n: build_reduced_effective(p, m, n, 0.4),
    ])
    def test_all_constructors_hermitian(self, params, build):
        m = build(params, [ModeSpec(1.0, 0.2), ModeSpec(0.5, -0.1)], 3)
        assert m.hamiltonian.is_hermitian()

    @pytest.mark.parametrize("edit, hermitian", [
        pytest.param(_shift(0, 1, 1e6), False, id="partners-far-apart"),
        # no (2, 0) entry: the stray one counts at (0, 2) and, negated, at
        # (2, 0), so ||A - A^T||_F is sqrt(2) 0.9 rtol max|A_ij|
        pytest.param(_shift(0, 2, 0.9), False, id="partner-missing"),
        # ||A - A^T||_F = sqrt(2) shift: just inside and just outside
        pytest.param(_shift(0, 1, 0.99 / SQRT2), True,
                     id="partners-just-inside"),
        pytest.param(_shift(0, 1, 1.01 / SQRT2), False,
                     id="partners-just-outside"),
        pytest.param(lambda h, bound: np.zeros_like(h), True, id="zero"),
    ])
    def test_perturbed_hamiltonian_verdict(self, params, mode, edit,
                                           hermitian):
        # the triplet check gives the dense criterion's verdict
        model = build_shared_anticorrelated(params, [mode], 4)
        h = model.hamiltonian.matrix.copy()
        assert h[0, 1] == h[1, 0] != 0.0 and h[0, 2] == h[2, 0] == 0.0
        h = edit(h, HERMITICITY_RTOL * np.abs(h).max())
        dense = (np.linalg.norm(h - h.T)
                 <= HERMITICITY_RTOL * np.abs(h).max())
        assert dense == hermitian
        op = dense_operator(model.layout, h)
        assert op.is_hermitian() == hermitian
        if hermitian:
            replace(model, hamiltonian=op)
        else:
            with pytest.raises(ValueError, match="not Hermitian"):
                replace(model, hamiltonian=op)

    @pytest.mark.parametrize("mode, eps1", [
        (ModeSpec(1.0, 1.5e308), 0.0),  # g sqrt(2) off the diagonal
        (ModeSpec(1e308, 0.1), 0.0),  # omega n_k with n_k = 2 on it
        (ModeSpec(1e307, 0.1), 1.7e308),  # eps1 + omega n_k on it
    ])
    def test_overflowing_entry_is_named_before_assembly(self, mode, eps1):
        p = ElectronicParams(eps1, 0.0, 0.5)
        with pytest.raises(ValueError, match="overflows float64"):
            build_shared_anticorrelated(p, [mode], 3)

    def test_build_names_the_kind_of_a_rejected_model(self, params):
        # the uncapped builder's ValueError, re-raised with the config name
        with pytest.raises(models.ModelBuildError, match=(
                "^cannot build the independent model: a Hamiltonian entry "
                "overflows float64$")):
            models.build("independent", params, [ModeSpec(1.0, 1.5e308)], 3)

    def test_site_swap_leaves_spectrum_invariant(self):
        p = ElectronicParams(0.25, -0.25, 0.5)
        swapped = ElectronicParams(-0.25, 0.25, 0.5)
        mode = ModeSpec(1.0, 0.2)
        a = build_shared_anticorrelated(p, [mode], 6)
        b = build_shared_anticorrelated(swapped, [ModeSpec(1.0, -0.2)], 6)
        assert np.linalg.eigvalsh(a.hamiltonian.matrix) == pytest.approx(
            np.linalg.eigvalsh(b.hamiltonian.matrix), abs=1e-12)


class TestDimensionCap:
    def test_build_over_cap_allocates_nothing(self, params):
        # 4 Fock factors at 18 levels: 2 * 18^4 states, a 328 GiB H
        modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, 0.1)]
        tracemalloc.start()
        try:
            with pytest.raises(DimensionCapError, match=(
                    "independent model at n_max 18 has total dimension "
                    "209952, over cap 4096")):
                models.build("independent", params, modes, 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        reduced = models.build("reduced_effective", params, modes, 3, 0.5)
        with pytest.raises(DimensionCapError, match="over cap 40"):
            models.build(reduced.kind, params, reduced.modes, 5,
                         reduced.alpha, dim_cap=40)

    @pytest.mark.parametrize("kind", sorted(models.MODEL_KINDS))
    def test_cap_counts_the_factors_of_the_built_model(self, params, kind):
        # the cap's factor count and the built model's factors come from
        # one MODEL_KINDS entry; the model stores its truncation, and the
        # partition and the factor frequencies are read from the kind and
        # the unscaled modes, one frequency per factor of each mode
        modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, 0.1)]
        model = models.build(kind, params, modes, 3, alpha=0.3)
        cap = model.layout.total_dim
        models.Box(3).check_cap(kind, 2, cap)
        with pytest.raises(DimensionCapError, match=f"over cap {cap - 1}$"):
            models.Box(3).check_cap(kind, 2, cap - 1)
        partition = models.MODEL_KINDS[kind].partition
        assert model.kind == kind and model.modes == tuple(modes)
        assert model.truncation == models.Box(3)
        assert model.layout.dims == (2,) + (3,) * (2 * len(partition))
        assert model.bath_partition == partition * 2
        assert model.factor_frequencies == ((0.8,) * len(partition)
                                            + (1.3,) * len(partition))

    @pytest.mark.parametrize("kind", sorted(models.MODEL_KINDS))
    def test_modes_must_match_the_layout(self, params, kind):
        # the bath is kind, modes and truncation: a second mode on a one-mode
        # Hamiltonian would describe factors the layout lacks
        model = models.build(kind, params, [ModeSpec(1.0, 0.2)], 3, alpha=0.3)
        n_fock = 2 * len(models.MODEL_KINDS[kind].partition)
        with pytest.raises(ValueError) as error:
            replace(model, modes=(ModeSpec(1.0, 0.2), ModeSpec(2.0, 0.1)))
        assert str(error.value) == (f"layout {model.layout.dims} is not the "
                                    f"layout of Box(n_max=3) with {n_fock} "
                                    "Fock factors")

    @pytest.mark.parametrize("kind", sorted(models.MODEL_KINDS))
    def test_truncation_must_match_the_layout(self, params, kind):
        # the stored truncation cannot disagree with the Hamiltonian's
        model = models.build(kind, params, [ModeSpec(1.0, 0.2)], 3, alpha=0.3)
        n_fock = len(models.MODEL_KINDS[kind].partition)
        with pytest.raises(ValueError) as error:
            replace(model, truncation=models.Box(4))
        assert str(error.value) == (f"layout {model.layout.dims} is not the "
                                    f"layout of Box(n_max=4) with {n_fock} "
                                    "Fock factors")

    @pytest.mark.parametrize("n_max", [1, 0, -100])
    @pytest.mark.parametrize("kind", sorted(models.MODEL_KINDS))
    def test_build_below_two_levels_names_the_kind(self, params, kind, n_max):
        # rejected before the cap check, which -100 would fail at 2 modes
        modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, 0.1)]
        with pytest.raises(models.ModelBuildError, match=(
                f"^cannot build the {kind} model: n_max must be >= 2, "
                f"got {n_max}$")):
            models.build(kind, params, modes, n_max, alpha=0.3)

    def test_unequal_fock_dims_are_not_the_truncations_layout(self, params):
        layout = SpaceLayout((2, 3, 4))
        with pytest.raises(ValueError, match=(
                r"^layout \(2, 3, 4\) is not the layout of "
                r"Box\(n_max=3\) with 2 Fock factors$")):
            models.TotalModel(Operator(layout, [], [], []), "independent",
                              models.Box(3), params, (ModeSpec(1.0, 0.2),))

    def test_unknown_kind_rejected_at_construction(self, params):
        model = models.build("shared", params, [ModeSpec(1.0, 0.2)], 3)
        with pytest.raises(ValueError, match="^unknown model kind 'bogus'$"):
            replace(model, kind="bogus")


class TestOhmicDrudeModes:
    def test_single_mode_at_grid_top(self):
        (m,) = ohmic_drude_modes(0.5, 1.0, 1, 5.0)
        assert m.omega == 5.0

    def test_zero_reorganization_gives_zero_couplings(self):
        modes = ohmic_drude_modes(0.0, 1.0, 8, 5.0)
        assert all(m.g == 0.0 for m in modes)

    def test_reorganization_sum_rule(self):
        # sum g_k^2 / w_k should approach the quadrature of J(w)/(pi w)
        lam, gamma, m, omega_max = 0.3, 1.0, 512, 10.0
        modes = ohmic_drude_modes(lam, gamma, m, omega_max)
        total = sum(mk.g**2 / mk.omega for mk in modes)
        # independent oracle: midpoint-free direct quadrature of the tail-cut
        # integral lam * (2/pi) * atan(omega_max/gamma)
        target = lam * (2 / np.pi) * np.arctan(omega_max / gamma)
        assert total == pytest.approx(target, rel=0.05)

    def test_deterministic(self):
        a = ohmic_drude_modes(0.2, 0.7, 16, 4.0)
        b = ohmic_drude_modes(0.2, 0.7, 16, 4.0)
        assert a == b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ohmic_drude_modes(0.1, -1.0, 4, 5.0)
        with pytest.raises(ValueError):
            ohmic_drude_modes(0.1, 1.0, 0, 5.0)
        # 2 lambda gamma w overflows; gamma^2 overflows; w^2 + gamma^2 is 0
        for args in ((1e308, 1.0, 4, 4.0), (0.1, 1e200, 4, 4.0),
                     (0.1, 1e-170, 4, 4e-170)):
            with pytest.raises(ValueError, match="overflows float64"):
                ohmic_drude_modes(*args)

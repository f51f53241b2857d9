"""Acceptance gate: nine criteria, one test (and one pass/fail line) each.

Each test prints ``criterion N: PASS|FAIL -- <measurement>`` before asserting,
so a plain ``pytest -v tests/test_acceptance.py`` gives one line per
criterion even when a criterion is red.
"""

import dataclasses
import math
import os

import numpy as np
import pytest

from conftest import evolve, ladder, unitary
from dimerbath.cli import parse_config
from dimerbath.dynamics import SpectralPropagator, TimeGrid, evolve_reduced
from dimerbath.equivalence import (
    CONVERGENCE_TOL,
    compare_reduced,
    factorization_check,
    pointwise_distances,
    spectrum_equivalence,
)
from dimerbath.models import (
    CENTER_OF_MASS_B,
    RELATIVE_B,
    TRANSFORMED,
    ElectronicParams,
    ModeSpec,
    _model,
    build_correlated_alpha,
    build_independent_local,
    build_reduced_effective,
    build_shared_anticorrelated,
    build_transformed,
    effective_coupling,
    ohmic_drude_modes,
)
from dimerbath.spaces import (
    DensityMatrix,
    SpaceLayout,
    partial_trace_matrix,
    permute_factors_matrix,
)
from dimerbath.thermal import ThermalSpec, choose_truncation, initial_state

PARAMS = ElectronicParams(0.25, -0.25, 0.5)
MODE = ModeSpec(1.0, 0.2)
SPEC = ThermalSpec(beta=1.0)
GRID = TimeGrid(t_max=50.0, n_steps=500)
SITE1 = DensityMatrix(SpaceLayout.electronic_only(),
                      np.diag([1.0, 0.0]).astype(complex))
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_1_single_mode_equivalence():
    n_max = choose_truncation(MODE.omega, SPEC)
    shared = build_shared_anticorrelated(PARAMS, [MODE], n_max)
    indep = build_independent_local(PARAMS, [MODE], n_max)
    report = compare_reduced(shared, indep, SITE1, SPEC, GRID)
    ok = report.max_distance < 1e-6 and report.convergence_delta < 1e-7
    assert _verdict(1, ok, f"max distance {report.max_distance:.3e} "
                    f"(tol 1e-6), delta {report.convergence_delta:.3e} "
                    f"(tol 1e-7) at n_max={n_max}")


def test_criterion_2_many_mode_equivalence():
    # the bath starts in its ground state and the truncation is
    # choose_truncation's 4 levels, so the n_max + 2 refinement (dim 2592)
    # fits the dimension cap. A thermal bath at beta = 1 cannot be certified
    # here: both models are unconverged at 6 levels (the shared model alone
    # is 2.1e-2 away from its 24-level trajectory), and the 8-level
    # refinement of 4 local factors needs 2 * 8**4 = 8192 states against
    # the 4096 cap. Couplings are a fifth of many_mode_equivalence.cfg's,
    # the largest round scale at which the 4 -> 6 certificate holds.
    spec = ThermalSpec(beta=math.inf)
    modes = [ModeSpec(0.8, 0.03), ModeSpec(1.3, 0.02)]
    n_max = max(choose_truncation(m.omega, spec) for m in modes)
    shared = build_shared_anticorrelated(PARAMS, modes, n_max)
    indep = build_independent_local(PARAMS, modes, n_max)
    report = compare_reduced(shared, indep, SITE1, spec, GRID)
    # negative control: the bare local coupling, without the sqrt(2)
    # rescaling, must be told apart at 100x the tolerance
    control = build_independent_local(PARAMS, modes, n_max, coupling_scale=1.0)
    traj_s = evolve_reduced(shared, initial_state(SITE1, shared, spec), GRID)
    traj_c = evolve_reduced(control, initial_state(SITE1, control, spec), GRID)
    control_dist = float(pointwise_distances(traj_s, traj_c).max())
    ok = (report.max_distance < 1e-5 and report.converged
          and control_dist >= 1e-3)
    assert _verdict(2, ok, f"max distance {report.max_distance:.3e} "
                    f"(tol 1e-5), converged={report.converged} "
                    f"(delta {report.convergence_delta:.3e}), control "
                    f"distance {control_dist:.3e} at scale 1 (min 1e-3) "
                    f"at n_max={n_max}")


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0])
def test_criterion_3_alpha_model_equivalence(alpha):
    n_max = choose_truncation(MODE.omega, SPEC)
    corr = build_correlated_alpha(PARAMS, [MODE], n_max, alpha)
    reduced = build_reduced_effective(PARAMS, [MODE], n_max, alpha)
    report = compare_reduced(corr, reduced, SITE1, SPEC, GRID)
    ok = report.max_distance < 1e-6 and report.converged
    assert _verdict(3, ok, f"alpha={alpha:+.1f}: max distance "
                    f"{report.max_distance:.3e} (tol 1e-6), "
                    f"converged={report.converged}")


def test_criterion_4_zero_decoherence_limit():
    n_max = choose_truncation(MODE.omega, SPEC)
    decoupled = build_reduced_effective(PARAMS, [MODE], n_max, 1.0)
    bare = build_shared_anticorrelated(
        PARAMS, [ModeSpec(MODE.omega, 0.0)], n_max)
    traj_a = evolve_reduced(decoupled,
                            initial_state(SITE1, decoupled, SPEC), GRID)
    traj_b = evolve_reduced(bare, initial_state(SITE1, bare, SPEC), GRID)
    dist = float(pointwise_distances(traj_a, traj_b).max())
    assert _verdict(4, dist < 1e-8,
                    f"max distance {dist:.3e} (tol 1e-8) at alpha=1")


def test_criterion_5_center_of_mass_decoupling():
    # the full composite state must be rebuilt at every grid time, an
    # O(dim^3) step, so the truncation comes from a 1e-3 thermal tail and
    # convergence is certified by repeating with two extra levels; the
    # defect itself is truncation-independent
    spec = ThermalSpec(beta=1.0, tail_tol=1e-3)
    n_max = choose_truncation(MODE.omega, spec)
    defects = []
    for n in (n_max, n_max + 2):
        model = build_transformed(PARAMS, [MODE], n)
        rho0 = initial_state(SITE1, model, spec)
        defects.append(factorization_check(model, rho0, GRID).max())
    ok = max(defects) < 1e-7
    assert _verdict(5, ok, f"max factorization defect {max(defects):.3e} "
                    f"(tol 1e-7) at n_max={n_max} and {n_max + 2}")


def test_criterion_6_spectrum_equivalence():
    # truncations step by two, the suite-wide refinement unit; consecutive
    # steps mix an odd/even parity wobble of the compared low subspace into
    # the otherwise clean decay
    values = []
    for n in (6, 8, 10):
        indep = build_independent_local(PARAMS, [MODE], n)
        trans = build_transformed(PARAMS, [MODE], n)
        values.append(spectrum_equivalence(indep, trans))
    monotone = all(b < a for a, b in zip(values, values[1:]))
    ok = monotone and values[-1] < 1e-3
    assert _verdict(6, ok, f"discrepancy {values[0]:.3e} -> {values[-1]:.3e} "
                    f"over n_max=6,8,10, monotone={monotone} (tol 1e-3)")


def _config_paths():
    return sorted(os.path.join(CONFIG_DIR, name)
                  for name in os.listdir(CONFIG_DIR) if name.endswith(".cfg"))


def _primary_model(config):
    from dimerbath.cli import _build_model

    if config.task == "alpha_sweep":  # the sweep takes alpha from task.alphas
        config = dataclasses.replace(config, alpha=config.alphas[0])
    if config.ohmic is not None:
        modes = ohmic_drude_modes(*config.ohmic)
    else:
        modes = [ModeSpec(omega, g) for omega, g in config.modes]
    spec = ThermalSpec(config.beta, config.tail_tol)
    if config.n_max_override is not None:
        n_max = config.n_max_override
    else:
        n_max = max(choose_truncation(m.omega, spec) for m in modes)
    return _build_model(config, config.bath_kind, modes, n_max), modes, n_max


def test_criterion_7_invariant_suite():
    failures = []
    for path in _config_paths():
        name = os.path.basename(path)
        with open(path) as fh:
            config = parse_config(fh.read())
        spec = ThermalSpec(config.beta, config.tail_tol)
        model, modes, n_max = _primary_model(config)
        prop = SpectralPropagator(model)
        dim = model.layout.total_dim

        u = unitary(prop, GRID.points[137])
        if np.abs(u @ u.conj().T - np.eye(dim)).max() > 1e-10:
            failures.append(f"{name}: unitarity")

        rho0 = initial_state(SITE1, model, spec)
        grid = TimeGrid(config.t_max, min(config.n_steps, 100))
        traj = prop.reduced_trajectory(rho0, grid)
        if np.abs(traj.rho11 + traj.rho22 - 1.0).max() > 1e-10:
            failures.append(f"{name}: trace preservation")
        eigs = np.linalg.eigvalsh(traj.states)
        if eigs.min() < -1e-10:
            failures.append(f"{name}: positivity")

        h = model.hamiltonian.matrix
        e0 = np.einsum("ij,ji->", h, rho0.matrix).real
        e1 = np.einsum("ij,ji->", h,
                       evolve(prop, rho0, config.t_max)).real
        if abs(e1 - e0) > 1e-9 * max(1.0, abs(e0)):
            failures.append(f"{name}: energy conservation")

        if (config.j != 0 and config.eps1 == config.eps2
                and all(g == 0 for _, g in config.modes)):
            rabi = np.cos(config.j * grid.points) ** 2
            if np.abs(traj.rho11 - rabi).max() > 1e-9:
                failures.append(f"{name}: Rabi closed form")

        a = ladder(n_max)
        comm = a @ a.conj().T - a.conj().T @ a
        if np.abs((comm - np.eye(n_max))[:-1, :-1]).max() > 1e-12:
            failures.append(f"{name}: commutator identity")

        if math.isfinite(spec.beta):
            for m in modes:
                n_t = choose_truncation(m.omega, spec)
                w = np.exp(-spec.beta * m.omega * np.arange(n_t + 400))
                if w[n_t:].sum() / w.sum() >= spec.tail_tol:
                    failures.append(f"{name}: Gibbs tail at omega={m.omega:g}")
    ok = not failures
    assert _verdict(7, ok, f"{len(_config_paths())} configs checked"
                    + ("" if ok else "; failing: " + ", ".join(failures)))


def test_criterion_8_effective_coupling_law():
    alphas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    values = [effective_coupling(1.0, a) for a in alphas]
    expected = [math.sqrt(2.0), 1.5 / math.sqrt(2.0), 1.0 / math.sqrt(2.0),
                0.5 / math.sqrt(2.0), 0.0]
    mags = [abs(v) for v in values]
    decreasing = all(b < a for a, b in zip(mags, mags[1:]))
    err = max(abs(v - e) for v, e in zip(values, expected))
    ok = decreasing and err < 1e-12
    assert _verdict(8, ok, f"values {values} vs closed form, max error "
                    f"{err:.1e} (tol 1e-12), strictly decreasing={decreasing}")


def _structure_residual(model, modes, n_max):
    """max|T - (S x I_com + I_S x H_com)| of a transformed-layout model T,
    its factors (electronic, relative, center-of-mass per mode) permuted so
    the center-of-mass factors come last, against the shared model S at the
    same box and H_com = sum_k omega_k n_k + g_k (b_k + b_k^dag) built here
    from the truncated ladder operator, one term per center-of-mass factor.
    """
    k = len(modes)
    dims = model.layout.dims
    order = [0] + [1 + 2 * i for i in range(k)] + [2 + 2 * i for i in range(k)]
    t = permute_factors_matrix(model.hamiltonian.matrix, dims, order)
    shared = build_shared_anticorrelated(PARAMS, modes, n_max)
    s = shared.hamiltonian.matrix
    d_s, d_com = s.shape[0], n_max ** k
    a = ladder(n_max)
    h_com = np.zeros((d_com, d_com))
    for i, m in enumerate(modes):
        left, right = np.eye(n_max ** i), np.eye(n_max ** (k - 1 - i))
        one = m.omega * np.diag(np.arange(n_max)) + m.g * (a + a.T)
        h_com += np.kron(np.kron(left, one), right)
    # S x I_com lives on the blocks of equal center-of-mass indices, and
    # I_S x H_com on those of equal shared indices: subtract both in place
    r = t.reshape(d_s, d_com, d_s, d_com)
    for c in range(d_com):
        r[:, c, :, c] -= s
    for j in range(d_s):
        r[j, :, j, :] -= h_com
    scale = np.abs(model.hamiltonian.matrix).max()
    return float(np.abs(r).max()), float(scale)


def test_criterion_9_transformed_is_shared_plus_center_of_mass():
    # step (ii) of the paper's argument, exactly in every box: the
    # transformed model of many_mode_equivalence.cfg's two modes is the
    # shared model beside a free, displaced center-of-mass oscillator per
    # mode. Negative control: center-of-mass couplings that differ between
    # the sites (1 and 0.9) tie that factor to the exciton
    modes = [ModeSpec(0.8, 0.15), ModeSpec(1.3, 0.1)]
    residuals, scales, controls, dims = [], [], [], []
    for n in (4, 6):
        model = build_transformed(PARAMS, modes, n)
        dims.append(model.layout.total_dim)
        residual, scale = _structure_residual(model, modes, n)
        residuals.append(residual)
        scales.append(scale)
        skewed = _model(TRANSFORMED, PARAMS, modes, n,
                        [(RELATIVE_B, (1.0, -1.0)),
                         (CENTER_OF_MASS_B, (1.0, 0.9))])
        controls.append(_structure_residual(skewed, modes, n)[0])
    # a few ulps of max|T|; one rounding of a diagonal sum is one ulp
    tol = [4 * np.finfo(float).eps * x for x in scales]
    ok = (all(r <= t for r, t in zip(residuals, tol))
          and min(controls) > 1e-3)
    assert _verdict(9, ok, f"residual {residuals[0]:.2e}, {residuals[1]:.2e} "
                    f"(tol {tol[0]:.1e}, {tol[1]:.1e}) against max|T| "
                    f"{scales[0]:.1f}, {scales[1]:.1f} at n_max=4, 6 (dims "
                    f"{dims[0]}, {dims[1]}); control {min(controls):.2e} "
                    "(min 1e-3)")

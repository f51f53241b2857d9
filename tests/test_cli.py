import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dimerbath
from dimerbath.cli import (
    CSV_CHUNK_ROWS,
    CSV_HEADER,
    TASK_KEYS,
    ConfigError,
    _write_csv,
    main,
    parse_config,
    run,
)
from dimerbath.dynamics import ReducedTrajectory, TimeGrid
from dimerbath.models import MODEL_KINDS

SRC = Path(dimerbath.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

BASE = """
electronic.eps1 = 0.25
electronic.eps2 = -0.25
electronic.j = 0.5
bath.kind = shared
bath.modes.0.omega = 1.0
bath.modes.0.g = 0.2
thermal.beta = inf
evolution.t_max = 10.0
evolution.n_steps = 20
task.kind = trajectory
output.basename = out
"""


def config_text(**overrides):
    entries = {}
    for line in BASE.strip().splitlines():
        key, value = line.split(" = ")
        entries[key] = value
    for key, value in overrides.items():
        key = key.replace("__", ".")
        if value is None:
            entries.pop(key, None)
        else:
            entries[key] = value
    return "\n".join(f"{k} = {v}" for k, v in entries.items()) + "\n"


class TestParseConfig:
    def test_minimal_trajectory_config(self):
        cfg = parse_config(config_text())
        assert cfg.bath_kind == "shared"
        assert cfg.modes == ((1.0, 0.2),)
        assert math.isinf(cfg.beta)
        assert cfg.n_steps == 20
        assert cfg.rho_e == (1.0, 0.0, 0.0)
        assert cfg.task == "trajectory"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + config_text() + "\n# trailing\n"
        assert parse_config(text) == parse_config(config_text())

    def test_unknown_key_reported_with_line(self):
        text = config_text() + "bogus.key = 1\n"
        with pytest.raises(ConfigError, match=r"bogus\.key \(line \d+\)"):
            parse_config(text)

    def test_missing_required_key_named(self):
        with pytest.raises(ConfigError, match="output.basename"):
            parse_config(config_text(output__basename=None))

    def test_malformed_line_includes_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("not a key value pair\n" + config_text())

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(config_text() + "electronic.j = 0.1\n")

    def test_alpha_required_for_correlated(self):
        with pytest.raises(ConfigError, match="bath.alpha"):
            parse_config(config_text(bath__kind="correlated"))

    def test_alpha_rejected_for_shared(self):
        with pytest.raises(ConfigError, match="bath.alpha"):
            parse_config(config_text(bath__alpha="0.5"))

    def test_coupling_scale_only_for_independent(self):
        with pytest.raises(ConfigError, match="coupling_scale"):
            parse_config(config_text(bath__coupling_scale="1.0"))
        cfg = parse_config(config_text(bath__kind="independent",
                                       bath__coupling_scale="1.0"))
        assert cfg.coupling_scale == 1.0

    def test_alpha_required_for_compare_partner(self):
        with pytest.raises(ConfigError, match="bath.alpha"):
            parse_config(config_text(task__kind="compare",
                                     task__compare_with="correlated"))

    def test_noncontiguous_mode_indices_rejected(self):
        text = config_text() + "bath.modes.2.omega = 1.0\nbath.modes.2.g = 0.1\n"
        with pytest.raises(ConfigError, match="contiguous"):
            parse_config(text)

    def test_ohmic_and_explicit_modes_exclusive(self):
        text = config_text(bath__ohmic__lambda="0.1", bath__ohmic__gamma="1.0",
                           bath__ohmic__m="4", bath__ohmic__omega_max="5.0")
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_ohmic_block_alone_accepted(self):
        text = config_text(bath__modes__0__omega=None, bath__modes__0__g=None,
                           bath__ohmic__lambda="0.1", bath__ohmic__gamma="1.0",
                           bath__ohmic__m="4", bath__ohmic__omega_max="5.0")
        cfg = parse_config(text)
        assert cfg.ohmic == (0.1, 1.0, 4, 5.0)
        assert cfg.modes == ()

    def test_no_bath_at_all_rejected(self):
        with pytest.raises(ConfigError, match="no modes"):
            parse_config(config_text(bath__modes__0__omega=None,
                                     bath__modes__0__g=None))

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError, match="thermal.beta"):
            parse_config(config_text(thermal__beta="-1.0"))
        with pytest.raises(ConfigError, match="thermal.beta"):
            parse_config(config_text(thermal__beta="nan"))

    @pytest.mark.parametrize("state, rho_e", [
        ("site1", (1.0, 0.0, 0.0)), ("site2", (0.0, 0.0, 0.0)),
        ("plus", (0.5, 0.5, 0.0))])
    def test_named_states_are_numbers(self, state, rho_e):
        cfg = parse_config(config_text(initial__electronic_state=state))
        assert cfg.rho_e == rho_e

    def test_explicit_initial_state_positivity(self):
        with pytest.raises(ConfigError, match="positivity"):
            parse_config(config_text(initial__electronic_state="explicit",
                                     initial__rho11="0.9",
                                     initial__rho12_re="0.5",
                                     initial__rho12_im="0.0"))

    def test_compare_requires_partner(self):
        with pytest.raises(ConfigError, match="task.compare_with"):
            parse_config(config_text(task__kind="compare"))

    def test_alpha_list_must_ascend(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config(config_text(task__kind="alpha_sweep",
                                     bath__kind="reduced_effective",
                                     task__alphas="0.5,0.0"))
        with pytest.raises(ConfigError, match="strictly ascending"):
            parse_config(config_text(task__kind="alpha_sweep",
                                     bath__kind="reduced_effective",
                                     task__alphas="0.5,0.5"))

    def test_n_max_list_validation(self):
        with pytest.raises(ConfigError, match="task.n_max_list"):
            parse_config(config_text(task__kind="convergence",
                                     task__compare_with="independent",
                                     task__n_max_list="4,3"))
        with pytest.raises(ConfigError, match="task.n_max_list"):
            parse_config(config_text(task__kind="convergence",
                                     task__compare_with="independent",
                                     task__n_max_list="4,4"))

    def test_alphas_sharing_a_csv_name_rejected(self):
        # both would write out_alpha_0.123457.csv
        with pytest.raises(ConfigError, match=r"task\.alphas.*"
                           r"_alpha_0\.123457\.csv"):
            parse_config(config_text(task__kind="alpha_sweep",
                                     bath__kind="reduced_effective",
                                     task__alphas="0.1234567,0.1234568"))

    def test_dim_cap_must_be_positive(self):
        with pytest.raises(ConfigError, match="evolution.dim_cap"):
            parse_config(config_text(evolution__dim_cap="0"))

    def test_empty_alpha_list_rejected(self):
        with pytest.raises(ConfigError, match="task.alphas"):
            parse_config(config_text(bath__kind="reduced_effective",
                                     task__kind="alpha_sweep",
                                     task__alphas=","))

    def test_empty_n_max_list_rejected(self):
        with pytest.raises(ConfigError, match="task.n_max_list"):
            parse_config(config_text(task__kind="convergence",
                                     task__compare_with="independent",
                                     task__n_max_list=" , "))

    def test_alpha_sweep_rejects_other_kinds(self):
        with pytest.raises(ConfigError, match="bath.kind"):
            parse_config(config_text(task__kind="alpha_sweep",
                                     task__alphas="0.0,0.5"))

    def test_alpha_sweep_needs_no_bath_alpha(self):
        cfg = parse_config(config_text(bath__kind="reduced_effective",
                                       task__kind="alpha_sweep",
                                       task__alphas="0.0,0.5"))
        assert cfg.alpha is None and cfg.alphas == (0.0, 0.5)

    @pytest.mark.parametrize("task, key, value", [
        ("trajectory", "task.compare_with", "independent"),
        ("trajectory", "task.alphas", "0.1,0.2"),
        ("trajectory", "task.n_max_list", "4,6"),
        ("trajectory", "task.threshold", "1e-3"),
        ("compare", "task.alphas", "0.1,0.2"),
        ("compare", "task.n_max_list", "4,6"),
        ("convergence", "task.threshold", "1e-6"),
        ("convergence", "thermal.n_max_override", "3"),
        ("convergence", "thermal.tail_tol", "1e-4"),
        ("alpha_sweep", "bath.alpha", "0.3"),
        ("alpha_sweep", "task.compare_with", "independent"),
    ])
    def test_key_the_task_never_reads_is_config_error(self, task, key,
                                                      value):
        needs = {"compare": {"task__compare_with": "independent"},
                 "convergence": {"task__compare_with": "independent",
                                 "task__n_max_list": "4,6"},
                 "alpha_sweep": {"bath__kind": "reduced_effective",
                                 "task__alphas": "0.0,0.5"}}
        entries = {"task__kind": task, **needs.get(task, {})}
        parse_config(config_text(**entries))
        text = config_text(**entries, **{key.replace(".", "__"): value})
        line = text.splitlines().index(f"{key} = {value}") + 1
        readers = ", ".join(TASK_KEYS[key])
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (f"{key} (line {line}): not read by "
                                  f"task.kind={task} (read by {readers})")
        assert task not in TASK_KEYS[key]

    @pytest.mark.parametrize("task", ["trajectory", "compare"])
    def test_tail_tol_with_n_max_override_is_config_error(self, task):
        # the override replaces the truncation tail_tol would choose
        entries = {"task__kind": task, "thermal__n_max_override": "2"}
        if task == "compare":
            entries["task__compare_with"] = "independent"
        parse_config(config_text(**entries))
        text = config_text(**entries, thermal__tail_tol="0.5")
        line = text.splitlines().index("thermal.tail_tol = 0.5") + 1
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (f"thermal.tail_tol (line {line}): not read "
                                  "when thermal.n_max_override is set")


class TestRunTrajectory:
    def test_rabi_populations_in_csv(self, tmp_path):
        text = config_text(electronic__eps1="0.0", electronic__eps2="0.0",
                           bath__modes__0__g="0.0",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert data.shape == (21, 6)
        assert data[:, 1] == pytest.approx(np.cos(0.5 * data[:, 0]) ** 2,
                                           abs=1e-9)
        assert data[:, 1] + data[:, 2] == pytest.approx(np.ones(21), abs=1e-12)

    def test_rabi_on_fft_kernel_through_cli(self, tmp_path, monkeypatch):
        # rabi.cfg's keys on a grid long enough for the FFT phase sum
        calls = []
        kernel = dimerbath.dynamics._uniform_phase_sums
        monkeypatch.setattr(dimerbath.dynamics, "_uniform_phase_sums",
                            lambda *args: calls.append(1) or kernel(*args))
        # rabi.cfg's dim 8 is under FFT_MIN_DIM, so the FFT path is forced
        monkeypatch.setattr(dimerbath.dynamics, "FFT_MIN_DIM", 1)
        n_steps = 2 * dimerbath.dynamics.FFT_MIN_POINTS
        text = (CONFIGS / "rabi.cfg").read_text().replace(
            "evolution.n_steps = 200", f"evolution.n_steps = {n_steps}")
        assert f"evolution.n_steps = {n_steps}" in text
        path = tmp_path / "rabi.cfg"
        path.write_text(text + f"output.directory = {tmp_path}\n")
        assert main([str(path), "--threads", "1"]) == 0
        assert calls == [1]
        data = np.loadtxt(tmp_path / "rabi.csv", delimiter=",", skiprows=1)
        assert data.shape == (n_steps + 1, 6)
        j = parse_config(text).j
        assert np.abs(data[:, 1] - np.cos(j * data[:, 0]) ** 2).max() < 1e-12

    def test_grid_over_cap_is_resource_cap(self, tmp_path, capsys,
                                           monkeypatch):
        # 1e11 + 1 points would take about 30 TB; nothing may be allocated
        monkeypatch.setattr(dimerbath.models, "build",
                            lambda *args: pytest.fail("model built"))
        text = config_text(evolution__n_steps="100000000000",
                           output__directory=str(tmp_path / "out"))
        config = parse_config(text)
        tracemalloc.start()
        try:
            assert run(config) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        err = capsys.readouterr().err
        assert ("resource-cap: evolution.n_steps 100000000000 gives "
                "100000000001 time points, over cap") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_deterministic_output(self, tmp_path):
        text = config_text(output__directory=str(tmp_path),
                           thermal__n_max_override="6")
        run(parse_config(text))
        first = (tmp_path / "out.csv").read_bytes()
        run(parse_config(text))
        assert (tmp_path / "out.csv").read_bytes() == first

    def test_dim_cap_exit_code(self, tmp_path):
        text = config_text(output__directory=str(tmp_path),
                           thermal__n_max_override="8",
                           evolution__dim_cap="8")
        assert run(parse_config(text)) == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unbuildable_model_is_config_error(self, tmp_path, capsys):
        # sqrt(2) g overflows to inf: named before the Hamiltonian is built
        text = config_text(bath__kind="independent", bath__modes__0__g="1e308",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 2
        err = capsys.readouterr().err
        assert ("config-error: cannot build the independent model: "
                "a Hamiltonian entry overflows float64") in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overrides, rounding", [
        # rabi.cfg at t_max 1e300: finite phases with no correct digit
        ({"electronic__eps1": "0.0", "electronic__eps2": "0.0",
          "bath__modes__0__g": "0.0", "evolution__t_max": "1e300",
          "evolution__n_steps": "200"}, "7.77e+284"),
        # a shared mode at g = 1e200: max|L| near 1e201, populations frozen
        ({"bath__modes__0__g": "1e200", "thermal__n_max_override": "8"},
         "9.2e+185"),
    ])
    def test_phases_without_precision_are_verification_failure(
            self, tmp_path, capsys, overrides, rounding):
        text = config_text(output__directory=str(tmp_path), **overrides)
        assert run(parse_config(text)) == 1
        err = capsys.readouterr().err
        assert err == ("verification-failure: phase rounding eps * "
                       f"max|eigenvalue| * t = {rounding} exceeds 1e-08: "
                       "the phases lack precision\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_output_is_verification_failure(self, tmp_path, capsys):
        # a shared mode keeps the Hamiltonian finite, but max|L| t_max is
        # not: rejected before any phase is formed, with no numpy warning
        text = config_text(bath__modes__0__g="1e308",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 1
        err = capsys.readouterr().err
        assert ("verification-failure: non-finite value of max|eigenvalue| "
                "* t = inf: the phases overflow") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("beta, omega", [
        ("1e-300", "1e-10"),  # -log(tail_tol) / (beta omega) overflows
        ("1e-300", "1e-300"),  # beta omega underflows to 0
    ])
    def test_unbounded_thermal_truncation_is_resource_cap(
            self, tmp_path, capsys, beta, omega):
        text = config_text(thermal__beta=beta, bath__modes__0__omega=omega,
                           output__directory=str(tmp_path / "out"))
        assert run(parse_config(text)) == 3
        err = capsys.readouterr().err
        assert ("resource-cap: thermal truncation at beta 1e-300 and omega "
                f"{omega} is unbounded") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_dim_cap_checked_before_assembly(self, tmp_path, capsys):
        # 2 * 20^8 states: numpy refuses the allocation, so assembly must not start
        modes = {f"bath__modes__{i}__{key}": value for i in range(8)
                 for key, value in (("omega", "1.0"), ("g", "0.2"))}
        text = config_text(output__directory=str(tmp_path),
                           thermal__n_max_override="20", **modes)
        assert run(parse_config(text)) == 3
        err = capsys.readouterr().err
        assert "resource-cap" in err and "Traceback" not in err

    @pytest.mark.parametrize("overrides", [
        {"thermal__n_max_override": "4",
         **{f"bath__modes__{i}__{key}": value for i in range(8000)
            for key, value in (("omega", "1.0"), ("g", "0.2"))}},
        {"thermal__n_max_override": str(10**1000),
         **{f"bath__modes__{i}__{key}": value for i in range(5)
            for key, value in (("omega", "1.0"), ("g", "0.2"))}},
        {"bath__ohmic__m": "100000"},
        {"bath__ohmic__m": str(10**12)},
    ], ids=["8000-modes", "1000-digit-n_max", "ohmic-1e5", "ohmic-1e12"])
    def test_astronomical_dimension_is_resource_cap(self, tmp_path, capsys,
                                                    monkeypatch, overrides):
        # 2 * 4^8000 states, like 2 * (10^1000)^5, has more digits than
        # int() may print; 10^12 Ohmic modes would take 7.28 TiB to discretize
        monkeypatch.setattr(dimerbath.models, "ohmic_drude_modes",
                            lambda *args: pytest.fail("bath discretized"))
        if "bath__ohmic__m" in overrides:
            overrides = dict(overrides, bath__modes__0__omega=None,
                             bath__modes__0__g=None, bath__ohmic__lambda="0.1",
                             bath__ohmic__gamma="1.0",
                             bath__ohmic__omega_max="5.0")
        text = config_text(output__directory=str(tmp_path / "out"),
                           **overrides)
        assert run(parse_config(text)) == 3
        err = capsys.readouterr().err
        assert "resource-cap: shared model at n_max " in err
        assert "over cap 4096" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_dim_cap_covers_every_convergence_truncation(self, tmp_path, capsys):
        text = config_text(task__kind="convergence",
                           task__compare_with="independent",
                           task__n_max_list="4,6,8",
                           evolution__dim_cap="100",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 3
        assert "independent model at n_max 8" in capsys.readouterr().err
        assert not (tmp_path / "out.report").exists()

    def test_ohmic_convergence_capped_at_listed_truncations(self, tmp_path):
        # 2 * 4^4 = 512 states at the thermal headroom are over the cap, but
        # the list never builds it: the largest, 2 * 3^4 = 162, fits
        text = config_text(bath__kind="independent", bath__modes__0__omega=None,
                           bath__modes__0__g=None, bath__ohmic__lambda="0.1",
                           bath__ohmic__gamma="1.0", bath__ohmic__m="2",
                           bath__ohmic__omega_max="5.0",
                           task__kind="convergence", task__compare_with="shared",
                           task__n_max_list="2,3", evolution__dim_cap="200",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) in (0, 1)
        assert (tmp_path / "out.report").exists()


class TestRunCompare:
    def test_csv_matches_trajectory_task(self, tmp_path):
        compare = tmp_path / "compare"
        trajectory = tmp_path / "trajectory"
        assert run(parse_config(config_text(
            task__kind="compare", task__compare_with="independent",
            task__threshold="1e-5", thermal__n_max_override="10",
            output__directory=str(compare)))) == 0
        assert run(parse_config(config_text(
            thermal__n_max_override="10",
            output__directory=str(trajectory)))) == 0
        assert ((compare / "out.csv").read_bytes()
                == (trajectory / "out.csv").read_bytes())

    def test_equivalent_models_pass(self, tmp_path):
        text = config_text(task__kind="compare",
                           task__compare_with="independent",
                           task__threshold="1e-5",
                           thermal__n_max_override="10",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        report = dict(
            line.split(" = ")
            for line in (tmp_path / "out.report").read_text().splitlines())
        assert report["task"] == "compare"
        assert report["converged"] == "true"
        assert float(report["max_trace_distance"]) < 1e-5
        assert (tmp_path / "out.csv").exists()

    def test_alpha_taken_by_compare_partner(self, tmp_path, capsys):
        text = config_text(task__kind="compare",
                           task__compare_with="correlated",
                           bath__alpha="0.5", thermal__n_max_override="4",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "out.report").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refinement_that_cannot_be_built_is_config_error(self, tmp_path,
                                                             capsys):
        # the n_max 4 models build; at n_max 6 eps1 + 5 omega overflows, and
        # the refinement is built before any trajectory is computed
        text = config_text(electronic__eps1="1.76e308",
                           bath__modes__0__omega="1e306",
                           thermal__n_max_override="4",
                           evolution__t_max="1.0", evolution__n_steps="2",
                           task__kind="compare",
                           task__compare_with="reduced_effective",
                           bath__alpha="0.0",
                           output__directory=str(tmp_path / "out"))
        assert run(parse_config(text)) == 2
        err = capsys.readouterr().err
        assert err == ("config-error: cannot build the shared model: "
                       "a Hamiltonian entry overflows float64\n")
        assert not (tmp_path / "out").exists()

    def test_threshold_breach_fails_with_code_one(self, tmp_path):
        # at n_max = 6 the residual truncation distance is ~3e-5 >> 1e-8
        text = config_text(task__kind="compare",
                           task__compare_with="independent",
                           task__threshold="1e-8",
                           thermal__n_max_override="6",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 1
        assert (tmp_path / "out.report").exists()


class TestRunAlphaSweep:
    def test_writes_one_csv_per_alpha(self, tmp_path):
        text = config_text(bath__kind="reduced_effective",
                           task__kind="alpha_sweep",
                           task__alphas="-0.5,0.0,0.5,1.0",
                           thermal__n_max_override="5",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        for a in ("-0.5", "0", "0.5", "1"):
            assert (tmp_path / f"out_alpha_{a}.csv").exists()
        report = (tmp_path / "out.report").read_text()
        assert "effective_coupling_strictly_decreasing = true" in report

    def test_one_propagator_per_alpha(self, tmp_path, monkeypatch):
        from dimerbath.dynamics import SpectralPropagator

        built = []
        init = SpectralPropagator.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SpectralPropagator, "__init__", counting)
        text = config_text(bath__kind="reduced_effective",
                           task__kind="alpha_sweep",
                           task__alphas="-0.5,0.0,0.5",
                           thermal__n_max_override="5",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        assert len(built) == 3

    def test_csv_matches_trajectory_task(self, tmp_path):
        sweep = tmp_path / "sweep"
        trajectory = tmp_path / "trajectory"
        assert run(parse_config(config_text(
            bath__kind="reduced_effective", task__kind="alpha_sweep",
            task__alphas="0.0,0.5", thermal__n_max_override="5",
            output__directory=str(sweep)))) == 0
        assert run(parse_config(config_text(
            bath__kind="reduced_effective", bath__alpha="0.5",
            thermal__n_max_override="5",
            output__directory=str(trajectory)))) == 0
        assert ((sweep / "out_alpha_0.5.csv").read_bytes()
                == (trajectory / "out.csv").read_bytes())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g, alphas, code, message", [
        # g (1 - alpha)/sqrt(2) overflows: a bad alpha, not a bad run
        ("10.0", "-1e308, 0.0", 2, "config-error: task.alphas"),
        # a finite coupling whose phases are NaN fails the trajectory check
        ("1e308", "0.0", 1, "verification-failure: non-finite value"),
        # a later alpha that fails leaves no earlier alpha's CSV behind
        ("1e308", "1.0, 1.5", 1, "verification-failure: non-finite value"),
        # a non-finite alpha is a bad alpha too
        ("0.2", "0.0, inf", 2, "config-error: task.alphas"),
        ("0.2", "nan", 2, "config-error: task.alphas"),
    ])
    def test_extreme_coupling_exit_code(self, tmp_path, capsys, g, alphas,
                                        code, message):
        # through main, which also reports what parse_config rejects
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config_text(bath__kind="reduced_effective",
                                   bath__modes__0__g=g, task__kind="alpha_sweep",
                                   task__alphas=alphas,
                                   thermal__n_max_override="3",
                                   output__directory=str(out)))
        assert main([str(cfg)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_gate_checks_a_mode_uncoupled_at_the_first_alpha(self, tmp_path,
                                                           capsys):
        # every coupling is 0 at alpha = 1, and |g_eff| grows beyond it
        text = (CONFIGS / "alpha_sweep.cfg").read_text()
        assert "\ntask.alphas = -1.0,-0.5,0.0,0.5,1.0\n" in text
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("task.alphas = -1.0,-0.5,0.0,0.5,1.0",
                                    "task.alphas = 1, 1.5, 3")
                       + "thermal.n_max_override = 3\n"
                       + f"output.directory = {tmp_path / 'out'}\n")
        assert main([str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "verification-failure: effective coupling magnitude not strictly "
            "decreasing in alpha\n")
        report = (tmp_path / "out" / "alpha_sweep.report").read_text()
        assert "effective_coupling_strictly_decreasing = false" in report

    @pytest.mark.parametrize("modes", [
        {"bath__modes__0__g": "0.0"},
        {"bath__modes__1__omega": "2.0", "bath__modes__1__g": "0.0"},
        {"bath__modes__0__g": "0.0", "bath__modes__1__omega": "2.0",
         "bath__modes__1__g": "0.2"},
    ])
    def test_zero_coupling_modes_are_not_gated(self, tmp_path, modes):
        text = config_text(bath__kind="reduced_effective",
                           task__kind="alpha_sweep", task__alphas="0.0,0.5",
                           thermal__n_max_override="3",
                           output__directory=str(tmp_path), **modes)
        assert run(parse_config(text)) == 0
        report = (tmp_path / "out.report").read_text()
        assert "effective_coupling_strictly_decreasing = true" in report

    def test_dim_cap_is_honoured(self, tmp_path, capsys):
        # 2 * 5^2 = 50 states, over a cap of 40
        text = config_text(bath__kind="reduced_effective",
                           bath__modes__1__omega="2.0", bath__modes__1__g="0.1",
                           task__kind="alpha_sweep", task__alphas="0.5",
                           thermal__n_max_override="5", evolution__dim_cap="40",
                           output__directory=str(tmp_path / "out"))
        assert run(parse_config(text)) == 3
        assert "over cap 40" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_hamiltonian_is_config_error(self, tmp_path, capsys):
        # g_eff ~ 1.2e308 is finite, sqrt(3) g_eff is not: the sweep's build
        # fails as the trajectory task's does
        text = config_text(bath__kind="reduced_effective",
                           bath__modes__0__g="1e308", task__kind="alpha_sweep",
                           task__alphas="-0.7", thermal__n_max_override="4",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 2
        err = capsys.readouterr().err
        assert "config-error: cannot build the reduced_effective model" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestRunConvergence:
    def test_distance_shrinks_with_truncation(self, tmp_path):
        text = config_text(task__kind="convergence",
                           task__compare_with="independent",
                           task__n_max_list="4,6,8",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        report = dict(
            line.split(" = ")
            for line in (tmp_path / "out.report").read_text().splitlines())
        d4 = float(report["max_trace_distance_n4"])
        d8 = float(report["max_trace_distance_n8"])
        assert d8 < d4
        assert report["monotone_non_increasing"] == "true"

    def test_same_certificate_as_compare(self, tmp_path):
        # compare at n_max 4 is the ladder 4, 6: the same two rungs
        def report(task, **overrides):
            out = tmp_path / task
            run(parse_config(config_text(
                task__kind=task, task__compare_with="independent",
                output__directory=str(out), **overrides)))
            return dict(line.split(" = ") for line in
                        (out / "out.report").read_text().splitlines())

        compare = report("compare", thermal__n_max_override="4")
        convergence = report("convergence", task__n_max_list="4,6")
        assert (compare["max_trace_distance"]
                == convergence["max_trace_distance_n4"])
        for key in ("convergence_delta", "converged"):
            assert compare[key] == convergence[key]
        assert float(compare["convergence_delta"]) > 0

    def test_one_truncation_has_no_certificate(self, tmp_path):
        # an unconverged convergence run still exits 0: it gates on
        # monotonicity only
        text = config_text(task__kind="convergence",
                           task__compare_with="independent",
                           task__n_max_list="4",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        report = (tmp_path / "out.report").read_text()
        assert "convergence_delta = nan\nconverged = false\n" in report

    def test_no_thermal_truncation_chosen(self, tmp_path, monkeypatch):
        # task.n_max_list gives every truncation: at beta omega = 1e-310
        # choose_truncation has no finite answer, and used to end the run
        # as a resource cap
        monkeypatch.setattr(dimerbath.thermal, "choose_truncation",
                            lambda *args: pytest.fail("truncation chosen"))
        text = config_text(task__kind="convergence",
                           task__compare_with="independent",
                           task__n_max_list="2,3", thermal__beta="1e-300",
                           bath__modes__0__omega="1e-10",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        report = (tmp_path / "out.report").read_text()
        assert "max_trace_distance_n2 = " in report
        assert "max_trace_distance_n3 = " in report

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_trajectory_is_verification_failure(self, tmp_path,
                                                            capsys):
        # the task writes no CSV, so only the trajectory's own check can fail
        text = config_text(bath__alpha="0.0", bath__modes__0__g="1e308",
                           task__kind="convergence",
                           task__compare_with="reduced_effective",
                           task__n_max_list="3",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 1
        err = capsys.readouterr().err
        assert "verification-failure" in err and "Traceback" not in err
        assert not (tmp_path / "out.report").exists()


class TestMain:
    def test_missing_file_is_config_error(self, tmp_path):
        assert main([str(tmp_path / "nope.cfg")]) == 2

    def test_bad_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gibberish\n")
        assert main([str(path)]) == 2

    def test_end_to_end_trajectory(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(config_text(output__directory=str(tmp_path),
                                    thermal__n_max_override="4"))
        assert main([str(path), "--threads", "1"]) == 0
        assert (tmp_path / "out.csv").exists()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_non_positive_threshold_is_config_error(self, tmp_path, capsys,
                                                    threshold):
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(config_text(task__kind="compare",
                                    task__compare_with="independent",
                                    task__threshold=threshold,
                                    output__directory=str(out)))
        line = path.read_text().splitlines().index(
            f"task.threshold = {threshold}") + 1
        assert main([str(path), "--threads", "1"]) == 2
        assert capsys.readouterr().err == (
            f"config-error: task.threshold (line {line}): must be positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("rho11", ["0.0", "1.0"])
    def test_coherence_of_a_pure_site_state_is_config_error(
            self, tmp_path, capsys, rho11):
        # |rho12| = 1e-6 has |rho12|^2 = 1e-12 over rho11 rho22 = 0, but
        # breaks sqrt(rho11 rho22) by far more than the trajectory's 1e-9
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(config_text(initial__electronic_state="explicit",
                                    initial__rho11=rho11,
                                    initial__rho12_re="1e-6",
                                    initial__rho12_im="0",
                                    output__directory=str(out)))
        assert main([str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error: initial.rho12_re (line ")
        assert err.endswith("coherence violates positivity\n")
        assert not out.exists()

    @pytest.mark.parametrize("name, kind, extra, key", [
        ("rabi", None, ["task.compare_with = independent",
                        "task.n_max_list = 4,6", "task.alphas = 0.1,0.2",
                        "task.threshold = 1e-3"], "task.compare_with"),
        ("single_mode_equivalence", "convergence", ["task.n_max_list = 4,6"],
         "task.threshold"),
        ("convergence", None, ["thermal.n_max_override = 3"],
         "thermal.n_max_override"),
        ("alpha_sweep", None, ["bath.alpha = 0.3"], "bath.alpha"),
    ])
    def test_bundled_config_with_a_key_its_task_never_reads(
            self, tmp_path, capsys, monkeypatch, name, kind, extra, key):
        # each ran to exit 0 with the key ignored
        text = (CONFIGS / f"{name}.cfg").read_text()
        if kind:
            text = text.replace("task.kind = compare", f"task.kind = {kind}")
        path = tmp_path / "run.cfg"
        path.write_text(text + "\n".join(extra) + "\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-error: {key} (line ")
        assert "not read by task.kind=" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_tail_tol_with_n_max_override_through_cli(self, tmp_path, capsys,
                                                      monkeypatch):
        # a compare config that ran with thermal.tail_tol ignored
        text = (CONFIGS / "single_mode_equivalence.cfg").read_text()
        path = tmp_path / "run.cfg"
        path.write_text(text + "thermal.n_max_override = 2\n"
                        "thermal.tail_tol = 0.5\n")
        monkeypatch.chdir(tmp_path)
        assert main([str(path), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config-error: thermal.tail_tol (line ")
        assert "not read when thermal.n_max_override is set" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_allocation_failure_is_resource_cap(self, tmp_path, capsys,
                                                monkeypatch):
        # numpy's refusal of an 11.9 GiB Hamiltonian, without allocating it
        def refuse(*args):
            raise MemoryError("Unable to allocate 11.9 GiB for an array")

        monkeypatch.setattr(dimerbath.models, "_assemble", refuse)
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(config_text(evolution__dim_cap="100000000",
                                    thermal__n_max_override="20000",
                                    output__directory=str(out)))
        assert main([str(path), "--threads", "1"]) == 3
        assert capsys.readouterr().err == (
            "resource-cap: Unable to allocate 11.9 GiB for an array\n")
        assert not out.exists()

    def test_config_that_is_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"electronic.eps1 = 0.25\xff\n")
        assert main([str(path), "--threads", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            f"config-error: cannot read {path}: 'utf-8' codec can't decode "
            "byte 0xff")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    def test_unwritable_output_directory_is_config_error(self, tmp_path,
                                                         capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        path = tmp_path / "run.cfg"
        path.write_text((CONFIGS / "rabi.cfg").read_text()
                        + f"output.directory = {blocker}/sub\n")
        assert main([str(path), "--threads", "1"]) == 2
        assert capsys.readouterr().err == (
            f"config-error: output.directory: cannot write {blocker}/sub/"
            "rabi.csv: Not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file",
                                                              "run.cfg"]

    @pytest.mark.parametrize("key", ["output.directory", "output.basename"])
    def test_nul_in_an_output_path_is_config_error(self, tmp_path, capsys,
                                                   monkeypatch, key):
        entries = {"output.directory": str(tmp_path),
                   "output.basename": "rabi", key: "a\0b"}
        text = (CONFIGS / "rabi.cfg").read_text().replace(
            "output.basename = rabi\n", "")
        text += "".join(f"{k} = {v}\n" for k, v in entries.items())
        lineno = text.splitlines().index(f"{key} = a\0b") + 1
        path = tmp_path / "run.cfg"
        path.write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main([str(path), "--threads", "1"]) == 2
        assert capsys.readouterr().err == (
            f"config-error: {key} (line {lineno}): a path cannot hold a NUL "
            "character\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("omega", ["1.0", "10.0"])
    def test_beta_omega_that_overflows_is_the_ground_state(
            self, tmp_path, capsys, omega):
        text = (CONFIGS / "rabi.cfg").read_text()
        for old, new in (("bath.modes.0.omega = 1.0", f"bath.modes.0.omega = "
                          f"{omega}"),
                         ("thermal.beta = inf", "thermal.beta = 1e308")):
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "run.cfg"
        path.write_text(text + f"output.directory = {tmp_path}\n")
        assert main([str(path), "--threads", "1"]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "rabi.csv").exists()

    def test_negative_threads_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(config_text())
        assert main([str(path), "--threads", "0"]) == 2


def _reference_csv(traj) -> str:
    """The per-value writer: every value through f"{float(v):.12g}"."""
    rows = zip(traj.grid.points, traj.rho11, traj.rho22, traj.rho12)
    return "".join([CSV_HEADER + "\n"] + [
        ",".join(f"{float(v):.12g}"
                 for v in (t, p1, p2, c.real, c.imag, abs(c))) + "\n"
        for t, p1, p2, c in rows])


# 13 significant digits ending in 5: the rounding edge of 12-digit output
_ROUNDING_EDGES = st.builds(lambda m, e: float(f"{m}5e{e}"),
                            st.integers(10**11, 10**12 - 1),
                            st.integers(-330, 280))
_CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0]),
    _ROUNDING_EDGES,
    _ROUNDING_EDGES.map(lambda x: math.nextafter(x, -math.inf)),
    st.floats(-1e300, 1e300))


@settings(max_examples=25, deadline=None)
@given(n_points=st.sampled_from([1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                 CSV_CHUNK_ROWS + 1, 3 * CSV_CHUNK_ROWS + 7]),
       pool=st.lists(_CSV_VALUES, min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1))
def test_csv_matches_per_value_writer(n_points, pool, seed):
    # half drawn values, half uniform in [-1, 1], where np.abs of a complex
    # array and abs() of its elements can differ in the last bit
    rng = np.random.default_rng(seed)
    t, p1, p2, re, im = np.where(rng.random((5, n_points)) < 0.5,
                                 rng.choice(np.array(pool), (5, n_points)),
                                 rng.uniform(-1.0, 1.0, (5, n_points)))
    rho12 = np.empty(n_points, dtype=complex)  # keeps the sign of -0.0
    rho12.real, rho12.imag = re, im
    traj = SimpleNamespace(grid=SimpleNamespace(points=t), rho11=p1,
                           rho22=p2, rho12=rho12)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "traj.csv"
        _write_csv(str(path), traj)
        assert path.read_text() == _reference_csv(traj)


def test_csv_memory_bounded_per_chunk(tmp_path):
    # a pure Rabi trajectory; its 17 MB of CSV text is never held at once
    grid = TimeGrid(t_max=1000.0, n_steps=200000)
    cos, sin = np.cos(0.5 * grid.points), np.sin(0.5 * grid.points)
    states = np.empty((grid.n_steps + 1, 2, 2), dtype=complex)
    states[:, 0, 0], states[:, 1, 1] = cos**2, sin**2
    states[:, 0, 1] = 1j * cos * sin
    states[:, 1, 0] = -1j * cos * sin
    traj = ReducedTrajectory(grid, states)
    tracemalloc.start()
    try:
        _write_csv(str(tmp_path / "traj.csv"), traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the time column is 1.6 MB of it; a (n_points, 6) float copy alone
    # would be 9.6 MB
    assert peak < 5 << 20


def _list_text(values):
    return ", ".join(str(v) for v in values) if values else ","


KINDS = sorted(MODEL_KINDS)


@st.composite
def fuzz_entries(draw):
    """Tiny config overrides: one mode, at most 3 levels, at most 20 steps.

    Keys a task needs are present and consistent except in rare draws, so
    that most examples run; None drops a key."""

    def rare():
        return draw(st.integers(0, 7)) == 0

    task = draw(st.sampled_from(["trajectory", "compare", "alpha_sweep",
                                 "convergence"]))
    kind = draw(st.sampled_from(KINDS))
    if task == "alpha_sweep" and not rare():
        kind = "reduced_effective"
    partner = None
    if task in ("compare", "convergence") or rare():
        partner = draw(st.sampled_from(KINDS))
    used = {kind, partner}
    alpha = scale = None
    if used & {"correlated", "reduced_effective"} or rare():
        alpha = draw(st.floats(-1.5, 1.5))
    if "independent" in used and not rare():
        scale = draw(st.floats(-2.0, 2.0))
    size = 0 if rare() else 1  # empty lists are config errors
    alphas = st.lists(st.floats(-1.5, 1.5), min_size=size, max_size=3,
                      unique=True)
    n_max_list = st.lists(st.integers(2, 3), min_size=size, max_size=3,
                          unique=True)
    state = draw(st.sampled_from(["site1", "site2", "plus", "explicit"]))
    rho11 = rho12 = None
    if state == "explicit":
        # |rho12| up to the positivity bound sqrt(rho11 rho22), rarely beyond
        rho11 = draw(st.floats(0.0, 1.0))
        rho12 = (math.sqrt(rho11 * (1.0 - rho11))
                 * draw(st.floats(0.0, 1.2 if rare() else 1.0))
                 * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
    return {
        "bath__kind": kind,
        "bath__alpha": None if alpha is None else repr(alpha),
        "bath__coupling_scale": None if scale is None else repr(scale),
        "bath__modes__0__omega": repr(draw(st.floats(0.2, 3.0))),
        "bath__modes__0__g": repr(draw(st.floats(-1.0, 1.0))),
        "thermal__beta": draw(st.just("inf") | st.floats(0.2, 5.0).map(repr)),
        "thermal__n_max_override": str(draw(st.integers(2, 3))),
        "evolution__t_max": repr(draw(st.floats(0.5, 20.0))),
        "evolution__n_steps": str(draw(st.integers(1, 20))),
        "evolution__dim_cap": draw(st.none() | st.sampled_from(["8", "40"])),
        "initial__electronic_state": state,
        "initial__rho11": None if rho11 is None else repr(rho11),
        "initial__rho12_re": None if rho12 is None else repr(rho12.real),
        "initial__rho12_im": None if rho12 is None else repr(rho12.imag),
        "task__kind": task,
        "task__compare_with": partner,
        "task__alphas": (_list_text(sorted(draw(alphas)))
                         if task == "alpha_sweep" or rare() else None),
        "task__n_max_list": (_list_text(sorted(draw(n_max_list)))
                             if task == "convergence" or rare() else None),
    }


@pytest.mark.filterwarnings("ignore:.*outside the usual range")
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(entries=fuzz_entries())
@example(entries={"bath__kind": "reduced_effective", "bath__alpha": None,
                  "bath__coupling_scale": None, "bath__modes__0__omega": "1.0",
                  "bath__modes__0__g": "0.2", "thermal__beta": "inf",
                  "thermal__n_max_override": "3", "evolution__t_max": "1.0",
                  "evolution__n_steps": "2", "evolution__dim_cap": None,
                  "initial__electronic_state": "site1",
                  "task__kind": "alpha_sweep", "task__compare_with": None,
                  "task__alphas": ",", "task__n_max_list": None})
@example(entries={"bath__kind": "shared", "bath__alpha": "0.0",
                  "bath__coupling_scale": None, "bath__modes__0__omega": "1.0",
                  "bath__modes__0__g": "1e308", "thermal__beta": "inf",
                  "thermal__n_max_override": "3", "evolution__t_max": "10.0",
                  "evolution__n_steps": "20", "evolution__dim_cap": None,
                  "initial__electronic_state": "site1",
                  "task__kind": "convergence",
                  "task__compare_with": "reduced_effective",
                  "task__alphas": None, "task__n_max_list": "3"})
@example(entries={"bath__kind": "reduced_effective", "bath__alpha": None,
                  "bath__coupling_scale": None, "bath__modes__0__omega": "1.0",
                  "bath__modes__0__g": "10.0", "thermal__beta": "inf",
                  "thermal__n_max_override": "3", "evolution__t_max": "1.0",
                  "evolution__n_steps": "2", "evolution__dim_cap": None,
                  "initial__electronic_state": "site1",
                  "task__kind": "alpha_sweep", "task__compare_with": None,
                  "task__alphas": "-1e308, 0.0", "task__n_max_list": None})
# |rho12| 9.6e-13 over sqrt(rho11 rho22), inside the CLI's slack of 1e-12:
# the smallest eigenvalue of rho_e is -9.6e-13, which DensityMatrix must accept
@example(entries={"bath__kind": "transformed", "bath__alpha": None,
                  "bath__coupling_scale": None, "bath__modes__0__omega": "1.0",
                  "bath__modes__0__g": "0.2", "thermal__beta": "1.0",
                  "thermal__n_max_override": "3", "evolution__t_max": "10.0",
                  "evolution__n_steps": "20", "evolution__dim_cap": None,
                  "initial__electronic_state": "explicit",
                  "initial__rho11": "0.5", "initial__rho12_re": "0.3",
                  "initial__rho12_im": "0.4000000000012",
                  "task__kind": "trajectory", "task__compare_with": None,
                  "task__alphas": None, "task__n_max_list": None})
# |rho12| = 1e-6 at rho11 = 0 passed the squared bound at the same slack:
# a config error, not a failure at t = 0
@example(entries={"bath__kind": "shared", "bath__alpha": None,
                  "bath__coupling_scale": None, "bath__modes__0__omega": "1.0",
                  "bath__modes__0__g": "0.2", "thermal__beta": "1.0",
                  "thermal__n_max_override": "3", "evolution__t_max": "10.0",
                  "evolution__n_steps": "20", "evolution__dim_cap": None,
                  "initial__electronic_state": "explicit",
                  "initial__rho11": "0.0", "initial__rho12_re": "1e-6",
                  "initial__rho12_im": "0",
                  "task__kind": "trajectory", "task__compare_with": None,
                  "task__alphas": None, "task__n_max_list": None})
# ohmic_trajectory.cfg at lambda = 1e308: couplings that overflow float64
# are a config error, raised before numpy meets them
@example(entries={"bath__kind": "shared", "bath__alpha": None,
                  "bath__coupling_scale": None, "bath__modes__0__omega": None,
                  "bath__modes__0__g": None, "bath__ohmic__lambda": "1e308",
                  "bath__ohmic__gamma": "1.0", "bath__ohmic__m": "4",
                  "bath__ohmic__omega_max": "4.0", "thermal__beta": "1.0",
                  "thermal__n_max_override": "4", "evolution__t_max": "30.0",
                  "evolution__n_steps": "300", "evolution__dim_cap": None,
                  "initial__electronic_state": "site1",
                  "task__kind": "trajectory", "task__compare_with": None,
                  "task__alphas": None, "task__n_max_list": None})
def test_fuzzed_configs_exit_with_a_documented_code(entries):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "fuzz.cfg"
        path.write_text(config_text(output__directory=out, **entries))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([str(path)])
        assert code in (0, 1, 2, 3), stderr.getvalue()
        assert "Traceback" not in stderr.getvalue()
        for csv in Path(out).glob("*.csv"):
            data = np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(data).all(), csv.name
        # convergence_delta alone may be nan: a one-element n_max list or a
        # refinement over the cap has nothing to compare with
        for report in Path(out).glob("*.report"):
            for line in report.read_text().splitlines():
                key, value = line.split(" = ")
                with contextlib.suppress(ValueError):  # names and booleans
                    assert (key == "convergence_delta"
                            or math.isfinite(float(value))), line


def _cli(*args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


class TestSubprocess:
    def test_import_leaves_numpy_unloaded(self, tmp_path):
        # --threads works only if numpy loads after main sets the BLAS variables
        proc = _cli("-c", "import sys, dimerbath.cli; "
                          "print('numpy' in sys.modules)", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_bundled_populations_within_unit_interval(self, tmp_path):
        proc = _cli("-m", "dimerbath.cli",
                    str(CONFIGS / "ohmic_trajectory.cfg"), "--threads", "1",
                    cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        data = np.loadtxt(tmp_path / "ohmic_trajectory.csv", delimiter=",",
                          skiprows=1)
        pops = data[:, 1:3]
        assert pops.min() >= 0.0 and pops.max() <= 1.0

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dimerbath.cli import (
    CSV_HEADER,
    ConfigError,
    main,
    parse_config,
    run,
    serialize_config,
)

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
        assert cfg.electronic_state == "site1"
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
                                     bath__alpha="0.0",
                                     task__alphas="0.5,0.0"))

    def test_n_max_list_validation(self):
        with pytest.raises(ConfigError, match="task.n_max_list"):
            parse_config(config_text(task__kind="convergence",
                                     task__compare_with="independent",
                                     task__n_max_list="4,3"))

    @given(eps1=st.floats(-2, 2), j=st.floats(-1, 1),
           g=st.floats(-0.5, 0.5), n_steps=st.integers(1, 50))
    @settings(max_examples=25, deadline=None)
    def test_serialize_round_trip(self, eps1, j, g, n_steps):
        cfg = parse_config(config_text(electronic__eps1=repr(eps1),
                                       electronic__j=repr(j),
                                       bath__modes__0__g=repr(g),
                                       evolution__n_steps=str(n_steps)))
        assert parse_config(serialize_config(cfg)) == cfg


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

    def test_dim_cap_checked_before_assembly(self, tmp_path, capsys):
        # 2 * 20^8 states: numpy refuses the allocation, so assembly must not start
        modes = {f"bath__modes__{i}__{key}": value for i in range(8)
                 for key, value in (("omega", "1.0"), ("g", "0.2"))}
        text = config_text(output__directory=str(tmp_path),
                           thermal__n_max_override="20", **modes)
        assert run(parse_config(text)) == 3
        err = capsys.readouterr().err
        assert "resource-cap" in err and "Traceback" not in err

    def test_dim_cap_covers_every_convergence_truncation(self, tmp_path, capsys):
        text = config_text(task__kind="convergence",
                           task__compare_with="independent",
                           task__n_max_list="4,6,8",
                           evolution__dim_cap="100",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 3
        assert "independent model at n_max 8" in capsys.readouterr().err
        assert not (tmp_path / "out.report").exists()


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
        text = config_text(bath__kind="reduced_effective", bath__alpha="0.0",
                           task__kind="alpha_sweep",
                           task__alphas="-0.5,0.0,0.5,1.0",
                           thermal__n_max_override="5",
                           output__directory=str(tmp_path))
        assert run(parse_config(text)) == 0
        for a in ("-0.5", "0", "0.5", "1"):
            assert (tmp_path / f"out_alpha_{a}.csv").exists()
        report = (tmp_path / "out.report").read_text()
        assert "effective_coupling_strictly_decreasing = true" in report


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

    def test_negative_threads_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(config_text())
        assert main([str(path), "--threads", "0"]) == 2

"""Tests of the benchmark itself, on tiny dims.

Run from the repository root: ``python -m pytest -q bench/tests``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import FUNCTIONS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def db():
    return workloads.load_modules()


@pytest.fixture
def workdir():
    (ROOT / run.OUT_DIR).mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / run.OUT_DIR))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def tracer(db):
    t = Tracer()
    t.install(np)
    yield t
    t.uninstall()


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_pass_of_every_workload(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_gives_every_layer_metric():
    proc = _bench("--workload", "pair_2mode", "--seed", "0", "--seconds", "0.1",
                  "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.layer_units()
    assert result["metrics"]["spaces.is_hermitian_calls"]["value"] == 4


def test_exits_nonzero_outside_a_checkout(workdir):
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    proc = _bench("--workload", "configs", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_crashed_pass_is_a_failed_pass(workdir):
    p = run.run_child(ROOT, workdir, "no_such_workload", 0, "tiny", 60.0)
    assert not p["ok"] and "exit code" in p["error"]


def test_children_run_one_blas_thread(workdir):
    p = run.run_child(ROOT, workdir, "factorization", 0, "tiny", 60.0)
    assert p["ok"] and p["metadata"]["blas_threads"] == 1


def test_tracer_replaces_every_binding(db, tracer):
    by_name = ("partial_trace_matrix", "permute_factors_matrix", "initial_state",
               "evolve_reduced", "build_reduced_effective")
    for _, module, attr in FUNCTIONS:
        original = getattr(getattr(db, module), attr).__wrapped__
        for mod in vars(db).values():
            assert all(v is not original for v in vars(mod).values())
    originals = {attr: getattr(db.equivalence, attr).__wrapped__ for attr in by_name}
    eigh = np.linalg.eigh.__wrapped__
    is_hermitian = db.spaces.Operator.is_hermitian.__wrapped__
    tracer.uninstall()
    for attr, original in originals.items():
        assert getattr(db.equivalence, attr) is original
    assert db.spaces.Operator.is_hermitian is is_hermitian
    assert np.linalg.eigh is eigh


def test_self_time_excludes_children():
    ticks = iter([0.0, 2.0, 5.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    inner = t.wrap("spaces.is_hermitian", lambda: None)
    t.wrap("models.build", inner)()
    metrics = t.layer_metrics()
    assert metrics["models.build_s"] == 7.0
    assert metrics["spaces.is_hermitian_s"] == 3.0
    assert metrics["models.builds"] == 1


def test_factorization_span_counts(db, tracer, workdir):
    w = workloads.Factorization(db, ROOT, 0, "tiny", workdir)
    ops = w.op_names(ROOT, "tiny")
    for op in ops:
        w.run(op)
    names = [s[0] for s in tracer.spans]
    n_points = w.grid.n_steps + 1
    assert names.count("spaces.partial_trace") == 2 * n_points * len(ops)
    assert names.count("spaces.permute") == n_points * len(ops)
    assert names.count("numpy.eigvalsh") == n_points * len(ops)
    m = tracer.layer_metrics()
    assert m["dynamics.eigh_calls"] == len(ops) and m["models.builds"] == len(ops)
    assert m["dynamics.trajectories"] == 0


def test_is_hermitian_calls_match_constructions(db, tracer, workdir, monkeypatch):
    n_models = 0
    post_init = db.models.TotalModel.__post_init__

    def counting(self):
        nonlocal n_models
        n_models += 1
        post_init(self)

    monkeypatch.setattr(db.models.TotalModel, "__post_init__", counting)
    w = workloads.Configs(db, ROOT, 0, "tiny", workdir)
    for op in w.op_names(ROOT, "tiny"):
        assert w.check(op, w.outputs(op, w.run(op))) == []
    m = tracer.layer_metrics()
    n_propagators = sum(1 for s in tracer.spans if s[0] == "dynamics.propagator")
    assert m["spaces.is_hermitian_calls"] == n_models + n_propagators
    # alpha_sweep diagonalizes every Hamiltonian twice
    assert m["dynamics.eigh_unique_ratio"] < 1
    assert m["models.builds"] < n_models  # reduced_effective nests a shared build


def test_seed_zero_runs_the_bundled_configs(db, workdir):
    for name in workloads.Configs.op_names(ROOT, "full"):
        text = (ROOT / "configs" / name).read_text()
        bundled = db.cli.parse_config(text)
        seeded = db.cli.parse_config(
            workloads.jitter_config(text, workloads.Jitter(0), workdir))
        assert seeded == dataclasses.replace(bundled, out_dir=str(workdir))


def test_nonzero_seed_jitters_parameters_not_sizes(db, workdir):
    base = workloads.Configs(db, ROOT, 0, "full", workdir)
    jittered = workloads.Configs(db, ROOT, 7, "full", workdir)
    assert base.metadata() == jittered.metadata()
    changed = 0
    for name, cfg in base.configs.items():
        other = jittered.configs[name]
        pairs = [(cfg.eps1, other.eps1), (cfg.eps2, other.eps2), (cfg.j, other.j)]
        pairs += [(g, h) for (_, g), (_, h) in zip(cfg.modes, other.modes)]
        for x, y in pairs:
            assert abs(y - x) <= workloads.JITTER * abs(x)
            changed += x != y
        assert [w for w, _ in cfg.modes] == [w for w, _ in other.modes]
        assert (cfg.t_max, cfg.n_steps, cfg.tail_tol) == \
            (other.t_max, other.n_steps, other.tail_tol)
    assert changed > 0


def test_checks_flag_bad_outputs(db, workdir):
    pair = workloads.Pair2Mode(db, ROOT, 0, "tiny", workdir)
    assert pair.check("compare", {"per_time_distance": [0.0, math.nan],
                                  "max_distance": math.nan})
    assert pair.check("compare", {"per_time_distance": [0.0, 0.1],
                                  "max_distance": 0.1}) == []
    fact = workloads.Factorization(db, ROOT, 0, "tiny", workdir)
    assert fact.check("n_max=3", {"defect": [0.0, 2e-7]})
    long = workloads.LongTrajectory(db, ROOT, 0, "tiny", workdir)
    op = "long_trajectory.cfg"
    rows = [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]] * 201
    assert long.check(op, {"exit": 0, "files": {"long_trajectory.csv": rows}}) == []
    assert long.check(op, {"exit": 0, "files": {"long_trajectory.csv": rows[:-1]}})
    assert long.check(op, {"exit": 3, "files": {}})
    bad = [[0.0, 0.9, 0.0, 0.0, 0.0, 0.0]] + rows[1:]
    assert long.check(op, {"exit": 0, "files": {"long_trajectory.csv": bad}})


def test_reference_comparison_tolerance():
    ref = {"exit": 0, "rows": [[1.0, math.nan], [2.0, 3.0]], "ok": True, "d": 1e-8}
    assert workloads.compare_outputs(
        {"exit": 0, "rows": [[1.0 + 1e-12, math.nan], [2.0, 3.0]], "ok": True,
         "d": 1e-8 + 1e-14}, ref) == []
    assert workloads.compare_outputs(
        {"exit": 0, "rows": [[1.0 + 1e-6, math.nan], [2.0, 3.0]], "ok": True,
         "d": 1e-8}, ref)
    assert workloads.compare_outputs(dict(ref, ok=False), ref)
    assert workloads.compare_outputs(dict(ref, exit=1), ref)
    assert workloads.compare_outputs(dict(ref, d=2e-8), ref)

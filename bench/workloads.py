"""The four benchmark workloads: inputs made from a seed, the timed operations,
and the checks that make an operation fail.

Workload objects receive the imported ``dimerbath`` modules, so this file
never imports the package itself. See README.md for why each workload exists.
"""

from __future__ import annotations

import gzip
import json
import math
import random
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCALES = ("full", "tiny")

#: relative jitter of eps1, eps2, j and every mode g at a non-zero seed
JITTER = 0.05
#: tolerance of the seed-0 comparison against the stored reference outputs
REF_ATOL = 1e-10
REF_RTOL = 1e-8
#: population-sum tolerance, the one the CLI itself enforces
POP_TOL = 1e-9
#: criterion-5 gate on the center-of-mass factorization defect
FACTORIZATION_TOL = 1e-7

ELECTRONIC = (0.25, -0.25, 0.5)  # eps1, eps2, j of every acceptance criterion

SKIPPED_CONFIGS = (
    "many_mode_equivalence.cfg",  # exits 1 by design
    # 13 s and 10.5 s: one pass of either is too long for a steady median
    "alpha_equivalence.cfg", "single_mode_equivalence.cfg",
)
_JITTERED_KEY = re.compile(r"electronic\.(eps1|eps2|j)|bath\.modes\.\d+\.g")


class Jitter:
    """Seed 0 returns values unchanged; other seeds scale each by 1 +- JITTER."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed) if seed else None

    def __call__(self, x: float) -> float:
        if self.rng is None:
            return x
        return x * (1.0 + self.rng.uniform(-JITTER, JITTER))


def jitter_config(text: str, jitter: Jitter, out_dir: Path) -> str:
    """Config text with jittered parameters and the output directory replaced.

    An Ohmic block has no per-mode g; its lambda is scaled by the square of
    one jitter factor, since every g_k grows as sqrt(lambda).
    """
    lines = []
    for raw in text.splitlines():
        key, sep, value = raw.split("#", 1)[0].partition("=")
        key = key.strip()
        if sep and _JITTERED_KEY.fullmatch(key):
            raw = f"{key} = {jitter(float(value))!r}"
        elif sep and key == "bath.ohmic.lambda":
            raw = f"{key} = {float(value) * jitter(1.0) ** 2!r}"
        elif sep and key == "output.directory":
            continue
        lines.append(raw)
    lines.append(f"output.directory = {out_dir}")
    return "\n".join(lines) + "\n"


def fock_factors(kind: str, n_modes: int) -> int:
    return n_modes if kind in ("shared", "reduced_effective") else 2 * n_modes


def read_csv(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def read_report(path: Path) -> dict:
    items = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if value in ("true", "false"):
            items[key] = value == "true"
        else:
            try:
                items[key] = float(value)
            except ValueError:
                items[key] = value
    return items


def check_csv(name: str, rows: list[list[float]], n_rows: int) -> list[str]:
    a = np.asarray(rows, dtype=float).reshape(len(rows), -1)
    problems = []
    if a.shape != (n_rows, 6):
        problems.append(f"{name}: shape {a.shape}, expected ({n_rows}, 6)")
    elif not np.isfinite(a).all():
        problems.append(f"{name}: non-finite values")
    elif np.abs(a[:, 1] + a[:, 2] - 1.0).max() > POP_TOL:
        problems.append(f"{name}: population sum off 1")
    return problems


def site1(db):
    return db.spaces.DensityMatrix(db.spaces.SpaceLayout.electronic_only(),
                                   np.diag([1.0, 0.0]).astype(complex))


def electronic(db, jitter: Jitter):
    return db.models.ElectronicParams(*(jitter(x) for x in ELECTRONIC))


class CliWorkload:
    """Ops are config files run in-process through ``dimerbath.cli.main``."""

    def __init__(self, db, texts: dict[str, str], workdir: Path):
        self.db = db
        self.paths, self.configs = {}, {}
        for name, text in texts.items():
            path = workdir / name
            path.write_text(text)
            self.paths[name] = path
            self.configs[name] = db.cli.parse_config(text)

    def run(self, op):
        return self.db.cli.main([str(self.paths[op])])

    def outputs(self, op, exit_code) -> dict:
        out_dir = Path(self.configs[op].out_dir)
        files = {}
        for f in sorted(out_dir.iterdir()) if out_dir.is_dir() else ():
            files[f.name] = read_csv(f) if f.suffix == ".csv" else read_report(f)
        return {"exit": exit_code, "files": files}

    def check(self, op, out) -> list[str]:
        cfg = self.configs[op]
        if out["exit"] != 0:
            return [f"exit code {out['exit']}"]
        csvs = {k: v for k, v in out["files"].items() if k.endswith(".csv")}
        n_csv = len(cfg.alphas) if cfg.task == "alpha_sweep" else (
            0 if cfg.task == "convergence" else 1)
        problems = [] if len(csvs) == n_csv else [f"{len(csvs)} CSV files"]
        for name, rows in csvs.items():
            problems += check_csv(name, rows, cfg.n_steps + 1)
        report = out["files"].get(cfg.basename + ".report")
        if cfg.task == "trajectory":
            return problems
        if report is None:
            return problems + ["no report"]
        if cfg.task == "compare":
            if not (report["converged"] is True
                    and report["max_trace_distance"] < cfg.threshold):
                problems.append("report fails the config's compare gate")
        elif cfg.task == "convergence":
            delta_ok = report["convergence_delta"] < self.db.equivalence.CONVERGENCE_TOL
            if not report["monotone_non_increasing"] or report["converged"] != delta_ok:
                problems.append("report fails the config's convergence gate")
        elif not report["effective_coupling_strictly_decreasing"]:
            problems.append("report fails the config's alpha-sweep gate")
        return problems

    def csv_rows(self, out) -> int:
        return sum(len(v) for k, v in out["files"].items() if k.endswith(".csv"))

    def config_metadata(self, cfg) -> dict:
        spec = self.db.thermal.ThermalSpec(cfg.beta, cfg.tail_tol)
        if cfg.n_max_override is not None:
            n_max = cfg.n_max_override
        else:
            omegas = ([w for w, _ in cfg.modes] if cfg.modes else
                      [m.omega for m in self.db.models.ohmic_drude_modes(*cfg.ohmic)])
            n_max = max(self.db.thermal.choose_truncation(w, spec) for w in omegas)
        n_modes = len(cfg.modes) or cfg.ohmic[2]
        kinds = [cfg.bath_kind] + ([cfg.compare_with] if cfg.compare_with else [])
        truncations = list(cfg.n_max_list) or [n_max]
        if cfg.task == "compare":
            truncations.append(n_max + self.db.equivalence.CONVERGENCE_STEP)
        return {"task": cfg.task, "n_max": truncations,
                "dims": {k: [2 * n ** fock_factors(k, n_modes) for n in truncations]
                         for k in kinds},
                "t_max": cfg.t_max, "n_steps": cfg.n_steps}


class Configs(CliWorkload):
    name = "configs"

    @staticmethod
    def op_names(root: Path, scale: str) -> list[str]:
        return sorted(p.name for p in (root / "configs").glob("*.cfg")
                      if p.name not in SKIPPED_CONFIGS)

    def __init__(self, db, root, seed, scale, workdir):
        jitter = Jitter(seed)
        super().__init__(db, {
            name: jitter_config((root / "configs" / name).read_text(), jitter,
                                workdir / Path(name).stem)
            for name in self.op_names(root, scale)}, workdir)

    def metadata(self):
        return {name: self.config_metadata(cfg) for name, cfg in self.configs.items()}


class LongTrajectory(CliWorkload):
    name = "long_trajectory"
    SIZES = {"full": dict(tail_tol=1e-4, t_max=1000.0, n_steps=20000),
             "tiny": dict(tail_tol=1e-1, t_max=10.0, n_steps=200)}

    @staticmethod
    def op_names(root, scale):
        return ["long_trajectory.cfg"]

    def __init__(self, db, root, seed, scale, workdir):
        size = self.SIZES[scale]
        jitter = Jitter(seed)
        text = "\n".join([
            "bath.kind = independent",
            "electronic.eps1 = 0.25", "electronic.eps2 = -0.25",
            "electronic.j = 0.5",
            "bath.modes.0.omega = 1.0", "bath.modes.0.g = 0.2",
            "thermal.beta = 1.0", f"thermal.tail_tol = {size['tail_tol']!r}",
            f"evolution.t_max = {size['t_max']!r}",
            f"evolution.n_steps = {size['n_steps']}",
            "task.kind = trajectory", "output.basename = long_trajectory"])
        super().__init__(db, {"long_trajectory.cfg": jitter_config(
            text, jitter, workdir / "long_trajectory")}, workdir)

    def metadata(self):
        return self.config_metadata(self.configs["long_trajectory.cfg"])


class Pair2Mode:
    """Criterion-2 pair: two shared modes against four independent local modes."""

    name = "pair_2mode"
    MODES = ((0.8, 0.15), (1.3, 0.1))
    # the refinement (n_max + 2) is over the cap at both scales, as in criterion 2
    SIZES = {"full": dict(n_max=5, n_steps=500, dim_cap=None),
             "tiny": dict(n_max=3, n_steps=50, dim_cap=200)}

    @staticmethod
    def op_names(root, scale):
        return ["compare"]

    def __init__(self, db, root, seed, scale, workdir):
        self.db, self.size = db, self.SIZES[scale]
        self.dim_cap = self.size["dim_cap"] or db.dynamics.DEFAULT_DIM_CAP
        jitter = Jitter(seed)
        self.params = electronic(db, jitter)
        self.modes = [db.models.ModeSpec(w, jitter(g)) for w, g in self.MODES]
        self.spec = db.thermal.ThermalSpec(1.0)
        self.grid = db.dynamics.TimeGrid(50.0, self.size["n_steps"])
        self.rho_e0 = site1(db)

    def run(self, op):
        m, n = self.db.models, self.size["n_max"]
        shared = m.build_shared_anticorrelated(self.params, self.modes, n)
        indep = m.build_independent_local(self.params, self.modes, n)
        return self.db.equivalence.compare_reduced(
            shared, indep, self.rho_e0, self.spec, self.grid, dim_cap=self.dim_cap)

    def outputs(self, op, report):
        return {"per_time_distance": report.per_time_distance.tolist(),
                "max_distance": report.max_distance,
                "converged": report.converged,
                "convergence_delta": report.convergence_delta,
                "n_max_used": report.n_max_used}

    def check(self, op, out):
        d = np.asarray(out["per_time_distance"])
        # criterion 2 being red (not converged, delta nan) is the documented physics
        if not (np.isfinite(d).all() and 0.0 < out["max_distance"] < 1.0):
            return [f"distance {out['max_distance']!r} not finite in (0, 1)"]
        return []

    def csv_rows(self, out):
        return 0

    def metadata(self):
        n = self.size["n_max"]
        fine = n + self.db.equivalence.CONVERGENCE_STEP
        return {"n_max": n, "dims": [2 * n ** 2, 2 * n ** 4],
                "refined_dims": [2 * fine ** 2, 2 * fine ** 4], "dim_cap": self.dim_cap,
                "t_max": self.grid.t_max, "n_steps": self.grid.n_steps}


class Factorization:
    """Criterion 5: center-of-mass factorization defect of the transformed model."""

    name = "factorization"
    SIZES = {"full": dict(n_max=(11,), n_steps=200),
             "tiny": dict(n_max=(3, 5), n_steps=20)}

    @classmethod
    def op_names(cls, root, scale):
        return [f"n_max={n}" for n in cls.SIZES[scale]["n_max"]]

    def __init__(self, db, root, seed, scale, workdir):
        self.db, self.size = db, self.SIZES[scale]
        jitter = Jitter(seed)
        self.params = electronic(db, jitter)
        self.mode = db.models.ModeSpec(1.0, jitter(0.2))
        self.spec = db.thermal.ThermalSpec(1.0, tail_tol=1e-3)
        self.grid = db.dynamics.TimeGrid(50.0, self.size["n_steps"])
        self.rho_e0 = site1(db)

    def run(self, op):
        n = int(op.split("=")[1])
        model = self.db.models.build_transformed(self.params, [self.mode], n)
        rho0 = self.db.thermal.initial_state(self.rho_e0, model, self.spec)
        return self.db.equivalence.factorization_check(model, rho0, self.grid)

    def outputs(self, op, defects):
        return {"defect": defects.tolist()}

    def check(self, op, out):
        d = np.asarray(out["defect"])
        if not (np.isfinite(d).all() and d.max() < FACTORIZATION_TOL):
            return [f"factorization defect {d.max():.3e} >= {FACTORIZATION_TOL:g}"]
        return []

    def csv_rows(self, out):
        return 0

    def metadata(self):
        return {"n_max": list(self.size["n_max"]),
                "dims": [2 * n ** 2 for n in self.size["n_max"]],
                "tail_tol": self.spec.tail_tol,
                "t_max": self.grid.t_max, "n_steps": self.grid.n_steps}


WORKLOADS = {w.name: w for w in (Configs, Pair2Mode, Factorization, LongTrajectory)}


def load_modules():
    """Import every dimerbath module; the package must already be importable."""
    import importlib

    return SimpleNamespace(**{
        name: importlib.import_module(f"dimerbath.{name}")
        for name in ("spaces", "models", "thermal", "dynamics", "equivalence", "cli")})


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def read_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def write_reference(workload: str, outputs: dict):
    REFERENCE_DIR.mkdir(exist_ok=True)
    with gzip.open(reference_path(workload), "wt") as fh:
        json.dump(outputs, fh, separators=(",", ":"))


def compare_outputs(actual, expected, where="") -> list[str]:
    """Differences beyond REF_ATOL + REF_RTOL * |expected|; nan matches nan."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        return [p for k in expected
                for p in compare_outputs(actual[k], expected[k], f"{where}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        try:
            a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
        except ValueError:
            return [p for i, (x, y) in enumerate(zip(actual, expected))
                    for p in compare_outputs(x, y, f"{where}[{i}]")]
        if a.shape != e.shape or not np.allclose(a, e, rtol=REF_RTOL,
                                                 atol=REF_ATOL, equal_nan=True):
            return [f"{where}: values differ from the reference"]
        return []
    if isinstance(expected, float) and not isinstance(actual, bool):
        if isinstance(actual, (int, float)) and (
                (math.isnan(expected) and math.isnan(actual))
                or abs(actual - expected) <= REF_ATOL + REF_RTOL * abs(expected)):
            return []
        return [f"{where}: {actual!r} differs from the reference {expected!r}"]
    return [] if actual == expected else [
        f"{where}: {actual!r} differs from the reference {expected!r}"]

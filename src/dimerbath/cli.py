"""Configuration-driven runner.

The experiment record is a single flat config file of ``section.key = value``
lines; the only other command-line input is ``--threads N``. Tasks:

* ``trajectory``   -- one reduced trajectory, written as CSV;
* ``compare``      -- reduced-dynamics comparison against a second model kind,
                      CSV plus a ``.report`` file with the convergence
                      certificate;
* ``alpha_sweep``  -- the trajectory task once per alpha, one CSV each, plus
                      a report with the effective couplings;
* ``convergence``  -- comparison distances across an explicit n_max list.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 resource cap.

Heavy imports (numpy and the modules that use it) happen inside functions,
never at module level, so that ``--threads`` can still pin the BLAS thread
count through environment variables.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import dimerbath

TASK_KINDS = ("trajectory", "compare", "alpha_sweep", "convergence")
# keys that only some task kinds read, with those kinds; a config that sets
# one for any other task kind is a config error, not a run that ignores it
TASK_KEYS = {
    "bath.alpha": ("trajectory", "compare", "convergence"),
    "thermal.n_max_override": ("trajectory", "compare", "alpha_sweep"),
    "thermal.tail_tol": ("trajectory", "compare", "alpha_sweep"),
    "task.compare_with": ("compare", "convergence"),
    "task.alphas": ("alpha_sweep",),
    "task.n_max_list": ("convergence",),
    "task.threshold": ("compare",),
}
# (rho11, Re rho12, Im rho12) of each named initial electronic state
NAMED_STATES = {"site1": (1.0, 0.0, 0.0), "site2": (0.0, 0.0, 0.0),
                "plus": (0.5, 0.5, 0.0)}

CSV_HEADER = "time,pop_site1,pop_site2,coh_re,coh_im,coh_abs"
_CSV_ROW = ",".join(["%.12g"] * 6) + "\n"
# rows per write in _write_csv; one chunk peaks at about 1.8 MB
CSV_CHUNK_ROWS = 4096


class ConfigError(ValueError):
    """Invalid config text; the message names the offending key and line."""


class VerificationError(RuntimeError):
    """A run-time invariant or comparison threshold failed."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; one instance is one experiment record."""

    eps1: float
    eps2: float
    j: float
    bath_kind: str
    alpha: float | None
    coupling_scale: float | None
    modes: tuple[tuple[float, float], ...]  # (omega, g) pairs
    ohmic: tuple[float, float, int, float] | None  # lambda, gamma, m, omega_max
    beta: float
    tail_tol: float
    n_max_override: int | None
    t_max: float
    n_steps: int
    dim_cap: int
    rho_e: tuple[float, float, float]  # rho11, re rho12, im rho12
    task: str
    compare_with: str | None
    alphas: tuple[float, ...]
    n_max_list: tuple[int, ...]
    threshold: float
    out_dir: str
    basename: str


def _parse_entries(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (value, lineno)
    return entries


class _Entries:
    """Schema-checked access to parsed key-value pairs."""

    def __init__(self, entries: dict[str, tuple[str, int]]):
        self.entries = entries
        self.consumed: set[str] = set()

    def fail(self, key: str, message: str):
        if key in self.entries:
            lineno = self.entries[key][1]
            raise ConfigError(f"{key} (line {lineno}): {message}")
        raise ConfigError(f"{key}: {message}")

    def get(self, key: str, conv, default=None, required: bool = False):
        """The key's value through conv; a ValueError from conv names the key."""
        if key not in self.entries:
            if required:
                raise ConfigError(f"{key}: required key missing")
            return default
        self.consumed.add(key)
        try:
            return conv(self.entries[key][0])
        except ValueError as exc:
            self.fail(key, str(exc))

    def reject_unknown(self):
        unknown = set(self.entries) - self.consumed
        if unknown:
            self.fail(min(unknown, key=lambda k: self.entries[k][1]),
                      "unknown key")


def _parsed(kind, what: str):
    def conv(raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ValueError(f"expected {what}, got {raw!r}") from None
    return conv


_number = _parsed(float, "a number")  # inf and nan included
_integer = _parsed(int, "an integer")


def _finite(raw: str) -> float:
    value = _number(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _path(raw: str) -> str:
    if "\0" in raw:
        raise ValueError("a path cannot hold a NUL character")
    return raw


def _one_of(options):
    def conv(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return raw
    return conv


def _list_of(conv):
    def parse(raw: str) -> tuple:
        values = tuple(conv(part.strip()) for part in raw.split(",")
                       if part.strip())
        if not values:
            raise ValueError(f"empty list {raw!r}")
        return values
    return parse


def _strictly_ascending(values: tuple) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


def _alpha_csv(base: str, alpha: float) -> str:
    """The alpha_sweep CSV file of one alpha."""
    return f"{base}_alpha_{alpha:g}.csv"


def _parse_modes(e: _Entries) -> tuple[tuple[float, float], ...]:
    indices = set()
    for key in e.entries:
        parts = key.split(".")
        if len(parts) == 4 and parts[:2] == ["bath", "modes"]:
            try:
                indices.add(int(parts[2]))
            except ValueError:
                e.fail(key, "mode index must be an integer")
    if not indices:
        return ()
    if sorted(indices) != list(range(len(indices))):
        raise ConfigError("bath.modes: mode indices must be contiguous from 0")
    modes = []
    for i in sorted(indices):
        omega = e.get(f"bath.modes.{i}.omega", _finite, required=True)
        g = e.get(f"bath.modes.{i}.g", _finite, required=True)
        if omega <= 0:
            e.fail(f"bath.modes.{i}.omega", "frequency must be positive")
        modes.append((omega, g))
    return tuple(modes)


def parse_config(text: str) -> RunConfig:
    """Parse and validate the line-oriented config format."""
    from .models import DEFAULT_DIM_CAP, MODEL_KINDS, Box

    def n_max(raw: str) -> int:  # Box holds the n_max >= 2 rule
        return Box(_integer(raw)).n_max

    e = _Entries(_parse_entries(text))

    eps1 = e.get("electronic.eps1", _finite, 0.0)
    eps2 = e.get("electronic.eps2", _finite, 0.0)
    j = e.get("electronic.j", _finite, 0.0)

    bath_kind = e.get("bath.kind", _one_of(MODEL_KINDS), required=True)
    alpha = e.get("bath.alpha", _finite)
    coupling_scale = e.get("bath.coupling_scale", _finite)

    modes = _parse_modes(e)
    ohmic = None
    if any(k.startswith("bath.ohmic.") for k in e.entries):
        lam = e.get("bath.ohmic.lambda", _finite, required=True)
        gamma = e.get("bath.ohmic.gamma", _finite, required=True)
        m = e.get("bath.ohmic.m", _integer, required=True)
        omega_max = e.get("bath.ohmic.omega_max", _finite, required=True)
        if lam < 0 or gamma <= 0 or omega_max <= 0 or m < 1:
            raise ConfigError("bath.ohmic: parameters must be positive")
        ohmic = (lam, gamma, m, omega_max)
    if modes and ohmic:
        raise ConfigError("bath.modes: give either explicit modes or an "
                          "ohmic block, not both")
    if not modes and not ohmic:
        raise ConfigError("bath.modes: no modes given (and no ohmic block)")

    beta = e.get("thermal.beta", _number, required=True)
    if not beta > 0:  # nan too
        e.fail("thermal.beta", "must be positive (or inf)")
    tail_tol = e.get("thermal.tail_tol", _finite, 1e-8)
    if not 0 < tail_tol < 1:
        e.fail("thermal.tail_tol", "must be in (0, 1)")
    n_max_override = e.get("thermal.n_max_override", n_max)
    if n_max_override is not None and "thermal.tail_tol" in e.entries:
        e.fail("thermal.tail_tol", "not read when thermal.n_max_override "
               "is set")

    t_max = e.get("evolution.t_max", _finite, required=True)
    if t_max <= 0:
        e.fail("evolution.t_max", "must be positive")
    n_steps = e.get("evolution.n_steps", _integer, 500)
    if n_steps < 1:
        e.fail("evolution.n_steps", "must be >= 1")
    dim_cap = e.get("evolution.dim_cap", _integer, DEFAULT_DIM_CAP)
    if dim_cap < 1:
        e.fail("evolution.dim_cap", "must be >= 1")

    state = e.get("initial.electronic_state",
                  _one_of((*NAMED_STATES, "explicit")), "site1")
    if state == "explicit":
        rho11 = e.get("initial.rho11", _finite, required=True)
        re12 = e.get("initial.rho12_re", _finite, required=True)
        im12 = e.get("initial.rho12_im", _finite, required=True)
        if not 0 <= rho11 <= 1:
            e.fail("initial.rho11", "population must lie in [0, 1]")
        # the slack is on the modulus, well inside the 1e-9 with which
        # ReducedTrajectory bounds |rho12| by sqrt(rho11 rho22)
        if math.hypot(re12, im12) > math.sqrt(rho11 * (1 - rho11)) + 1e-12:
            e.fail("initial.rho12_re", "coherence violates positivity")
        rho_e = (rho11, re12, im12)
    else:
        rho_e = NAMED_STATES[state]

    task = e.get("task.kind", _one_of(TASK_KINDS), required=True)
    unread = [key for key, readers in TASK_KEYS.items()
              if key in e.entries and task not in readers]
    if unread:
        key = min(unread, key=lambda k: e.entries[k][1])
        e.fail(key, f"not read by task.kind={task} (read by "
               f"{', '.join(TASK_KEYS[key])})")
    if task == "alpha_sweep" and bath_kind != "reduced_effective":
        e.fail("bath.kind", "task.kind=alpha_sweep builds reduced_effective "
               f"models, got {bath_kind!r}")
    compare_with = e.get("task.compare_with", _one_of(MODEL_KINDS))
    if task in ("compare", "convergence") and compare_with is None:
        raise ConfigError(f"task.compare_with: required for task.kind={task}")
    # a parameter is valid when either model takes it; alpha has no default,
    # except in alpha_sweep, which takes its values from task.alphas
    for param, value in (("alpha", alpha), ("coupling_scale", coupling_scale)):
        takers = [k for k, kind in MODEL_KINDS.items() if kind.parameter == param]
        used = [f"{key}={k}" for key, k in (("bath.kind", bath_kind),
                                             ("task.compare_with", compare_with))
                if k in takers]
        if (value is None and used and param == "alpha"
                and task != "alpha_sweep"):
            raise ConfigError(f"bath.alpha: required for {used[0]}")
        if value is not None and not used:
            e.fail(f"bath.{param}", "only valid when bath.kind or "
                   f"task.compare_with is {' or '.join(takers)}")
    alphas = e.get("task.alphas", _list_of(_finite), (),
                   required=(task == "alpha_sweep"))
    if not _strictly_ascending(alphas):
        e.fail("task.alphas", "alpha list must be strictly ascending")
    # {a:g} rounds monotonically, so a shared file name is an adjacent pair
    for a, b in zip(alphas, alphas[1:]):
        if _alpha_csv("", a) == _alpha_csv("", b):
            e.fail("task.alphas", f"alphas {a!r} and {b!r} share the CSV "
                   f"file suffix {_alpha_csv('', a)}")
    n_max_list = e.get("task.n_max_list", _list_of(n_max), (),
                       required=(task == "convergence"))
    if not _strictly_ascending(n_max_list):
        e.fail("task.n_max_list", "must be a strictly ascending list of "
               "integers")
    threshold = e.get("task.threshold", _finite, 1e-6)
    if threshold <= 0:
        e.fail("task.threshold", "must be positive")

    out_dir = e.get("output.directory", _path, ".")
    basename = e.get("output.basename", _path, required=True)

    e.reject_unknown()
    return RunConfig(
        eps1=eps1, eps2=eps2, j=j, bath_kind=bath_kind, alpha=alpha,
        coupling_scale=coupling_scale, modes=modes, ohmic=ohmic, beta=beta,
        tail_tol=tail_tol, n_max_override=n_max_override, t_max=t_max,
        n_steps=n_steps, dim_cap=dim_cap, rho_e=rho_e, task=task,
        compare_with=compare_with, alphas=alphas, n_max_list=n_max_list,
        threshold=threshold, out_dir=out_dir, basename=basename)


def _build_model(config: RunConfig, kind: str, modes, n_max: int):
    from . import models

    p = models.ElectronicParams(config.eps1, config.eps2, config.j)
    return models.build(kind, p, modes, n_max, config.alpha,
                        config.coupling_scale, config.dim_cap)


def _initial_electronic(config: RunConfig):
    from .spaces import DensityMatrix, SpaceLayout

    rho11, re12, im12 = config.rho_e
    return DensityMatrix(SpaceLayout.electronic_only(),
                         [[rho11, complex(re12, im12)],
                          [complex(re12, -im12), 1.0 - rho11]])


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _open_output(path: str):
    # the directory is made at the first write: a failed run creates nothing
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot write {path}: "
                          f"{exc.strerror or exc}") from exc


def _write_csv(path: str, traj):
    """Write the trajectory CSV one chunk of CSV_CHUNK_ROWS rows at a time.

    "%.12g" gives the digits of _format's f"{v:.12g}", and np.hypot those of
    abs() of each complex128 element (np.abs of a complex array can differ
    from it in the last bit), so the bytes are those of a per-value writer.
    Beyond the time column, memory stays O(CSV_CHUNK_ROWS).
    """
    import numpy as np

    points, rho12 = traj.grid.points, traj.rho12
    with _open_output(path) as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, len(points), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            re, im = rho12[rows].real, rho12[rows].imag
            table = np.stack((points[rows], traj.rho11[rows],
                              traj.rho22[rows], re, im, np.hypot(re, im)),
                             axis=1)
            fh.write((_CSV_ROW * len(table)) % tuple(table.ravel().tolist()))


def _write_report(path: str, items: dict):
    with _open_output(path) as fh:
        for key, value in items.items():
            fh.write(f"{key} = {_format(value)}\n")


def _exit_status(call, *args) -> int:
    """call(*args), or the exit code of the named failure it raises, printed."""
    try:
        return call(*args)
    except ConfigError as exc:
        label, code, failure = "config-error", 2, exc
    # the package imports its modules lazily: a config error never loads numpy
    except dimerbath.models.ModelBuildError as exc:
        label, code, failure = "config-error", 2, exc
    except (VerificationError, dimerbath.dynamics.TrajectoryError) as exc:
        label, code, failure = "verification-failure", 1, exc
    except dimerbath.models.DimensionCapError as exc:
        label, code, failure = "resource-cap", 3, exc
    except MemoryError as exc:  # a backstop behind the caps
        label, code, failure = "resource-cap", 3, str(exc) or "out of memory"
    print(f"{label}: {failure}", file=sys.stderr)
    return code


def run(config: RunConfig) -> int:
    """Execute one config; returns the process exit status."""
    return _exit_status(_run, config)


def _run(config: RunConfig) -> int:
    from . import dynamics, equivalence, models, thermal

    # the grid checks its point count against its cap before anything is built
    grid = dynamics.TimeGrid(config.t_max, config.n_steps)
    if config.ohmic is not None:
        lam, gamma, m, omega_max = config.ohmic
        # every build has n_max >= 2 and the dimension grows with n_max, so
        # m modes over the cap at n_max 2 are rejected before discretizing
        models.Box(2).check_cap(config.bath_kind, m, config.dim_cap)
        try:
            modes = models.ohmic_drude_modes(lam, gamma, m, omega_max)
        except ValueError as exc:  # e.g. couplings that overflow float64
            raise ConfigError(f"bath.ohmic: {exc}") from exc
    else:
        modes = [models.ModeSpec(omega, g) for omega, g in config.modes]

    spec = thermal.ThermalSpec(config.beta, config.tail_tol)
    # convergence takes its truncations from task.n_max_list
    n_max = config.n_max_override
    if n_max is None and config.task != "convergence":
        n_max = max(thermal.choose_truncation(m.omega, spec) for m in modes)

    rho_e0 = _initial_electronic(config)
    base = os.path.join(config.out_dir, config.basename)

    if config.task == "trajectory":
        model = _build_model(config, config.bath_kind, modes, n_max)
        _write_csv(base + ".csv",
                   equivalence._reduced(model, rho_e0, spec, grid))
        return 0

    if config.task == "compare":
        model_a = _build_model(config, config.bath_kind, modes, n_max)
        model_b = _build_model(config, config.compare_with, modes, n_max)
        report = equivalence.compare_reduced(model_a, model_b, rho_e0, spec,
                                             grid, dim_cap=config.dim_cap)
        _write_csv(base + ".csv", report.trajectory_a)
        _write_report(base + ".report", {
            "task": "compare",
            "model_a": report.model_a,
            "model_b": report.model_b,
            "t_max": grid.t_max,
            "n_steps": grid.n_steps,
            "n_max_used": report.n_max_used,
            "max_trace_distance": report.max_distance,
            "converged": report.converged,
            "convergence_delta": report.convergence_delta,
            "threshold": config.threshold,
        })
        if not report.converged:
            raise VerificationError(
                f"comparison not converged (delta={report.convergence_delta:g})")
        if report.max_distance >= config.threshold:
            raise VerificationError(
                f"max trace distance {report.max_distance:.3e} exceeds "
                f"threshold {config.threshold:g}")
        return 0

    if config.task == "alpha_sweep":
        report_items = {"task": "alpha_sweep", "n_max_used": n_max,
                        "t_max": grid.t_max, "n_steps": grid.n_steps}
        # every (alpha, mode) effective coupling once; the report gives the
        # mode of largest |g|, whose coupling overflows first
        table = [[models.effective_coupling(m.g, a) for m in modes]
                 for a in config.alphas]
        ref = max(range(len(modes)), key=lambda k: abs(modes[k].g))
        for i, (a, row) in enumerate(zip(config.alphas, table)):
            if not math.isfinite(row[ref]):
                raise ConfigError(
                    f"task.alphas: effective coupling at alpha {a:g} overflows")
            report_items[f"alpha_{i}"] = a
            report_items[f"effective_coupling_{i}"] = row[ref]
        # the trajectory task once per alpha; every trajectory is formed,
        # and so checked, before the first CSV is written
        trajectories = [equivalence._reduced(
            _build_model(replace(config, alpha=a), config.bath_kind, modes,
                         n_max), rho_e0, spec, grid) for a in config.alphas]
        for a, traj in zip(config.alphas, trajectories):
            _write_csv(_alpha_csv(base, a), traj)
        decreasing = all(abs(x) > abs(y) for row, nxt in zip(table, table[1:])
                         for x, y, m in zip(row, nxt, modes) if m.g != 0)
        report_items["effective_coupling_strictly_decreasing"] = decreasing
        _write_report(base + ".report", report_items)
        if not decreasing:
            raise VerificationError(
                "effective coupling magnitude not strictly decreasing in alpha")
        return 0

    # convergence task: the ladder over task.n_max_list, built largest
    # first, so a list over the cap fails before any model is assembled
    report = equivalence.compare_ladder([
        tuple(_build_model(config, kind, modes, n)
              for kind in (config.bath_kind, config.compare_with))
        for n in reversed(config.n_max_list)][::-1], rho_e0, spec, grid)
    report_items = {"task": "convergence",
                    "model_a": config.bath_kind, "model_b": config.compare_with,
                    "t_max": grid.t_max, "n_steps": grid.n_steps}
    distances = report.max_distances
    for n, d in zip(report.n_max, distances):
        report_items[f"max_trace_distance_n{n}"] = d
    monotone = all(b <= a + 1e-8 for a, b in zip(distances, distances[1:]))
    report_items["monotone_non_increasing"] = monotone
    report_items["convergence_delta"] = report.convergence_delta
    report_items["converged"] = report.converged
    _write_report(base + ".report", report_items)
    if not monotone:
        raise VerificationError(
            "comparison distance increased with finer truncation")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dimerbath",
        description="Run a dimer exciton-phonon experiment from a config file.")
    parser.add_argument("config", help="path to the config file")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread count (1 gives bit-reproducible CSV)")
    return _exit_status(_start, parser.parse_args(argv))


def _start(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    # looked up at call time, so a wrapper set on the module attribute sees it
    return run(parse_config(text))


if __name__ == "__main__":
    sys.exit(main())

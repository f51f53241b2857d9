"""Configuration-driven runner.

The experiment record is a single flat config file of ``section.key = value``
lines; the only other command-line input is ``--threads N``. Tasks:

* ``trajectory``   -- one reduced trajectory, written as CSV;
* ``compare``      -- reduced-dynamics comparison against a second model kind,
                      CSV plus a ``.report`` file with the convergence
                      certificate;
* ``alpha_sweep``  -- reduced-effective trajectories across alpha values, one
                      CSV each plus a report with the effective couplings;
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
from dataclasses import dataclass

TASK_KINDS = ("trajectory", "compare", "alpha_sweep", "convergence")
INITIAL_STATES = ("site1", "site2", "plus", "explicit")

CSV_HEADER = "time,pop_site1,pop_site2,coh_re,coh_im,coh_abs"


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
    electronic_state: str
    explicit_rho: tuple[float, float, float] | None  # rho11, re rho12, im rho12
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

    def take(self, key: str) -> str | None:
        if key in self.entries:
            self.consumed.add(key)
            return self.entries[key][0]
        return None

    def fail(self, key: str, message: str):
        if key in self.entries:
            lineno = self.entries[key][1]
            raise ConfigError(f"{key} (line {lineno}): {message}")
        raise ConfigError(f"{key}: {message}")

    def number(self, key: str, default: float | None = None,
               required: bool = False, allow_inf: bool = False) -> float | None:
        raw = self.take(key)
        if raw is None:
            if required:
                raise ConfigError(f"{key}: required key missing")
            return default
        if allow_inf and raw.lower() in ("inf", "+inf", "infinity"):
            return math.inf
        try:
            value = float(raw)
        except ValueError:
            self.fail(key, f"expected a number, got {raw!r}")
        if not allow_inf and not math.isfinite(value):
            self.fail(key, "value must be finite")
        return value

    def integer(self, key: str, default: int | None = None,
                required: bool = False) -> int | None:
        raw = self.take(key)
        if raw is None:
            if required:
                raise ConfigError(f"{key}: required key missing")
            return default
        try:
            return int(raw)
        except ValueError:
            self.fail(key, f"expected an integer, got {raw!r}")

    def choice(self, key: str, options: tuple[str, ...],
               default: str | None = None, required: bool = False) -> str | None:
        raw = self.take(key)
        if raw is None:
            if required:
                raise ConfigError(f"{key}: required key missing")
            return default
        if raw not in options:
            self.fail(key, f"expected one of {', '.join(options)}, got {raw!r}")
        return raw

    def string(self, key: str, default: str | None = None,
               required: bool = False) -> str | None:
        raw = self.take(key)
        if raw is None and required:
            raise ConfigError(f"{key}: required key missing")
        return raw if raw is not None else default

    def reject_unknown(self):
        unknown = set(self.entries) - self.consumed
        if unknown:
            key = min(unknown, key=lambda k: self.entries[k][1])
            lineno = self.entries[key][1]
            raise ConfigError(f"{key} (line {lineno}): unknown key")


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
        omega = e.number(f"bath.modes.{i}.omega", required=True)
        g = e.number(f"bath.modes.{i}.g", required=True)
        if omega <= 0:
            e.fail(f"bath.modes.{i}.omega", "frequency must be positive")
        modes.append((omega, g))
    return tuple(modes)


def _parse_list(e: _Entries, key: str, conv, required: bool = False) -> tuple:
    raw = e.take(key)
    if raw is None:
        if required:
            raise ConfigError(f"{key}: required key missing")
        return ()
    try:
        values = tuple(conv(part.strip()) for part in raw.split(",")
                       if part.strip())
    except ValueError:
        e.fail(key, f"expected a comma-separated list, got {raw!r}")
    if not values:
        e.fail(key, f"empty list {raw!r}")
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and validate the line-oriented config format."""
    from .models import MODEL_KINDS

    e = _Entries(_parse_entries(text))

    eps1 = e.number("electronic.eps1", default=0.0)
    eps2 = e.number("electronic.eps2", default=0.0)
    j = e.number("electronic.j", default=0.0)

    bath_kind = e.choice("bath.kind", tuple(MODEL_KINDS), required=True)
    alpha = e.number("bath.alpha")
    coupling_scale = e.number("bath.coupling_scale")

    modes = _parse_modes(e)
    ohmic = None
    if any(k.startswith("bath.ohmic.") for k in e.entries):
        lam = e.number("bath.ohmic.lambda", required=True)
        gamma = e.number("bath.ohmic.gamma", required=True)
        m = e.integer("bath.ohmic.m", required=True)
        omega_max = e.number("bath.ohmic.omega_max", required=True)
        if lam < 0 or gamma <= 0 or omega_max <= 0 or m < 1:
            raise ConfigError("bath.ohmic: parameters must be positive")
        ohmic = (lam, gamma, m, omega_max)
    if modes and ohmic:
        raise ConfigError("bath.modes: give either explicit modes or an "
                          "ohmic block, not both")
    if not modes and not ohmic:
        raise ConfigError("bath.modes: no modes given (and no ohmic block)")

    beta = e.number("thermal.beta", required=True, allow_inf=True)
    if beta <= 0:
        e.fail("thermal.beta", "must be positive (or inf)")
    tail_tol = e.number("thermal.tail_tol", default=1e-8)
    if not 0 < tail_tol < 1:
        e.fail("thermal.tail_tol", "must be in (0, 1)")
    n_max_override = e.integer("thermal.n_max_override")
    if n_max_override is not None and n_max_override < 2:
        e.fail("thermal.n_max_override", "must be >= 2")

    t_max = e.number("evolution.t_max", required=True)
    if t_max <= 0:
        e.fail("evolution.t_max", "must be positive")
    n_steps = e.integer("evolution.n_steps", default=500)
    if n_steps < 1:
        e.fail("evolution.n_steps", "must be >= 1")
    dim_cap = e.integer("evolution.dim_cap", default=4096)

    electronic_state = e.choice("initial.electronic_state", INITIAL_STATES,
                                default="site1")
    explicit_rho = None
    if electronic_state == "explicit":
        rho11 = e.number("initial.rho11", required=True)
        re12 = e.number("initial.rho12_re", required=True)
        im12 = e.number("initial.rho12_im", required=True)
        if not 0 <= rho11 <= 1:
            e.fail("initial.rho11", "population must lie in [0, 1]")
        if re12**2 + im12**2 > rho11 * (1 - rho11) + 1e-12:
            e.fail("initial.rho12_re", "coherence violates positivity")
        explicit_rho = (rho11, re12, im12)

    task = e.choice("task.kind", TASK_KINDS, required=True)
    if task == "alpha_sweep" and bath_kind != "reduced_effective":
        e.fail("bath.kind", "task.kind=alpha_sweep builds reduced_effective "
               f"models, got {bath_kind!r}")
    compare_with = e.choice("task.compare_with", tuple(MODEL_KINDS))
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
    alphas = _parse_list(e, "task.alphas", float, required=(task == "alpha_sweep"))
    if alphas and list(alphas) != sorted(alphas):
        e.fail("task.alphas", "alpha list must be ascending")
    n_max_list = _parse_list(e, "task.n_max_list", int,
                             required=(task == "convergence"))
    if n_max_list and (min(n_max_list) < 2
                       or list(n_max_list) != sorted(n_max_list)):
        e.fail("task.n_max_list", "must be an ascending list of integers >= 2")
    threshold = e.number("task.threshold", default=1e-6)

    out_dir = e.string("output.directory", default=".")
    basename = e.string("output.basename", required=True)

    e.reject_unknown()
    return RunConfig(
        eps1=eps1, eps2=eps2, j=j, bath_kind=bath_kind, alpha=alpha,
        coupling_scale=coupling_scale, modes=modes, ohmic=ohmic, beta=beta,
        tail_tol=tail_tol, n_max_override=n_max_override, t_max=t_max,
        n_steps=n_steps, dim_cap=dim_cap, electronic_state=electronic_state,
        explicit_rho=explicit_rho, task=task, compare_with=compare_with,
        alphas=alphas, n_max_list=n_max_list, threshold=threshold,
        out_dir=out_dir, basename=basename)


def _build_model(config: RunConfig, kind: str, modes, n_max: int):
    from . import models

    try:
        p = models.ElectronicParams(config.eps1, config.eps2, config.j)
        return models.build(kind, p, modes, n_max, config.alpha,
                            config.coupling_scale)
    except ValueError as exc:  # e.g. couplings that overflow the Hamiltonian
        raise ConfigError(f"cannot build the {kind} model: {exc}") from exc


def _initial_electronic(config: RunConfig):
    import numpy as np

    from .spaces import DensityMatrix, SpaceLayout

    if config.electronic_state == "site1":
        m = np.diag([1.0, 0.0])
    elif config.electronic_state == "site2":
        m = np.diag([0.0, 1.0])
    elif config.electronic_state == "plus":
        m = np.full((2, 2), 0.5)
    else:
        rho11, re12, im12 = config.explicit_rho
        m = np.array([[rho11, re12 + 1j * im12],
                      [re12 - 1j * im12, 1.0 - rho11]])
    return DensityMatrix(SpaceLayout.electronic_only(), m.astype(complex))


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: str, times, traj):
    rows = [CSV_HEADER]
    coh = traj.rho12
    for t, p1, p2, c in zip(times, traj.rho11, traj.rho22, coh):
        values = [float(v) for v in (t, p1, p2, c.real, c.imag, abs(c))]
        # NaN passes every comparison below, so it is rejected first
        if not all(math.isfinite(v) for v in values):
            raise VerificationError(f"non-finite value at t={t:g}")
        rows.append(",".join(_format(v) for v in values))
        if abs(p1 + p2 - 1.0) > 1e-9:
            raise VerificationError(f"population sum off unit trace at t={t:g}")
        if abs(c) > math.sqrt(max(p1 * p2, 0.0)) + 1e-9:
            raise VerificationError(f"coherence bound violated at t={t:g}")
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _write_report(path: str, items: dict):
    with open(path, "w") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {_format(value)}\n")


def run(config: RunConfig) -> int:
    """Execute one config; returns the process exit status."""
    try:
        return _run(config)
    except VerificationError as exc:
        print(f"verification-failure: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # resource caps surface as DimensionCapError
        from .dynamics import DimensionCapError

        if isinstance(exc, DimensionCapError):
            print(f"resource-cap: {exc}", file=sys.stderr)
            return 3
        raise


def _check_dim_cap(config: RunConfig, n_modes: int, n_max: int):
    """Reject, before any assembly, a task that builds a model over the cap."""
    from .dynamics import DimensionCapError
    from .models import MODEL_KINDS
    from .spaces import exciton_dim

    if config.task in ("trajectory", "alpha_sweep"):
        builds = [(config.bath_kind, n_max)]
    elif config.task == "compare":
        builds = [(config.bath_kind, n_max), (config.compare_with, n_max)]
    else:
        builds = [(kind, n) for n in config.n_max_list
                  for kind in (config.bath_kind, config.compare_with)]
    for kind, n in builds:
        dim = exciton_dim(MODEL_KINDS[kind].factors_per_mode * n_modes, n)
        if dim > config.dim_cap:
            raise DimensionCapError(
                f"{kind} model at n_max {n} has total dimension {dim}, "
                f"over cap {config.dim_cap}")


def _run(config: RunConfig) -> int:
    from . import dynamics, equivalence, models, thermal

    if config.ohmic is not None:
        lam, gamma, m, omega_max = config.ohmic
        modes = models.ohmic_drude_modes(lam, gamma, m, omega_max)
    else:
        modes = [models.ModeSpec(omega, g) for omega, g in config.modes]

    spec = thermal.ThermalSpec(config.beta, config.tail_tol)
    if config.n_max_override is not None:
        n_max = config.n_max_override
    else:
        n_max = max(thermal.choose_truncation(m.omega, spec) for m in modes)

    _check_dim_cap(config, len(modes), n_max)
    rho_e0 = _initial_electronic(config)
    grid = dynamics.TimeGrid(config.t_max, config.n_steps)
    os.makedirs(config.out_dir, exist_ok=True)
    base = os.path.join(config.out_dir, config.basename)

    if config.task == "trajectory":
        model = _build_model(config, config.bath_kind, modes, n_max)
        rho0 = thermal.initial_state(rho_e0, model, spec)
        traj = dynamics.evolve_reduced(model, rho0, grid, dim_cap=config.dim_cap)
        _write_csv(base + ".csv", grid.points, traj)
        return 0

    if config.task == "compare":
        model_a = _build_model(config, config.bath_kind, modes, n_max)
        model_b = _build_model(config, config.compare_with, modes, n_max)
        report = equivalence.compare_reduced(model_a, model_b, rho_e0, spec,
                                             grid, dim_cap=config.dim_cap)
        _write_csv(base + ".csv", grid.points, report.trajectory_a)
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
        p = models.ElectronicParams(config.eps1, config.eps2, config.j)
        sweep = equivalence.coherence_vs_alpha(p, modes, spec, grid,
                                               config.alphas, n_max, rho_e0,
                                               dim_cap=config.dim_cap)
        report_items = {"task": "alpha_sweep", "n_max_used": n_max,
                        "t_max": grid.t_max, "n_steps": grid.n_steps}
        g_ref = max((m.g for m in modes), key=abs)
        for i, (a, traj) in enumerate(zip(sweep.alphas, sweep.trajectories)):
            _write_csv(f"{base}_alpha_{a:g}.csv", grid.points, traj)
            report_items[f"alpha_{i}"] = a
            report_items[f"effective_coupling_{i}"] = models.effective_coupling(
                g_ref, a)
        decreasing = sweep.couplings_strictly_decreasing()
        report_items["effective_coupling_strictly_decreasing"] = decreasing
        _write_report(base + ".report", report_items)
        if not decreasing:
            raise VerificationError(
                "effective coupling magnitude not strictly decreasing in alpha")
        return 0

    # convergence task: comparison distance across an explicit n_max list
    distances = []
    for n in config.n_max_list:
        _, per_time = equivalence.compare_trajectories(
            _build_model(config, config.bath_kind, modes, n),
            _build_model(config, config.compare_with, modes, n),
            rho_e0, spec, grid, config.dim_cap)
        distances.append(float(per_time.max()))
    report_items = {"task": "convergence",
                    "model_a": config.bath_kind, "model_b": config.compare_with,
                    "t_max": grid.t_max, "n_steps": grid.n_steps}
    for n, d in zip(config.n_max_list, distances):
        report_items[f"max_trace_distance_n{n}"] = d
    monotone = all(b <= a + 1e-8 for a, b in zip(distances, distances[1:]))
    delta = (abs(distances[-1] - distances[-2])
             if len(distances) > 1 else math.nan)
    report_items["monotone_non_increasing"] = monotone
    report_items["convergence_delta"] = delta
    report_items["converged"] = bool(delta < equivalence.CONVERGENCE_TOL)
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
    args = parser.parse_args(argv)

    if args.threads is not None:
        if args.threads < 1:
            print("config-error: --threads must be >= 1", file=sys.stderr)
            return 2
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config-error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())

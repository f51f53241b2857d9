"""Span tracer that wraps dimerbath's public functions from outside the package.

Each wrapped call records a span (name, parent span, start, end, key). A
function that other modules imported by name is replaced at every binding,
so ``equivalence.partial_trace_matrix`` is traced as well as
``spaces.partial_trace_matrix``. Spans stay in memory until the caller asks
for the layer metrics or writes them out.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); every binding of the attribute is replaced
FUNCTIONS = (
    ("spaces.partial_trace", "spaces", "partial_trace_matrix"),
    ("spaces.permute", "spaces", "permute_factors_matrix"),
    ("models.build", "models", "build_shared_anticorrelated"),
    ("models.build", "models", "build_independent_local"),
    ("models.build", "models", "build_transformed"),
    ("models.build", "models", "build_correlated_alpha"),
    ("models.build", "models", "build_reduced_effective"),
    ("thermal.initial_state", "thermal", "initial_state"),
    ("dynamics.evolve_reduced", "dynamics", "evolve_reduced"),
    ("equivalence.compare", "equivalence", "compare_reduced"),
    ("equivalence.distances", "equivalence", "pointwise_distances"),
    ("equivalence.factorization", "equivalence", "factorization_check"),
    ("cli.parse", "cli", "parse_config"),
    ("cli.run", "cli", "run"),
)

# per-layer metric -> (aggregate, span name)
LAYER_METRICS = {
    "spaces.is_hermitian_s": ("self", "spaces.is_hermitian"),
    "spaces.is_hermitian_calls": ("count", "spaces.is_hermitian"),
    "models.build_s": ("self", "models.build"),
    "models.builds": ("top_count", "models.build"),
    "thermal.initial_state_s": ("self", "thermal.initial_state"),
    "dynamics.eigh_s": ("self", "numpy.eigh"),
    "dynamics.eigh_calls": ("count", "numpy.eigh"),
    "dynamics.eigh_unique_ratio": ("unique", "numpy.eigh"),
    "dynamics.propagator_self_s": ("self", "dynamics.propagator"),
    "dynamics.trajectory_s": ("self", "dynamics.reduced_trajectory"),
    "dynamics.trajectories": ("count", "dynamics.reduced_trajectory"),
    "dynamics.trajectory_unique_ratio": ("unique", "dynamics.reduced_trajectory"),
    "equivalence.compare_self_s": ("self", "equivalence.compare"),
    "equivalence.distances_s": ("self", "equivalence.distances"),
    "equivalence.factorization_self_s": ("self", "equivalence.factorization"),
    "equivalence.eigvalsh_s": ("self", "numpy.eigvalsh"),
    "spaces.partial_trace_s": ("self", "spaces.partial_trace"),
    "spaces.permute_s": ("self", "spaces.permute"),
    "cli.parse_s": ("self", "cli.parse"),
    "cli.run_self_s": ("self", "cli.run"),
}


def digest(*arrays) -> str:
    """Content hash of arrays (shape, dtype and bytes)."""
    h = hashlib.sha1()
    for a in arrays:
        h.update(f"{a.shape}{a.dtype}".encode())
        h.update(a if a.flags.c_contiguous else a.copy())
    return h.hexdigest()


def _trajectory_key(propagator, rho0, grid):
    return (digest(propagator.model.hamiltonian.matrix, rho0.matrix)
            + f"/{grid.t_max!r}/{grid.n_steps}")


class Tracer:
    """Records nested spans around calls into dimerbath and numpy.linalg."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent, start, end, key]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _call(self, name, fn, args, kwargs, key=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None, key])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][3] = self.clock()

    def wrap(self, name, fn, key=None, when=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when():
                return fn(*args, **kwargs)
            k = key(*args, **kwargs) if key is not None else None
            return self._call(name, fn, args, kwargs, k)
        return traced

    def _replace(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _under_equivalence(self) -> bool:
        return bool(self._stack) and \
            self.spans[self._stack[-1]][0].startswith("equivalence.")

    def install(self, np):
        """Wrap the public dimerbath functions, methods and numpy eigensolvers."""
        packages = [m for name, m in list(sys.modules.items())
                    if name == "dimerbath" or name.startswith("dimerbath.")]
        for span, module, attr in FUNCTIONS:
            original = getattr(sys.modules[f"dimerbath.{module}"], attr)
            wrapper = self.wrap(span, original)
            for mod in packages:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapper)
        spaces = sys.modules["dimerbath.spaces"]
        dynamics = sys.modules["dimerbath.dynamics"]
        prop = dynamics.SpectralPropagator
        self._replace(spaces.Operator, "is_hermitian", self.wrap(
            "spaces.is_hermitian", spaces.Operator.is_hermitian))
        self._replace(prop, "__init__", self.wrap(
            "dynamics.propagator", prop.__init__))
        self._replace(prop, "reduced_trajectory", self.wrap(
            "dynamics.reduced_trajectory", prop.reduced_trajectory,
            key=_trajectory_key))
        self._replace(np.linalg, "eigh", self.wrap(
            "numpy.eigh", np.linalg.eigh, key=lambda a, *_, **__: digest(a)))
        self._replace(np.linalg, "eigvalsh", self.wrap(
            "numpy.eigvalsh", np.linalg.eigvalsh, when=self._under_equivalence))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self time, call counts and distinct-input ratios per layer."""
        durations = [end - start for _, _, start, end, _ in self.spans]
        self_time = list(durations)
        for (_, parent, *_), d in zip(self.spans, durations):
            if parent >= 0:
                self_time[parent] -= d
        totals = defaultdict(float)
        counts = defaultdict(int)
        top_counts = defaultdict(int)
        keys = defaultdict(set)
        for i, (name, parent, _, _, key) in enumerate(self.spans):
            totals[name] += self_time[i]
            counts[name] += 1
            if key is not None:
                keys[name].add(key)
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][1]
            if parent < 0:
                top_counts[name] += 1
        metrics = {}
        for metric, (aggregate, name) in LAYER_METRICS.items():
            if aggregate == "self":
                metrics[metric] = totals[name]
            elif aggregate == "count":
                metrics[metric] = counts[name]
            elif aggregate == "top_count":
                metrics[metric] = top_counts[name]
            else:
                metrics[metric] = len(keys[name]) / counts[name] if counts[name] else 0.0
        return metrics

    def write(self, path):
        """Write every span, times relative to the first span start."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump([{"name": n, "parent": p, "start": s - t0, "end": e - t0}
                       for n, p, s, e, _ in self.spans], fh)

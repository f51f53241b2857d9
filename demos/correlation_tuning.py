#!/usr/bin/env python3
"""How inter-site bath correlation tunes decoherence.

Each site couples to its own mode, but the two couplings overlap: site 1
feels g(x_1 + alpha x_2) and site 2 feels g(x_2 + alpha x_1). The pair of
correlated baths is equivalent to a single shared mode with the rescaled
coupling g_eff = g (1 - alpha) / sqrt(2), so the correlation parameter is a
decoherence dial: alpha = -1 doubles the effective noise, alpha = +1
switches it off entirely.

Run:  python3 demos/correlation_tuning.py

Exits 1 if the late-time coherence of part 2 does not grow from alpha = -1
to alpha = +1.
"""

import sys

import numpy as np

from dimerbath.dynamics import TimeGrid, evolve_reduced
from dimerbath.equivalence import compare_reduced
from dimerbath.models import (
    ElectronicParams,
    ModeSpec,
    build_correlated_alpha,
    build_reduced_effective,
    effective_coupling,
)
from dimerbath.spaces import DensityMatrix, SpaceLayout
from dimerbath.thermal import ThermalSpec, initial_state

params = ElectronicParams(eps1=0.25, eps2=-0.25, j=0.5)
mode = ModeSpec(omega=1.0, g=0.2)
spec = ThermalSpec(beta=1.0)
grid = TimeGrid(t_max=50.0, n_steps=500)
site1 = DensityMatrix(SpaceLayout.electronic_only(), np.diag([1.0, 0.0]))
alphas = [-1.0, -0.5, 0.0, 0.5, 1.0]

# part 1: the correlated pair really is the rescaled single mode
print("correlated pair vs. rescaled shared mode (n_max=10):")
for alpha in alphas:
    corr = build_correlated_alpha(params, [mode], 10, alpha)
    reduced = build_reduced_effective(params, [mode], 10, alpha)
    report = compare_reduced(reduced, corr, site1, spec, grid)
    print(f"  alpha={alpha:+.1f}: g_eff={effective_coupling(mode.g, alpha):+.4f}"
          f"  max trace distance={report.max_distance:.3e}")

# part 2: late-time coherence grows as the effective coupling shrinks. At
# J = 0 the plus state only dephases, |rho12(t)| = 1/2 exp(-4 (g_eff /
# omega)^2 coth(beta omega / 2) (1 - cos omega t)), smaller at every t for
# a larger |g_eff|; the Rabi oscillation at J = 0.5 would mask this
dephasing = ElectronicParams(eps1=0.25, eps2=-0.25, j=0.0)
plus = DensityMatrix(SpaceLayout.electronic_only(), np.full((2, 2), 0.5))
late = slice(grid.n_steps // 2, None)
t = grid.points[late]
print()
print("plus state at J=0, mean |rho12| over the second half of the window:")
means = []
for alpha in alphas:
    model = build_reduced_effective(dephasing, [mode], 10, alpha)
    rho12 = evolve_reduced(model, initial_state(plus, model, spec), grid).rho12
    means.append(float(np.mean(np.abs(rho12[late]))))
    rate = (4 * (effective_coupling(mode.g, alpha) / mode.omega) ** 2
            / np.tanh(spec.beta * mode.omega / 2))
    closed = np.mean(0.5 * np.exp(-rate * (1 - np.cos(mode.omega * t))))
    bar = "#" * int(round(120 * means[-1]))
    print(f"  alpha={alpha:+.1f}: {means[-1]:.4f} (closed form {closed:.4f})"
          f" {bar}")
print()
if not all(a < b for a, b in zip(means, means[1:])):
    print("the coherence does not grow from alpha=-1 to alpha=+1")
    sys.exit(1)
print("at alpha=+1 the exciton evolves as if the phonons were absent.")

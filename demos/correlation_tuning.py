#!/usr/bin/env python3
"""How inter-site bath correlation tunes decoherence.

Each site couples to its own mode, but the two couplings overlap: site 1
feels g(x_1 + alpha x_2) and site 2 feels g(x_2 + alpha x_1). The pair of
correlated baths is equivalent to a single shared mode with the rescaled
coupling g_eff = g (1 - alpha) / sqrt(2), so the correlation parameter is a
decoherence dial: alpha = -1 doubles the effective noise, alpha = +1
switches it off entirely.

Run:  python3 demos/correlation_tuning.py
"""

import numpy as np

from dimerbath.dynamics import TimeGrid
from dimerbath.equivalence import coherence_vs_alpha, compare_reduced
from dimerbath.models import (
    ElectronicParams,
    ModeSpec,
    build_correlated_alpha,
    build_reduced_effective,
    effective_coupling,
)
from dimerbath.spaces import DensityMatrix, SpaceLayout
from dimerbath.thermal import ThermalSpec

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
    report = compare_reduced(corr, reduced, site1, spec, grid)
    print(f"  alpha={alpha:+.1f}: g_eff={effective_coupling(mode.g, alpha):+.4f}"
          f"  max trace distance={report.max_distance:.3e}")

# part 2: late-time coherence grows as the effective coupling shrinks
sweep = coherence_vs_alpha(params, [mode], spec, grid, alphas, n_max=10,
                           rho_e0=site1)
late = slice(grid.n_steps // 2, None)
print()
print("mean |rho12| over the second half of the window:")
for alpha, row in zip(sweep.alphas, sweep.coherence):
    bar = "#" * int(round(120 * float(np.mean(row[late]))))
    print(f"  alpha={alpha:+.1f}: {np.mean(row[late]):.4f} {bar}")
print()
print(f"effective couplings strictly decreasing in alpha: "
      f"{sweep.couplings_strictly_decreasing()}")
print("at alpha=+1 the exciton evolves as if the phonons were absent.")

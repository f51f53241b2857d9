#!/usr/bin/env python3
"""One shared anti-correlated phonon mode versus two independent local modes.

The two total Hamiltonians look nothing alike -- one couples a single mode
to the population difference, the other couples a private mode to each site
-- yet the exciton sees exactly the same environment. This script makes that
concrete: the trace distance between the two reduced trajectories is purely
a Fock-truncation artifact and dies with the thermal tail as the truncation
grows.

Run:  python3 demos/equivalence_walkthrough.py
"""

import numpy as np

from dimerbath.dynamics import TimeGrid
from dimerbath.equivalence import compare_reduced
from dimerbath.models import (
    ElectronicParams,
    ModeSpec,
    build_independent_local,
    build_shared_anticorrelated,
)
from dimerbath.spaces import DensityMatrix, SpaceLayout
from dimerbath.thermal import ThermalSpec, choose_truncation

params = ElectronicParams(eps1=0.25, eps2=-0.25, j=0.5)
mode = ModeSpec(omega=1.0, g=0.2)
spec = ThermalSpec(beta=1.0)
grid = TimeGrid(t_max=50.0, n_steps=500)

# start with the exciton pinned on site 1 and every mode in a Gibbs state
site1 = DensityMatrix(SpaceLayout.electronic_only(), np.diag([1.0, 0.0]))

print("shared anti-correlated mode  vs  independent local modes")
print(f"  omega={mode.omega}, g={mode.g}, beta={spec.beta}, "
      f"t in [0, {grid.t_max}]")
print()
print(f"  {'n_max':>6} {'max trace distance':>20} {'certificate delta':>19}")

for n_max in (6, 10, 14, 18):
    shared = build_shared_anticorrelated(params, [mode], n_max)
    indep = build_independent_local(params, [mode], n_max)
    report = compare_reduced(shared, indep, site1, spec, grid)
    print(f"  {n_max:>6} {report.max_distance:>20.3e} "
          f"{report.convergence_delta:>19.3e}")

n_star = choose_truncation(mode.omega, spec)
shared = build_shared_anticorrelated(params, [mode], n_star)
indep = build_independent_local(params, [mode], n_star)
report = compare_reduced(shared, indep, site1, spec, grid)
print()
print(f"at the selected truncation n_max={n_star} "
      f"(thermal tail below {spec.tail_tol:g}):")
print(f"  max trace distance = {report.max_distance:.3e}, "
      f"converged = {report.converged}")
print()
print("the residual distance tracks the neglected Boltzmann tail, not any")
print("physical difference between the two bath models.")

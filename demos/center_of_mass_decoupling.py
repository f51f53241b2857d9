#!/usr/bin/env python3
"""Why the shared-mode and independent-mode baths agree: a beam-splitter
rotation of the two local modes into relative and center-of-mass
coordinates.

After the rotation only the relative mode talks to the exciton; the
center-of-mass mode couples through the electronic identity and merely
picks up a global displacement. An initially factorized state therefore
stays factorized for all times, which this script verifies directly on the
full composite density matrix.

Run:  python3 demos/center_of_mass_decoupling.py
"""

import numpy as np

from dimerbath.dynamics import TimeGrid
from dimerbath.equivalence import factorization_check, spectrum_equivalence
from dimerbath.models import (
    ElectronicParams,
    ModeSpec,
    build_independent_local,
    build_transformed,
)
from dimerbath.spaces import DensityMatrix, SpaceLayout
from dimerbath.thermal import ThermalSpec, initial_state

params = ElectronicParams(eps1=0.25, eps2=-0.25, j=0.5)
mode = ModeSpec(omega=1.0, g=0.2)
spec = ThermalSpec(beta=1.0, tail_tol=1e-4)
grid = TimeGrid(t_max=50.0, n_steps=100)
site1 = DensityMatrix(SpaceLayout.electronic_only(), np.diag([1.0, 0.0]))

model = build_transformed(params, [mode], 12)
rho0 = initial_state(site1, model, spec)
defect = factorization_check(model, rho0, grid)

print("transformed (relative + center-of-mass) picture, n_max=12")
print(f"  factorization defect T(rho(t), rho_rest(t) x rho_B(t)):")
print(f"    max over {grid.n_steps + 1} grid times = {defect.max():.3e}")
print(f"    at t=0: {defect[0]:.3e},  at t={grid.t_max:g}: {defect[-1]:.3e}")
print()

# the rotation is unitary, so the low-lying spectra of the independent and
# transformed models must agree once the truncation has converged
print("low-spectrum agreement, independent vs. transformed:")
for n_max in (6, 8, 10, 12):
    indep = build_independent_local(params, [mode], n_max)
    trans = build_transformed(params, [mode], n_max)
    print(f"  n_max={n_max:>2}: relative discrepancy "
          f"{spectrum_equivalence(indep, trans):.3e}")
print()
print("the defect sits at numerical noise for every time: the center-of-mass")
print("mode never entangles with the exciton or the relative mode.")

"""Geodesics on the unit sphere and a harmonic Dirichlet problem.

First integrates the equatorial great circle with the RK4 second-order
solver and reads off the period and the metric-energy drift.  Then solves
a flat-target Dirichlet problem on [0,1]^2 with the multigrid grid
solver and compares against the closed-form harmonic polynomial.

Run:  python3 demos/geodesics_and_harmonic_maps.py
"""

import numpy as np

from jetflow.geometry import metric_from_name
from jetflow.maps import SmoothMap, solve_affine_ode, solve_harmonic_grid
from jetflow.sprays import canonical_pair

print("== equatorial geodesic on the unit sphere ==")
h1 = metric_from_name("euclidean:1", kind="temporal")
sphere = metric_from_name("sphere:2")
pair = canonical_pair(h1, sphere)
sol = solve_affine_ode(pair, x0=[np.pi / 2, 0.0], v0=[0.0, 1.0],
                       t_span=(0.0, 7.0), steps=7000)

az = sol.xs[:, 1]
k = int(np.searchsorted(az, 2 * np.pi))
frac = (2 * np.pi - az[k - 1]) / (az[k] - az[k - 1])
period = sol.ts[k - 1] + frac * (sol.ts[k] - sol.ts[k - 1])
g = sphere.components_batch(sol.xs)
energy = np.einsum("kij,ki,kj->k", g, sol.vs, sol.vs)
print(f"  measured period     = {period:.9f}  (2*pi = {2 * np.pi:.9f})")
print(f"  max energy drift    = {np.max(np.abs(energy - energy[0])):.2e}")

print("\n== harmonic Dirichlet problem on [0,1]^2 ==")
flat_h = metric_from_name("euclidean:2", kind="temporal")
line = metric_from_name("euclidean:1")
flat_pair = canonical_pair(flat_h, line)
boundary = SmoothMap(2, ["t1^2 - t2^2"])
grid = solve_harmonic_grid(flat_pair, flat_h, boundary, m=33, tol=1e-9,
                           domain=[(0.0, 1.0), (0.0, 1.0)])
G1, G2 = np.meshgrid(grid.t1, grid.t2, indexing="ij")
err = np.max(np.abs(grid.values[..., 0] - (G1 ** 2 - G2 ** 2)))
print(f"  status              = {grid.status} after {grid.iterations} V-cycles")
print(f"  max residual        = {grid.max_residual:.2e}")
print(f"  error vs closed form= {err:.2e}")

"""Jet prolongation of base vector fields, checked against flow transport.

The first-order prolongation of a vector field on the base product manifold
is a vector field on the jet space.  Its vertical components are recovered
here two independent ways:

  * symbolically, from total derivatives of the field components, and
  * numerically, by flowing charts along the field and transporting the jet.

The epsilon-halving ratio of the discrepancy sits at 4 (second order),
which is the sign that the symbolic formula matches the geometry exactly.

Run:  python3 demos/prolongation_flow.py
"""

import random

import numpy as np

from jetflow.connection import canonical_connection
from jetflow.dtensor import is_dtensor
from jetflow.geometry import metric_from_name
from jetflow.jetspace import random_jet
from jetflow.numdiff import random_affine_change, random_monotone_change
from jetflow.prolong import (BaseVectorField, olver_prolong,
                             prolongation_flow_error, vertical_gap_field)

rng = random.Random(11)
h = metric_from_name("exp1d")
phi = metric_from_name("sphere:2")
jets = [random_jet(rng, 1, 2, box_t=h.box, box_x=phi.box, v_scale=1.5)
        for _ in range(8)]

X = BaseVectorField(1, 2, ["0.3*t1^2"], ["0.2*x2", "0.1*x1*x2"], name="demo")
u = jets[0]
pr = olver_prolong(X)
print("== first-order prolongation at one jet ==")
print(f"  jet: t={u.t}, x={u.x}, v={u.v.ravel()}")
print(f"  packed pr X = {np.round(pr.packed(u), 6)}")

print("\n== flow-transport convergence (ratio should be near 4) ==")
for eps in (0.04, 0.02, 0.01):
    print(f"  eps={eps:<5} max error = {prolongation_flow_error(X, jets, eps=eps):.3e}")

print("\n== vertical gap against the canonical connection is a d-tensor ==")
conn = canonical_connection(h, phi)
gap = vertical_gap_field(X, conn)
changes = [random_affine_change(rng, 1, 2, name=f"affine-{k}") for k in range(3)]
changes += [random_monotone_change(rng, 1, 2, name=f"monotone-{k}") for k in range(3)]
v = is_dtensor(gap, changes, jets, tol=1e-8)
print(f"  passed={v.passed}  max_rel_err={v.max_rel_err:.2e} over {v.pairs} pairs")

"""Tour of the transformation-law machinery.

Builds a catalog of randomized product chart changes, draws jets inside the
metric boxes, and checks:

  * canonical d-tensor fields against the slot-wise tensor law,
  * canonical spray coefficients against their inhomogeneous laws,
  * the same spray coefficients as a *negative control* for the tensor law
    (they must fail, with a named witness pair).

Run:  python3 demos/transformation_laws.py
"""

import random

import numpy as np

from jetflow.dtensor import (is_dtensor, lagrangian_metric_field,
                             liouville_c_field, liouville_l_field,
                             normalization_j_field)
from jetflow.geometry import energy_density, metric_from_name
from jetflow.jetspace import random_jet
from jetflow.numdiff import random_affine_change, random_shear_change
from jetflow.sprays import (canonical_spatial, canonical_temporal,
                            spray_coefficient_field, spray_law_error)

rng = random.Random(7)
p, n = 2, 2
h = metric_from_name("conformal2d:0.3*t1 - 0.2*t2")
phi = metric_from_name("sphere:2")

changes = [random_affine_change(rng, p, n, name=f"affine-{k}") for k in range(3)]
changes += [random_shear_change(rng, p, n, name=f"shear-{k}") for k in range(3)]
jets = [random_jet(rng, p, n, box_t=h.box, box_x=phi.box, v_scale=2.0)
        for _ in range(10)]

print(f"== d-tensor law over {len(changes)} changes x {len(jets)} jets ==")
fields = [
    liouville_c_field(p, n),
    liouville_l_field(h, n),
    normalization_j_field(h, n),
    lagrangian_metric_field(energy_density(h, phi), p, n),
]
for f in fields:
    v = is_dtensor(f, changes, jets, tol=1e-8)
    print(f"  {f.name:24s} [{f.signature}]  "
          f"{'ok' if v.passed else 'FAIL'}  max_rel_err={v.max_rel_err:.2e}")

print("\n== spray coefficient laws (inhomogeneous) ==")
s_t = canonical_temporal(h, n)
s_x = canonical_spatial(phi, p)
vt = spray_law_error(s_t, changes, jets, tol=1e-8)
vx = spray_law_error(s_x, changes, jets, tol=1e-8)
print(f"  temporal spray  {'ok' if vt.passed else 'FAIL'}  "
      f"max_rel_err={vt.max_rel_err:.2e}")
print(f"  spatial spray   {'ok' if vx.passed else 'FAIL'}  "
      f"max_rel_err={vx.max_rel_err:.2e}")

print("\n== negative control: spray coefficients are NOT a d-tensor ==")
neg = is_dtensor(spray_coefficient_field(s_x), changes, jets, tol=1e-8)
print(f"  passed={neg.passed}  max_rel_err={neg.max_rel_err:.2e}  "
      f"witness={neg.witness}")
assert not neg.passed

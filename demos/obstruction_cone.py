"""The quadratic obstruction cone at a singular representation.

First-order deformations that extend to curves on the variety are cut out,
to second order, by a quadratic map into H^2.  At a central point of the
genus-2 SU(2) variety that map is an explicit cross-product form, and the
directions harvested by projecting short steps back onto the variety span
all of H^1: the cone is big even where the obstruction is nonzero.
"""

import numpy as np

from surfrep import (
    RepPoint,
    build_complex,
    newton_project_to_variety,
    relator_defect,
    rep_from_name,
    sample_cone_directions,
    su2,
    surface_presentation,
)
from surfrep.reports import measure_obstruction_constant

group = su2()
pres = surface_presentation(2)
rep = rep_from_name(pres, group, "central:[+,+,+,+]")

print("-- the jet obstruction agrees with the cross-product form --")
constant, worst = measure_obstruction_constant(pres, rep, count=20, seed=4)
print("  measured constant:", constant)
print("  worst relative residual over 20 cochains:", worst)

print()
print("-- harvested cone directions span Z1 and H1 --")
for text in ("central:[+,+,+,+]", "torus:[0.7,1.1,-0.5,0.3]"):
    point = rep_from_name(pres, group, text)
    info = build_complex(pres, point)
    directions, span_z1, span_h1 = sample_cone_directions(
        pres, point, count=120, seed=5, data=info)
    print(f"  {text:28s} span Z1 {span_z1}/{info.basis_Z1.shape[1]} "
          f"span H1 {span_h1}/{info.h_dims[1]} "
          f"success {len(directions)}/120")

print()
print("-- Newton projection returns a perturbed point to the variety --")
rng = np.random.default_rng(6)
start = RepPoint(group, [y @ group.exp(1e-2 * rng.standard_normal(3))
                         for y in rep.values])
projected = newton_project_to_variety(pres, group, start, tol=1e-12)
print("  defect before:", relator_defect(pres, start))
print("  defect after: ", relator_defect(pres, projected))

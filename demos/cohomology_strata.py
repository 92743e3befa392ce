"""Twisted cohomology at representations of a genus-2 surface group in SU(2).

The three orbit types give three very different local pictures, visible in
the cohomology dimensions alone: central points carry (3, 12, 3), a torus
point (1, 8, 1), and an irreducible point (0, 6, 0).  Duality and the Euler
count hold at every point of the relation variety.
"""

import numpy as np

from surfrep import (
    build_complex,
    classify_orbit_type,
    conjugation_isomorphism_check,
    enumerate_central_reps,
    relator_defect,
    rep_from_name,
    sample_stabilizer,
    stabilizer_fixed_subspace,
    su2,
    surface_presentation,
)
from surfrep.reports import irreducible_rep

group = su2()
pres = surface_presentation(2)

reps = {
    "central": rep_from_name(pres, group, "central:[+,+,+,+]"),
    "torus": rep_from_name(pres, group, "torus:[0.7,1.1,-0.5,0.3]"),
    "irreducible": irreducible_rep(group),
}

print("-- cohomology dimensions per stratum --")
for name, rep in reps.items():
    data = build_complex(pres, rep)
    k, stratum = classify_orbit_type(rep)
    elements = sample_stabilizer(rep, seed=0, data=data)
    fixed = stabilizer_fixed_subspace(pres, rep, elements, data=data)
    print(f"  {name:12s} h = {data.h_dims}  stratum {stratum:3s} "
          f"stabilizer dim {k}  fixed subspace in H1: {fixed}")
    h0, h1, h2 = data.h_dims
    assert h0 == h2 and h1 == 2 * h0 + 2 * group.dim

print()
print("-- the variety has exactly 16 central points --")
central = enumerate_central_reps(pres, group)
print("  count:", len(central))
print("  worst relator defect:",
      max(relator_defect(pres, r) for r in central))

print()
print("-- cohomology is a conjugation invariant --")
rng = np.random.default_rng(3)
x = group.random_element(rng)
print("  operators intertwine under a random conjugation:",
      conjugation_isomorphism_check(pres, reps["torus"], x))

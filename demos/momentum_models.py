"""Linear momentum-map models for the singular strata.

SO(2) on the plane-pair space and SO(3) on four copies of R^3 are the two
local models that appear at reducible points.  Their momentum zero loci
push forward, under quadratic invariants, onto semialgebraic sets whose
Zariski tangent dimensions we can measure by sampling.
"""

import numpy as np

from surfrep import (
    check_relations,
    hilbert_map,
    sample_zero_locus,
    so2_cone_model_report,
    so2_model,
    so3_model,
    spanning_configurations,
    stratum_label,
    zariski_dim_at_origin,
)

print("-- SO(2): the reduced space is a quadratic cone in R^3 --")
model = so2_model()
points = sample_zero_locus(model, 100, seed=0)
print("  zariski dim at the vertex:", zariski_dim_at_origin(model, points))
print("  worst cone-relation residual:",
      max(check_relations(model, p)["cone"] for p in points))
print("  middle-stratum local picture:", so2_cone_model_report())

print()
print("-- SO(3): Gram images are PSD of rank at most two --")
model = so3_model()
points = sample_zero_locus(model, 200, seed=1)
print("  zariski dim at the origin:", zariski_dim_at_origin(model, points))
worst = max(max(check_relations(model, p).values()) for p in points)
print("  worst relation residual over 200 samples:", worst)

histogram = {}
for p in points:
    label = stratum_label(model, hilbert_map(model, p.w))
    histogram[label] = histogram.get(label, 0) + 1
print("  rank strata histogram:", dict(sorted(histogram.items())))

print()
print("-- ten explicit configurations span the ten invariants --")
images = [hilbert_map(model, w).ravel() for w in spanning_configurations()]
rank = np.linalg.matrix_rank(np.array(images), tol=1e-8)
print("  rank of the stacked images:", rank)
print("  stratum of a single-slot image:",
      stratum_label(model, hilbert_map(model, spanning_configurations()[0])))

"""Cohomology oracles on every group model's kernels.

Genus 1-3 x {U1, SO3, SU2, SU2xU1} x {central, random, torus} points (torus
where the group has a maximal-torus map): the Euler characteristic, Poincare
duality h0 = h2 and h1 = 2 h0 + (2g - 2) d, and the finite-difference gaps of
D0 and D1. Also the twisted SU(2) class c = -I, where every solution is
irreducible, and the torus constructor on a product group, which has none.
"""

import numpy as np
import pytest

from surfrep.cohomology import (
    BundleClass,
    RepPoint,
    build_complex,
    finite_diff_check_d0,
    finite_diff_check_d1,
    newton_project_to_variety,
    relator_defect,
    rep_from_name,
)
from surfrep.groups import group_from_name, su2
from surfrep.words import surface_presentation

GROUPS = ("U1", "SO3", "SU2", "SU2xU1")
GENERA = (1, 2, 3)
FD_STEP = 1e-4
FD_GAP = 1e-6


def rep_text(group, genus, kind):
    n = 2 * genus
    if kind == "central":
        has_minus = any(np.allclose(z, -group.identity()) for z in group.center_elements)
        signs = ["+-"[k % 2] if has_minus else "+" for k in range(n)]
        return "central:[" + ",".join(signs) + "]"
    if kind == "torus":
        return "torus:[" + ",".join(f"{0.3 + 0.4 * k:.1f}" for k in range(n)) + "]"
    return f"random:{genus}"


CASES = [
    (name, genus, kind)
    for name in GROUPS
    for genus in GENERA
    for kind in ("central", "random", "torus")
    if kind != "torus" or group_from_name(name).torus is not None
]


def check_fd_gaps(pres, rep, seed):
    rng = np.random.default_rng(seed)
    d = rep.group.dim
    assert finite_diff_check_d1(pres, rep, rng.standard_normal(pres.n * d), FD_STEP) <= FD_GAP
    assert finite_diff_check_d0(pres, rep, rng.standard_normal(d), FD_STEP) <= FD_GAP


@pytest.mark.parametrize("name, genus, kind", CASES, ids=[f"{n}-g{g}-{k}" for n, g, k in CASES])
def test_euler_duality_and_fd_gaps(name, genus, kind):
    group = group_from_name(name)
    pres = surface_presentation(genus)
    rep = rep_from_name(pres, group, rep_text(group, genus, kind))
    assert relator_defect(pres, rep) <= 1e-9
    h0, h1, h2 = build_complex(pres, rep).h_dims
    d = group.dim
    assert h0 - h1 + h2 == (1 - pres.n + pres.m) * d
    assert h0 == h2
    assert h1 == 2 * h0 + (2 * genus - 2) * d
    check_fd_gaps(pres, rep, seed=genus)


@pytest.mark.parametrize("genus", (2, 3))
def test_twisted_su2_class_is_irreducible(genus):
    group = su2()
    pres = surface_presentation(genus)
    twist = BundleClass(group, -group.identity())
    rng = np.random.default_rng(genus)
    start = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
    rep = newton_project_to_variety(pres, group, start, c=twist, tol=1e-10, max_iter=200)
    assert relator_defect(pres, rep, twist) <= 1e-9
    assert build_complex(pres, rep).h_dims == (0, 6 * genus - 6, 0)
    check_fd_gaps(pres, rep, seed=genus)


@pytest.mark.parametrize("name", ("SU2xU1", "SO3xSU2xU1"))
def test_product_group_has_no_torus(name):
    group = group_from_name(name)
    assert group.torus is None
    with pytest.raises(ValueError, match="no torus"):
        rep_from_name(surface_presentation(2), group, "torus:[0.1,0.2,0.3,0.4]")

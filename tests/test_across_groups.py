"""Cohomology oracles on every group model's kernels.

Genus 1-3 x {U1, SO3, SU2, SU2xU1} x {central, random, torus} points (torus
where the group has a maximal-torus map): the Euler characteristic, Poincare
duality h0 = h2 and h1 = 2 h0 + (2g - 2) d, the finite-difference gaps of
D0 and D1, Ad-equivariance of the complex under conjugation, and one
centralizer: the stabilizer sample and the orbit type read ker D0 whether or
not the point's complex is given. A point keeps its complex: every per-point
function gives the bits of a fresh point with the same values, in any call
order. Also the twisted SU(2) class c = -I, where
every solution is irreducible, the torus constructor on a product group,
which has none, and the cross-layer oracle that ties holonomy to Fox calculus:
D1 at a point of holonomies, applied to their derivatives, is the derivative
of the relator values. The exact gauge oracle ties holonomy to D0: the
derivatives along a constant gauge direction are the coboundary -D0 x, which
D1 annihilates on the variety. A derandomized hypothesis sweep takes the same
oracles to genus 4-5 over SU2, SO3 and the twisted SU2 class.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfrep.cohomology import (
    BundleClass,
    CochainData,
    RepPoint,
    _d0,
    _d1,
    _orbit_type,
    build_complex,
    classify_orbit_type,
    conjugation_isomorphism_check,
    newton_project_to_variety,
    obstruction_quadratic,
    relator_defect,
    rep_from_name,
    sample_cone_directions,
    sample_stabilizer,
    stabilizer_fixed_subspace,
)
from surfrep.groups import group_from_name, so3, su2
from surfrep.holonomy import PathConnection, Variation, holonomy, holonomy_derivative
from surfrep.words import surface_presentation

from oracles import finite_diff_check_d0, finite_diff_check_d1

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
    x = group.random_element(np.random.default_rng(genus))
    assert conjugation_isomorphism_check(pres, rep, x)


@pytest.mark.parametrize("name, genus, kind", CASES, ids=[f"{n}-g{g}-{k}" for n, g, k in CASES])
def test_stabilizer_and_orbit_type_read_the_complexs_centralizer(name, genus, kind):
    # ker D0 is the one centralizer: with or without the complex, the same bits
    group = group_from_name(name)
    pres = surface_presentation(genus)
    rep = rep_from_name(pres, group, rep_text(group, genus, kind))
    data = build_complex(pres, rep)
    for seed in (0, 1):
        alone = np.stack(sample_stabilizer(rep, seed=seed))
        assert np.array_equal(alone, np.stack(sample_stabilizer(rep, seed=seed, data=data)))
    assert classify_orbit_type(rep) == _orbit_type(group, data.h_dims[0])


def assert_same(a, b):
    """Equal bit for bit: arrays by array_equal, a CochainData field by field."""
    if isinstance(a, CochainData):
        a, b = vars(a), vars(b)
        assert a.keys() == b.keys()
        a, b = list(a.values()), list(b.values())
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    else:
        assert a == b


# the per-point calls, each given the point and the inputs it needs
POINT_CALLS = {
    "complex": lambda pres, rep, els, u: build_complex(pres, rep),
    "orbit": lambda pres, rep, els, u: classify_orbit_type(rep),
    "stabilizer": lambda pres, rep, els, u: sample_stabilizer(rep, count=4, seed=3),
    "fixed": lambda pres, rep, els, u: stabilizer_fixed_subspace(pres, rep, els),
    "cone": lambda pres, rep, els, u: sample_cone_directions(pres, rep, count=4, seed=5),
    "obstruction": lambda pres, rep, els, u: obstruction_quadratic(pres, rep, u),
}
CALL_ORDERS = (
    ("complex", "orbit", "stabilizer", "fixed", "cone", "obstruction"),
    ("obstruction", "cone", "fixed", "stabilizer", "orbit", "complex"),
    ("stabilizer", "fixed", "complex", "obstruction", "orbit", "cone"),
)


@pytest.mark.parametrize("name, genus, kind", CASES, ids=[f"{n}-g{g}-{k}" for n, g, k in CASES])
def test_a_kept_complex_gives_the_bits_of_a_fresh_point(name, genus, kind):
    group = group_from_name(name)
    pres = surface_presentation(genus)
    values = rep_from_name(pres, group, rep_text(group, genus, kind)).values
    data = build_complex(pres, RepPoint(group, values))
    els = sample_stabilizer(RepPoint(group, values), count=4, seed=2)
    u = 1e-3 * data.basis_Z1[:, :2].T
    fresh = {call: POINT_CALLS[call](pres, RepPoint(group, values), els, u)
             for call in POINT_CALLS}
    for order in CALL_ORDERS:
        rep = RepPoint(group, values)
        for call in order:
            assert_same(POINT_CALLS[call](pres, rep, els, u), fresh[call])
        assert build_complex(pres, rep) is build_complex(pres, rep)


@pytest.mark.parametrize("name", ("SU2", "SO3", "U1", "SU2xU1", "SO3xSU2xU1"))
def test_stabilizer_sample_is_one_exp_per_draw(name):
    # one stacked draw and exp give each sample the bits of a per-sample loop
    group = group_from_name(name)
    pres = surface_presentation(2)
    for text in ("random:1", rep_text(group, 2, "central")):
        rep = rep_from_name(pres, group, text)
        data = build_complex(pres, rep)
        Zc = data.basis_H0
        for seed, count in ((0, 1), (1, 8), (5, 13)):
            rng = np.random.default_rng(seed)
            expected = [z.copy() for z in group.center_elements]
            if Zc.shape[1]:
                expected += [group.exp(Zc @ rng.standard_normal(Zc.shape[1]))
                             for _ in range(count)]
            for given in (None, data):
                els = sample_stabilizer(rep, count, seed, given)
                assert len(els) == len(expected)
                assert all(np.array_equal(e, x) for e, x in zip(els, expected))


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


# genus 4-5, where the relator has 16-20 letters: each example projects a Haar
# start onto the variety (twisted or not) and checks every oracle there. Unit
# directions keep the finite-difference truncation, cubic in |u|, well inside
# FD_GAP as the relator grows (worst over the 30 examples: 4.6e-9 for D1,
# 1.3e-9 for D0). About 30 ms per example.
@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("SU2", "SO3", "SU2 c=-I")), genus=st.sampled_from((4, 5)),
       seed=st.integers(0, 2**32 - 1))
def test_high_genus_sweep(kind, genus, seed):
    group = so3() if kind == "SO3" else su2()
    pres = surface_presentation(genus)
    twist = BundleClass(group, -group.identity()) if kind == "SU2 c=-I" else None
    rng = np.random.default_rng(seed)
    start = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
    rep = newton_project_to_variety(pres, group, start, c=twist, tol=1e-10, max_iter=200)
    assert relator_defect(pres, rep, twist) <= 1e-9
    h0, h1, h2 = build_complex(pres, rep).h_dims
    d = group.dim
    assert h0 - h1 + h2 == (1 - pres.n + pres.m) * d
    assert h0 == h2
    assert h1 == 2 * h0 + (2 * genus - 2) * d
    u, X = rng.standard_normal(pres.n * d), rng.standard_normal(d)
    assert finite_diff_check_d1(pres, rep, u / np.linalg.norm(u), FD_STEP) <= FD_GAP
    assert finite_diff_check_d0(pres, rep, X / np.linalg.norm(X), FD_STEP) <= FD_GAP
    assert conjugation_isomorphism_check(pres, rep, group.random_element(rng))


@pytest.mark.parametrize("name", ("SU2xU1", "SO3xSU2xU1"))
def test_product_group_has_no_torus(name):
    group = group_from_name(name)
    assert group.torus is None
    with pytest.raises(ValueError, match="no torus"):
        rep_from_name(surface_presentation(2), group, "torus:[0.1,0.2,0.3,0.4]")


HOLONOMY_NODES = 5
# (n_sub, s, bound) of the relator map's central difference. Refined: each
# transport is refined to 1e-10, which the difference divides by 2s (5e-7);
# the step itself adds O(s^2). On one fixed grid: plus and minus share their
# discretization, so the quotient differentiates one smooth map, and at 256
# substeps per cell the fourth-order error is far below the ten times tighter
# bound at s = 1e-5 (measured worst 1.8e-9, SU2xU1 at genus 2).
REFINED, FIXED_GRID = (None, 1e-4, 1e-6), (256, 1e-5, 1e-7)
HOLONOMY_CASES = ([(genus, name, REFINED) for name in GROUPS for genus in GENERA]
                  + [(genus, name, FIXED_GRID) for name in GROUPS for genus in (1, 2)
                     if name != "U1" or genus == 2])


def multiplied_out(word, values):
    """A word's value at values, multiplied out letter by letter: no code
    shared with D1's suffix walk."""
    return functools.reduce(np.matmul, [values[j - 1] if e == 1 else values[j - 1].conj().T
                                        for j, e in word.letters])


@pytest.mark.parametrize("genus, name, transport", HOLONOMY_CASES,
                         ids=[f"{g}-{n}" + ("-fixed-grid" if t is FIXED_GRID else "")
                              for g, n, t in HOLONOMY_CASES])
def test_holonomy_derivative_matches_d1(genus, name, transport):
    # the paper's identification of the derivative of holonomy with a twisted
    # integral (Goldman, Invent. Math. 85 (1986)): D1(y) [D_j]_j, with D_j the
    # derivatives holonomy_derivative(A_j, theta_j), is d/ds log(r(y)^-1 r(y(s)))
    # at s = 0, where y_j(s) is the holonomy of A_j - s theta_j
    n_sub, step, gap = transport
    group = group_from_name(name)
    pres = surface_presentation(genus)
    rng = np.random.default_rng(genus)
    shape = (HOLONOMY_NODES, group.dim)
    conns = [PathConnection(group, 1.0, rng.standard_normal(shape)) for _ in range(pres.n)]
    thetas = [Variation(conn, rng.standard_normal(shape)) for conn in conns]

    def holonomies(s):
        # transport data A_j - s theta_j, the family holonomy_derivative differentiates
        return [holonomy(PathConnection(group, 1.0, c.values - s * t.values), n_sub=n_sub)
                for c, t in zip(conns, thetas)]

    y = [holonomy(c) for c in conns]
    xi = np.concatenate([holonomy_derivative(c, t) for c, t in zip(conns, thetas)])
    lin = _d1(pres, group, y) @ xi
    plus, minus = holonomies(step), holonomies(-step)
    d = group.dim
    for i, r in enumerate(pres.relators):
        r0inv = multiplied_out(r, y).conj().T
        fd = (group.log(r0inv @ multiplied_out(r, plus))
              - group.log(r0inv @ multiplied_out(r, minus))) / (2 * step)
        assert np.linalg.norm(fd - lin[i * d:(i + 1) * d]) <= gap
        # U1 is abelian, so its relators are constant and both sides vanish
        assert name == "U1" or np.linalg.norm(fd) > 0.1


# Refining transport to 1e-10 bounds both the holonomies that D0 is built from
# and the twisted integral; theta is linear between nodes, so Variation holds it
# exactly and nothing else is approximated. Measured gaps are at most 2.2e-11.
GAUGE_GAP = 1e-9


def variety_paths(genus, new):
    """Connections from new(), one per generator, repeated so that their
    holonomies cancel the relator's commutators: [a, b][b, a] for each two
    handles, then [c, c] where the genus is odd."""
    conns = []
    for _ in range(genus // 2):
        a, b = new(), new()
        conns += [a, b, b, a]
    if genus % 2:
        c = new()
        conns += [c, c]
    return conns


@pytest.mark.parametrize("on_variety", (False, True), ids=("random", "variety"))
@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("genus", GENERA)
def test_gauge_direction_integrates_to_coboundary(name, genus, on_variety):
    # gauging by exp(s x) varies A_j by theta_j = [A_j, x], and the derivative of
    # holonomy along it is Ad(y_j^-1) x - x: the stack over generators is -D0 x
    group = group_from_name(name)
    pres = surface_presentation(genus)
    rng = np.random.default_rng(genus)

    def new():
        return PathConnection(group, 1.0, rng.standard_normal((HOLONOMY_NODES, group.dim)))

    conns = variety_paths(genus, new) if on_variety else [new() for _ in range(pres.n)]
    x = rng.standard_normal(group.dim)
    thetas = [Variation(c, [group.bracket(a, x) for a in c.values]) for c in conns]
    xi = np.concatenate([holonomy_derivative(c, t) for c, t in zip(conns, thetas)])
    y = [holonomy(c) for c in conns]
    coboundary = -_d0(group, y) @ x
    assert np.linalg.norm(xi - coboundary) <= GAUGE_GAP
    # U1 is abelian: Ad is trivial and both sides vanish
    assert name == "U1" or np.linalg.norm(coboundary) > 0.1
    if on_variety:
        assert relator_defect(pres, RepPoint(group, y)) <= 1e-12
        D1 = _d1(pres, group, y)
        assert np.linalg.norm(D1 @ xi) <= GAUGE_GAP * (1 + np.linalg.norm(D1, 2))

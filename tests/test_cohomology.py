"""Tests for the evaluated Fox complex: twisted cohomology, obstruction cone,
stabilizer strata, and the finite-difference oracles that pin the conventions."""

import copy
import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surfrep.words import (
    GroupRingElement,
    Presentation,
    Word,
    fox_derivative,
    fox_terms,
    parse_word,
    reduce,
    surface_presentation,
    word_multiply,
)
from surfrep import cohomology, reports
from surfrep.groups import LieGroupModel, group_from_name, su2, u1
from surfrep.cohomology import (
    _point_centralizer,
    _suffixes,
    BundleClass,
    ConvergenceError,
    RepPoint,
    build_complex,
    classify_orbit_type,
    conjugation_isomorphism_check,
    enumerate_central_reps,
    evaluate_group_ring,
    newton_project_to_variety,
    obstruction_quadratic,
    relator_defect,
    rep_from_name,
    sample_cone_directions,
    sample_stabilizer,
    stabilizer_fixed_subspace,
)

from oracles import _d1, finite_diff_check_d0, finite_diff_check_d1

G = su2()
P1 = surface_presentation(1)
P2 = surface_presentation(2)
EYE = np.eye(2, dtype=complex)


def central_rep(signs=(1, 1, 1, 1)):
    return RepPoint(G, [s * EYE for s in signs])


def torus_rep(angles=(0.7, 1.1, -0.5, 0.3)):
    return RepPoint(G, [np.diag([np.exp(1j * t), np.exp(-1j * t)]) for t in angles])


def irreducible_rep():
    return reports.irreducible_rep(G)


def conjugated(rep, x):
    xi = x.conj().T
    return RepPoint(rep.group, [x @ y @ xi for y in rep.values])


# ---------------------------------------------------------------- rep types

def test_rep_point_rejects_off_group_values():
    with pytest.raises(ValueError):
        RepPoint(G, [1.1 * EYE, EYE, EYE, EYE])


def test_rep_point_rejects_values_of_the_wrong_size():
    # a unitary det-1 matrix of another size used to pass and fail later in build_complex
    for bad in (np.eye(3), np.eye(1), np.ones(2)):
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            RepPoint(G, [EYE, bad, EYE, EYE])


def test_rep_point_rejects_nonfinite():
    bad = EYE.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        RepPoint(G, [bad, EYE, EYE, EYE])


def test_rep_point_reports_the_first_malformed_or_off_group_value_in_order():
    # values are checked in order: an off-group value before a malformed one
    # wins, naming the first off-group value, and a malformed value before an
    # off-group one wins
    first = f"lies off the group \\(defect {G.group_defect(1.1 * EYE):.3e}\\)"
    with pytest.raises(ValueError, match=first):
        RepPoint(G, [EYE, 1.1 * EYE, 1.5 * EYE, np.eye(3)])
    with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
        RepPoint(G, [EYE, np.eye(3), 1.1 * EYE])
    bad = EYE.copy()
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        RepPoint(G, [EYE, bad, 1.1 * EYE])


def test_rep_point_values_are_one_read_only_stack():
    # a CochainData built from a point cannot go stale: neither a point's
    # values nor a Newton result's can be written
    rep = torus_rep()
    assert rep.values.shape == (4, 2, 2)
    with pytest.raises(ValueError, match="read-only"):
        rep.values[0] = EYE
    rng = np.random.default_rng(3)
    start = RepPoint(G, [y @ G.exp(0.05 * rng.standard_normal(3)) for y in rep.values])
    out = newton_project_to_variety(P2, G, start)
    assert out is not start
    with pytest.raises(ValueError, match="read-only"):
        out.values[0, 0, 0] = 1.0


def test_rep_point_rejects_an_empty_value_list():
    # an empty point used to pass and fail inside numpy in build_complex
    with pytest.raises(ValueError, match="at least one value"):
        RepPoint(G, [])


def test_relator_free_presentation_has_no_defect():
    # a free group: no relator to miss, and nothing for the D1 oracle to compare
    pres = Presentation(2, [])
    rng = np.random.default_rng(5)
    rep = RepPoint(G, [G.random_element(rng) for _ in range(2)])
    assert relator_defect(pres, rep) == 0.0
    assert finite_diff_check_d1(pres, rep, rng.standard_normal(6), 1e-4) == 0.0
    assert build_complex(pres, rep).h_dims == (0, 3, 0)


def test_bundle_class_requires_central_element():
    BundleClass(G, -EYE)
    with pytest.raises(ValueError):
        BundleClass(G, G.exp([0.3, 0.0, 0.0]))
    with pytest.raises(ValueError, match="lies off the group"):
        BundleClass(G, 2 * EYE)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_bundle_class_rejects_a_non_finite_element(entry):
    # an all-NaN element passed both checks: relator_defect then returned nan
    # and sample_cone_directions died in the SVD
    with pytest.raises(ValueError, match="must be finite"):
        BundleClass(G, np.full((2, 2), entry, dtype=complex))
    element = -EYE.copy()
    element[1, 0] = entry
    with pytest.raises(ValueError, match="must be finite"):
        BundleClass(G, element)


def test_bundle_class_keeps_its_own_read_only_copy():
    target = -EYE.copy()
    c = BundleClass(G, target)
    target[0, 0] = np.nan
    assert np.array_equal(c.central_element, -EYE)
    with pytest.raises(ValueError, match="read-only"):
        c.central_element[0, 0] = 1.0


# ------------------------------------------------------- group-ring evaluation

def test_evaluate_identity_word_is_identity():
    e = GroupRingElement.one()
    out = evaluate_group_ring(e, irreducible_rep())
    assert np.allclose(out, np.eye(3), atol=1e-12)


def test_evaluate_one_minus_generator_vanishes_at_central_rep():
    e = GroupRingElement.one() - GroupRingElement.from_word(Word(((1, 1),)))
    out = evaluate_group_ring(e, central_rep((1, -1, 1, -1)))
    assert np.linalg.norm(out) < 1e-12


word_letters = st.lists(
    st.tuples(st.integers(1, 3), st.sampled_from((-1, 1))), max_size=8
)


@settings(max_examples=60, deadline=None)
@given(word_letters, word_letters, st.integers(0, 2**31))
def test_evaluate_reverses_products(lu, lv, seed):
    # evaluation is an anti-homomorphism on words
    rng = np.random.default_rng(seed)
    rep = RepPoint(G, [G.random_element(rng) for _ in range(3)])
    u, v = reduce(lu), reduce(lv)
    au = evaluate_group_ring(GroupRingElement.from_word(u), rep)
    av = evaluate_group_ring(GroupRingElement.from_word(v), rep)
    auv = evaluate_group_ring(GroupRingElement.from_word(word_multiply(u, v)), rep)
    assert np.allclose(auv, av @ au, atol=1e-10)


def fox_evaluated_d1(pres, rep):
    """D1 assembled block by block from the exact Fox derivatives: the oracle
    for the single walk over each relator's letters in the operator build."""
    return np.vstack([
        np.hstack([evaluate_group_ring(fox_derivative(r, j), rep)
                   for j in range(1, pres.n + 1)])
        for r in pres.relators
    ])


@pytest.mark.parametrize("name", ["SU2", "SO3", "U1", "SU2xU1", "SO3xSU2xU1"])
def test_d1_walk_is_bit_identical_to_fox_evaluation(name):
    group = group_from_name(name)
    for genus in range(1, 9):
        pres = surface_presentation(genus)
        rng = np.random.default_rng(genus)
        rep = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
        D1 = _d1(pres, group, rep.values)
        assert np.array_equal(D1, fox_evaluated_d1(pres, rep))


def test_d1_walk_is_bit_identical_to_fox_evaluation_at_twisted_point():
    twist = BundleClass(G, -EYE)
    rng = np.random.default_rng(31)
    start = RepPoint(G, [G.random_element(rng) for _ in range(4)])
    rep = newton_project_to_variety(P2, G, start, c=twist, tol=1e-10, max_iter=200)
    assert relator_defect(P2, rep, twist) < 1e-10
    D1 = _d1(P2, G, rep.values)
    assert np.array_equal(D1, fox_evaluated_d1(P2, rep))


WALK_GROUPS = ["SU2", "SO3", "U1", "SU2xU1", "SO3xSU2xU1"]


@pytest.mark.parametrize("name", WALK_GROUPS)
def test_rep_point_stacked_defect_is_each_values_defect(name):
    # RepPoint checks its values' defects as one stack: the bits of each alone
    group = group_from_name(name)
    rng = np.random.default_rng(17)
    vals = [group.random_element(rng) for _ in range(16)]
    vals += [1.1 * vals[0], group.exp(rng.standard_normal(group.dim)) + 1e-9]
    stacked = group._defect(np.stack(vals))
    assert np.array_equal(stacked, [group.group_defect(v) for v in vals])


@pytest.mark.parametrize("samples", [None, 5], ids=["point", "stack"])
@pytest.mark.parametrize("name", WALK_GROUPS)
def test_suffix_walk_is_bit_identical_to_each_suffix_product(name, samples):
    # one walk gives every suffix the bits of multiplying it out from the identity
    group = group_from_name(name)
    shape = () if samples is None else (samples,)
    m = group.matrix_dim
    for genus in range(1, 9):
        pres = surface_presentation(genus)
        rng = np.random.default_rng(genus)
        draws = [[group.random_element(rng) for _ in range(samples or 1)] for _ in range(pres.n)]
        values = [np.reshape(draw, shape + (m, m)) for draw in draws]
        letters = pres.relators[0].letters
        mats = [values[j - 1] if e == 1 else values[j - 1].conj().swapaxes(-1, -2)
                for j, e in letters]
        fox_starts = [s for _, _, s in fox_terms(pres.relators[0])]
        for starts in (list(range(len(letters) + 1)), fox_starts):
            walk = _suffixes(group, values, letters, starts)
            assert walk.shape == (len(starts),) + shape + (m, m)
            for k, s in enumerate(starts):
                expected = functools.reduce(np.matmul, mats[s:], group.identity())
                assert np.array_equal(walk[k], np.broadcast_to(expected, walk[k].shape)), s


@pytest.mark.parametrize("samples", [None, 5], ids=["point", "stack"])
@pytest.mark.parametrize("genus", [32, 64])
@pytest.mark.parametrize("name", ["SU2", "SO3xSU2xU1"])
def test_suffix_walk_is_bit_identical_at_high_genus(name, genus, samples):
    # the tall block of started suffixes gives each the bits of its own product
    # at the genera where its rows are many, for every start pattern D1 and
    # relator values use
    group = group_from_name(name)
    m = group.matrix_dim
    shape = () if samples is None else (samples,)
    pres = surface_presentation(genus)
    rng = np.random.default_rng(genus)
    values = [np.reshape([group.random_element(rng) for _ in range(samples or 1)],
                         shape + (m, m))
              for _ in range(pres.n)]
    letters = pres.relators[0].letters
    mats = [values[j - 1] if e == 1 else values[j - 1].conj().swapaxes(-1, -2)
            for j, e in letters]
    fox_starts = [s for _, _, s in fox_terms(pres.relators[0])]
    for starts in (list(range(len(letters) + 1)), fox_starts, [0]):
        walk = _suffixes(group, values, letters, starts)
        assert walk.shape == (len(starts),) + shape + (m, m)
        for k, s in enumerate(starts):
            expected = functools.reduce(np.matmul, mats[s:], group.identity())
            assert np.array_equal(walk[k], np.broadcast_to(expected, walk[k].shape)), s


def test_suffix_walk_rejects_a_generator_beyond_the_values():
    letters = P2.relators[0].letters
    with pytest.raises(ValueError, match="word uses generator x2 but only 1 values given"):
        _suffixes(G, [EYE], letters, [0, 1])


# -------------------------------------------------------------- the complex

def test_central_rep_dims_and_flat_d1():
    data = build_complex(P2, central_rep())
    assert data.h_dims == (3, 12, 3)
    assert np.linalg.norm(data.D1) < 1e-12
    assert (data.rank0, data.rank1) == (0, 0)


def test_torus_rep_dims():
    data = build_complex(P2, torus_rep())
    assert data.h_dims == (1, 8, 1)
    assert (data.rank0, data.rank1) == (2, 2)


def test_irreducible_rep_dims():
    data = build_complex(P2, irreducible_rep())
    assert data.h_dims == (0, 6, 0)
    assert (data.rank0, data.rank1) == (3, 3)


def test_genus_one_central_dims():
    data = build_complex(P1, central_rep((1, -1)))
    assert data.h_dims == (3, 6, 3)


def test_cochain_condition_at_solutions():
    for rep in (central_rep((-1, 1, -1, 1)), torus_rep(), irreducible_rep()):
        data = build_complex(P2, rep)
        assert np.linalg.norm(data.D1 @ data.D0) < 1e-9


def test_basis_shapes_and_orthonormality():
    data = build_complex(P2, torus_rep())
    for b, cols in (
        (data.basis_H0, 1),
        (data.basis_Z1, 10),
        (data.basis_B1, 2),
        (data.basis_H1, 8),
        (data.basis_H2, 1),
    ):
        assert b.shape[1] == cols
        assert np.allclose(b.T @ b, np.eye(cols), atol=1e-12)
    assert np.linalg.norm(data.D0 @ data.basis_H0) < 1e-12
    assert np.linalg.norm(data.D1 @ data.basis_Z1) < 1e-12
    assert np.linalg.norm(data.D0 - data.basis_B1 @ (data.basis_B1.T @ data.D0)) < 1e-10
    assert np.linalg.norm(data.D1 @ data.basis_H1) < 1e-12
    assert np.linalg.norm(data.basis_B1.T @ data.basis_H1) < 1e-12
    assert np.linalg.norm(data.basis_H2.T @ data.D1) < 1e-12


def test_central_h2_basis_is_identity():
    # D1 = 0 there, so the orthogonal complement of its range is the full
    # coordinate space; the basis must come out as the identity for determinism
    data = build_complex(P2, central_rep())
    assert np.allclose(data.basis_H2, np.eye(3), atol=1e-14)


@pytest.mark.parametrize("group, text", [("SU2", "central:[+,+,+,+]"),
                                         ("U1", "central:[+,-,-,+]")])
def test_zero_operators_give_identity_bases(group, text):
    # at central points D0 = D1 = 0 exactly (at a U1 random: point they are
    # roundoff, 2e-16, not zero), and numpy's SVD of a zero matrix has
    # identity factors: every basis is the identity's columns, bit for bit,
    # with no special case for the zero operator
    group = group_from_name(group)
    data = build_complex(P2, rep_from_name(P2, group, text))
    d = group.dim
    assert not data.D0.any() and not data.D1.any()
    for basis, size in ((data.basis_H0, d), (data.basis_Z1, 4 * d),
                        (data.basis_H1, 4 * d), (data.basis_H2, d)):
        assert np.array_equal(basis, np.eye(size))
    for shape in ((3, 12), (15, 12)):
        u, s, vt = np.linalg.svd(np.zeros(shape))
        assert np.array_equal(u, np.eye(shape[0])) and np.array_equal(vt, np.eye(shape[1]))
        assert not s.any()


angle = st.floats(0.2, 1.3) | st.floats(-1.3, -0.2)


@settings(max_examples=40, deadline=None)
@given(st.tuples(angle, angle, angle, angle))
def test_euler_count_and_duality_on_torus_family(angles):
    data = build_complex(P2, torus_rep(angles))
    h0, h1, h2 = data.h_dims
    assert h0 - h1 + h2 == (1 - 4 + 1) * 3
    assert h0 == h2
    assert h1 == 2 * h0 + (2 * 2 - 2) * 3


@settings(max_examples=16, deadline=None)
@given(st.tuples(*[st.sampled_from((1, -1))] * 4))
def test_euler_count_and_duality_on_central_family(signs):
    data = build_complex(P2, central_rep(signs))
    h0, h1, h2 = data.h_dims
    assert h0 - h1 + h2 == (1 - 4 + 1) * 3
    assert h0 == h2


# ------------------------------------------------------------ relator defect

def test_relator_defect_zero_at_solutions():
    assert relator_defect(P2, central_rep()) < 1e-14
    assert relator_defect(P2, torus_rep()) < 1e-12
    assert relator_defect(P2, irreducible_rep()) < 1e-12


def test_relator_defect_positive_off_variety():
    rng = np.random.default_rng(0)
    rep = RepPoint(G, [G.random_element(rng) for _ in range(4)])
    assert relator_defect(P2, rep) > 1e-3


def test_relator_defect_against_nontrivial_class():
    c = BundleClass(G, -EYE)
    assert relator_defect(P2, central_rep(), c) > 1.0


@pytest.mark.parametrize("c", [
    -2 * EYE,                                         # off the group
    np.eye(3, dtype=complex),                         # the wrong size
    np.diag([1j, -1j]),                               # on the group, not central
    BundleClass(group_from_name("SO3"), np.eye(3)),   # another group's class
], ids=["off-group", "wrong-size", "non-central", "other-group"])
def test_central_target_must_be_a_bundle_class_of_the_group(c):
    # each of these was used as the relators' target as given
    rep = torus_rep()
    with pytest.raises(ValueError, match="BundleClass of SU2"):
        relator_defect(P2, rep, c)
    with pytest.raises(ValueError, match="BundleClass of SU2"):
        newton_project_to_variety(P2, G, rep, c=c)
    with pytest.raises(ValueError, match="BundleClass of SU2"):
        sample_cone_directions(P2, rep, c=c, count=4)
    with pytest.raises(ValueError, match="BundleClass of SU2"):
        enumerate_central_reps(P2, G, c=c)


def test_generator_count_must_match_the_presentation():
    # a genus-2 point against the genus-1 relator [x1, x2], and the reverse
    genus2, genus1 = torus_rep(), RepPoint(G, torus_rep().values[:2])
    for pres, rep, counts in ((P1, genus2, "2 generators, point has 4"),
                              (P2, genus1, "4 generators, point has 2")):
        with pytest.raises(ValueError, match=counts):
            relator_defect(pres, rep)
        with pytest.raises(ValueError, match=counts):
            build_complex(pres, rep)


# --------------------------------------------------- finite-difference checks

def test_fd_d1_zero_direction():
    assert finite_diff_check_d1(P2, torus_rep(), np.zeros(12), 1e-4) < 1e-14


def test_fd_d1_random_direction_small_error():
    rng = np.random.default_rng(3)
    rep = newton_project_to_variety(
        P2, G, RepPoint(G, [G.random_element(rng) for _ in range(4)]), tol=1e-12,
        max_iter=200,
    )
    u = rng.standard_normal(12)
    assert finite_diff_check_d1(P2, rep, u, 1e-4) < 1e-6


def test_fd_d1_second_order():
    rng = np.random.default_rng(5)
    u = rng.standard_normal(12)
    e1 = finite_diff_check_d1(P2, irreducible_rep(), u, 2e-3)
    e2 = finite_diff_check_d1(P2, irreducible_rep(), u, 1e-3)
    assert 4 / 1.5 < e1 / e2 < 4 * 1.5


def test_fd_d1_cocycle_direction_is_stationary():
    rep = irreducible_rep()
    data = build_complex(P2, rep)
    u = data.basis_Z1[:, 2]
    h = 1e-3
    moved = RepPoint(G, [
        y @ G.exp(h * u[3 * j:3 * j + 3]) for j, y in enumerate(rep.values)
    ])
    assert relator_defect(P2, moved) < 50 * h * h
    # contrast: a non-cocycle direction moves the relator at first order
    v = data.basis_B1[:, 0] * 0 + np.eye(12)[:, 0]
    v = v - data.basis_Z1 @ (data.basis_Z1.T @ v)
    v /= np.linalg.norm(v)
    moved = RepPoint(G, [
        y @ G.exp(h * v[3 * j:3 * j + 3]) for j, y in enumerate(rep.values)
    ])
    assert relator_defect(P2, moved) > h / 10


def test_fd_d0_zero_direction():
    assert finite_diff_check_d0(P2, torus_rep(), np.zeros(3), 1e-4) < 1e-14


def test_fd_d0_centralizer_direction():
    rep = torus_rep()
    X = np.array([0.0, 0.0, 1.0])
    data = build_complex(P2, rep)
    assert np.linalg.norm(data.D0 @ X) < 1e-12
    assert finite_diff_check_d0(P2, rep, X, 1e-4) < 1e-9


def test_fd_d0_random_direction_small_error():
    rng = np.random.default_rng(7)
    rep = RepPoint(G, [G.random_element(rng) for _ in range(4)])
    X = rng.standard_normal(3)
    assert finite_diff_check_d0(P2, rep, X, 1e-4) < 1e-6


def test_fd_d0_second_order():
    rng = np.random.default_rng(9)
    X = rng.standard_normal(3)
    e1 = finite_diff_check_d0(P2, irreducible_rep(), X, 2e-3)
    e2 = finite_diff_check_d0(P2, irreducible_rep(), X, 1e-3)
    assert 4 / 1.5 < e1 / e2 < 4 * 1.5


# ------------------------------------------------------- obstruction quadratic

def cross_formula(u):
    # expected quadratic at a central point, in the frozen algebra basis:
    # minus the sum of handle-wise cross products
    u = u.reshape(4, 3)
    return -(np.cross(u[0], u[1]) + np.cross(u[2], u[3]))


def test_obstruction_matches_cross_products_at_central_rep():
    rep = central_rep()
    data = build_complex(P2, rep)
    rng = np.random.default_rng(11)
    for _ in range(10):
        u = rng.standard_normal(12)
        q = obstruction_quadratic(P2, rep, u, data)
        assert np.allclose(data.basis_H2 @ q, cross_formula(u), atol=1e-10)


def test_obstruction_homogeneity():
    rep = torus_rep()
    data = build_complex(P2, rep)
    rng = np.random.default_rng(13)
    u = data.basis_Z1 @ rng.standard_normal(10)
    for s in (2.0, -0.5, 3.7):
        assert np.allclose(
            obstruction_quadratic(P2, rep, s * u, data),
            s * s * obstruction_quadratic(P2, rep, u, data),
            atol=1e-9,
        )


def test_obstruction_zero_target_at_irreducible_rep():
    rep = irreducible_rep()
    data = build_complex(P2, rep)
    u = data.basis_Z1[:, 0]
    assert obstruction_quadratic(P2, rep, u, data).shape == (0,)


def test_obstruction_generically_nonzero_at_torus_rep():
    rep = torus_rep()
    data = build_complex(P2, rep)
    rng = np.random.default_rng(15)
    vals = [
        np.linalg.norm(obstruction_quadratic(P2, rep, data.basis_Z1 @ rng.standard_normal(10), data))
        for _ in range(6)
    ]
    assert max(vals) > 1e-3


def test_obstruction_rejects_non_cocycle():
    rep = torus_rep()
    rng = np.random.default_rng(17)
    u = rng.standard_normal(12)
    with pytest.raises(ValueError):
        obstruction_quadratic(P2, rep, u)


def letterwise_obstruction(pres, rep, u, data):
    """The obstruction of one direction, walked letter by letter with six
    separate 2x2 products per letter: the reference for the stacked walk."""
    group = rep.group
    d = group.dim
    u2 = u.reshape(pres.n, d)
    jets = {}
    for j, y in enumerate(rep.values, start=1):
        U = group.algebra_to_matrix(u2[j - 1])
        yi = y.conj().T
        jets[j, 1] = (y, y @ U, 0.5 * y @ U @ U)
        jets[j, -1] = (yi, -U @ yi, 0.5 * U @ U @ yi)
    coords = []
    for r in pres.relators:
        C0 = group.identity()
        C1 = np.zeros_like(C0)
        C2 = np.zeros_like(C0)
        for letter in r.letters:
            B0, B1, B2 = jets[letter]
            C0, C1, C2 = C0 @ B0, C0 @ B1 + C1 @ B0, C0 @ B2 + C1 @ B1 + C2 @ B0
        inv0 = C0.conj().T
        S1 = inv0 @ C1
        S2 = inv0 @ C2
        coords.append(group.matrix_to_algebra(S2 - 0.5 * S1 @ S1))
    return data.basis_H2.T @ np.concatenate(coords)


# a maximal-torus direction per factor, so every group (products too) has torus points
TORUS_AXIS = {"SU2": [0.0, 0.0, 1.0], "SO3": [0.0, 0.0, 1.0], "U1": [1.0]}


def obstruction_points(name, pres):
    """Central, torus and Newton-projected random points of the named group."""
    group = group_from_name(name)
    centers = group.center_elements
    axis = np.concatenate([TORUS_AXIS[f] for f in name.split("x")])
    angles = np.random.default_rng(pres.n).uniform(-2, 2, pres.n)
    return {
        "central": RepPoint(group, [centers[j % len(centers)] for j in range(pres.n)]),
        "torus": RepPoint(group, [group.exp(t * axis) for t in angles]),
        "random": rep_from_name(pres, group, f"random:{pres.n}"),
    }


@pytest.mark.parametrize("name", WALK_GROUPS)
def test_stacked_obstruction_is_bit_identical_to_the_letterwise_walk(name):
    # one direction, a stack of one and a stack of four, at every kind of point
    for genus in range(1, 6):
        pres = surface_presentation(genus)
        for kind, rep in obstruction_points(name, pres).items():
            data = build_complex(pres, rep)
            rng = np.random.default_rng(genus)
            U = 1e-3 * (data.basis_Z1 @ rng.standard_normal((data.basis_Z1.shape[1], 5))).T
            want = np.array([letterwise_obstruction(pres, rep, u, data) for u in U])
            for u, q in zip(U, want):
                got = obstruction_quadratic(pres, rep, u, data)
                assert got.shape == q.shape and np.array_equal(got, q), (genus, kind)
            assert np.array_equal(obstruction_quadratic(pres, rep, U[:1], data), want[:1])
            assert np.array_equal(obstruction_quadratic(pres, rep, U[1:], data), want[1:])


def test_obstruction_stack_runs_in_chunks(monkeypatch):
    # chunks of 3 over a stack of 7: the bits of the letterwise walk throughout
    monkeypatch.setattr(cohomology, "CONE_CHUNK", 3)
    rep = torus_rep()
    data = build_complex(P2, rep)
    U = (data.basis_Z1 @ np.random.default_rng(19).standard_normal((10, 7))).T
    want = np.array([letterwise_obstruction(P2, rep, u, data) for u in U])
    assert np.array_equal(obstruction_quadratic(P2, rep, U, data), want)


def test_obstruction_is_empty_without_walking_where_h2_is_zero(monkeypatch):
    rep = irreducible_rep()
    data = build_complex(P2, rep)
    assert data.h_dims[2] == 0
    with pytest.raises(ValueError, match="not a cocycle"):
        obstruction_quadratic(P2, rep, np.random.default_rng(21).standard_normal(12), data)

    def no_jets(*args):
        raise AssertionError("walked the jets of a point with H2 = 0")

    monkeypatch.setattr(LieGroupModel, "algebra_to_matrix", no_jets)
    U = data.basis_Z1[:, :4].T
    assert obstruction_quadratic(P2, rep, U[0], data).shape == (0,)
    assert obstruction_quadratic(P2, rep, U, data).shape == (4, 0)


def test_obstruction_of_an_empty_stack_is_empty():
    rep = central_rep()
    data = build_complex(P2, rep)
    assert obstruction_quadratic(P2, rep, np.zeros((0, 12)), data).shape == (0, 3)


@pytest.mark.parametrize("count", [0, -3])
def test_obstruction_fit_needs_a_cochain(count):
    # a fit over no cochains has no constant, and its error of 0.0 would pass any bound
    with pytest.raises(ValueError, match="at least one cochain"):
        reports.measure_obstruction_constant(P2, central_rep(), count=count, seed=0)


def test_obstruction_fit_draws_count_cochains_of_twelve():
    # the stacked draw leaves a shared generator where count draws of 12 leave it
    fitted, drawn = np.random.default_rng(3), np.random.default_rng(3)
    reports.measure_obstruction_constant(P2, central_rep(), count=5, seed=fitted)
    for _ in range(5):
        drawn.standard_normal(12)
    assert fitted.standard_normal() == drawn.standard_normal()


@pytest.mark.parametrize("shape", [(11,), (13,), (2, 11), (1, 2, 12), ()])
def test_obstruction_rejects_a_direction_of_the_wrong_size_first(monkeypatch, shape):
    def no_build(*args, **kwargs):
        raise AssertionError("built the complex before checking u")

    monkeypatch.setattr(cohomology, "build_complex", no_build)
    with pytest.raises(ValueError, match="u must have shape"):
        obstruction_quadratic(P2, central_rep(), np.zeros(shape))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(12,), (3, 12)])
def test_obstruction_rejects_a_non_finite_direction_first(monkeypatch, entry, shape):
    # a NaN direction passed the cocycle check and gave [nan nan nan] at the
    # central point, whose D1 is zero
    def no_build(*args, **kwargs):
        raise AssertionError("built the complex before checking u")

    monkeypatch.setattr(cohomology, "build_complex", no_build)
    u = np.zeros(shape)
    u.reshape(-1, 12)[-1, 5] = entry
    with pytest.raises(ValueError, match="direction must be finite"):
        obstruction_quadratic(P2, central_rep(), u)
    data = cohomology.CochainData(*([None] * 11))  # no operator is read
    with pytest.raises(ValueError, match="direction must be finite"):
        obstruction_quadratic(P2, central_rep(), u, data=data)


# ------------------------------------------------------------- Newton solver

def test_newton_returns_solution_unchanged():
    rep = torus_rep()
    out = newton_project_to_variety(P2, G, rep)
    assert all(np.array_equal(a, b) for a, b in zip(out.values, rep.values))


def test_newton_quadratic_convergence_near_irreducible():
    rng = np.random.default_rng(19)
    rep = irreducible_rep()
    delta = rng.standard_normal(12)
    delta *= 1e-2 / np.linalg.norm(delta)
    start = RepPoint(G, [
        y @ G.exp(delta[3 * j:3 * j + 3]) for j, y in enumerate(rep.values)
    ])
    out = newton_project_to_variety(P2, G, start, tol=1e-12, max_iter=10)
    assert relator_defect(P2, out) < 1e-12


def test_newton_from_random_start():
    rng = np.random.default_rng(21)
    start = RepPoint(G, [G.random_element(rng) for _ in range(4)])
    out = newton_project_to_variety(P2, G, start, tol=1e-9, max_iter=200)
    assert relator_defect(P2, out) < 1e-9


def test_newton_is_deterministic():
    rng = np.random.default_rng(23)
    vals = [G.random_element(rng) for _ in range(4)]
    a = newton_project_to_variety(P2, G, RepPoint(G, vals), tol=1e-9, max_iter=200)
    b = newton_project_to_variety(P2, G, RepPoint(G, vals), tol=1e-9, max_iter=200)
    assert all(np.array_equal(x, y) for x, y in zip(a.values, b.values))


def test_newton_raises_on_iteration_cap():
    rng = np.random.default_rng(25)
    start = RepPoint(G, [G.random_element(rng) for _ in range(4)])
    with pytest.raises(ConvergenceError):
        newton_project_to_variety(P2, G, start, tol=1e-9, max_iter=1)


@pytest.mark.parametrize("tol, max_iter", [(0.0, 60), (-1.0, 60), (np.nan, 60), (np.inf, 60),
                                           (1e-9, 0), (1e-9, -5), (1e-9, 2.5),
                                           (1e-9, np.float64(3.0)), (1e-9, np.nan), (1e-9, True)])
def test_newton_rejects_a_bad_tolerance_or_iteration_cap_first(monkeypatch, tol, max_iter):
    # max_iter -5 raised "no convergence after -5 iterations"; tol -1 ran line
    # searches until they stalled; 2.5, 3.0 and nan walked the start and then
    # raised TypeError, and True ran one iteration
    def no_work(*args, **kwargs):
        raise AssertionError("started Gauss-Newton before checking tol and max_iter")

    monkeypatch.setattr(cohomology, "_gauss_newton", no_work)
    with pytest.raises(ValueError, match="tol must be finite|max_iter must be at least 1"):
        newton_project_to_variety(P2, G, torus_rep(), tol=tol, max_iter=max_iter)


@pytest.mark.parametrize("start_name, name, on_variety", [("SO3", "SU2xU1", True),
                                                           ("SO3", "SU2xU1", False),
                                                           ("SU2", "SO3", False)])
def test_newton_rejects_a_start_of_another_group_first(monkeypatch, start_name, name, on_variety):
    # an SO3 start on the variety came back from SU2xU1's Newton unchanged,
    # still an SO3 point (both are 3x3); off it, a cut-locus error or a numpy
    # matmul error was raised from inside the iteration
    other = group_from_name(start_name)
    rng = np.random.default_rng(3)
    start = RepPoint(other, [other.identity() if on_variety else other.random_element(rng)
                             for _ in range(4)])

    def no_work(*args, **kwargs):
        raise AssertionError("started Gauss-Newton before checking the start's group")

    monkeypatch.setattr(cohomology, "_gauss_newton", no_work)
    with pytest.raises(ValueError, match=f"start is a point of {start_name}, not of {name}"):
        newton_project_to_variety(P2, group_from_name(name), start)


def test_newton_takes_a_numpy_integer_iteration_cap():
    rng = np.random.default_rng(25)
    start = RepPoint(G, [G.random_element(rng) for _ in range(4)])
    a = newton_project_to_variety(P2, G, start, tol=1e-9, max_iter=200)
    b = newton_project_to_variety(P2, G, start, tol=1e-9, max_iter=np.int64(200))
    assert a.values.tobytes() == b.values.tobytes()


# ----------------------------------------------------------------- cone spans

@pytest.mark.parametrize("make,expect", [
    (central_rep, (12, 12)),
    (torus_rep, (10, 8)),
    (irreducible_rep, (9, 6)),
])
def test_cone_directions_span(make, expect):
    dirs, span_z1, span_h1 = sample_cone_directions(P2, make(), count=60, seed=2)
    assert (span_z1, span_h1) == expect
    assert len(dirs) >= 57  # at least 95% of projections succeed


@pytest.mark.parametrize("count,eps", [(0, 1e-3), (-5, 1e-3), (10, np.nan), (10, 0.0),
                                       (10, -1e-3), (10, np.inf), (2.5, 1e-3),
                                       (np.float64(3.0), 1e-3), (np.nan, 1e-3), (True, 1e-3)])
def test_cone_sampling_rejects_inputs_that_draw_nothing(count, eps, monkeypatch):
    # checked before the complex is built: the ints and eps used to return no
    # directions and spans (0, 0) without an error, the float counts to raise a
    # TypeError from range that did not name the count, and True drew one direction
    def no_complex(*args, **kwargs):
        raise AssertionError("the complex was built")

    monkeypatch.setattr(cohomology, "build_complex", no_complex)
    with pytest.raises(ValueError, match="count|eps"):
        sample_cone_directions(P2, torus_rep(), count=count, eps=eps)


@pytest.mark.parametrize("rank_tol", [0.0, -1.0, np.nan, np.inf])
def test_build_complex_rejects_a_rank_cutoff_that_is_not_finite_and_positive(rank_tol):
    # rank_tol -1 gave h dims (0, 6, 0) and nan (3, 12, 3) at this point, whose
    # dims are (1, 8, 1)
    with pytest.raises(ValueError, match="rank_tol"):
        build_complex(P2, torus_rep(), rank_tol=rank_tol)


def test_cone_directions_are_nearly_flat():
    # the quadratic evaluated at the sampling scale stays below 1e-8
    eps = 1e-3
    for make in (central_rep, torus_rep):
        rep = make()
        data = build_complex(P2, rep)
        dirs, _, _ = sample_cone_directions(P2, rep, count=20, seed=4)
        for d in dirs:
            q = obstruction_quadratic(P2, rep, eps * d, data)
            assert np.linalg.norm(q) < 1e-8


# ------------------------------------------------------------------- strata

def test_stabilizer_fixed_subspace_irreducible():
    rep = irreducible_rep()
    els = sample_stabilizer(rep, count=4, seed=0)
    assert stabilizer_fixed_subspace(P2, rep, els) == 6


def test_stabilizer_fixed_subspace_torus():
    rep = torus_rep()
    els = sample_stabilizer(rep, count=6, seed=0)
    assert stabilizer_fixed_subspace(P2, rep, els) == 4


def test_stabilizer_fixed_subspace_central():
    rep = central_rep()
    els = sample_stabilizer(rep, count=6, seed=0)
    assert stabilizer_fixed_subspace(P2, rep, els) == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_fixed_subspace_is_zero_where_h1_is(sign):
    # <x1 | x1^2> at +-I: D1 = 2 I, so H1 and H2 vanish; the fixed subspace of
    # an empty H1 is 0, with the whole group as stabilizer
    pres = Presentation(1, [Word(((1, 1), (1, 1)))])
    rep = RepPoint(G, [sign * EYE])
    data = build_complex(pres, rep)
    assert data.h_dims == (3, 0, 0)
    els = sample_stabilizer(rep, count=6, seed=0, data=data)
    assert stabilizer_fixed_subspace(pres, rep, els, data=data) == 0


def test_no_stabilizer_element_fixes_all_of_h1():
    # an empty element list constrains nothing: the fixed subspace is H1
    data = build_complex(P2, torus_rep())
    assert data.h_dims[1] == 8
    assert stabilizer_fixed_subspace(P2, torus_rep(), [], data=data) == 8
    assert stabilizer_fixed_subspace(P2, torus_rep(), []) == 8


def test_stabilizer_fixed_subspace_builds_with_its_rank_tol(monkeypatch):
    # the fixed subspace is cut at the given complex's rank_tol; nothing is rebuilt
    seen = []
    real = cohomology.build_complex

    def spy(pres, rep, rank_tol=1e-8):
        seen.append(rank_tol)
        return real(pres, rep, rank_tol)

    rep = torus_rep()
    data = build_complex(P2, rep, 1e-6)
    monkeypatch.setattr(cohomology, "build_complex", spy)
    els = sample_stabilizer(rep, count=6, seed=0)
    assert stabilizer_fixed_subspace(P2, rep, els, data=data) == 4
    assert seen == []


@pytest.mark.parametrize("element", [2 * EYE, np.diag([1.0, 1.001])],
                         ids=["twice-identity", "near-identity"])
def test_stabilizer_rejects_elements_off_the_group(element):
    # both commute with the torus values and pass the action checks: off the
    # group they used to cut the fixed subspace to 0 silently
    rep = torus_rep()
    els = sample_stabilizer(rep, count=6, seed=0)
    assert stabilizer_fixed_subspace(P2, rep, els) == 4
    with pytest.raises(ValueError, match="off the group"):
        stabilizer_fixed_subspace(P2, rep, els + [element])


def test_stabilizer_sample_rejects_a_negative_count():
    # a negative count used to return the centre elements alone
    for rep in (torus_rep(), irreducible_rep()):
        with pytest.raises(ValueError, match="non-negative"):
            sample_stabilizer(rep, count=-1)
    assert len(sample_stabilizer(torus_rep(), count=0)) == 2


def test_stabilizer_sample_rejects_a_non_integer_count_at_every_point():
    # at a point with a discrete centralizer the count is never used, so 2.5
    # and NaN used to return the two centre elements; at the torus and central
    # points numpy raised a TypeError that did not name the count. True is an
    # int to isinstance, and it used to take those same two paths
    points = (central_rep(), torus_rep(), rep_from_name(P2, G, "random:1"))
    for rep, count in itertools.product(points, (2.5, np.nan, 3.0, "3", None, True)):
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            sample_stabilizer(rep, count=count)
    for (rep, size), count in itertools.product(zip(points, (5, 5, 2)), (3, np.int64(3))):
        assert len(sample_stabilizer(rep, count=count)) == size


def test_stabilizer_sample_checks_its_seed_at_every_point():
    # at the irreducible point the centralizer is discrete and nothing is
    # drawn, so seed=-1 used to return the two centre elements there
    for rep in (torus_rep(), irreducible_rep()):
        with pytest.raises(ValueError, match="non-negative"):
            sample_stabilizer(rep, seed=-1)


def test_stabilizer_rejects_noncommuting_element():
    rng = np.random.default_rng(27)
    with pytest.raises(ValueError):
        stabilizer_fixed_subspace(P2, torus_rep(), [G.random_element(rng)])


def loop_fixed_subspace(pres, rep, elements, data):
    """The fixed subspace one element at a time: the reference for the stack."""
    group, tol = rep.group, data.rank_tol
    for s in elements:
        worst = max(float(np.linalg.norm(s @ y - y @ s)) for y in rep.values)
        if worst > tol / 10:
            raise ValueError(f"element does not stabilize the representation ({worst:.3e})")
    H1 = data.basis_H1
    h1 = H1.shape[1]
    cocycle_tol = 10 * tol * (1 + np.linalg.norm(data.D1))
    proj = data.basis_B1 @ data.basis_B1.T
    off_b1 = np.eye(len(proj)) - proj
    rows = [np.zeros((0, h1))]
    for s in elements:
        B = np.kron(np.eye(pres.n), group.Ad_matrix(s))
        if np.linalg.norm(data.D1 @ (B @ data.basis_Z1)) > cocycle_tol:
            raise ValueError("action does not preserve the cocycle space")
        if np.linalg.norm(off_b1 @ (B @ data.basis_B1)) > 10 * tol:
            raise ValueError("action does not preserve the coboundary space")
        rows.append(H1.T @ B @ H1 - np.eye(h1))
    return h1 - cohomology._rank(np.linalg.svd(np.vstack(rows), compute_uv=False), tol)


def test_fixed_subspace_stack_matches_the_loop():
    # the stack gives the loop's dimension and raises the loop's first error:
    # every commuting check before any action check, then element by element
    rng = np.random.default_rng(31)
    stray = G.random_element(rng)
    torus_els = sample_stabilizer(torus_rep(), count=6, seed=0)
    cases = [
        (central_rep(), build_complex(P2, central_rep()), sample_stabilizer(central_rep(), 6, 1)),
        (torus_rep(), build_complex(P2, torus_rep()), torus_els),
        (torus_rep(), build_complex(P2, torus_rep(), 1e-6), torus_els),
        (irreducible_rep(), build_complex(P2, irreducible_rep()), sample_stabilizer(irreducible_rep())),
        (torus_rep(), build_complex(P2, torus_rep()), []),
        # a stray element after one whose action fails: the commuting check names it
        (torus_rep(), build_complex(P2, irreducible_rep()), torus_els + [stray]),
        # another point's complex: the action checks fail, the first element first
        (torus_rep(), build_complex(P2, irreducible_rep()), torus_els),
        (central_rep(), build_complex(P2, torus_rep()), [stray, EYE]),
    ]
    outcomes = set()
    for rep, data, els in cases:
        try:
            expected = loop_fixed_subspace(P2, rep, els, data)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                stabilizer_fixed_subspace(P2, rep, els, data=data)
            assert str(raised.value) == str(err)
            outcomes.add(str(err).split(" (")[0])
        else:
            assert stabilizer_fixed_subspace(P2, rep, els, data=data) == expected
    assert outcomes == {"element does not stabilize the representation",
                        "action does not preserve the cocycle space"}


def swapped_p2():
    """<x1..x4 | [x3,x4][x1,x2]>: P2's generators with other relator letters."""
    letters = P2.relators[0].letters
    return Presentation(4, [Word(letters[4:] + letters[:4])])


def kept_arrays(rep):
    """Every array a point holds: its values, its D0 with its SVD, its complex's
    arrays and its one kept walk (one array per relator)."""
    assert set(vars(rep)) == {"group", "values", "n", "_d0", "_complex", "_walks"}
    arrays = [rep.values, *(rep._d0 or ())]
    if rep._complex is not None:
        key, data = rep._complex
        assert isinstance(data, cohomology.CochainData)
        arrays += [a for a in vars(data).values() if isinstance(a, np.ndarray)]
    if rep._walks is not None:
        letters, walks = rep._walks
        assert len(walks) == len(letters)
        arrays += walks
    return arrays


def test_a_point_keeps_one_complex_per_relator_letters_and_rank_tol():
    rep = torus_rep()
    assert kept_arrays(rep) == [rep.values]
    data = build_complex(P2, rep)
    assert build_complex(P2, rep) is data
    assert stabilizer_fixed_subspace(P2, rep, sample_stabilizer(rep)) == 4
    assert build_complex(P2, rep) is data
    # another cutoff, or other relators on as many generators, get their own complex
    coarse = build_complex(P2, rep, 1e-6)
    assert coarse is not data and coarse.rank_tol == 1e-6
    assert build_complex(P2, rep, 1e-6) is coarse
    swapped = build_complex(swapped_p2(), rep)
    assert not np.array_equal(swapped.D1, data.D1)
    assert np.array_equal(swapped.D1, build_complex(swapped_p2(), torus_rep()).D1)
    # at most one complex, one SVD of D0 and one walk, however many keys were tried
    for tol in (1e-5, 1e-7, 1e-9, 1e-10):
        build_complex(P2, rep, tol)
    assert len(kept_arrays(rep)) == 1 + 4 + 7 + 1
    again = build_complex(P2, rep)
    assert again is not data and np.array_equal(again.basis_H1, data.basis_H1)


def test_a_changed_relator_list_is_not_served_a_stale_complex():
    pres = surface_presentation(2)
    rep = torus_rep()
    data = build_complex(pres, rep)
    pres.relators[0] = swapped_p2().relators[0]
    rebuilt = build_complex(pres, rep)
    assert rebuilt is not data
    assert np.array_equal(rebuilt.D1, build_complex(swapped_p2(), torus_rep()).D1)
    pres.relators.append(pres.relators[0])
    assert build_complex(pres, rep).D1.shape == (6, 12)


def test_every_kept_array_is_read_only():
    for rep in (central_rep(), torus_rep(), irreducible_rep()):
        classify_orbit_type(rep)
        build_complex(P2, rep)
        for a in kept_arrays(rep):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0


def test_no_field_of_a_kept_complex_can_be_rebound():
    # the point hands the same CochainData to every caller with the same key,
    # so a rebound field would reach all of them
    rep = torus_rep()
    data = build_complex(P2, rep)
    basis_H1 = data.basis_H1
    for name in vars(data):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, None)
    assert build_complex(P2, rep) is data and data.basis_H1 is basis_H1
    assert [f.name for f in dataclasses.fields(data)] == [
        "D0", "D1", "rank0", "rank1", "h_dims", "basis_H0", "basis_Z1",
        "basis_B1", "basis_H1", "basis_H2", "rank_tol"]


def test_centralizer_of_identity_is_whole_algebra():
    basis = _point_centralizer(RepPoint(G, [EYE]))
    assert basis.shape == (3, 3)


def test_centralizer_of_torus_element():
    basis = _point_centralizer(RepPoint(G, [np.diag([1j, -1j])]))
    assert basis.shape == (3, 1)
    # the fixed direction is the third basis axis
    assert abs(abs(basis[2, 0]) - 1.0) < 1e-10


def test_centralizer_of_generic_pair_is_trivial():
    rng = np.random.default_rng(10)
    rep = RepPoint(G, [G.random_element(rng), G.random_element(rng)])
    basis = _point_centralizer(rep)
    assert basis.shape == (3, 0)


def test_classify_orbit_types():
    assert classify_orbit_type(central_rep()) == (3, "G")
    assert classify_orbit_type(torus_rep()) == (1, "(T)")
    assert classify_orbit_type(irreducible_rep()) == (0, "Z")


def test_classify_is_conjugation_invariant():
    rng = np.random.default_rng(29)
    for make in (central_rep, torus_rep, irreducible_rep):
        rep = make()
        x = G.random_element(rng)
        assert classify_orbit_type(conjugated(rep, x)) == classify_orbit_type(rep)


# -------------------------------------------------------- conjugation moves

def test_conjugation_isomorphism_identity_and_central():
    rep = irreducible_rep()
    assert conjugation_isomorphism_check(P2, rep, EYE)
    assert conjugation_isomorphism_check(P2, rep, -EYE)
    data = build_complex(P2, rep)
    data_c = build_complex(P2, conjugated(rep, -EYE))
    assert np.allclose(data.D0, data_c.D0, atol=1e-12)
    assert np.allclose(data.D1, data_c.D1, atol=1e-12)


def test_conjugation_isomorphism_random_element():
    rng = np.random.default_rng(31)
    for make in (torus_rep, irreducible_rep):
        assert conjugation_isomorphism_check(P2, make(), G.random_element(rng))


# ------------------------------------------------------------- central reps

def test_enumerate_central_reps_genus2():
    reps = enumerate_central_reps(P2, G)
    assert len(reps) == 16
    for rep in reps:
        assert relator_defect(P2, rep) < 1e-12
        assert classify_orbit_type(rep) == (3, "G")


def test_enumerate_central_reps_genus1():
    assert len(enumerate_central_reps(P1, G)) == 4


def test_enumerate_central_reps_u1():
    assert len(enumerate_central_reps(P2, u1())) == 16


def test_enumerate_central_reps_is_the_one_tuple_loop():
    # the tuples are walked as one stack, from the center checked once; each
    # keeps the verdict and values that relator_defect gives it alone
    pair, cube = Presentation(2, [parse_word("x1*x2")]), Presentation(2, [parse_word("x1^3*x2")])
    cases = [(P2, G, None), (surface_presentation(3), G, None), (pair, G, None),
             (pair, G, BundleClass(G, -EYE)), (cube, u1(), None),
             (P2, group_from_name("SU2xU1"), None), (surface_presentation(6), G, None),
             (P2, group_from_name("SO3"), None)]
    for pres, group, c in cases:
        points = [RepPoint(group, combo)
                  for combo in itertools.product(group.center_elements, repeat=pres.n)]
        want = [p.values for p in points if relator_defect(pres, p, c) <= 1e-9]
        got = enumerate_central_reps(pres, group, c)
        assert [rep.values.tobytes() for rep in got] == [w.tobytes() for w in want]
        assert all(rep.values.dtype == complex and not rep.values.flags.writeable for rep in got)
    # x1 x2 hits I, and -I, at two of the four sign pairs: some tuples miss
    assert len(enumerate_central_reps(pair, G)) == 2
    assert len(enumerate_central_reps(pair, G, BundleClass(G, -EYE))) == 2


def test_enumerate_checks_the_center_before_walking_a_relator(monkeypatch):
    off = copy.copy(su2())
    off.center_elements = [EYE, 2 * EYE]

    def no_walk(*args, **kwargs):
        raise AssertionError("walked a relator before checking the center")

    monkeypatch.setattr(cohomology, "_suffixes", no_walk)
    with pytest.raises(ValueError, match="center element lies off the group"):
        enumerate_central_reps(P2, off)


def test_enumerate_rejects_too_many_center_tuples_first(monkeypatch):
    # SU2xU1's center has 4 elements: 4 ** 6 tuples at genus 3 are walked;
    # 4 ** 8 at genus 4 and SU(2) at genus 7 (2 ** 14) are not
    assert cohomology.MAX_CENTRAL_TUPLES == 4096
    product = group_from_name("SU2xU1")
    assert len(enumerate_central_reps(surface_presentation(3), product)) == 4096

    # a class of another group, or no BundleClass at all, is rejected before
    # the center elements are stacked into tuples
    bad_classes = (BundleClass(group_from_name("SO3"), np.eye(3)), -EYE)

    def no_walk(*args, **kwargs):
        raise AssertionError("built or walked a center tuple before checking the count and c")

    monkeypatch.setattr(cohomology, "_suffixes", no_walk)
    monkeypatch.setattr(cohomology, "_elements", no_walk)
    for pres, group in ((surface_presentation(4), product), (surface_presentation(7), G)):
        with pytest.raises(ValueError, match="center tuples exceed the budget of 4096"):
            enumerate_central_reps(pres, group)
    for c in bad_classes:
        with pytest.raises(ValueError, match="c must be None or a BundleClass of SU2"):
            enumerate_central_reps(P2, G, c)


def test_enumerate_against_twisted_class_is_empty():
    c = BundleClass(G, -EYE)
    assert enumerate_central_reps(P2, G, c) == []


# --------------------------------------------------------- named constructors

def test_rep_from_name_central():
    rep = rep_from_name(P2, G, "central:[+,-,+,-]")
    expect = [EYE, -EYE, EYE, -EYE]
    assert all(np.allclose(a, b) for a, b in zip(rep.values, expect))


def test_rep_from_name_torus():
    rep = rep_from_name(P2, G, "torus:[0.7,1.1,-0.5,0.3]")
    assert all(
        np.allclose(a, b) for a, b in zip(rep.values, torus_rep().values)
    )


def test_rep_from_name_random_is_deterministic_and_on_variety():
    a = rep_from_name(P2, G, "random:11")
    b = rep_from_name(P2, G, "random:11")
    assert relator_defect(P2, a) < 1e-9
    assert all(np.array_equal(x, y) for x, y in zip(a.values, b.values))
    c = rep_from_name(P2, G, "random:12")
    assert not all(np.allclose(x, y) for x, y in zip(a.values, c.values))


@pytest.mark.parametrize("text", [
    "central:[+,0,+,-]",
    "torus:[1.0,2.0]",
    "spin:[1]",
    "random:not_an_int",
])
def test_rep_from_name_rejects_malformed(text):
    with pytest.raises(ValueError):
        rep_from_name(P2, G, text)

"""The walk plan of the Fox complex: one walk over each relator's letters gives
both the relator value (start 0) and every suffix D1's Fox terms read, each
distinct suffix once, and D1 adds the terms in letter order (one np.add.at
per relator) with the bits of the term-by-term sum, on the kernels and sizes
GROUPS names. Gauss-Newton walks each relator once per trial and builds the
next D1 from the accepted trial's walk, and the point it returns keeps that
walk: relator_defect and build_complex there walk nothing. A fresh point walks
each relator once for both and keeps the walk, and every relator value is
start 0 of a walk, so the two points give the same bits on every kernel. A
presentation keeps its plan under its relators' letters.
"""

import os

import numpy as np
import pytest

from surfrep import cohomology, reports
from surfrep.cohomology import (
    _suffixes,
    _walk_plan,
    _walks,
    build_complex,
    BundleClass,
    newton_project_to_variety,
    relator_defect,
    RepPoint,
)
from surfrep.groups import _dagger, group_from_name
from surfrep.words import Presentation, Word, fox_terms, parse_word, surface_presentation

from oracles import _d1

# Under OpenBLAS's Haswell kernels a 4x4 walk entry need not have the bits of
# its one-start walk, and so D1 not those of the per-term sum: the tall block's
# product rounds by the block's height (600 of 660 entries over 20 points at
# genus 2, 3 and 5; none for 2x2, 3x3 or 6x6, and none on SkylakeX). The 4x4
# cases must fail there, and hold everywhere else.
HASWELL = os.environ.get("OPENBLAS_CORETYPE", "").lower() == "haswell"
GROUPS = ["SU2", "SO3", "SU2xU1", "U1",
          pytest.param("SU2xSU2", marks=pytest.mark.xfail(
              HASWELL, strict=True, reason="4x4 walk bits depend on the block height under Haswell"))]
# a repeated generator, a leading inverse letter, powers, an empty relator
ODD_RELATORS = ["x1^-1*x2*x1*x1*x2^-1", "x1^3*x2^-2*x1^-1*x3", "x2^-1*x1^-1*x2*x1", "x3^2"]


def per_term_d1(pres, group, values):
    """D1 as the terms' loop builds it: one walk over each relator's Fox-term
    starts, one Ad per term, each term added to its block in letter order."""
    d = group.dim
    D1 = np.zeros(np.shape(values[0])[:-2] + (pres.m * d, pres.n * d))
    for i, r in enumerate(pres.relators):
        terms = list(fox_terms(r))
        suffixes = _suffixes(group, values, r.letters, [s for _, _, s in terms])
        for (j, sign, _), A in zip(terms, group.Ad_matrix(_dagger(suffixes))):
            D1[..., i * d:(i + 1) * d, (j - 1) * d:j * d] += sign * A
    return D1


def odd_presentation():
    return Presentation(3, [parse_word(text) for text in ODD_RELATORS] + [Word()])


def random_values(group, n, samples, seed):
    rng = np.random.default_rng(seed)
    shape = () if samples is None else (samples,)
    m = group.matrix_dim
    return np.reshape([group.random_element(rng) for _ in range(n * (samples or 1))],
                      (n,) + shape + (m, m))


def central_values(group, n, samples):
    """Values drawn from the group's center in a cyclic pattern, so that the
    Ad matrices are exact and the block sums meet signed zeros."""
    center = group.center_elements
    idx = np.arange(n * (samples or 1)).reshape(n, samples or 1) % len(center)
    idx = (idx + np.arange(n)[:, None]) % len(center)
    values = np.stack(center)[idx]
    return values[:, 0] if samples is None else values


@pytest.mark.parametrize("samples", [None, 5], ids=["point", "stack"])
@pytest.mark.parametrize("name", GROUPS)
def test_plan_walk_entries_are_their_one_start_walks(name, samples):
    group = group_from_name(name)
    for pres in [surface_presentation(g) for g in (1, 2, 3, 8)] + [odd_presentation()]:
        values = random_values(group, pres.n, samples, pres.n)
        plan = _walk_plan(pres)
        for r, (starts, *_), walk in zip(pres.relators, plan, _walks(pres, group, values, plan)):
            assert starts[0] == 0 and starts == sorted(set(starts))
            for s, entry in zip(starts, walk):
                alone = _suffixes(group, values, r.letters, [s])[0]
                assert entry.tobytes() == alone.tobytes(), (r, s)


@pytest.mark.parametrize("genus", [1, 2, 8])
def test_plan_walks_each_distinct_suffix_once(genus):
    # a commutator's 4 terms read 3 distinct suffixes; its terms stay in
    # letter order, x_a, x_b, x_a^-1, x_b^-1, each with its generator and sign
    pres = surface_presentation(genus)
    ((starts, cols, signs, rows),) = _walk_plan(pres)
    assert len(starts) == 3 * genus + 1
    assert cols.tolist() == [c for h in range(genus) for c in (2 * h, 2 * h + 1) * 2]
    assert signs.tolist() == [1, 1, -1, -1] * genus
    assert [starts[k] for k in rows] == [s for _, _, s in fox_terms(pres.relators[0])]


@pytest.mark.parametrize("samples", [None, 5], ids=["point", "stack"])
@pytest.mark.parametrize("name", GROUPS)
def test_d1_is_the_per_term_sum_bit_for_bit(name, samples):
    group = group_from_name(name)
    presentations = [surface_presentation(g) for g in (1, 2, 3, 8)]
    presentations += [odd_presentation(), Presentation(3, [])]
    for pres in presentations:
        for values in (random_values(group, pres.n, samples, 7), central_values(group, pres.n, samples)):
            D1 = _d1(pres, group, values)
            expected = per_term_d1(pres, group, values)
            assert D1.shape == expected.shape
            assert D1.tobytes() == expected.tobytes()


def test_d1_at_a_central_point_holds_the_sums_zeros():
    # at the identity every Ad is I, so D1's blocks of a commutator sum +I - I
    group = group_from_name("SU2")
    pres = surface_presentation(2)
    values = np.stack([group.identity()] * pres.n)
    D1 = _d1(pres, group, values)
    assert D1.tobytes() == per_term_d1(pres, group, values).tobytes()
    assert not np.signbit(D1).any() and not D1.any()


@pytest.mark.parametrize("name", ["SU2", "SO3", "SU2xU1"])
@pytest.mark.parametrize("pres", [surface_presentation(2), surface_presentation(4),
                                  Presentation(2, [parse_word("x1*x2*x1^-1*x2^-1"),
                                                   parse_word("x1^-1*x2^2*x1")])],
                         ids=["genus2", "genus4", "two-relators"])
def test_one_sample_newton_walks_each_relator_once_per_trial(monkeypatch, name, pres):
    # each trial of the line search walks each relator once, for its value and
    # for D1 at it; no other walk but the start's
    group = group_from_name(name)
    counts = {"walks": 0, "trials": 0, "solves": 0}

    def counted(key, f):
        def call(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return call

    rng = np.random.default_rng(3)
    start = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
    monkeypatch.setattr(cohomology, "_suffixes", counted("walks", cohomology._suffixes))
    monkeypatch.setattr(cohomology, "_lstsq", counted("solves", cohomology._lstsq))
    monkeypatch.setattr(group, "project_to_group", counted("trials", group.project_to_group))
    try:
        newton_project_to_variety(pres, group, start, tol=1e-10, max_iter=200)
    except cohomology.ConvergenceError:
        pass
    assert counts["solves"] >= 1 and counts["trials"] >= counts["solves"]
    assert counts["walks"] == pres.m * (1 + counts["trials"])


def newton_point(pres, group, c=None):
    """The point Newton returns, at the central target c, from the first Haar
    start (seeds 0, 1, ...) that converges."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        start = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
        try:
            return newton_project_to_variety(pres, group, start, c=c, tol=1e-10, max_iter=200)
        except cohomology.ConvergenceError:
            continue
    raise AssertionError("no start converged")


def count_walks(monkeypatch):
    counts = {"walks": 0}

    def call(*args, **kwargs):
        counts["walks"] += 1
        return _suffixes(*args, **kwargs)

    monkeypatch.setattr(cohomology, "_suffixes", call)
    return counts


def assert_same_bits(pres, rep, fresh, c):
    assert relator_defect(pres, rep, c).hex() == relator_defect(pres, fresh, c).hex()
    a, b = build_complex(pres, rep), build_complex(pres, fresh)
    assert (a.rank0, a.rank1, a.h_dims) == (b.rank0, b.rank1, b.h_dims)
    for name in ("D0", "D1", "basis_H0", "basis_Z1", "basis_B1", "basis_H1", "basis_H2"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


NEWTON_CASES = [("SU2", 2, False), ("SU2", 4, False), ("SO3", 2, False), ("SO3", 4, False),
                ("SU2xU1", 2, False), ("SU2xU1", 4, False), ("SU2", 2, True), ("SU2", 4, True),
                ("SU2xSU2", 2, False), ("SU2xSU2", 4, False)]


@pytest.mark.parametrize("name, genus, twisted", NEWTON_CASES,
                         ids=[f"{n}-g{g}{'-twisted' if t else ''}" for n, g, t in NEWTON_CASES])
def test_a_newton_point_keeps_its_walk_with_a_fresh_points_bits(monkeypatch, name, genus, twisted):
    # relator_defect and build_complex at the point Newton returns read its
    # last walk, and give the defect, D1, ranks and bases of a fresh point;
    # both read start 0 of a walk, so this holds for 4x4 values under Haswell too
    group, pres = group_from_name(name), surface_presentation(genus)
    c = BundleClass(group, -group.identity()) if twisted else None
    rep = newton_point(pres, group, c)
    letters, walks = rep._walks
    assert letters == (pres.relators[0].letters,) and len(walks) == pres.m
    assert all(not w.flags.writeable for w in walks)
    counts = count_walks(monkeypatch)
    relator_defect(pres, rep, c)
    build_complex(pres, rep)
    assert counts["walks"] == 0
    fresh = RepPoint(group, rep.values)
    assert fresh._walks is None
    assert_same_bits(pres, rep, fresh, c)
    # the fresh point walks each relator once, for its defect and its complex
    assert counts["walks"] == pres.m


@pytest.mark.parametrize("report, args", [
    (reports.cohomology_report, ("SU2", 2, "torus:[0.7,1.1,-0.5,0.3]", 1e-8, 1e-9)),
    (reports.stratify_report, ("SU2", 2, "central:[+,-,+,-]", 0, 1e-8, 1e-9)),
], ids=["cohomology-torus", "stratify-central"])
def test_a_named_points_report_walks_each_relator_once(monkeypatch, report, args):
    # the defect and the complex of a point the report names read one walk
    counts = count_walks(monkeypatch)
    assert report(*args)[1] == "pass"
    assert counts["walks"] == surface_presentation(2).m


def test_a_changed_relator_list_gets_neither_the_old_walk_nor_the_old_plan(monkeypatch):
    group = group_from_name("SU2")
    pres = surface_presentation(2)
    rep = newton_point(pres, group)
    old_plan = _walk_plan(pres)
    # one relator replaced: x1 x2 x1^-1 x2^-1 x3 x4 x3^-1 x4^-1 read from x3
    pres.relators[0] = Word(pres.relators[0].letters[4:] + pres.relators[0].letters[:4])
    same = Presentation(4, list(pres.relators))
    plan = _walk_plan(pres)
    assert plan is not old_plan
    assert [p[0] for p in plan] == [p[0] for p in _walk_plan(same)]
    assert all((x == y).all() for p, q in zip(plan, _walk_plan(same)) for x, y in zip(p[1:], q[1:]))
    counts = count_walks(monkeypatch)
    assert relator_defect(pres, rep) == relator_defect(same, RepPoint(group, rep.values))
    assert_same_bits(pres, rep, RepPoint(group, rep.values), None)
    assert rep._walks[0] == (pres.relators[0].letters,)
    assert counts["walks"] > 0
    # one relator appended: its walk and plan entry are made too
    pres.relators.append(parse_word("x1*x2*x1^-1*x2^-1"))
    assert len(_walk_plan(pres)) == 2
    assert build_complex(pres, rep).D1.shape == (6, 12)
    assert len(rep._walks[1]) == 2
    assert_same_bits(pres, rep, RepPoint(group, rep.values), None)


def test_the_same_relator_letters_on_other_generators_still_raise():
    group = group_from_name("SU2")
    pres = surface_presentation(2)
    rep = newton_point(pres, group)
    wider = Presentation(5, list(pres.relators))
    assert cohomology._letters(wider) == rep._walks[0]
    with pytest.raises(ValueError, match="presentation has 5 generators, point has 4 values"):
        relator_defect(wider, rep)
    with pytest.raises(ValueError, match="presentation has 5 generators, point has 4 values"):
        build_complex(wider, rep)


def test_a_presentation_keeps_one_read_only_plan():
    pres = surface_presentation(3)
    plan = _walk_plan(pres)
    assert _walk_plan(pres) is plan and pres._plan[0] == cohomology._letters(pres)
    for starts, *arrays in plan:
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

"""The stacked path: group kernels over a leading sample axis, Gauss-Newton over
many starts at once, and chunked cone sampling. Each must give the bits the
one-at-a-time path gives, so batching never changes a result."""

import functools
import hashlib

import numpy as np
import pytest

from surfrep import cohomology, reports
from surfrep.cohomology import (
    BundleClass,
    ConvergenceError,
    RepPoint,
    _gauss_newton,
    newton_project_to_variety,
    sample_cone_directions,
)
from surfrep.groups import GROUP_DEFECT_TOL, _cut, _cut_error, _on_group, group_from_name, su2
from surfrep.words import surface_presentation

N = 5000
KERNEL_GROUPS = ["SU2", "SO3", "U1", "SU2xU1", "SO3xSU2xU1"]
# per factor: algebra dimension and the coordinate norm at which exp reaches
# rotation angle pi, the cut locus of log
FACTOR_DIM = {"SU2": 3, "SO3": 3, "U1": 1}
CUT_RADIUS = {"SU2": 2 * np.pi, "SO3": np.pi, "U1": np.pi}


def _coordinates(name, rng):
    """Algebra coordinates at scales 0 to 3 and, in every factor, near the cut
    radius on both sides of the log's margin."""
    group = group_from_name(name)
    X = rng.standard_normal((N, group.dim)) * rng.choice([0.0, 1e-9, 1e-3, 1.0, 3.0], (N, 1))
    first = 0
    for factor in name.split("x"):
        block = rng.standard_normal((N - N // 2, FACTOR_DIM[factor]))
        radius = CUT_RADIUS[factor] - rng.choice([0.0, 1e-7, 1e-5, 1e-3], (len(block), 1))
        X[N // 2:, first:first + FACTOR_DIM[factor]] = block / np.linalg.norm(
            block, axis=1, keepdims=True) * radius
        first += FACTOR_DIM[factor]
    return group, X


def _log_or_cut(group, g):
    try:
        return group.log(g)
    except ValueError:
        return None


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_stacked_kernels_match_one_at_a_time(name):
    rng = np.random.default_rng(KERNEL_GROUPS.index(name))
    group, X = _coordinates(name, rng)
    E = group.exp(X)
    assert np.array_equal(E, [group.exp(x) for x in X])

    coords, angles = group._log(E)
    cut = _cut(angles).any(axis=-1)
    logs = [_log_or_cut(group, g) for g in E]
    assert 0 < cut.sum() < N
    assert np.array_equal(cut, [c is None for c in logs])
    assert np.array_equal(coords[~cut], [c for c in logs if c is not None])
    with pytest.raises(ValueError, match="cut locus") as raised:
        group.log(E)
    assert str(raised.value) == str(_cut_error(angles[np.flatnonzero(cut)[0]]))

    M = E + 1e-3 * (rng.standard_normal(E.shape) + 1j * rng.standard_normal(E.shape))
    P = group.project_to_group(M)
    assert np.array_equal(P, [group.project_to_group(m) for m in M])
    # half off the group, half on it
    mixed = np.concatenate([M[:N // 2], P[N // 2:]])
    assert np.array_equal(group._defect(mixed), [group.group_defect(g) for g in mixed])
    Ad = group.Ad_matrix(M)
    assert np.array_equal(Ad, [group.Ad_matrix(m) for m in M])
    # more than one leading axis
    assert np.array_equal(group.Ad_matrix(M[:600].reshape(20, 30, *M.shape[1:])),
                          Ad[:600].reshape(20, 30, group.dim, group.dim))


G = su2()
P2 = surface_presentation(2)


def _same_directions(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_fewer_samples_give_the_first_directions():
    rep = reports.irreducible_rep(G)
    short, *_ = sample_cone_directions(P2, rep, count=12, seed=5)
    full, *_ = sample_cone_directions(P2, rep, count=24, seed=5)
    assert len(short) == 12
    assert _same_directions(short, full[:12])


@pytest.mark.parametrize("text", ["central:[+,-,+,+]", "torus:[0.7,1.1,-0.5,0.3]"])
def test_chunk_size_does_not_change_the_cone(monkeypatch, text):
    rep = cohomology.rep_from_name(P2, G, text)
    dirs, span_z1, span_h1 = sample_cone_directions(P2, rep, count=24, seed=3)
    monkeypatch.setattr(cohomology, "CONE_CHUNK", 5)
    chunked, chunked_z1, chunked_h1 = sample_cone_directions(P2, rep, count=24, seed=3)
    assert _same_directions(dirs, chunked)
    assert (span_z1, span_h1) == (chunked_z1, chunked_h1)


def test_chunks_where_every_sample_fails_are_skipped(monkeypatch):
    # two Newton iterations leave most samples short of 1e-12 at this point:
    # with one sample per chunk, most chunks end with no sample, and the
    # sampler must skip them as it skips each failed sample in a full chunk
    rep = cohomology.rep_from_name(P2, G, "central:[+,-,+,+]")
    newton = cohomology._gauss_newton

    def capped(pres, group, values, cm, tol, max_iter, slice_basis, cap=2):
        return newton(pres, group, values, cm, tol, cap, slice_basis)

    monkeypatch.setattr(cohomology, "_gauss_newton", capped)
    dirs, span_z1, span_h1 = sample_cone_directions(P2, rep, count=16, seed=1)
    assert 0 < len(dirs) < 16
    monkeypatch.setattr(cohomology, "CONE_CHUNK", 1)
    single, single_z1, single_h1 = sample_cone_directions(P2, rep, count=16, seed=1)
    assert _same_directions(dirs, single)
    assert (span_z1, span_h1) == (single_z1, single_h1)
    monkeypatch.setattr(cohomology, "_gauss_newton", functools.partial(capped, cap=1))
    assert sample_cone_directions(P2, rep, count=16, seed=1) == ([], 0, 0)


def _per_sample_mask(group, values):
    """Reference per-sample mask over a stack (n, S, m, m): the samples whose
    n values are all finite and within GROUP_DEFECT_TOL of the group."""
    ok = np.isfinite(values).all(axis=(0, 2, 3))
    ok[ok] = ~(group._defect(values[:, ok]) > GROUP_DEFECT_TOL).any(axis=0)
    return ok


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_on_group_over_values_is_the_per_sample_mask(name):
    group = group_from_name(name)
    rng = np.random.default_rng(41)
    n, S, m = 3, 200, group.matrix_dim
    values = np.array([[group.random_element(rng) for _ in range(S)] for _ in range(n)])
    # scaled values: defects on both sides of GROUP_DEFECT_TOL, and well off it
    scale = 1 + rng.choice([0.0, 1e-12, 3e-11, 1e-10, 3e-10, 1e-3], (n, S))
    values = values * scale[..., None, None]
    for entry in (np.nan, np.inf, -np.inf):
        hit = rng.random((n, S)) < 0.05
        values[hit, rng.integers(m), rng.integers(m)] = entry
    stacks = [values, values[:, :0], np.full((n, 4, m, m), np.nan, dtype=complex),
              values[:1], values[:, :1]]
    for Y in stacks:
        want = _per_sample_mask(group, Y)
        got = _on_group(group, Y).all(axis=0)
        assert got.shape == want.shape and np.array_equal(got, want)
    mask = _per_sample_mask(group, values)
    assert 0 < mask.sum() < S


def test_empty_batches_pass_through():
    empty = np.empty((4, 0, 2, 2), dtype=complex)
    assert _on_group(G, empty).all(axis=0).shape == (0,)
    values, errors, moved, _ = _gauss_newton(P2, G, empty, np.eye(2, dtype=complex),
                                             tol=1e-12, max_iter=80, slice_basis=np.eye(12))
    assert values.shape == (4, 0, 2, 2) and errors == [] and moved.shape == (0,)


def _outcome(call):
    try:
        return call()
    except (ConvergenceError, ValueError) as exc:
        return exc


def test_mixed_batch_matches_one_sample_calls():
    rng = np.random.default_rng(31)
    solution = reports.irreducible_rep(G)
    delta = 1e-4 * rng.standard_normal((4, 3))
    near = RepPoint(G, [y @ G.exp(v) for y, v in zip(solution.values, delta)])
    far = RepPoint(G, [G.random_element(rng) for _ in range(4)])
    # [a, b] = -I for anticommuting a, b: the residual log is on its cut locus
    cut = RepPoint(G, [np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]]), np.eye(2), np.eye(2)])
    starts = [solution, far, near, cut]
    values, errors, moved, _ = _gauss_newton(
        P2, G, np.stack([np.stack(p.values) for p in starts], axis=1),
        np.eye(2, dtype=complex), tol=1e-10, max_iter=3, slice_basis=np.eye(12))

    single = [_outcome(lambda p=p: newton_project_to_variety(P2, G, p, tol=1e-10, max_iter=3))
              for p in starts]
    assert single[0] is solution and not moved[0]
    assert isinstance(single[1], ConvergenceError) and "after 3 iterations" in str(single[1])
    assert isinstance(single[2], RepPoint) and moved[2]
    assert isinstance(single[3], ValueError) and "cut locus" in str(single[3])
    for s, one in enumerate(single):
        if isinstance(one, RepPoint):
            assert errors[s] is None
            assert np.array_equal(values[:, s], np.stack(one.values))
        else:
            assert type(errors[s]) is type(one) and str(errors[s]) == str(one)


def _one_sample_in_slice(start, slice_basis):
    """Newton from one start within a slice, run as a stack of one sample and
    read as newton_project_to_variety reads its one sample: a RepPoint, or the
    sample's exception raised."""
    values, errors, moved, _ = _gauss_newton(
        P2, G, np.stack(start.values)[:, None], np.eye(2, dtype=complex),
        tol=1e-10, max_iter=30, slice_basis=slice_basis)
    if errors[0] is not None:
        raise errors[0]
    return RepPoint(G, list(values[:, 0])) if moved[0] else start


@pytest.mark.parametrize("columns", [2, 4])
def test_batch_of_far_starts_matches_one_sample_calls(columns):
    # Newton from Haar starts within a random slice of a few columns: the
    # samples need different numbers of iterations and of line-search
    # halvings, and with 2 columns most stall or hit the cap; batched, each
    # must still take its own
    rng = np.random.default_rng(37)
    slice_basis, _ = np.linalg.qr(rng.standard_normal((12, columns)))
    starts = [RepPoint(G, [G.random_element(rng) for _ in range(4)]) for _ in range(8)]
    values, errors, *_ = _gauss_newton(
        P2, G, np.stack([np.stack(p.values) for p in starts], axis=1),
        np.eye(2, dtype=complex), tol=1e-10, max_iter=30, slice_basis=slice_basis)
    for s, start in enumerate(starts):
        one = _outcome(lambda: _one_sample_in_slice(start, slice_basis))
        if isinstance(one, RepPoint):
            assert errors[s] is None
            assert np.array_equal(values[:, s], np.stack(one.values))
        else:
            assert type(errors[s]) is type(one) and str(errors[s]) == str(one)


# sha256 prefixes of the projected values from Haar starts drawn as
# rep_from_name draws them (seed, attempt 0), recorded with the scalar
# one-matrix-at-a-time Newton this path replaced (numpy 2.4, OpenBLAS, x86-64)
SCALAR_NEWTON = {
    (2, False, 0): "bd729277d770048e",
    (2, False, 1): "d073e5526dd9f2b0",
    (2, False, 2): "dbc845662566dee0",
    (2, True, 0): "cbef01388ecac313",
    (2, True, 1): "3cd05a4d5c0d8010",
    (2, True, 2): "3371339533bb6995",
    (6, False, 0): "5b708e0290f710d7",
    (6, False, 1): "94a4087dd3850c6b",
    (6, False, 2): "e6d60a4c3b293a02",
    (6, True, 0): "d06cb3175e72031e",
    (6, True, 1): "f6384d1b01ab90f5",
    (6, True, 2): "d4fea76b655b5cc2",
}


@pytest.mark.parametrize("genus,twisted,seed", sorted(SCALAR_NEWTON))
def test_newton_points_match_the_scalar_path(genus, twisted, seed):
    pres = surface_presentation(genus)
    c = BundleClass(G, -G.identity()) if twisted else None
    rng = np.random.default_rng((seed, 0))
    start = RepPoint(G, [G.random_element(rng) for _ in range(pres.n)])
    out = newton_project_to_variety(pres, G, start, c=c, tol=1e-10, max_iter=200)
    digest = hashlib.sha256(np.stack(out.values).tobytes()).hexdigest()[:16]
    assert digest == SCALAR_NEWTON[genus, twisted, seed]

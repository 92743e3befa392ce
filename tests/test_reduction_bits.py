"""The zero-locus sampler, the point readers and the rank strata keep the bits
of the code they replaced.

_construct_so3 draws its normals up front and walks its area-pair reads in
order, momentum_so3 writes the cross products out, _point_vectors gathers
each validating batch's rows with one index, one SO(2) point takes its
Hilbert dots with ndarray.dot, and _rank and the SO(3) strata decide in
Python floats. These tests hold every array, rank and label, and the state a
caller's generator is left in, to the formulas they replaced, copied below as
they stood before: the constructor that drew one slot and one area pair at a
time, np.cross, np.stack over the points' vectors, np.vecdot, and the numpy
rank rule over np.sort's magnitudes (its ranks named as strings, as the
stratum rule names them).
"""

import numpy as np
import pytest

from surfrep.groups import _rank
from surfrep.reduction import (
    ZeroLocusPoint,
    _construct_so3,
    _norm,
    _point_vectors,
    _psd_rank_strata,
    hilbert_map,
    momentum_so2,
    momentum_so3,
    sample_zero_locus,
    so2_model,
    so3_model,
    spanning_configurations,
)

# ---------------------------------------------------------------------------
# The formulas as they stood before


def _area_pair_alone(rng):
    while True:
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        area = momentum_so2(a, b)
        if abs(area) > 0.05:
            return a, b, area


def _construct_so3_alone(rng, count):
    parallel = np.arange(1, count) % 6 == 3
    lines, weights, planes, pairs = [], [], [], []
    for flat in parallel:
        if flat:
            lines.append(rng.standard_normal(3))
            weights.append(rng.standard_normal(4))
        else:
            planes.append(rng.standard_normal((3, 2)))
            pairs.append(_area_pair_alone(rng) + _area_pair_alone(rng))
    W = np.empty((len(parallel), 12))
    if lines:
        u = np.array(lines)
        u /= _norm(u)[:, None]
        W[parallel] = (np.array(weights)[:, :, None] * u[:, None, :]).reshape(-1, 12)
    if planes:
        a, b, area1, c, d, area2 = (np.array(x) for x in zip(*pairs))
        scale1 = (1.0 / np.sqrt(np.abs(area1)))[:, None]
        scale2 = (1.0 / np.sqrt(np.abs(area2)))[:, None]
        a, b, c, d = scale1 * a, scale1 * b, scale2 * c, scale2 * d
        d = np.where((np.sign(area1) == np.sign(area2))[:, None], -d, d)
        basis = np.linalg.qr(np.array(planes))[0]
        coords = np.stack([a, c, b, d], axis=1)[..., None]
        W[~parallel] = (basis[:, None] @ coords).reshape(-1, 12)
    return W


def _momentum_so3_cross(q1, p1, q2, p2):
    return np.cross(q1, p1) + np.cross(q2, p2)


def _so2_image_vecdot(w):
    q, p = w[..., 0:2], w[..., 2:4]
    qq, pp, qp = np.vecdot(q, q), np.vecdot(p, p), np.vecdot(q, p)
    return np.array([qq - pp, 2.0 * qp, qq + pp]).T


def _rank_numpy(s, tol):
    return (s > tol * np.maximum(s[..., :1], 1.0)).sum(axis=-1).tolist()


def _psd_rank_strata_numpy(S):
    eig = np.linalg.eigvalsh((S + np.swapaxes(S, 1, 2)) / 2.0)
    ranks = _rank_numpy(np.sort(np.abs(eig), axis=1)[:, ::-1], 1e-9)
    return ["outside" if low < -1e-9 or rank > 2 else rank
            for low, rank in zip(eig[:, 0].tolist(), ranks)]


def _numpy_labels(S):
    # the numpy rule's labels as the model's stratum rule names them, ranks as strings
    return [str(label) for label in _psd_rank_strata_numpy(S)]


# ---------------------------------------------------------------------------
# The walk over the pair reads


class _LoggedGenerator:
    """A generator that keeps every array it draws, in order."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def standard_normal(self, size):
        self.draws.append(self.rng.standard_normal(size))
        return self.draws[-1]


def _rereads_alone(seed, count):
    """How often the one-draw loop reads each area pair again, in the order it
    reads the pairs, from the halves of the pairs _construct_so3_alone draws."""
    rng = _LoggedGenerator(seed)
    _construct_so3_alone(rng, count)
    halves = [x for x in rng.draws if x.shape == (2,)]
    rereads, run = [], 0
    for a, b in zip(halves[::2], halves[1::2]):
        if abs(momentum_so2(a, b)) > 0.05:
            rereads.append(run)
            run = 0
        else:
            run += 1
    return rereads


# 2 and 4 hold one and three points, 7 a parallel point between planar ones;
# at 150 and 1000 points some pairs are read again
@pytest.mark.parametrize("count", [2, 4, 5, 7, 150, 1000])
def test_construct_so3_keeps_the_one_draw_bytes_and_generator_state(count):
    for seed in range(200):
        rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        W, want = _construct_so3(rng, count), _construct_so3_alone(alone, count)
        assert W.shape == want.shape == (count - 1, 12)
        assert W.tobytes() == want.tobytes(), seed
        assert rng.standard_normal() == alone.standard_normal(), seed


# count 3 holds two planar points (four pair reads), count 4 a parallel point
# after them; each seed is one whose one-draw loop shows the edge
@pytest.mark.parametrize("count, seed, shows_edge", [
    (3, 308, lambda rereads: rereads[0] >= 2),
    (3, 19, lambda rereads: rereads[-1] >= 1),
    (4, 19, lambda rereads: rereads[-1] >= 1),
], ids=["a pair read again twice, later reads 8 on", "a re-read at the last read",
        "a parallel point after a re-read"])
def test_the_walk_keeps_the_one_draw_bytes_at_its_edges(count, seed, shows_edge):
    rereads = _rereads_alone(seed, count)
    assert len(rereads) == 4 and shows_edge(rereads), rereads
    rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
    W, want = _construct_so3(rng, count), _construct_so3_alone(alone, count)
    assert W.tobytes() == want.tobytes()
    assert rng.bit_generator.state == alone.bit_generator.state


@pytest.mark.parametrize("count", [1, 2, 150])
def test_a_callers_generator_ends_where_the_one_draw_sampler_left_it(count):
    for seed in (0, 1, 7919):
        rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        points = sample_zero_locus(so3_model(), count, seed=rng)
        want = np.zeros((count, 12))
        want[1:] = _construct_so3_alone(alone, count)
        assert np.stack([point.w for point in points]).tobytes() == want.tobytes()
        assert rng.bit_generator.state == alone.bit_generator.state


# ---------------------------------------------------------------------------
# The explicit cross product


def _extreme_stack(rng, shape):
    x = rng.standard_normal(shape) * 10.0 ** rng.choice([-300, 0, 300], size=shape)
    for value in (np.inf, -np.inf, np.nan):
        x.flat[rng.choice(x.size, size=3, replace=False)] = value
    return x


def _nan_as_one(x):
    return np.where(np.isnan(x), np.nan, x)


@pytest.mark.parametrize("shapes", [
    [(3,)] * 4,
    [(40, 3)] * 4,
    [(3,), (40, 3), (40, 3), (3,)],
    [(5, 1, 3), (4, 3), (5, 4, 3), (1, 4, 3)],
], ids=["one", "stack", "broadcast", "grid"])
def test_momentum_so3_keeps_the_np_cross_bits(shapes):
    rng = np.random.default_rng(3)
    for _ in range(20):
        vectors = [_extreme_stack(rng, shape) for shape in shapes]
        with np.errstate(all="ignore"):
            got, want = momentum_so3(*vectors), _momentum_so3_cross(*vectors)
        assert got.shape == want.shape
        # every bit but a NaN's sign, which numpy's own loops do not keep: by the
        # strides it meets, a multiply may take its operands in either order
        assert _nan_as_one(got).tobytes() == _nan_as_one(want).tobytes()


def test_momentum_so3_rejects_vectors_not_of_length_3():
    with pytest.raises(ValueError, match="vectors of length 3"):
        momentum_so3(np.ones(2), np.ones(2), np.ones(3), np.ones(3))


# ---------------------------------------------------------------------------
# Batch gathers


@pytest.mark.parametrize("name", ["SO2", "SO3"])
def test_point_vectors_are_the_stacked_vectors_of_any_point_list(name):
    model = so2_model() if name == "SO2" else so3_model()
    first = sample_zero_locus(model, 30, seed=1)
    second = sample_zero_locus(model, 25, seed=2, method="newton")
    interleaved = [point for pair in zip(first, second) for point in pair] + first[25:]
    lone = ZeroLocusPoint(model, first[7].w)
    for points in (first, interleaved, interleaved[::-1], [lone], [second[3], lone, first[3]]):
        want = np.stack([point.w for point in points])
        assert _point_vectors(model, points).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The one-point SO(2) dot


def test_one_so2_point_image_is_its_row_of_the_stacked_image():
    model = so2_model()
    rng = np.random.default_rng(11)
    W = np.concatenate([
        np.stack([point.w for point in sample_zero_locus(model, 2000, seed=1)]),
        np.stack([point.w for point in sample_zero_locus(model, 200, seed=2, method="newton")]),
        rng.standard_normal((2000, 4)) * np.exp(rng.uniform(-5.0, 5.0, (2000, 1))),
    ])
    stacked = model._hilbert(W)
    assert stacked.tobytes() == _so2_image_vecdot(W).tobytes()
    for w, row in zip(W, stacked):
        image = hilbert_map(model, w)
        assert image.shape == (3,)
        assert image.tobytes() == row.tobytes() == _so2_image_vecdot(w).tobytes()


# ---------------------------------------------------------------------------
# Ranks and strata in Python floats

_ULP_BELOW_ONE, _ULP_ABOVE_ONE = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
_LOW = np.nextafter(-1e-9, -1.0)  # one ulp below the PSD cutoff


def _edge_spectra(tol):
    """Descending spectra at the edges of the rule: a magnitude at the cutoff and
    one ulp either side of it, s[0] one ulp below, at and above 1, a NaN or inf
    first entry, and an empty spectrum."""
    spectra = [np.zeros(0), np.array([np.nan, 1.0, 0.5]), np.array([np.inf, 1.0, 0.0]),
               np.array([np.nan]), np.zeros(4), np.array([1e-16, 1e-17, 0.0])]
    for top in (_ULP_BELOW_ONE, 1.0, _ULP_ABOVE_ONE, 0.5, 3.0, 1e6):
        cut = tol * max(top, 1.0)
        spectra.append(np.array([top, np.nextafter(cut, np.inf), cut, np.nextafter(cut, 0.0), 0.0]))
    return spectra


def _edge_images():
    """Diagonal images whose eigenvalues are their diagonals: a low eigenvalue at
    exactly -1e-9 and one ulp below it, PSD images of rank 3 and 4, and
    magnitudes at the rank cutoff with the largest one ulp about 1."""
    diagonals = [[-1e-9, 0.0, 1.0, 2.0], [_LOW, 0.0, 1.0, 2.0], [-1e-9, 0.0, 0.0, 0.0],
                 [_LOW, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0],
                 [0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
    for top in (_ULP_BELOW_ONE, 1.0, _ULP_ABOVE_ONE, 5.0):
        cut = 1e-9 * max(top, 1.0)
        diagonals += [[0.0, 0.0, cut, top], [0.0, cut, np.nextafter(cut, 1.0), top],
                      [-cut, 0.0, np.nextafter(cut, 1.0), top], [0.0, 0.0, 0.0, top]]
    return np.array([np.diag(d) for d in diagonals])


def _so3_images():
    model = so3_model()
    points = [point for seed in (1, 2) for method, count in (("construct", 1000), ("newton", 150))
              for point in sample_zero_locus(model, count, seed, method=method)]
    images = model._hilbert(np.stack([point.w for point in points]))
    spanning = model._hilbert(np.array(spanning_configurations()))
    return np.concatenate([images, spanning])


def test_rank_keeps_the_numpy_rule_at_its_edges():
    for tol in (1e-9, 1e-8):
        spectra = _edge_spectra(tol)
        for s in spectra:
            assert _rank(s, tol) == _rank_numpy(s, tol), s
            assert _rank(s.tolist(), tol) == _rank_numpy(s, tol), s


def test_strata_keep_the_numpy_ranks_and_labels():
    # images off the model too: rank-2 Gram matrices plus an antisymmetric part,
    # which the rule reads symmetrized
    rng = np.random.default_rng(5)
    V, B = rng.standard_normal((200, 4, 2)), rng.standard_normal((200, 4, 4))
    edges = _edge_images()
    images = np.concatenate([_so3_images(), edges, V @ V.mT + B - B.mT])
    # the edges are what they claim: eigvalsh returns each diagonal exactly
    assert np.linalg.eigvalsh(edges).tobytes() == np.sort(np.diagonal(edges, axis1=1, axis2=2)).tobytes()
    magnitudes = np.sort(np.abs(np.linalg.eigvalsh(images)), axis=1)[:, ::-1]
    assert [_rank(row, 1e-9) for row in magnitudes] == _rank_numpy(magnitudes, 1e-9)
    labels = _psd_rank_strata(images)
    assert labels == _numpy_labels(images)
    assert [type(label) for label in labels] == [str] * len(images)
    assert {"0", "1", "2", "outside"} <= set(labels)
    # each image alone gets the label it gets in the stack
    assert [_psd_rank_strata(S[None])[0] for S in images[::7]] == labels[::7]


def test_a_non_finite_image_keeps_its_numpy_label():
    # an inf on the diagonal (the image of a point past 1e154) gives NaN
    # eigenvalues, and so does a NaN couple off it, next to finite ones: np.sort
    # puts a NaN first in the descending magnitudes, so the rank is 0
    images = [np.diag(d) for d in ([np.inf, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, np.inf],
                                   [-1.0, 2.0, 3.0, np.inf])]
    for d, (i, j) in (([1.0, 2.0, 0.0, 0.0], (2, 3)), ([3.0, 1.0, 2.0, 0.0], (1, 2)),
                      ([-3.0, 1.0, 2.0, 0.0], (1, 2)), ([0.0, 0.0, 1.0, 2.0], (0, 1))):
        image = np.diag(d)
        image[i, j] = image[j, i] = np.nan
        images.append(image)
    images = np.array(images)
    eig = np.linalg.eigvalsh(images)
    assert np.isnan(eig).any(axis=1).all() and not np.isnan(eig).all(axis=1).all()
    labels = _psd_rank_strata(images)
    assert labels == _numpy_labels(images)
    assert [type(label) for label in labels] == [str] * len(images)


def test_a_nan_image_stack_raises_as_eigvalsh_does():
    images = np.array([np.eye(4), np.full((4, 4), np.nan)])
    for strata in (_psd_rank_strata, _psd_rank_strata_numpy):
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            strata(images)

"""The zero-locus sampler and the point readers keep the bits of the code they replaced.

_construct_so3 draws its normals in blocks, momentum_so3 writes the cross
products out, _point_vectors gathers each validating batch's rows with one
index, and one SO(2) point takes its Hilbert dots with ndarray.dot. These
tests hold every array, and the state a caller's generator is left in, to the
formulas they replaced, copied below as they stood before: the constructor
that drew one slot and one area pair at a time, np.cross, np.stack over the
points' vectors and np.vecdot.
"""

import numpy as np
import pytest

from surfrep.reduction import (
    ZeroLocusPoint,
    _construct_so3,
    _norm,
    _point_vectors,
    hilbert_map,
    momentum_so2,
    momentum_so3,
    sample_zero_locus,
    so2_model,
    so3_model,
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


# ---------------------------------------------------------------------------
# Chunked draws


# 2 and 4 hold one and three points, 7 a parallel point between planar ones;
# at 150 and 1000 points some pair is drawn again and the blocks refill
@pytest.mark.parametrize("count", [2, 4, 5, 7, 150, 1000])
def test_construct_so3_keeps_the_one_draw_bytes_and_generator_state(count):
    for seed in range(200):
        rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        W, want = _construct_so3(rng, count), _construct_so3_alone(alone, count)
        assert W.shape == want.shape == (count - 1, 12)
        assert W.tobytes() == want.tobytes(), seed
        assert rng.standard_normal() == alone.standard_normal(), seed


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

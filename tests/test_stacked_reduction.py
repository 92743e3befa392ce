"""The stacked reduction layer: zero-locus sampling, relation suites and strata
over many points at once.

The stacked path must give every point the bits the one-point path gives: the
digests below were recorded from the one-point sampler and relation suite this
path replaced. The exact oracle evaluates the relations in rational
arithmetic on rational points of the zero locus, where each must vanish
exactly.
"""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from surfrep import reduction, reports
from surfrep.cli import main
from surfrep.cohomology import ConvergenceError
from surfrep.reduction import (
    MAX_SAMPLES,
    ZeroLocusPoint,
    _couples,
    _minors,
    check_relations,
    hilbert_map,
    psi_quadratic,
    relation_residual_max,
    sample_zero_locus,
    so2_model,
    so3_model,
    stratum_histogram,
    stratum_label,
    zariski_dim_at_origin,
)

MODELS = {"SO2": so2_model(), "SO3": so3_model()}


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


# sha256 prefixes of the sampled points (with their residuals), their
# check_relations values, stratum labels and, for SO3, couple invariants and
# 3x3 minors, recorded with the one-point sampler and relation suite
# (numpy 2.4, OpenBLAS, x86-64)
ONE_POINT_DIGESTS = {
    ("SO2", "construct", 1): {"points": "6f5d7ddeb571fdca", "relations": "5bda77a3b6585deb", "labels": "a454fc91ae610802"},
    ("SO2", "construct", 2): {"points": "d54de4a270688f46", "relations": "8b57f6aac34f27ac", "labels": "a454fc91ae610802"},
    ("SO2", "construct", 7919): {"points": "bb44f2afff89c73b", "relations": "d2e2e2274025fa48", "labels": "a454fc91ae610802"},
    ("SO2", "newton", 1): {"points": "faa38f1c9da64cb9", "relations": "8ad168891c605d14", "labels": "2fe418d14e7db77b"},
    ("SO2", "newton", 2): {"points": "81dbb5d18113d1c5", "relations": "42b29ec856d494bf", "labels": "2fe418d14e7db77b"},
    ("SO2", "newton", 7919): {"points": "901bf9004e345182", "relations": "8e4c57212e7649e2", "labels": "2fe418d14e7db77b"},
    ("SO3", "construct", 1): {"points": "829ef2ea31b32cee", "relations": "9d790d06f3e61c07", "labels": "b16d7b80665cc0c8", "couples": "d0aa553dc8644f09", "minors": "e335c3a56235b459"},
    ("SO3", "construct", 2): {"points": "c8d01410c493f8eb", "relations": "c6a9045a29a84850", "labels": "b16d7b80665cc0c8", "couples": "29aeb5ba85a49e8a", "minors": "baa1861b9ac9c0bd"},
    ("SO3", "construct", 7919): {"points": "3cd15cb23d7f8a4b", "relations": "1e9cad45746505cf", "labels": "b16d7b80665cc0c8", "couples": "0643d9fd08c71ce9", "minors": "11794fe2de5de8c5"},
    ("SO3", "newton", 1): {"points": "72219ce25d8804df", "relations": "59dd427872b35300", "labels": "dee77f16ffb87590", "couples": "1b9d1fdcc6768de5", "minors": "f0c425c081709873"},
    ("SO3", "newton", 2): {"points": "5839246fce060f1b", "relations": "923cad001fdd2305", "labels": "dee77f16ffb87590", "couples": "151b54c35e96b459", "minors": "55b989a070a2a194"},
    ("SO3", "newton", 7919): {"points": "456ceab08ff69509", "relations": "da8091149eb793b3", "labels": "dee77f16ffb87590", "couples": "a5cfe03a5323281b", "minors": "3c0aa9daa8dd28e8"},
}


@pytest.mark.parametrize("name,method,seed", sorted(ONE_POINT_DIGESTS))
def test_samples_and_relations_match_the_one_point_path(name, method, seed):
    model = MODELS[name]
    count = (200 if name == "SO2" else 120) if method == "construct" else 40
    points = sample_zero_locus(model, count, seed=seed, method=method)
    W = np.stack([pt.w for pt in points])
    residuals = np.array([pt.residual for pt in points])
    relations = np.array([list(check_relations(model, pt).values()) for pt in points])
    labels = "/".join(stratum_label(model, hilbert_map(model, pt.w)) for pt in points)
    got = {"points": _sha(W.tobytes() + residuals.tobytes()),
           "relations": _sha(relations.tobytes()),
           "labels": _sha(labels.encode())}
    if name == "SO3":
        got["couples"] = _sha(np.stack([_couples(pt.w) for pt in points]).tobytes())
        got["minors"] = _sha(np.stack(
            [_minors(hilbert_map(model, pt.w)) for pt in points]).tobytes())
    assert got == ONE_POINT_DIGESTS[name, method, seed]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stacked_kernels_match_one_point_calls(name):
    # off the locus too, so relation values and strata are not all zero
    model = MODELS[name]
    rng = np.random.default_rng(5)
    W = rng.standard_normal((300, model.W_dim))
    W[::3] = np.stack([pt.w for pt in sample_zero_locus(model, 100, seed=5)])
    images = model._hilbert(W)
    stacked = model._relations(images, W)
    labels = model._stratum(images)
    for s, w in enumerate(W):
        assert np.array_equal(model._momentum(W)[s], model._momentum(model._point(w)))
        assert np.array_equal(images[s], hilbert_map(model, w))
        assert np.array_equal(model._jacobian(W)[s], model._jacobian(w))
        image = hilbert_map(model, w)
        one = model._relations(image, w)
        assert {k: float(v[s]) for k, v in stacked.items()} == {k: float(v) for k, v in one.items()}
        assert labels[s] == stratum_label(model, image)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_report_summaries_match_one_point_calls(name):
    model = MODELS[name]
    points = sample_zero_locus(model, 300, seed=8)
    residual = 0.0
    histogram = {}
    for point in points:
        residual = max(residual, max(check_relations(model, point).values()))
        label = stratum_label(model, hilbert_map(model, point.w))
        histogram[label] = histogram.get(label, 0) + 1
    assert relation_residual_max(model, points) == residual
    assert stratum_histogram(model, points) == dict(sorted(histogram.items()))
    rows = np.array([hilbert_map(model, pt.w).ravel() for pt in points])
    assert zariski_dim_at_origin(model, points) == np.linalg.matrix_rank(rows, tol=1e-8)


def test_stacked_validation_raises_for_the_first_bad_point():
    model = so3_model()
    W = np.stack([pt.w for pt in sample_zero_locus(model, 10, seed=2)])
    W[4, 0] += 1e-3  # off the locus
    W[6, 1] = np.nan
    with pytest.raises(ValueError, match="momentum residual .* exceeds 1e-10"):
        ZeroLocusPoint._stack(model, W)
    W[2, 5] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        ZeroLocusPoint._stack(model, W)


def test_nan_residual_is_rejected():
    # finite entries whose momentum overflows to inf - inf
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="nan"):
        ZeroLocusPoint(so2_model(), [1e200, 1e200, 1e200, 1e200])


# finite entries (model, {index: value}) whose momentum, Hilbert image or a
# relation residual overflows, and the reason each must be rejected with: a
# NaN residual or an inf image would otherwise reach stratum_histogram
OVERFLOWING_POINTS = {
    "SO3-momentum": ("SO3", {0: 1e200, 7: 1e200}, "momentum residual inf exceeds"),
    "SO3-image": ("SO3", {0: 1e200}, "Hilbert image of a point is not finite"),
    "SO3-psi": ("SO3", {0: 1e78, 3: 1e78, 6: 1e78, 9: 1e78}, "psi of a point is not finite"),
    "SO2-image": ("SO2", {0: 1e200}, "Hilbert image of a point is not finite"),
    "SO2-cone": ("SO2", {0: 1e100, 2: 1e100}, "cone of a point is not finite"),
}


@pytest.mark.parametrize("case", OVERFLOWING_POINTS)
def test_a_point_whose_momentum_image_or_residual_overflows_is_rejected(case):
    name, entries, match = OVERFLOWING_POINTS[case]
    model = MODELS[name]
    w = np.zeros(model.W_dim)
    w[list(entries)] = list(entries.values())
    with pytest.raises(ValueError, match=match):
        ZeroLocusPoint(model, w)
    # in a stack of finite points, the overflowing row raises the same reason
    W = np.stack([pt.w for pt in sample_zero_locus(model, 6, seed=3)])
    W[4] = w
    with pytest.raises(ValueError, match=match):
        ZeroLocusPoint._stack(model, W)


# ---------------------------------------------------------------------------
# stored relation rows: a point carries its validating pass's residuals


def fresh_relations(model, pt):
    """The relation suite of one point, computed again from its coordinates."""
    return {k: float(v) for k, v in model._relations(hilbert_map(model, pt.w), pt.w).items()}


@pytest.mark.parametrize("method", ["construct", "newton"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_stored_rows_equal_a_fresh_relation_suite(name, method):
    # no recorded bits: holds under any BLAS, and a wrong row index fails it
    model = MODELS[name]
    points = sample_zero_locus(model, 60 if method == "construct" else 20, seed=4, method=method)
    for pt in points:
        assert check_relations(model, pt) == fresh_relations(model, pt)
    single = ZeroLocusPoint(model, points[-1].w)
    assert check_relations(model, single) == fresh_relations(model, single)
    assert check_relations(model, single) == check_relations(model, points[-1])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_residual_max_reads_rows_of_every_pass(name):
    # points of two sampling passes and single points, in mixed order
    model = MODELS[name]
    points = sample_zero_locus(model, 40, seed=6)[5:30]
    newton = sample_zero_locus(model, 12, seed=6, method="newton")
    single = [ZeroLocusPoint(model, pt.w) for pt in newton[::4]]
    mixed = newton[1:] + points + single
    want = max(0.0, max(max(fresh_relations(model, pt).values()) for pt in mixed))
    assert relation_residual_max(model, mixed) == want


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sampled_points_are_read_only(name):
    model = MODELS[name]
    pt = sample_zero_locus(model, 5, seed=1)[3]
    with pytest.raises(ValueError, match="read-only"):
        pt.w[0] = 1.0
    single = ZeroLocusPoint(model, pt.w)
    with pytest.raises(ValueError, match="read-only"):
        single.w[:] = 0.0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_constructed_point_does_not_alias_its_input(name):
    model = MODELS[name]
    w = np.array(sample_zero_locus(model, 5, seed=1)[3].w)
    pt = ZeroLocusPoint(model, w)
    assert not np.shares_memory(pt.w, w)
    want = check_relations(model, pt)
    w[:] = 0.0
    assert np.array_equal(pt.w, sample_zero_locus(model, 5, seed=1)[3].w)
    assert w.flags.writeable
    assert check_relations(model, pt) == want == fresh_relations(model, pt)


def test_relations_reject_a_point_of_another_model():
    so2_point = sample_zero_locus(so2_model(), 3, seed=0)[2]
    so3_point = sample_zero_locus(so3_model(), 3, seed=0)[2]
    with pytest.raises(ValueError):
        check_relations(so2_model(), so3_point)
    with pytest.raises(ValueError):
        check_relations(so3_model(), so2_point)
    with pytest.raises(ValueError):
        relation_residual_max(so3_model(), [so3_point, so2_point])


# ---------------------------------------------------------------------------
# Newton sampling: stalled starts


def one_at_a_time_newton(model, count, seed):
    """The one-point sampler the stacked path replaced: every point draws
    starts until one converges. Returns the points and the stalled starts."""
    rng = np.random.default_rng(seed)
    points, stalled = [np.zeros(model.W_dim)], 0
    for _ in range(1, count):
        for _ in range(reduction.NEWTON_STARTS):
            w = rng.standard_normal(model.W_dim)
            for _ in range(reduction.NEWTON_ITERS):
                mu = model._momentum(model._point(w))
                if np.linalg.norm(mu) < 1e-12:
                    break
                step, *_ = np.linalg.lstsq(model._jacobian(w), -mu, rcond=None)
                w = w + step
            else:
                stalled += 1
                continue
            points.append(w)
            break
        else:
            raise ConvergenceError("zero-locus projection failed to converge")
    return np.stack(points), stalled


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stalled_starts_are_redrawn_as_one_point_at_a_time(name, monkeypatch):
    # four steps are too few for some starts (SO2 16, SO3 172 of them here)
    monkeypatch.setattr(reduction, "NEWTON_ITERS", 4)
    model = MODELS[name]
    want, stalled = one_at_a_time_newton(model, 40, seed=3)
    assert stalled > 0
    points = sample_zero_locus(model, 40, seed=3, method="newton")
    assert np.array_equal(np.stack([pt.w for pt in points]), want)


@pytest.mark.parametrize("count", [2, 40])
def test_convergence_error_after_newton_starts_stall(count, monkeypatch):
    # one step projects no start, so every start stalls
    monkeypatch.setattr(reduction, "NEWTON_ITERS", 1)
    model = so3_model()
    drawn = []
    real_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def standard_normal(self, size=None):
            out = self.rng.standard_normal(size)
            drawn.append(np.size(out))
            return out

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    with pytest.raises(ConvergenceError):
        sample_zero_locus(model, count, seed=0, method="newton")
    stacked, drawn[:] = drawn[:], []
    with pytest.raises(ConvergenceError):
        one_at_a_time_newton(model, count, seed=0)
    assert drawn == [model.W_dim] * reduction.NEWTON_STARTS
    # a round draws one start per missing point: with one point missing the
    # stacked sampler takes the same NEWTON_STARTS starts, one round each
    # (count 2); with 39 missing, one round holds them all (count 40)
    rounds = reduction.NEWTON_STARTS if count == 2 else 1
    assert stacked == [(count - 1) * model.W_dim] * rounds


def test_twenty_four_stalls_in_a_row_still_give_a_point(monkeypatch):
    monkeypatch.setattr(reduction, "NEWTON_ITERS", 4)
    model = so3_model()
    # SO3 with four steps stalls up to 19 starts in a row at this seed
    monkeypatch.setattr(reduction, "NEWTON_STARTS", 20)
    want, _ = one_at_a_time_newton(model, 40, seed=3)
    points = sample_zero_locus(model, 40, seed=3, method="newton")
    assert np.array_equal(np.stack([pt.w for pt in points]), want)
    monkeypatch.setattr(reduction, "NEWTON_STARTS", 19)
    with pytest.raises(ConvergenceError):
        one_at_a_time_newton(model, 40, seed=3)
    with pytest.raises(ConvergenceError):
        sample_zero_locus(model, 40, seed=3, method="newton")


# ---------------------------------------------------------------------------
# sample budget


def test_sample_budget_covers_documented_counts():
    # the README's --samples 500, the tests' counts and the bench's 1500
    assert MAX_SAMPLES >= 1500


def test_sample_budget_is_checked_before_any_draw(monkeypatch):
    monkeypatch.setattr(reduction, "MAX_SAMPLES", 30)

    def no_rng(*args, **kwargs):
        raise AssertionError("drew randoms before checking the sample budget")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for model in MODELS.values():
        for method in ("construct", "newton"):
            with pytest.raises(ValueError, match="at most 30"):
                sample_zero_locus(model, 31, seed=0, method=method)


def test_cli_rejects_sample_counts_above_the_budget(monkeypatch):
    runner = CliRunner()
    result = runner.invoke(main, ["reduction", "so3", "--samples", "100000000"])
    assert result.exit_code == 3
    assert str(MAX_SAMPLES) in result.output

    def no_work(*args, **kwargs):
        raise AssertionError("genus2-su2-report started work before checking --samples")

    monkeypatch.setattr(reports, "enumerate_central_reps", no_work)
    result = runner.invoke(main, ["genus2-su2-report", "--samples", str(MAX_SAMPLES + 1)])
    assert result.exit_code == 3
    assert str(MAX_SAMPLES) in result.output


# ---------------------------------------------------------------------------
# exact oracle: rational points of the zero locus


def rational_rotation(w, x, y, z):
    """Rational orthogonal matrix of the integer quaternion (w, x, y, z); each
    column is a Pythagorean quadruple over w^2 + x^2 + y^2 + z^2."""
    n = w * w + x * x + y * y + z * z
    rows = [
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ]
    return [[Fraction(v, n) for v in row] for row in rows]


def rational(rng):
    return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 6)))


def area(a, b):
    return a[0] * b[1] - a[1] * b[0]


def rational_so3_points(rng, count):
    """Balanced coplanar and all-parallel configurations with rational
    coordinates, slots (q1, q2, p1, p2)."""
    out = []
    for k in range(count):
        quaternion = [int(v) for v in rng.integers(-4, 5, size=4)]
        if not any(quaternion):
            continue
        R = rational_rotation(*quaternion)
        e1, e2 = [row[0] for row in R], [row[1] for row in R]
        assert sum(a * b for a, b in zip(e1, e2)) == 0
        assert sum(a * a for a in e1) == sum(b * b for b in e2) == 1
        if k % 4 == 3:
            u = [rational(rng) for _ in range(3)]
            weights = [rational(rng) for _ in range(4)]
            out.append([c * v for c in weights for v in u])
            continue
        a, b, c, d = ([rational(rng), rational(rng)] for _ in range(4))
        if area(a, b) == 0 or area(c, d) == 0:
            continue
        # rescale d so the two signed areas cancel
        d = [v * (-area(a, b) / area(c, d)) for v in d]
        plane = [[x * e1[i] + y * e2[i] for i in range(3)] for x, y in (a, c, b, d)]
        out.append([v for slot in plane for v in slot])
    return out


def cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def exact_momentum(w):
    q1, q2, p1, p2 = w[0:3], w[3:6], w[6:9], w[9:12]
    return [x + y for x, y in zip(cross(q1, p1), cross(q2, p2))]


def exact_gram(w):
    slots = [w[0:3], w[3:6], w[6:9], w[9:12]]
    return [[sum(x * y for x, y in zip(a, b)) for b in slots] for a in slots]


def exact_psi(S):
    # psi_quadratic's polynomial
    return (S[0][0] * S[2][2] - S[0][2] ** 2 + 2 * (S[0][1] * S[2][3] - S[0][3] * S[1][2])
            + S[1][1] * S[3][3] - S[1][3] ** 2)


def exact_det(M):
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * M[0][j] * exact_det([row[:j] + row[j + 1:] for row in M[1:]])
               for j in range(len(M)))


def test_exact_so3_relations_vanish_on_rational_zero_locus():
    rng = np.random.default_rng(11)
    points = rational_so3_points(rng, 60)
    assert len(points) >= 40
    for w in points:
        assert exact_momentum(w) == [0, 0, 0]
        S = exact_gram(w)
        psi = exact_psi(S)
        assert psi - sum(m * m for m in exact_momentum(w)) == 0
        assert psi == 0
        # the library's couple and minor kernels, run in rational arithmetic
        couples = _couples(np.array(w, dtype=object))
        minors = _minors(np.array(S, dtype=object))
        assert all(type(v) is Fraction and v == 0 for v in couples)
        assert all(type(v) is Fraction and v == 0 for v in minors)
        assert exact_det(S) == 0


def test_exact_psi_equals_squared_momentum_off_the_locus():
    # psi(hilbert(w)) = |mu(w)|^2 is a polynomial identity on all of W
    rng = np.random.default_rng(12)
    for _ in range(40):
        w = [rational(rng) for _ in range(12)]
        S = exact_gram(w)
        mu = exact_momentum(w)
        assert exact_psi(S) == sum(m * m for m in mu)
        # the library's float psi at the rounded Gram matrix, to roundoff
        Sf = np.array([[float(v) for v in row] for row in S])
        scale = max(1.0, float(np.max(np.abs(Sf)))) ** 2
        assert abs(psi_quadratic(Sf) - float(exact_psi(S))) <= 1e-13 * scale
        # each couple value is (a x b) . mu
        slots = [w[0:3], w[3:6], w[6:9], w[9:12]]
        couples = _couples(np.array(w, dtype=object))
        for value, (i, j) in zip(couples, itertools.combinations(range(4), 2)):
            assert value == sum(x * y for x, y in zip(cross(slots[i], slots[j]), mu))


def test_exact_so2_cone_relation_vanishes_on_rational_zero_locus():
    rng = np.random.default_rng(13)
    for _ in range(60):
        q = [rational(rng), rational(rng)]
        t = rational(rng)
        w = q + [t * v for v in q]
        assert w[0] * w[3] - w[1] * w[2] == 0
        qq, pp, qp = (w[0] ** 2 + w[1] ** 2, w[2] ** 2 + w[3] ** 2, w[0] * w[2] + w[1] * w[3])
        u, v, r = qq - pp, 2 * qp, qq + pp
        assert u * u + v * v - r * r == 0
        assert r >= 0
        # off the locus the cone relation measures the momentum: -4 mu^2
        p = [rational(rng), rational(rng)]
        qq, pp, qp = (q[0] ** 2 + q[1] ** 2, p[0] ** 2 + p[1] ** 2, q[0] * p[0] + q[1] * p[1])
        u, v, r = qq - pp, 2 * qp, qq + pp
        assert u * u + v * v - r * r == -4 * (q[0] * p[1] - q[1] * p[0]) ** 2

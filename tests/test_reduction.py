"""Tests for the linear momentum-map models and their invariant suites.

The two models are small enough that every claimed polynomial identity can
be checked against an independent hand-coded route: the quadratic relation
psi against the squared momentum norm, the six couple invariants against
the cross-product pairing, and the explicit minor expansions against plain
determinant calls.  Those dual routes are frozen here, in the tests.
"""

import itertools

import numpy as np
import pytest

from surfrep import reduction
from surfrep.reduction import (
    _couples,
    _minors,
    ZeroLocusPoint,
    check_relations,
    hilbert_map,
    momentum_so2,
    momentum_so3,
    psd_rank_stratum,
    psi_quadratic,
    sample_zero_locus,
    so2_cone_model_report,
    so2_model,
    so3_model,
    spanning_configurations,
    stratum_label,
    zariski_dim_at_origin,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


def slots(w):
    """Split an SO3 model point into (q1, q2, p1, p2)."""
    w = np.asarray(w, dtype=float)
    return w[0:3], w[3:6], w[6:9], w[9:12]


def momentum_of_point(w):
    q1, q2, p1, p2 = slots(w)
    return momentum_so3(q1, p1, q2, p2)


def action(model, g):
    """The orthogonal W_dim x W_dim matrix of the group element g on the model's W."""
    g = np.asarray(g)
    if model.name == "SO2":
        theta = float(np.arctan2(g[0, 0].imag, g[0, 0].real))
        c, s = np.cos(theta), np.sin(theta)
        return np.kron(np.eye(2), np.array([[c, -s], [s, c]]))
    return np.kron(np.eye(4), g.real)


def coad(model, g):
    """The matrix of the group element g on the model's dual algebra coordinates."""
    return np.eye(1) if model.name == "SO2" else np.asarray(g).real


# ---------------------------------------------------------------------------
# momentum maps


def test_momentum_so2_unit_determinant():
    assert momentum_so2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_momentum_so2_parallel_vanishes():
    q = np.array([0.3, -1.7])
    assert momentum_so2(q, 2.5 * q) == pytest.approx(0.0, abs=1e-15)
    assert momentum_so2(np.array([2.0, 1.0]), np.array([4.0, 2.0])) == 0.0


def test_momentum_so3_examples():
    z = np.zeros(3)
    assert np.all(momentum_so3(z, z, z, z) == 0.0)
    # antisymmetric pair cancels
    assert np.allclose(momentum_so3(E1, E2, E2, E1), 0.0)
    # single cross product survives
    assert np.allclose(momentum_so3(E1, E2, z, z), E3)


def test_model_momentum_matches_standalone():
    rng = np.random.default_rng(0)
    m2, m3 = so2_model(), so3_model()
    for _ in range(20):
        w = rng.standard_normal(4)
        assert m2._momentum(m2._point(w))[0] == momentum_so2(w[0:2], w[2:4])
        w = rng.standard_normal(12)
        q1, q2, p1, p2 = slots(w)
        assert np.all(m3._momentum(m3._point(w)) == momentum_so3(q1, p1, q2, p2))


def test_momentum_of_zero_is_zero():
    for model in (so2_model(), so3_model()):
        assert np.all(model._momentum(model._point(np.zeros(model.W_dim))) == 0.0)


def test_model_fields():
    m2, m3 = so2_model(), so3_model()
    assert m2.W_dim == 4 and m2.invariant_count == 3
    assert m3.W_dim == 12 and m3.invariant_count == 10
    assert m3.group.name == "SO3"


def test_action_is_orthogonal():
    rng = np.random.default_rng(1)
    for model in (so2_model(), so3_model()):
        for _ in range(10):
            A = action(model, model.group.random_element(rng))
            assert A.shape == (model.W_dim, model.W_dim)
            assert np.allclose(A.T @ A, np.eye(model.W_dim), atol=1e-12)


def test_momentum_equivariance():
    # mu(g.w) = coad(g) mu(w) at 100 random pairs per model
    rng = np.random.default_rng(2)
    for model in (so2_model(), so3_model()):
        for _ in range(100):
            g = model.group.random_element(rng)
            w = rng.standard_normal(model.W_dim)
            lhs = model._momentum(model._point(action(model, g) @ w))
            rhs = coad(model, g) @ model._momentum(model._point(w))
            assert np.allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# zero-locus samplers


def test_sampler_residuals_and_zero_vector():
    for model in (so2_model(), so3_model()):
        pts = sample_zero_locus(model, 40, seed=3)
        assert len(pts) == 40
        assert np.all(pts[0].w == 0.0)
        for pt in pts:
            assert pt.residual < 1e-10


def test_zero_locus_point_rejects_off_locus():
    model = so3_model()
    w = np.zeros(12)
    w[0:3], w[6:9] = E1, E2  # single cross product, mu = e3
    with pytest.raises(ValueError):
        ZeroLocusPoint(model, w)


def test_newton_sampler_reaches_zero_locus():
    for model in (so2_model(), so3_model()):
        pts = sample_zero_locus(model, 30, seed=4, method="newton")
        assert len(pts) == 30
        for pt in pts:
            assert pt.residual < 1e-10


def test_sampler_rejects_unknown_method():
    with pytest.raises(ValueError):
        sample_zero_locus(so2_model(), 5, seed=0, method="polish")


def test_sampler_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="count must be at least 1"):
        sample_zero_locus(so2_model(), 0, seed=0)


@pytest.mark.parametrize("model", [so2_model, so3_model], ids=["so2", "so3"])
def test_model_point_rejects_wrong_length_and_non_finite(model):
    model = model()
    with pytest.raises(ValueError, match=f"length {model.W_dim}"):
        model._point(np.zeros(model.W_dim + 1))
    w = np.zeros(model.W_dim)
    w[-1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        model._point(w)


def test_triple_determinants_vanish_on_zero_locus():
    """Every 3x3 determinant drawn from (q1,p1,q2,p2) vanishes on the locus."""
    for method in ("construct", "newton"):
        for pt in sample_zero_locus(so3_model(), 60, seed=5, method=method):
            q1, q2, p1, p2 = slots(pt.w)
            for triple in itertools.combinations((q1, p1, q2, p2), 3):
                assert abs(np.linalg.det(np.column_stack(triple))) < 1e-9


# ---------------------------------------------------------------------------
# Hilbert maps


def test_hilbert_so2_example():
    q = np.array([1.0, 0.0])
    u, v, r = hilbert_map(so2_model(), np.concatenate([q, q]))
    assert (u, v, r) == (0.0, 2.0, 2.0)
    assert u * u + v * v == r * r


def test_hilbert_zero_maps_to_zero():
    for model in (so2_model(), so3_model()):
        assert np.all(hilbert_map(model, np.zeros(model.W_dim)) == 0.0)


def test_hilbert_so3_is_gram_matrix():
    rng = np.random.default_rng(6)
    w = rng.standard_normal(12)
    S = hilbert_map(so3_model(), w)
    assert np.all(S == S.T)
    q1, q2, p1, p2 = slots(w)
    rows = [q1, q2, p1, p2]
    for i in range(4):
        for j in range(4):
            assert S[i, j] == pytest.approx(rows[i] @ rows[j], rel=1e-14)


def test_hilbert_single_slot_display():
    w = np.zeros(12)
    w[0:3] = E1
    S = hilbert_map(so3_model(), w)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert np.all(S == expect)


def test_hilbert_invariance_under_group_action():
    rng = np.random.default_rng(7)
    for model in (so2_model(), so3_model()):
        for _ in range(50):
            g = model.group.random_element(rng)
            w = rng.standard_normal(model.W_dim)
            a = hilbert_map(model, action(model, g) @ w)
            b = hilbert_map(model, w)
            assert np.allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------------------
# relation suite, dual routes first


def test_psi_matches_squared_momentum_norm_everywhere():
    # psi(hilbert(w)) = |mu(w)|^2 holds on all of W, not only on the locus
    rng = np.random.default_rng(8)
    model = so3_model()
    for _ in range(100):
        w = rng.standard_normal(12)
        lhs = psi_quadratic(hilbert_map(model, w))
        rhs = float(np.dot(momentum_of_point(w), momentum_of_point(w)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_couple_invariants_match_cross_pairing_everywhere():
    """Each couple value equals (a x b) . mu(w), with a, b the chosen slots."""
    rng = np.random.default_rng(9)
    for _ in range(100):
        w = rng.standard_normal(12)
        mu = momentum_of_point(w)
        vecs = slots(w)
        expected = [
            float(np.cross(vecs[i], vecs[j]) @ mu)
            for i, j in itertools.combinations(range(4), 2)
        ]
        got = _couples(w)
        assert got.shape == (6,)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_minors_match_determinant_route():
    rng = np.random.default_rng(10)
    M = rng.standard_normal((4, 4))
    S = M + M.T
    got = _minors(S)
    assert got.shape == (16,)
    direct = [
        np.linalg.det(S[np.ix_(rows, cols)])
        for rows in itertools.combinations(range(4), 3)
        for cols in itertools.combinations(range(4), 3)
    ]
    assert np.allclose(got, direct, rtol=1e-12, atol=1e-12)


def test_minors_spot_check_diagonal():
    got = _minors(np.diag([1.0, 2.0, 3.0, 4.0]))
    # aligned row/column triples give products, misaligned give zero
    assert got[0] == 6.0 and got[15] == 24.0
    assert np.count_nonzero(got) == 4


def test_relations_on_sampled_locus():
    model = so3_model()
    for method in ("construct", "newton"):
        for pt in sample_zero_locus(model, 80, seed=11, method=method):
            report = check_relations(model, pt)
            assert max(report.values()) < 1e-9, (method, report)


def test_relations_zero_point_exact():
    m3 = so3_model()
    report = check_relations(m3, sample_zero_locus(m3, 1, seed=0)[0])
    assert all(v == 0.0 for v in report.values())
    m2 = so2_model()
    report = check_relations(m2, sample_zero_locus(m2, 1, seed=0)[0])
    assert all(v == 0.0 for v in report.values())


def test_so2_cone_relation_tight():
    model = so2_model()
    for pt in sample_zero_locus(model, 50, seed=12):
        report = check_relations(model, pt)
        assert report["cone"] < 1e-12
        assert report["nonneg"] == 0.0


def test_so3_images_are_psd_rank_two():
    model = so3_model()
    for pt in sample_zero_locus(model, 50, seed=13):
        S = hilbert_map(model, pt.w)
        eig = np.linalg.eigvalsh(S)
        assert eig[0] > -1e-9
        assert eig[1] < 1e-9 * max(eig[-1], 1.0)  # at most two nonzero


# ---------------------------------------------------------------------------
# tangent dimensions


def test_zariski_dim_so2_is_three():
    model = so2_model()
    pts = sample_zero_locus(model, 40, seed=14)
    assert zariski_dim_at_origin(model, pts) == 3


def test_zariski_dim_so3_is_ten():
    model = so3_model()
    pts = sample_zero_locus(model, 60, seed=15)
    assert zariski_dim_at_origin(model, pts) == 10


def test_zariski_dim_consistent_across_samplers():
    model = so3_model()
    pts = sample_zero_locus(model, 60, seed=16, method="newton")
    assert zariski_dim_at_origin(model, pts) == 10


def test_zariski_dim_sample_stable():
    model = so3_model()
    a = zariski_dim_at_origin(model, sample_zero_locus(model, 50, seed=17))
    b = zariski_dim_at_origin(model, sample_zero_locus(model, 100, seed=17))
    assert a == b


def test_zariski_dim_zero_samples():
    model = so2_model()
    zero = sample_zero_locus(model, 1, seed=0)[0]
    assert zariski_dim_at_origin(model, [zero] * 10) == 0


def test_zariski_dim_needs_enough_samples():
    model = so3_model()
    with pytest.raises(ValueError):
        zariski_dim_at_origin(model, sample_zero_locus(model, 10, seed=18))


# ---------------------------------------------------------------------------
# spanning configurations


def test_spanning_configurations_lie_on_locus():
    configs = spanning_configurations()
    assert len(configs) == 10
    for w in configs:
        assert np.linalg.norm(momentum_of_point(w)) == 0.0


def test_spanning_configurations_span_full_image():
    images = [hilbert_map(so3_model(), w).ravel() for w in spanning_configurations()]
    assert np.linalg.matrix_rank(np.array(images), tol=1e-8) == 10


def test_spanning_double_slot_display():
    # the configuration with v in the first two slots has the 2x2 block of ones
    configs = spanning_configurations()
    S = hilbert_map(so3_model(), configs[4])
    expect = np.zeros((4, 4))
    expect[0:2, 0:2] = 1.0
    assert np.all(S == expect)


# ---------------------------------------------------------------------------
# strata


def test_psd_rank_stratum_examples():
    assert psd_rank_stratum(np.zeros((4, 4))) == 0
    configs = spanning_configurations()
    assert psd_rank_stratum(hilbert_map(so3_model(), configs[0])) == 1
    # generic balanced coplanar configuration has a rank-two image
    w = np.concatenate([E1, E1 + E2, E2, -E2])
    pt = ZeroLocusPoint(so3_model(), w)
    assert psd_rank_stratum(hilbert_map(so3_model(), pt.w)) == 2


def test_psd_rank_stratum_outside():
    assert psd_rank_stratum(np.diag([1.0, 1.0, -1.0, 0.0])) == "outside"
    assert psd_rank_stratum(np.diag([1.0, 1.0, 1.0, 0.0])) == "outside"


def test_stratum_labels():
    m3 = so3_model()
    zero = sample_zero_locus(m3, 1, seed=0)[0]
    assert stratum_label(m3, hilbert_map(m3, zero.w)) == "0"
    m2 = so2_model()
    assert stratum_label(m2, hilbert_map(m2, np.zeros(4))) == "0"
    w = np.array([1.0, 0.0, 2.0, 0.0])
    assert stratum_label(m2, hilbert_map(m2, w)) == "1"


# ---------------------------------------------------------------------------
# the middle-stratum local picture


def test_so2_cone_model_report_values():
    report = so2_cone_model_report()
    assert report["cone_dim"] == 3
    assert report["smooth_dim"] == 4
    assert report["total_dim"] == 7
    assert report["relation_residual_max"] < 1e-9


# ---------------------------------------------------------------------------
# the one-point readers' checks and rules


@pytest.mark.parametrize("model", [so2_model, so3_model], ids=["so2", "so3"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_model_point_rejects_a_non_finite_entry_at_every_position(model, value):
    model = model()
    for i in range(model.W_dim):
        w = np.ones(model.W_dim)
        w[i] = value
        with pytest.raises(ValueError, match="non-finite"):
            model._point(w)
        with pytest.raises(ValueError, match="non-finite"):
            hilbert_map(model, w)


def test_so2_stratum_rule_cuts_at_1e_9():
    # r <= 1e-9 is the vertex; the next float up, and NaN, are not
    model = so2_model()
    images = np.zeros((3, 3))
    images[:, 2] = [1e-9, np.nextafter(1e-9, 1), np.nan]
    want = ["0", "1", "1"]
    labels = model._stratum(images)
    assert labels == want and all(type(label) is str for label in labels)
    assert [model._stratum(image[None])[0] for image in images] == want


def fail_if_called(*args, **kwargs):
    raise AssertionError("labelled an image before checking it")


@pytest.mark.parametrize("model, image, message", [
    (so2_model, np.zeros(5), r"shape \(3,\), got \(5,\)"),
    (so2_model, np.zeros(2), r"shape \(3,\), got \(2,\)"),
    (so2_model, np.zeros((1, 3)), r"shape \(3,\), got \(1, 3\)"),
    (so2_model, np.array([0.0, 0.0, np.nan]), "non-finite"),
    (so2_model, np.array([np.inf, 0.0, 1.0]), "non-finite"),
    (so3_model, np.eye(3), r"shape \(4, 4\), got \(3, 3\)"),
    (so3_model, np.zeros(10), r"shape \(4, 4\), got \(10,\)"),
    (so3_model, np.full((4, 4), np.nan), "non-finite"),
    (so3_model, np.diag([1.0, 1.0, -np.inf, 0.0]), "non-finite"),
], ids=["so2-5", "so2-2", "so2-1x3", "so2-nan", "so2-inf", "so3-eye3", "so3-10",
        "so3-nan", "so3-inf"])
def test_stratum_label_rejects_an_image_it_cannot_label(monkeypatch, model, image, message):
    model = model()
    monkeypatch.setattr(model, "_stratum", fail_if_called)
    with pytest.raises(ValueError, match=message):
        stratum_label(model, image)


@pytest.mark.parametrize("image, message", [
    (np.eye(3), r"shape \(4, 4\), got \(3, 3\)"),
    (np.zeros(16), r"shape \(4, 4\), got \(16,\)"),
    (np.full((4, 4), np.nan), "non-finite"),
    (np.diag([np.inf, 1.0, 0.0, 0.0]), "non-finite"),
], ids=["eye3", "flat", "nan", "inf"])
def test_psd_rank_stratum_rejects_an_image_it_cannot_label(monkeypatch, image, message):
    monkeypatch.setattr(reduction, "_psd_rank_strata", fail_if_called)
    with pytest.raises(ValueError, match=message):
        psd_rank_stratum(image)

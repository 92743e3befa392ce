"""Linear local models for momentum-map reduction at the singular strata.

Two compact groups acting linearly on a symplectic vector space W cover the
orbit types that occur for genus-2 surface groups in SU(2): SO(2) acting
diagonally on R^2 x R^2, and SO(3) acting diagonally on four copies of R^3.
Each model carries its momentum map, a constructive sampler for the zero
locus V = mu^-1(0), the quadratic Hilbert map whose image realizes V/K, and
the semialgebraic relations cutting that image out of its ambient space.
Zariski tangent dimensions at the origin are measured as the rank of the
span of sampled Hilbert images.
"""

import itertools

import numpy as np

from .cohomology import ConvergenceError
from .groups import _rank, so3, u1

RESIDUAL_TOL = 1e-10


def momentum_so2(q, p):
    """Signed area |q p| of a planar pair, the SO(2) momentum value."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return float(q[0] * p[1] - q[1] * p[0])


def momentum_so3(q1, p1, q2, p2):
    """Cross-product sum q1 x p1 + q2 x p2, the SO(3) momentum value."""
    return np.cross(np.asarray(q1, dtype=float), np.asarray(p1, dtype=float)) + np.cross(
        np.asarray(q2, dtype=float), np.asarray(p2, dtype=float)
    )


def _so3_slots(w):
    return w[0:3], w[3:6], w[6:9], w[9:12]


def _cross_matrix(v):
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


class LinearMomentumModel:
    """A compact group acting orthogonally on W with its momentum map. The
    factories so2_model() and so3_model() supply its kernels, among them the
    zero-locus constructor construct(rng, index) and, on Hilbert images, the
    relation suite relations(image, w) and the stratum rule stratum(image)."""

    def __init__(self, name, group, W_dim, invariant_count, action, momentum,
                 coad, hilbert, jacobian, construct, relations, stratum):
        self.name = name
        self.group = group
        self.W_dim = W_dim
        self.invariant_count = invariant_count
        self._action = action
        self._momentum = momentum
        self._coad = coad
        self._hilbert = hilbert
        self._jacobian = jacobian
        self._construct = construct
        self._relations = relations
        self._stratum = stratum

    def _point(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.W_dim,):
            raise ValueError(f"expected a vector of length {self.W_dim}")
        if not np.all(np.isfinite(w)):
            raise ValueError("point contains non-finite entries")
        return w

    def action(self, g):
        """Orthogonal W_dim x W_dim matrix of the group element g."""
        return self._action(g)

    def momentum(self, w):
        """Momentum value of w as a coordinate vector on the dual algebra."""
        return self._momentum(self._point(w))

    def coad(self, g):
        """Matrix of g on the dual algebra coordinates."""
        return self._coad(g)


def so2_model():
    """SO(2) acting diagonally on (q, p) in R^2 x R^2."""

    def action(g):
        g = np.asarray(g)
        theta = float(np.arctan2(g[0, 0].imag, g[0, 0].real))
        c, s = np.cos(theta), np.sin(theta)
        return np.kron(np.eye(2), np.array([[c, -s], [s, c]]))

    def momentum(w):
        return np.array([momentum_so2(w[0:2], w[2:4])])

    def hilbert(w):
        q, p = w[0:2], w[2:4]
        qq, pp, qp = float(q @ q), float(p @ p), float(q @ p)
        return np.array([qq - pp, 2.0 * qp, qq + pp])

    def jacobian(w):
        q, p = w[0:2], w[2:4]
        return np.array([[p[1], -p[0], -q[1], q[0]]])

    def relations(image, w):
        u, v, r = image
        return {
            "cone": abs(u * u + v * v - r * r),
            "nonneg": max(0.0, -r),
        }

    return LinearMomentumModel(
        name="SO2", group=u1(), W_dim=4, invariant_count=3,
        action=action, momentum=momentum, coad=lambda g: np.eye(1),
        hilbert=hilbert, jacobian=jacobian, construct=_construct_so2, relations=relations,
        stratum=lambda image: "0" if image[2] <= 1e-9 else "1",
    )


def so3_model():
    """SO(3) acting diagonally on four copies of R^3, slots (q1,q2,p1,p2)."""

    def action(g):
        return np.kron(np.eye(4), np.asarray(g).real)

    def momentum(w):
        q1, q2, p1, p2 = _so3_slots(w)
        return momentum_so3(q1, p1, q2, p2)

    def hilbert(w):
        V = w.reshape(4, 3)
        S = V @ V.T
        return (S + S.T) / 2.0

    def jacobian(w):
        q1, q2, p1, p2 = _so3_slots(w)
        return np.hstack([
            -_cross_matrix(p1), -_cross_matrix(p2),
            _cross_matrix(q1), _cross_matrix(q2),
        ])

    def relations(S, w):
        eig = np.linalg.eigvalsh(S)
        svals = np.linalg.svd(S, compute_uv=False)
        return {
            "det": abs(float(np.linalg.det(S))),
            "psi": abs(float(psi_quadratic(S))),
            "couple_max": float(np.max(np.abs(couple_invariants(w)))),
            "minor_max": float(np.max(np.abs(minors_3x3(S)))),
            "psd": max(0.0, -float(eig[0])),
            "rank": float(svals[2] / svals[0]) if svals[0] > 0.0 else 0.0,
        }

    return LinearMomentumModel(
        name="SO3", group=so3(), W_dim=12, invariant_count=10,
        action=action, momentum=momentum, coad=lambda g: np.asarray(g).real,
        hilbert=hilbert, jacobian=jacobian, construct=_construct_so3, relations=relations,
        stratum=lambda image: str(psd_rank_stratum(image)),
    )


class ZeroLocusPoint:
    """A point of the momentum zero locus, validated on construction."""

    def __init__(self, model, w):
        w = model._point(w)
        residual = float(np.linalg.norm(model.momentum(w)))
        if residual >= RESIDUAL_TOL:
            raise ValueError(f"momentum residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")
        self.model = model
        self.w = w
        self.residual = residual


def _construct_so2(rng, index):
    q = rng.standard_normal(2)
    if index % 6 == 3:
        return np.concatenate([q, np.zeros(2)])
    return np.concatenate([q, rng.standard_normal() * q])


def _unit_area_pair(rng):
    # planar pair rescaled to signed area +-1, keeping coordinates O(1)
    while True:
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        area = a[0] * b[1] - a[1] * b[0]
        if abs(area) > 0.05:
            scale = 1.0 / np.sqrt(abs(area))
            return scale * a, scale * b, np.sign(area)


def _construct_so3(rng, index):
    if index % 6 == 3:
        # all four slots parallel, every cross product vanishes identically
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        return np.concatenate([c * u for c in rng.standard_normal(4)])
    # a common plane with the two signed areas tuned to cancel
    basis, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    a, b, sign1 = _unit_area_pair(rng)
    c, d, sign2 = _unit_area_pair(rng)
    if sign1 == sign2:
        d = -d
    # slots (q1, q2, p1, p2) hold plane coordinates (a, c, b, d)
    return np.concatenate([basis @ a, basis @ c, basis @ b, basis @ d])


def _newton_sample(model, rng):
    for _ in range(25):
        w = rng.standard_normal(model.W_dim)
        for _ in range(60):
            mu = model.momentum(w)
            if np.linalg.norm(mu) < 1e-12:
                return w
            step, *_ = np.linalg.lstsq(model._jacobian(w), -mu, rcond=None)
            w = w + step
        # stalled, draw a fresh start
    raise ConvergenceError("zero-locus projection failed to converge")


def sample_zero_locus(model, count, seed, method="construct"):
    """Sample `count` points of mu^-1(0), the zero vector first.

    The construct method parametrizes the locus directly (parallel pairs for
    SO(2), balanced coplanar configurations for SO(3)); the newton method
    projects random ambient starts onto mu = 0 and is kept as an independent
    cross-check of the parametrization.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if method not in ("construct", "newton"):
        raise ValueError(f"unknown sampling method: {method!r}")
    rng = np.random.default_rng(seed)
    points = [ZeroLocusPoint(model, np.zeros(model.W_dim))]
    for index in range(1, count):
        w = _newton_sample(model, rng) if method == "newton" else model._construct(rng, index)
        points.append(ZeroLocusPoint(model, w))
    return points


def hilbert_map(model, w):
    """Evaluate the model's generating invariants at w.

    SO(2): the triple (u, v, r) = (qq - pp, 2qp, qq + pp).  SO(3): the
    symmetric Gram matrix of the four slot vectors in the order
    (q1, q2, p1, p2).
    """
    return model._hilbert(model._point(w))


def psi_quadratic(S):
    """Quadratic relation on Gram images, equal to |mu|^2 on all of W."""
    return (
        S[0, 0] * S[2, 2] - S[0, 2] ** 2
        + 2.0 * (S[0, 1] * S[2, 3] - S[0, 3] * S[1, 2])
        + S[1, 1] * S[3, 3] - S[1, 3] ** 2
    )


def couple_invariants(w):
    """Six quadratic invariants attached to the slot couples.

    For each couple (a, b) of distinct slot vectors, in the lexicographic
    order on (q1, q2, p1, p2), the value is the pairing of a ^ b with the
    momentum, written as a sum of two 2x2 determinants of inner products.
    These all vanish on the zero locus.
    """
    w = np.asarray(w, dtype=float)
    q1, q2, p1, p2 = _so3_slots(w)
    values = []
    vecs = (q1, q2, p1, p2)
    for i, j in itertools.combinations(range(4), 2):
        a, b = vecs[i], vecs[j]
        values.append(
            (a @ q1) * (b @ p1) - (a @ p1) * (b @ q1)
            + (a @ q2) * (b @ p2) - (a @ p2) * (b @ q2)
        )
    return np.array(values)


def _det3(a):
    return (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def minors_3x3(S):
    """All sixteen 3x3 minors of a 4x4 matrix, row triples varying slowest."""
    S = np.asarray(S, dtype=float)
    triples = list(itertools.combinations(range(4), 3))
    return np.array(
        [_det3(S[np.ix_(rows, cols)]) for rows in triples for cols in triples]
    )


def check_relations(model, point):
    """Residuals of the defining relations of the reduced space at a point.

    SO(2): the cone relation u^2 + v^2 = r^2 and the half-space r >= 0.
    SO(3): vanishing of det, psi, the six couple invariants and all 3x3
    minors, plus positive semidefiniteness and rank at most 2 of the Gram
    image.  Every value is a nonnegative residual.
    """
    return model._relations(hilbert_map(model, point.w), point.w)


def zariski_dim_at_origin(model, samples):
    """Rank of the span of Hilbert images over zero-locus samples.

    This measures the Zariski tangent dimension of the reduced space at the
    origin; the sample list must be at least twice the invariant count so
    the rank has room to saturate.
    """
    if len(samples) < 2 * model.invariant_count:
        raise ValueError("not enough samples to trust the span rank")
    rows = np.array([hilbert_map(model, pt.w).ravel() for pt in samples])
    return _rank(np.linalg.svd(rows, compute_uv=False), 1e-8)


def spanning_configurations(v=None):
    """Ten zero-locus configurations whose Hilbert images span the target.

    Each configuration places a fixed vector v in one or two of the four
    slots (q1, q2, p1, p2): the four single-slot placements followed by the
    six couples in lexicographic order.  All have zero momentum, and for
    any unit v the ten Gram images are linearly independent.
    """
    v = np.array([1.0, 0.0, 0.0]) if v is None else np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("direction must be a 3-vector")
    patterns = [tuple(int(k == i) for k in range(4)) for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        patterns.append(tuple(int(k in (i, j)) for k in range(4)))
    return [np.concatenate([c * v for c in pattern]) for pattern in patterns]


def psd_rank_stratum(image, tol=1e-9):
    """Stratum label of a symmetric 4x4 image: its rank if PSD, else "outside".

    Rank uses the relative cutoff tol * max(largest eigenvalue, 1); matrices
    with a negative eigenvalue below -tol or rank 3 and higher lie outside
    the closure of the reduced space.
    """
    S = np.asarray(image, dtype=float)
    eig = np.linalg.eigvalsh((S + S.T) / 2.0)
    if eig[0] < -tol:
        return "outside"
    rank = _rank(np.sort(np.abs(eig))[::-1], tol)
    return rank if rank <= 2 else "outside"


def stratum_label(model, image):
    """String stratum key for report histograms."""
    return model._stratum(image)


def so2_cone_model_report(count=60, seed=0):
    """Local picture at the middle stratum: a smooth R^4 factor times a cone.

    The cone factor is the SO(2) reduced space; its Zariski tangent
    dimension at the vertex is measured from sampled Hilbert images and
    added to the smooth factor dimension.
    """
    model = so2_model()
    points = sample_zero_locus(model, count, seed)
    cone_dim = zariski_dim_at_origin(model, points)
    residual = max(
        max(check_relations(model, pt).values()) for pt in points
    )
    return {
        "cone_dim": cone_dim,
        "smooth_dim": 4,
        "total_dim": 4 + cone_dim,
        "relation_residual_max": float(residual),
    }

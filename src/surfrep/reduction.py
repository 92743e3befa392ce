"""Linear local models for momentum-map reduction at the singular strata.

Two compact groups acting linearly on a symplectic vector space W cover the
orbit types that occur for genus-2 surface groups in SU(2): SO(2) acting
diagonally on R^2 x R^2, and SO(3) acting diagonally on four copies of R^3.
Each model carries its momentum map, a constructive sampler for the zero
locus V = mu^-1(0), the quadratic Hilbert map whose image realizes V/K, and
the semialgebraic relations cutting that image out of its ambient space.
Zariski tangent dimensions at the origin are measured as the rank of the
span of sampled Hilbert images.

The model kernels take one point, a (W_dim,) vector, or a stack of them, an
(S, W_dim) array, and give each point of a stack the bits it gets alone; the
one-point functions call the same kernels.
"""

import itertools
import math

import numpy as np

from .groups import ConvergenceError, _hat, _lstsq, _norm, _rank, so3, u1

RESIDUAL_TOL = 1e-10
# Largest count sample_zero_locus accepts. The sampler and the stacked
# relation pass hold every point at once (about 2 kB per SO(3) point).
MAX_SAMPLES = 10_000
# Newton projection onto mu = 0: steps per start, and starts per point before
# ConvergenceError.
NEWTON_ITERS = 60
NEWTON_STARTS = 25

_TRIPLES = list(itertools.combinations(range(4), 3))
# the sixteen 3x3 submatrices of a 4x4 matrix, row triples varying slowest
_MINOR_ROWS = np.array([rows for rows in _TRIPLES for _ in _TRIPLES])[:, :, None]
_MINOR_COLS = np.array([cols for _ in _TRIPLES for cols in _TRIPLES])[:, None, :]
_COUPLES = np.array(list(itertools.combinations(range(4), 2)))
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def momentum_so2(q, p):
    """Signed area |q p| of planar pairs (..., 2), the SO(2) momentum value."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    return q[..., 0] * p[..., 1] - q[..., 1] * p[..., 0]


def momentum_so3(q1, p1, q2, p2):
    """Cross-product sum q1 x p1 + q2 x p2 of vectors (..., 3), the SO(3) momentum value."""
    vectors = [np.asarray(v, dtype=float) for v in (q1, p1, q2, p2)]
    if any(v.shape[-1:] != (3,) for v in vectors):
        raise ValueError("momentum_so3 takes vectors of length 3")
    q1, p1, q2, p2 = vectors
    # np.cross's products and differences, component k from the entries after
    # it (_NEXT) and before it (_PREV), without its moveaxis and broadcast
    # bookkeeping
    return ((q1[..., _NEXT] * p1[..., _PREV] - q1[..., _PREV] * p1[..., _NEXT])
            + (q2[..., _NEXT] * p2[..., _PREV] - q2[..., _PREV] * p2[..., _NEXT]))


def _so3_slots(W):
    """(..., 12) points as (..., 4, 3) slot vectors (q1, q2, p1, p2)."""
    return W.reshape(W.shape[:-1] + (4, 3))


def _finite(x, shape, name):
    """x as a float array of the given shape with finite entries, else a
    ValueError naming it."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise ValueError(f"expected {name} of shape {shape}, got {x.shape}")
    # a scan of the entries costs less than np.isfinite at one point
    if not all(map(math.isfinite, x.ravel().tolist())):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _excess(x):
    """max(0.0, x) per entry, as Python's max gives it: x only where x > 0."""
    return np.where(x > 0.0, x, 0.0)


class LinearMomentumModel:
    """A compact group acting orthogonally on W with its momentum map. The
    factories so2_model() and so3_model() supply its kernels: momentum,
    hilbert and jacobian of one point or a stack of points, the relation suite
    relations(image, w) on their Hilbert images, the stratum rule
    stratum(images), which labels a stack of images, and the zero-locus
    constructor construct(rng, count), which returns points 1..count-1."""

    def __init__(self, name, group, W_dim, invariant_count, momentum, hilbert,
                 jacobian, construct, relations, stratum):
        self.name = name
        self.group = group
        self.W_dim = W_dim
        self.invariant_count = invariant_count
        self._momentum = momentum
        self._hilbert = hilbert
        self._jacobian = jacobian
        self._construct = construct
        self._relations = relations
        self._stratum = stratum
        self._image_shape = hilbert(np.zeros(W_dim)).shape

    def _point(self, w):
        return _finite(w, (self.W_dim,), f"a point of length {self.W_dim}")


def so2_model():
    """SO(2) acting diagonally on (q, p) in R^2 x R^2."""

    def hilbert(W):
        q, p = W[..., 0:2], W[..., 2:4]
        if W.ndim == 1:
            # one point takes ndarray.dot, the ddot that np.vecdot calls on a
            # stack, without the gufunc's per-call cost, and its image in floats
            qq, pp, qp = float(q.dot(q)), float(p.dot(p)), float(q.dot(p))
        else:
            qq, pp, qp = np.vecdot(q, q), np.vecdot(p, p), np.vecdot(q, p)
        return np.array([qq - pp, 2.0 * qp, qq + pp]).T

    # W.T unpacks the coordinates of one point as scalars, of a stack as columns
    def jacobian(W):
        q0, q1, p0, p1 = W.T
        return np.stack([p1, -p0, -q1, q0], axis=-1)[..., None, :]

    def relations(image, w):
        u, v, r = image.T
        return {
            "cone": np.abs(u * u + v * v - r * r),
            "nonneg": _excess(-r),
        }

    return LinearMomentumModel(
        name="SO2", group=u1(), W_dim=4, invariant_count=3,
        momentum=lambda W: momentum_so2(W[..., 0:2], W[..., 2:4])[..., None],
        hilbert=hilbert, jacobian=jacobian, construct=_construct_so2, relations=relations,
        stratum=lambda images: ["0" if r <= 1e-9 else "1" for r in images[:, 2].tolist()],
    )


def so3_model():
    """SO(3) acting diagonally on four copies of R^3, slots (q1,q2,p1,p2)."""

    def momentum(W):
        q1, q2, p1, p2 = np.moveaxis(_so3_slots(W), -2, 0)
        return momentum_so3(q1, p1, q2, p2)

    def hilbert(W):
        V = _so3_slots(W)
        S = V @ np.swapaxes(V, -1, -2)
        return (S + np.swapaxes(S, -1, -2)) / 2.0

    def jacobian(W):
        q1, q2, p1, p2 = np.moveaxis(_so3_slots(W), -2, 0)
        return np.concatenate([-_hat(p1), -_hat(p2), _hat(q1), _hat(q2)], axis=-1)

    def relations(S, w):
        eig = np.linalg.eigvalsh(S)
        svals = np.linalg.svd(S, compute_uv=False)
        top = svals[..., 0]
        return {
            "det": np.abs(np.linalg.det(S)),
            "psi": np.abs(psi_quadratic(S)),
            "couple_max": np.max(np.abs(_couples(w)), axis=-1),
            "minor_max": np.max(np.abs(_minors(S)), axis=-1),
            "psd": _excess(-eig[..., 0]),
            "rank": np.divide(svals[..., 2], top, out=np.zeros_like(top), where=top > 0.0),
        }

    return LinearMomentumModel(
        name="SO3", group=so3(), W_dim=12, invariant_count=10,
        momentum=momentum, hilbert=hilbert, jacobian=jacobian, construct=_construct_so3,
        relations=relations,
        stratum=lambda images: [str(label) for label in _psd_rank_strata(images)],
    )


MODELS = {"so2": so2_model, "so3": so3_model}  # by the reduction command's names


class _Batch:
    """The points one validating pass made: their model, their vectors W
    (read-only) and the relation residual tables of every row. Each point
    keeps its batch next to its row; the point-list readers group by it."""

    __slots__ = ("model", "W", "relations")

    def __init__(self, model, W, relations):
        self.model, self.W, self.relations = model, W, relations


class ZeroLocusPoint:
    """A point of the momentum zero locus, validated on construction. The
    validating pass also takes the relation residuals of its batch; the point
    keeps that batch and its row there, which check_relations reads. w is
    read-only, so the row cannot go stale."""

    def __init__(self, model, w):
        (point,) = self._stack(model, model._point(w)[None].copy())
        vars(self).update(vars(point))

    @classmethod
    def _stack(cls, model, W):
        """One point per row of W, validated in one pass that also takes every
        row's relation residuals; W becomes read-only. Each row is checked as
        one point alone: finite entries, momentum residual below RESIDUAL_TOL,
        then a finite Hilbert image and finite relation residuals (large finite
        entries can overflow either). The first failing row or check raises."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a ValueError below
            finite = np.isfinite(W).all(axis=1)
            residuals = _norm(model._momentum(np.where(finite[:, None], W, 0.0)))
            bad = ~finite | ~(residuals < RESIDUAL_TOL)
            if bad.any():
                i = int(np.argmax(bad))
                if not finite[i]:
                    raise ValueError("point contains non-finite entries")
                raise ValueError(f"momentum residual {residuals[i]:.3e} exceeds {RESIDUAL_TOL:.0e}")
            images = model._hilbert(W)
            relations = model._relations(images, W)
        for name, values in [("Hilbert image", images), *relations.items()]:
            if not np.isfinite(values).all():
                raise ValueError(f"{name} of a point is not finite (its entries overflow)")
        batch = _Batch(model, W, relations)
        W.flags.writeable = False
        points = []
        for row, (w, residual) in enumerate(zip(W, residuals.tolist())):
            point = cls.__new__(cls)
            point.model, point.w, point.residual = model, w, residual
            point._batch, point._row = batch, row
            points.append(point)
        return points


def _construct_so2(rng, count):
    # point `index` draws q, then for index % 6 != 3 a factor t with p = t q
    scaled = np.arange(1, count) % 6 != 3
    sizes = 2 + scaled
    start = np.cumsum(sizes) - sizes
    z = rng.standard_normal(int(sizes.sum()))
    q = z[start[:, None] + np.arange(2)]
    p = np.zeros_like(q)
    p[scaled] = z[start[scaled] + 2, None] * q[scaled]
    return np.concatenate([q, p], axis=1)


def _construct_so3(rng, count):
    # The one-point loop reads three things per point, in index order: a
    # parallel point a line (3 normals) and four weights (7 together), a planar
    # one a 3x2 plane (6) and two area pairs (4 each), each pair drawn again
    # until its signed area is at least 0.05 in size. The normals come in
    # blocks, each as large as the reads left can still take, so the
    # generator ends where the one-point loop leaves it.
    parallel = np.arange(1, count) % 6 == 3
    sizes = np.where(parallel[:, None], [7, 0, 0], [6, 4, 4]).ravel()
    starts = np.empty(len(sizes), dtype=int)
    z, done, pos = np.empty(0), 0, 0
    while done < len(sizes):
        rest = sizes[done:]
        z = np.concatenate([z, rng.standard_normal(pos + int(rest.sum()) - len(z))])
        # each read's start in z[pos:] while no pair is drawn again, and the pair
        # read, if any, that starts at each position
        base = np.cumsum(rest) - rest
        owner = np.full(len(z) - pos, -1)
        owner[base[rest == 4]] = np.flatnonzero(rest == 4)
        window = np.lib.stride_tricks.sliding_window_view(z[pos:], 4)
        small = np.flatnonzero(~(np.abs(momentum_so2(window[:, :2], window[:, 2:])) > 0.05))
        # a small area at a pair's start draws that pair again 4 normals on,
        # shifting every later read
        redrawn, shift, frontier = [], 0, 0
        for at in small.tolist():
            if at >= frontier and owner[at - shift] >= 0:
                redrawn.append(owner[at - shift])
                shift += 4
                frontier = at + 4
        begin = base + 4 * np.cumsum(np.bincount(redrawn, minlength=len(rest)))
        fits = int(np.count_nonzero(begin + rest <= len(z) - pos))
        starts[done:done + fits] = pos + begin[:fits]
        pos = pos + int(begin[fits]) if fits < len(rest) else len(z)
        done += fits
    first, pair1, pair2 = starts.reshape(-1, 3).T
    W = np.empty((len(parallel), 12))
    # all four slots parallel, every cross product vanishes identically
    at = first[parallel, None]
    u = z[at + np.arange(3)]
    u /= _norm(u)[:, None]
    W[parallel] = (z[at + np.arange(3, 7)][:, :, None] * u[:, None, :]).reshape(-1, 12)
    # a common plane with the two signed areas, rescaled to +-1, tuned to cancel
    a, b = np.split(z[pair1[~parallel, None] + np.arange(4)], 2, axis=1)
    c, d = np.split(z[pair2[~parallel, None] + np.arange(4)], 2, axis=1)
    area1, area2 = momentum_so2(a, b), momentum_so2(c, d)
    scale1 = (1.0 / np.sqrt(np.abs(area1)))[:, None]
    scale2 = (1.0 / np.sqrt(np.abs(area2)))[:, None]
    a, b, c, d = scale1 * a, scale1 * b, scale2 * c, scale2 * d
    d = np.where((np.sign(area1) == np.sign(area2))[:, None], -d, d)
    basis = np.linalg.qr(z[first[~parallel, None] + np.arange(6)].reshape(-1, 3, 2))[0]
    # slots (q1, q2, p1, p2) hold plane coordinates (a, c, b, d)
    coords = np.stack([a, c, b, d], axis=1)[..., None]
    W[~parallel] = (basis[:, None] @ coords).reshape(-1, 12)
    return W


def _project_starts(model, W):
    """Gauss-Newton on mu = 0 from every row of W in one masked pass: each row
    takes at most NEWTON_ITERS least-squares steps, one stacked gelsd per
    iteration (groups._lstsq, the bits of a per-row lstsq), and stops once
    |mu| < 1e-12. Returns the rows and whether each converged."""
    converged = np.zeros(len(W), dtype=bool)
    live = np.arange(len(W))
    for _ in range(NEWTON_ITERS):
        mu = model._momentum(W[live])
        done = _norm(mu) < 1e-12
        converged[live[done]] = True
        live, mu = live[~done], mu[~done]
        if not live.size:
            break
        X = W[live]
        W[live] = X + _lstsq(model._jacobian(X), -mu)
    return W, converged


def _newton_points(model, rng, count):
    """count points of mu^-1(0) projected from standard normal starts.

    Starts are drawn in the order one point at a time draws them: a stalled
    start is dropped and the next draw takes its place, and NEWTON_STARTS
    stalled starts in a row raise ConvergenceError. The points are therefore
    the converged starts in draw order.
    """
    points, stalled = [], 0
    while len(points) < count:
        starts = rng.standard_normal((count - len(points), model.W_dim))
        for w, converged in zip(*_project_starts(model, starts)):
            if converged:
                points.append(w)
                stalled = 0
                continue
            stalled += 1
            if stalled == NEWTON_STARTS:
                raise ConvergenceError("zero-locus projection failed to converge")
    return np.array(points).reshape(count, model.W_dim)


def sample_zero_locus(model, count, seed, method="construct"):
    """Sample `count` points of mu^-1(0), the zero vector first.

    The construct method parametrizes the locus directly (parallel pairs for
    SO(2), balanced coplanar configurations for SO(3)); the newton method
    projects random ambient starts onto mu = 0 and is kept as an independent
    cross-check of the parametrization. Both draw every point's randoms
    first and then compute and validate all points in one stacked pass;
    `count` must be an integer, 1 to MAX_SAMPLES, checked before anything is drawn.
    """
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be at least 1 and an integer, got {count!r}")
    if count > MAX_SAMPLES:
        raise ValueError(f"count must be at most {MAX_SAMPLES} (MAX_SAMPLES)")
    if method not in ("construct", "newton"):
        raise ValueError(f"unknown sampling method: {method!r}")
    rng = np.random.default_rng(seed)
    W = np.zeros((count, model.W_dim))
    if method == "newton":
        W[1:] = _newton_points(model, rng, count - 1)
    else:
        W[1:] = model._construct(rng, count)
    return ZeroLocusPoint._stack(model, W)


def hilbert_map(model, w):
    """Evaluate the model's generating invariants at w.

    SO(2): the triple (u, v, r) = (qq - pp, 2qp, qq + pp).  SO(3): the
    symmetric Gram matrix of the four slot vectors in the order
    (q1, q2, p1, p2).
    """
    return model._hilbert(model._point(w))


def psi_quadratic(S):
    """Quadratic relation on Gram images (..., 4, 4), equal to |mu|^2 on all of W."""
    S = np.asarray(S, dtype=float)
    # float_power squares with libm pow, as ** on a numpy scalar does; ** on
    # an array multiplies instead, which rounds differently
    return (
        S[..., 0, 0] * S[..., 2, 2] - np.float_power(S[..., 0, 2], 2)
        + 2.0 * (S[..., 0, 1] * S[..., 2, 3] - S[..., 0, 3] * S[..., 1, 2])
        + S[..., 1, 1] * S[..., 3, 3] - np.float_power(S[..., 1, 3], 2)
    )[()]


def _couples(w):
    """The six couple invariants, one per couple (a, b) of slot vectors in the
    order of _COUPLES: the pairing of a ^ b with the momentum, zero on the zero
    locus. A 4x4 table of slot inner products, then two 2x2 determinants each."""
    V = _so3_slots(w)
    G = np.vecdot(V[..., :, None, :], V[..., None, :, :])
    a, b = G[..., _COUPLES[:, 0], :], G[..., _COUPLES[:, 1], :]
    return a[..., 0] * b[..., 2] - a[..., 2] * b[..., 0] + a[..., 1] * b[..., 3] - a[..., 3] * b[..., 1]


def _minors(S):
    """All sixteen 3x3 minors of S (..., 4, 4), row triples varying slowest."""
    a = S[..., _MINOR_ROWS, _MINOR_COLS]
    return (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
    )


def check_relations(model, point):
    """Residuals of the defining relations of the reduced space at a point.

    SO(2): the cone relation u^2 + v^2 = r^2 and the half-space r >= 0.
    SO(3): vanishing of det, psi, the six couple invariants and all 3x3
    minors, plus positive semidefiniteness and rank at most 2 of the Gram
    image.  Every value is a nonnegative residual, read from the row that
    the pass validating the point stored.
    """
    _check_model(model, point)
    return {k: float(v[point._row]) for k, v in point._batch.relations.items()}


def relation_residual_max(model, points):
    """Largest check_relations value over points that pass _batches' check,
    read from the rows their validating passes stored, one gather per pass."""
    return max(0.0, max(float(np.max(values[rows])) for batch, rows, _ in _batches(model, points)
                        for values in batch.relations.values()))


def _check_model(model, point):
    if point.model.name != model.name:
        raise ValueError(f"point of model {point.model.name}, not {model.name}")
    return point


def _batches(model, points):
    """The points grouped by the pass that validated them, after every point
    list's check: the list is non-empty and each point is of the reader's
    model. One (batch, rows, where) per pass, in first-seen order: the rows its
    points hold there and where the list holds them."""
    if not points:
        raise ValueError("the point list is empty")
    rows = np.array([point._row for point in points])
    keys = [point._batch for point in points]
    batches = list(dict.fromkeys(keys))
    for batch in batches:
        _check_model(model, batch)
    if len(batches) == 1:
        return [(batches[0], rows, slice(None))]
    index = {batch: i for i, batch in enumerate(batches)}
    label = np.array([index[key] for key in keys])
    return [(batch, rows[label == i], label == i) for i, batch in enumerate(batches)]


def _point_vectors(model, points):
    """The points' vectors (k, W_dim) after _batches' check, one gather per
    validating pass."""
    W = np.empty((len(points), model.W_dim))
    for batch, rows, where in _batches(model, points):
        W[where] = batch.W[rows]
    return W


def stratum_histogram(model, points):
    """Count of each stratum label over the points, by sorted label."""
    labels = model._stratum(model._hilbert(_point_vectors(model, points)))
    return {label: labels.count(label) for label in sorted(set(labels))}


def zariski_dim_at_origin(model, samples):
    """Rank of the span of Hilbert images over zero-locus samples.

    This measures the Zariski tangent dimension of the reduced space at the
    origin; the sample list must be at least twice the invariant count so
    the rank has room to saturate.
    """
    if len(samples) < 2 * model.invariant_count:
        raise ValueError("not enough samples to trust the span rank")
    rows = model._hilbert(_point_vectors(model, samples)).reshape(len(samples), -1)
    return _rank(np.linalg.svd(rows, compute_uv=False), 1e-8)


def spanning_configurations():
    """Ten zero-locus configurations whose Hilbert images span the target.

    Each configuration places the unit vector e1 in one or two of the four
    slots (q1, q2, p1, p2): the four single-slot placements followed by the
    six couples in lexicographic order.  All have zero momentum, and the ten
    Gram images are linearly independent.
    """
    v = np.array([1.0, 0.0, 0.0])
    slots = [[i] for i in range(4)] + list(_COUPLES)
    return [np.concatenate([int(k in s) * v for k in range(4)]) for s in slots]


def _nan_first(magnitude):
    # a NaN (an inf image's eigenvalues hold them) sorts first, as it does in
    # np.sort's order reversed
    return math.inf if magnitude != magnitude else magnitude


def _psd_rank_strata(S):
    """The label of each image of a stack (k, 4, 4): its rank if PSD, else
    "outside" (an eigenvalue below -1e-9, or rank 3 and higher). From its
    eigenvalues (one eigvalsh call for the stack) in Python floats: its
    magnitudes go to _rank, cutoff 1e-9, in descending order."""
    labels = []
    for eig in np.linalg.eigvalsh((S + S.mT) / 2.0).tolist():
        rank = _rank(sorted(map(abs, eig), key=_nan_first, reverse=True), 1e-9)
        labels.append("outside" if eig[0] < -1e-9 or rank > 2 else rank)
    return labels


def stratum_label(model, image):
    """String stratum key for report histograms. The image must have the shape
    of the model's Hilbert images and finite entries, else ValueError."""
    return model._stratum(_finite(image, model._image_shape, "a Hilbert image")[None])[0]


def so2_cone_model_report(count=60, seed=0):
    """Local picture at the middle stratum: a smooth R^4 factor times a cone.

    The cone factor is the SO(2) reduced space; its Zariski tangent
    dimension at the vertex is measured from sampled Hilbert images and
    added to the smooth factor dimension.
    """
    model = so2_model()
    points = sample_zero_locus(model, count, seed)
    cone_dim = zariski_dim_at_origin(model, points)
    return {
        "cone_dim": cone_dim,
        "smooth_dim": 4,
        "total_dim": 4 + cone_dim,
        "relation_residual_max": relation_residual_max(model, points),
    }

"""Path-ordered transport for a connection along a path, and the derivative of holonomy.

The connection enters as its algebra values A(t) on a uniform grid over [0, b],
linearly interpolated. Transport solves a'(t) = -A(t) a(t), a(0) = e, by
fourth-order Magnus steps, so a constant connection X transports exactly to
exp(-X t) and no node leaves the group. Holonomy reads only the last node, so
its steps are multiplied by a pairwise product tree (N - 1 products); the
prefix scan of every node serves only the twisted integral.

A connection is a read-only copy, so its step matrices over the whole path
cannot go stale: it keeps them, one read-only array per refinement level
2, 4, ..., MAX_SUBSTEPS that its holonomy or derivative has reached. So its
holonomy, the derivative's scan and both oracles' holonomy of it build each
level once. That is at most log2(MAX_SUBSTEPS) arrays and fewer than twice
the top level's (nodes - 1) * MAX_SUBSTEPS step matrices: at MAX_NODES and
MAX_SUBSTEPS, under 76 MB for the 6x6 matrices of SO3xSU2xU1, held as long as
the connection is. Next to each level's steps it keeps their product, its
holonomy at that level (one m x m matrix), so the oracles' repeated holonomy
of it refines by reading. Transport at a given n_sub (an integer, at most
MAX_SUBSTEPS) keeps nothing.
The finite-difference oracle's two varied connections are transported as one
stack, each entry refined until it is stable to tol on its own.

The derivative of holonomy is taken along the affine family whose transport
data at parameter s is A - s*theta (the convention under which it reduces to
the plain integral of theta when A = 0): it equals the twisted integral of
Ad(a(t)^-1) theta(t), left-translated at the holonomy.
"""

import numpy as np

from .groups import ConvergenceError, _dagger, _elements, _frobenius, _norm

MAX_SUBSTEPS = 1024
TRANSPORT_TOL = 1e-10  # default refinement tolerance of every transport
FD_STEP = 1e-4  # default step of the finite-difference oracle holonomy_derivative_fd
# grid nodes of a path; one transport pass holds at most
# (MAX_NODES - 1) * MAX_SUBSTEPS step matrices, so a stack of connections that
# needs more at one refinement level runs in chunks of entries
MAX_NODES = 65


def _interpolate(conn, values, t):
    """Linear interpolation at time t (a scalar or an array of times) of samples
    (..., nodes, dim) on conn's uniform grid; the sample axis comes last."""
    nodes = values.shape[-2]
    cell = conn.b / (nodes - 1)
    i = np.clip(np.floor(t / cell).astype(int), 0, nodes - 2)
    frac = ((t - conn.times[i]) / cell)[..., None]
    lo = values[..., i, :]
    return lo + frac * (values[..., i + 1, :] - lo)


class PathConnection:
    """Algebra-valued samples of a connection on a uniform grid over [0, b],
    held as a read-only copy."""

    def __init__(self, group, b, values):
        values = np.array(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("need at least 2 grid samples of shape (n_nodes, dim)")
        if values.shape[0] > MAX_NODES:
            raise ValueError(f"nodes must be at most {MAX_NODES}, got {values.shape[0]}")
        if values.shape[1] != group.dim:
            raise ValueError(f"samples have dim {values.shape[1]}, group algebra has dim {group.dim}")
        if not np.isfinite(values).all():
            raise ValueError("connection samples must be finite")
        if not 0 < b < np.inf:
            raise ValueError(f"path length must be finite and positive, got {b}")
        values.flags.writeable = False
        self.group = group
        self.b = float(b)
        self.values = values
        self.times = np.linspace(0.0, self.b, len(values))
        self._levels = {}  # n_sub -> own step matrices over [0, b] (_own_steps)
        self._products = {}  # n_sub -> their product, the holonomy at n_sub (_own_product)


class Variation:
    """A variation 1-form along the same grid as its PathConnection, held as a
    read-only copy."""

    def __init__(self, conn, values):
        values = np.array(values, dtype=float)
        if values.shape != conn.values.shape:
            raise ValueError(
                f"variation shape {values.shape} does not match connection grid {conn.values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("variation samples must be finite")
        values.flags.writeable = False
        self.conn = conn
        self.values = values


_GAUSS = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])  # on [0, 1]


def _grid(conn, n_sub):
    """Substep length per grid cell and the substep times (cells, n_sub + 1)."""
    t0 = conn.times[:-1]
    h = (conn.times[1:] - t0) / n_sub
    return h, t0[:, None] + np.arange(n_sub + 1) * h[:, None]


def _steps(conn, values, n_sub):
    """Magnus step matrices E_1 ... E_N, n_sub per grid cell, of every connection
    in the stack values (..., nodes, dim) on conn's grid."""
    h, grid = _grid(conn, n_sub)
    hs = np.repeat(h, n_sub)[:, None, None]
    gauss = grid[:, :-1].ravel() + np.outer(_GAUSS, hs.ravel())  # (2, substeps)
    A = conn.group.algebra_to_matrix(_interpolate(conn, values, gauss))
    P = A[..., ::-1, :, :, :] @ A  # A2 A1 and A1 A2 in one matmul
    A1, A2 = A[..., 0, :, :, :], A[..., 1, :, :, :]
    commutator = P[..., 0, :, :, :] - P[..., 1, :, :, :]  # A2 A1 - A1 A2
    omega = -0.5 * hs * (A1 + A2) + (np.sqrt(3) / 12) * hs ** 2 * commutator
    lam, V = np.linalg.eigh(1j * omega)  # Hermitian: exp(omega) = V exp(-i lam) V^H
    return (V * np.exp(-1j * lam)[..., None, :]) @ _dagger(V)


def _kept(store, n_sub, build):
    """store[n_sub], made by build() on first use and kept read-only. Only
    refinement levels ask, so a store holds at most log2(MAX_SUBSTEPS) arrays."""
    kept = store.get(n_sub)
    if kept is None:
        kept = store[n_sub] = build()
        kept.flags.writeable = False
    return kept


def _own_steps(conn, n_sub):
    """conn's own step matrices over [0, b] at n_sub substeps per cell, as one
    array, kept on conn."""
    return _kept(conn._levels, n_sub, lambda: _steps(conn, conn.values, n_sub))


def _own_product(conn, n_sub):
    """The product of conn's own steps at n_sub, its holonomy there, kept on conn."""
    return _kept(conn._products, n_sub, lambda: _product(_own_steps(conn, n_sub)))


def _prefix(mats):
    """Prefix products a_k = E_k ... E_1 along the step axis of mats (..., N, m, m),
    in place, in log2 N rounds (Hillis-Steele)."""
    shift = 1
    while shift < mats.shape[-3]:
        mats[..., shift:, :, :] = mats[..., shift:, :, :] @ mats[..., :-shift, :, :]
        shift *= 2
    return mats


def _product(mats):
    """E_N ... E_1 along the step axis of mats (..., N, m, m) in N - 1 products: a
    pairwise tree aligned at E_N, the bracketing of _prefix's last entry, so the
    two agree bit for bit."""
    while mats.shape[-3] > 1:
        odd = mats.shape[-3] % 2
        pairs = mats[..., odd + 1::2, :, :] @ mats[..., odd::2, :, :]
        mats = np.concatenate([mats[..., :odd, :, :], pairs], axis=-3) if odd else pairs
    return mats[..., 0, :, :]


def _transport(conn, values, n_sub):
    """a(b) of every connection in the stack values (k, nodes, dim) on conn's
    grid, in passes of at most (MAX_NODES - 1) * MAX_SUBSTEPS step matrices."""
    per_pass = max(1, (MAX_NODES - 1) * MAX_SUBSTEPS // ((len(conn.times) - 1) * n_sub))
    return np.concatenate([_product(_steps(conn, values[i:i + per_pass], n_sub))
                           for i in range(0, len(values), per_pass)])


def _refine(compute, k, tol, size):
    """A stack of k results, each refined on its own: compute(n_sub, live) gives
    the entries live at n_sub = 2, 4, 8, ..., and an entry is kept, and leaves the
    live set, at the first level where size(its change) is below tol. Raises
    ConvergenceError when some entry has not settled by MAX_SUBSTEPS, and
    ValueError, before any compute, when tol is not finite and positive."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    live = np.arange(k)
    prev = compute(2, live)
    out = np.empty_like(prev)
    n = 4
    while n <= MAX_SUBSTEPS:
        cur = compute(n, live)
        done = size(cur - prev) < tol
        out[live[done]] = cur[done]
        live, prev = live[~done], cur[~done]
        if not live.size:
            return out
        n *= 2
    raise ConvergenceError(
        f"successive refinements still differ by more than {tol:g} "
        f"at {MAX_SUBSTEPS} substeps per cell")


def horizontal_transport(conn, *, n_sub=None, tol=TRANSPORT_TOL):
    """Group element a(b) solving a' = -A a, a(0) = e, over the whole path;
    refines until stable to tol (ConvergenceError if it is not by MAX_SUBSTEPS),
    or takes n_sub substeps per cell when n_sub is given, an integer
    1 <= n_sub <= MAX_SUBSTEPS (the refinement's budget, which bounds the step
    matrices a transport holds)."""
    if n_sub is None:
        return _refine(lambda n, live: _own_product(conn, n)[None], 1, tol, _frobenius)[0]
    if (isinstance(n_sub, bool) or not isinstance(n_sub, (int, np.integer))
            or not 1 <= n_sub <= MAX_SUBSTEPS):
        raise ValueError(f"n_sub must be an integer in [1, {MAX_SUBSTEPS}], got {n_sub!r}")
    # as an int: a narrow integer dtype would overflow the pass budget's arithmetic
    return _transport(conn, conn.values[None], int(n_sub))[0]


def holonomy(conn, *, n_sub=None, tol=TRANSPORT_TOL):
    """The holonomy of conn over [0, b]: horizontal_transport with the same arguments."""
    return horizontal_transport(conn, n_sub=n_sub, tol=tol)


def _twisted_integral(conn, var, n_sub):
    group = conn.group
    _, grid = _grid(conn, n_sub)
    ts = np.concatenate([[0.0], grid[:, 1:].ravel()])
    mats = np.concatenate([group.identity()[None], _own_steps(conn, n_sub)])
    _prefix(mats[1:])  # in place, on the copy: the kept steps stay as built
    # Ad(a^-1) theta at every node, read off a^-1 Theta a in the algebra basis
    theta = group.algebra_to_matrix(_interpolate(conn, var.values, ts))
    twisted = _dagger(mats) @ theta @ mats
    integrand = group.matrix_to_algebra(twisted)
    # composite Simpson per grid cell (nodes align, n_sub even)
    cells = len(conn.times) - 1
    w = np.where(np.arange(n_sub + 1) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    idx = n_sub * np.arange(cells)[:, None] + np.arange(n_sub + 1)
    h = (ts[idx[:, -1]] - ts[idx[:, 0]]) / n_sub
    return np.einsum("c,k,ckd->d", h / 3, w, integrand[idx])


def _check_grid(conn, var):
    if var.conn.group.name != conn.group.name:
        raise ValueError(
            f"variation of a {var.conn.group.name} connection, not of the {conn.group.name} one")
    got, want = (var.conn.b, len(var.conn.times)), (conn.b, len(conn.times))
    if got != want:
        raise ValueError(f"variation grid (length, nodes) {got} is not the connection's {want}")


def holonomy_derivative(conn, var, tol=TRANSPORT_TOL):
    """Derivative of holonomy in the direction of the variation, left-translated
    to the algebra: the integral of Ad(a(t)^-1) theta(t) dt over [0, b]."""
    _check_grid(conn, var)
    return _refine(lambda n, live: _twisted_integral(conn, var, n)[None], 1, tol, _norm)[0]


def holonomy_derivative_fd(conn, var, s=FD_STEP, tol=TRANSPORT_TOL):
    """Central finite difference along the affine family (transport data A - s*theta);
    the independent oracle for holonomy_derivative. s is nonzero, s and A -+ s*theta finite."""
    if s == 0 or not np.isfinite(s):
        raise ValueError(f"finite-difference step must be nonzero and finite, got {s}")
    _check_grid(conn, var)
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        varied = conn.values + np.multiply.outer([-s, s], var.values)  # A - s theta, A + s theta
    if not np.isfinite(varied).all():
        raise ValueError("varied connection samples must be finite")
    gp, gm = _refine(lambda n, live: _transport(conn, varied[live], n), 2, tol, _frobenius)
    yinv = _dagger(holonomy(conn, tol=tol))
    return (conn.group.log(yinv @ gp) - conn.group.log(yinv @ gm)) / (2 * s)


def conjugation_invariance_check(conn, x):
    """Residual of Hol(Ad(x) A) = x Hol(A) x^-1 for a constant gauge transformation
    x, which must be a point of the group (groups._elements): ValueError, before
    any transport, for another shape, a non-finite entry or a group defect above
    GROUP_DEFECT_TOL."""
    group = conn.group
    (x,) = _elements(group, [x], "gauge element")
    gauged = PathConnection(group, conn.b, conn.values @ group.Ad_matrix(x).T)
    rhs = x @ holonomy(conn) @ np.linalg.inv(x)
    return float(np.linalg.norm(holonomy(gauged) - rhs))

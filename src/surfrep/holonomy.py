"""Path-ordered transport for a connection along a path, and the derivative of holonomy.

The connection enters as its algebra values A(t) on a uniform grid over [0, b],
linearly interpolated. Transport solves a'(t) = -A(t) a(t), a(0) = e, by
fourth-order Magnus steps, so a constant connection X transports exactly to
exp(-X t) and no node leaves the group. The derivative of holonomy is taken
along the affine family whose transport data at parameter s is A - s*theta (the
convention under which it reduces to the plain integral of theta when A = 0):
it equals the twisted integral of Ad(a(t)^-1) theta(t), left-translated at the holonomy.
"""

import numpy as np

from .cohomology import ConvergenceError

MAX_SUBSTEPS = 1024
# grid nodes of a path: one refinement level holds (nodes - 1) * MAX_SUBSTEPS
# step matrices at once
MAX_NODES = 65


def _check_node_count(nodes):
    if nodes > MAX_NODES:
        raise ValueError(f"nodes must be at most {MAX_NODES}, got {nodes}")


def _interpolate(conn, values, t):
    """Linear interpolation at time t (a scalar or an array of times) of samples
    on conn's uniform grid; the sample axis comes last."""
    cell = conn.b / (len(values) - 1)
    i = np.clip(np.floor(t / cell).astype(int), 0, len(values) - 2)
    frac = ((t - conn.times[i]) / cell)[..., None]
    return values[i] + frac * (values[i + 1] - values[i])


class PathConnection:
    """Algebra-valued samples of a connection on a uniform grid over [0, b]."""

    def __init__(self, group, b, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("need at least 2 grid samples of shape (n_nodes, dim)")
        _check_node_count(values.shape[0])
        if values.shape[1] != group.dim:
            raise ValueError(f"samples have dim {values.shape[1]}, group algebra has dim {group.dim}")
        if not np.isfinite(values).all():
            raise ValueError("connection samples must be finite")
        if not b > 0:
            raise ValueError(f"path length must be positive, got {b}")
        self.group = group
        self.b = float(b)
        self.values = values
        self.times = np.linspace(0.0, self.b, len(values))

    def at(self, t):
        """Linearly interpolated algebra value at time t."""
        return _interpolate(self, self.values, t)


class Variation:
    """A variation 1-form along the same grid as its PathConnection."""

    def __init__(self, conn, values):
        values = np.asarray(values, dtype=float)
        if values.shape != conn.values.shape:
            raise ValueError(
                f"variation shape {values.shape} does not match connection grid {conn.values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValueError("variation samples must be finite")
        self.conn = conn
        self.values = values

    def at(self, t):
        return _interpolate(self.conn, self.values, t)


_GAUSS = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])  # on [0, 1]


def _transport_nodes(conn, t_end, n_sub):
    """Transport by n_sub Magnus steps per grid cell (the last cut at t_end), all at
    once; returns times and group elements at every substep node from 0 to t_end."""
    t0 = conn.times[:-1][conn.times[:-1] < t_end]
    h = (np.minimum(conn.times[1:len(t0) + 1], t_end) - t0) / n_sub
    grid = t0[:, None] + np.arange(n_sub + 1) * h[:, None]
    hs = np.repeat(h, n_sub)[:, None, None]
    gauss = grid[:, :-1].ravel() + np.outer(_GAUSS, hs.ravel())  # (2, substeps)
    A1, A2 = conn.group.algebra_to_matrix(conn.at(gauss))
    omega = -0.5 * hs * (A1 + A2) + (np.sqrt(3) / 12) * hs ** 2 * (A2 @ A1 - A1 @ A2)
    lam, V = np.linalg.eigh(1j * omega)  # Hermitian: exp(omega) = V exp(-i lam) V^H
    mats = (V * np.exp(-1j * lam)[..., None, :]) @ V.conj().swapaxes(-1, -2)
    # prefix products a_k = E_k ... E_1 in log2 rounds (Hillis-Steele)
    shift = 1
    while shift < len(mats):
        mats[shift:] = mats[shift:] @ mats[:-shift]
        shift *= 2
    ts = np.concatenate([[0.0], grid[:, 1:].ravel()])
    return ts, np.concatenate([conn.group.identity()[None], mats])


def _refine(compute, tol):
    """compute(n_sub) at n_sub = 2, 4, 8, ... until two successive results agree
    to tol; raises ConvergenceError when MAX_SUBSTEPS is reached first."""
    prev = compute(2)
    n = 4
    while n <= MAX_SUBSTEPS:
        cur = compute(n)
        if np.linalg.norm(cur - prev) < tol:
            return cur
        prev = cur
        n *= 2
    raise ConvergenceError(
        f"successive refinements still differ by more than {tol:g} "
        f"at {MAX_SUBSTEPS} substeps per cell")


def horizontal_transport(conn, t, n_sub=None, tol=1e-10):
    """Group element a(t) solving a' = -A a, a(0) = e; refines until stable to tol
    (ConvergenceError if it is not by MAX_SUBSTEPS)."""
    if not -1e-12 <= t <= conn.b + 1e-12:
        raise ValueError(f"t = {t} outside [0, {conn.b}]")
    t = float(np.clip(t, 0.0, conn.b))
    if t == 0.0:
        return conn.group.identity()
    if n_sub is not None:
        return _transport_nodes(conn, t, n_sub)[1][-1]
    return _refine(lambda n: _transport_nodes(conn, t, n)[1][-1], tol)


def holonomy(conn, n_sub=None, tol=1e-10):
    return horizontal_transport(conn, conn.b, n_sub=n_sub, tol=tol)


def _twisted_integral(conn, var, n_sub):
    group = conn.group
    ts, mats = _transport_nodes(conn, conn.b, n_sub)
    # Ad(a^-1) theta at every node, read off a^-1 Theta a in the algebra basis
    theta = group.algebra_to_matrix(var.at(ts))
    twisted = mats.conj().swapaxes(-1, -2) @ theta @ mats
    integrand = group.matrix_to_algebra(twisted)
    # composite Simpson per grid cell (nodes align, n_sub even)
    cells = len(conn.times) - 1
    w = np.where(np.arange(n_sub + 1) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    idx = n_sub * np.arange(cells)[:, None] + np.arange(n_sub + 1)
    h = (ts[idx[:, -1]] - ts[idx[:, 0]]) / n_sub
    return np.einsum("c,k,ckd->d", h / 3, w, integrand[idx])


def holonomy_derivative(conn, var, n_sub=None, tol=1e-10):
    """Derivative of holonomy in the direction of the variation, left-translated
    to the algebra: the integral of Ad(a(t)^-1) theta(t) dt over [0, b]."""
    if n_sub is not None:
        return _twisted_integral(conn, var, n_sub)
    return _refine(lambda n: _twisted_integral(conn, var, n), tol)


def holonomy_derivative_fd(conn, var, s=1e-4, tol=1e-10):
    """Central finite difference along the affine family (transport data A - s*theta);
    the independent oracle for holonomy_derivative."""
    group = conn.group
    y = holonomy(conn, tol=tol)
    plus = PathConnection(group, conn.b, conn.values - s * var.values)
    minus = PathConnection(group, conn.b, conn.values + s * var.values)
    gp = holonomy(plus, tol=tol)
    gm = holonomy(minus, tol=tol)
    yinv = y.conj().T
    return (group.log(yinv @ gp) - group.log(yinv @ gm)) / (2 * s)


def conjugation_invariance_check(conn, x):
    """Residual of Hol(Ad(x) A) = x Hol(A) x^-1 for a constant gauge transformation."""
    group = conn.group
    ad = group.Ad_matrix(x)
    gauged = PathConnection(group, conn.b, conn.values @ ad.T)
    lhs = holonomy(gauged)
    rhs = x @ holonomy(conn) @ np.linalg.inv(x)
    return float(np.linalg.norm(lhs - rhs))

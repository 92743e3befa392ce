"""Path-ordered transport for a connection along a path, and the derivative of holonomy.

The connection enters as its algebra values A(t) on a uniform grid over [0, b],
linearly interpolated. Transport solves a'(t) = -A(t) a(t), a(0) = e, so a
constant connection X transports to exp(-X t). The derivative of holonomy is
taken along the affine family whose transport data at parameter s is A - s*theta
(the convention under which it reduces to the plain integral of theta when A = 0):
it equals the twisted integral of Ad(a(t)^-1) theta(t), left-translated at the
holonomy.
"""

import numpy as np

from .cohomology import ConvergenceError

MAX_SUBSTEPS = 1024


def _interpolate(conn, values, t):
    """Linear interpolation at time t of samples on conn's uniform grid."""
    cell = conn.b / (len(values) - 1)
    i = int(np.clip(np.floor(t / cell), 0, len(values) - 2))
    frac = (t - conn.times[i]) / cell
    return values[i] + frac * (values[i + 1] - values[i])


class PathConnection:
    """Algebra-valued samples of a connection on a uniform grid over [0, b]."""

    def __init__(self, group, b, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] < 2:
            raise ValueError("need at least 2 grid samples of shape (n_nodes, dim)")
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


def _rk4_step(conn, a, t, h):
    group = conn.group
    A0 = group.algebra_to_matrix(conn.at(t))
    Am = group.algebra_to_matrix(conn.at(t + h / 2))
    A1 = group.algebra_to_matrix(conn.at(t + h))
    k1 = -A0 @ a
    k2 = -Am @ (a + 0.5 * h * k1)
    k3 = -Am @ (a + 0.5 * h * k2)
    k4 = -A1 @ (a + h * k3)
    return group.project_to_group(a + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))


def _transport_nodes(conn, t_end, n_sub):
    """Transport with n_sub RK4 steps per grid cell; returns times and group elements
    at every substep node from 0 to t_end."""
    ts = [0.0]
    mats = [conn.group.identity()]
    a = mats[0]
    t = 0.0
    for t0, t1 in zip(conn.times, conn.times[1:]):
        if t0 >= t_end:
            break
        hi = min(t1, t_end)
        h = (hi - t0) / n_sub
        for k in range(n_sub):
            a = _rk4_step(conn, a, t0 + k * h, h)
            ts.append(t0 + (k + 1) * h)
            mats.append(a)
    return np.array(ts), mats


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
    integrand = np.array([
        group.Ad_matrix(a.conj().T) @ var.at(t) for t, a in zip(ts, mats)
    ])
    # composite Simpson per grid cell (nodes align, n_sub even)
    total = np.zeros(group.dim)
    for c in range(len(conn.times) - 1):
        lo, hi = c * n_sub, (c + 1) * n_sub
        h = (ts[hi] - ts[lo]) / n_sub
        w = np.ones(n_sub + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        total += (h / 3) * (w[:, None] * integrand[lo:hi + 1]).sum(axis=0)
    return total


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

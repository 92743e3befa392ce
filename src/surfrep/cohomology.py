"""Twisted cohomology at a surface-group representation.

The free-group word maps are differentiated through Fox calculus: evaluating
group-ring elements under the adjoint action turns the algebraic 3-term
complex into matrices D0 (conjugation directions) and D1 (relator
linearization). Ranks of those give the cohomology dimensions, the quadratic
jet of the relator gives the obstruction cone, and Gauss-Newton projection
onto the solution variety gives tangent-direction sampling.
"""

import itertools

import numpy as np

from .groups import _rank
from .words import fox_terms


class ConvergenceError(RuntimeError):
    pass


class RepPoint:
    """A representation of the free group: one group element per generator."""

    def __init__(self, group, values, defect_tol=1e-10):
        vals = [np.asarray(v, dtype=complex) for v in values]
        for v in vals:
            if not np.isfinite(v).all():
                raise ValueError("representation matrices must be finite")
            defect = group.group_defect(v)
            if defect > defect_tol:
                raise ValueError(f"matrix lies off the group (defect {defect:.3e})")
        self.group = group
        self.values = vals
        self.n = len(vals)


class BundleClass:
    """A central target value for the relators (the topological twisting)."""

    def __init__(self, group, central_element, tol=1e-10):
        c = np.asarray(central_element, dtype=complex)
        if group.group_defect(c) > tol:
            raise ValueError("central element lies off the group")
        if np.linalg.norm(group.Ad_matrix(c) - np.eye(group.dim)) > tol:
            raise ValueError("element is not central (adjoint action is nontrivial)")
        self.group = group
        self.central_element = c


class CochainData:
    """Evaluated 3-term complex: operators, ranks, and cohomology bases."""

    def __init__(self, D0, D1, rank0, rank1, h_dims, basis_H0, basis_Z1,
                 basis_B1, basis_H1, basis_H2, rank_tol):
        self.D0 = D0
        self.D1 = D1
        self.rank0 = rank0
        self.rank1 = rank1
        self.h_dims = h_dims
        self.basis_H0 = basis_H0
        self.basis_Z1 = basis_Z1
        self.basis_B1 = basis_B1
        self.basis_H1 = basis_H1
        self.basis_H2 = basis_H2
        self.rank_tol = rank_tol


def _class_matrix(group, c):
    if c is None:
        return group.identity()
    if isinstance(c, BundleClass):
        return c.central_element
    return np.asarray(c, dtype=complex)


def _value(group, values, letters):
    """Evaluate a word's letters at the representation (inverses via conjugate
    transpose), left to right."""
    g = group.identity()
    for j, e in letters:
        if j > len(values):
            raise ValueError(f"word uses generator x{j} but only {len(values)} values given")
        y = values[j - 1]
        g = g @ (y if e == 1 else y.conj().T)
    return g


def evaluate_group_ring(e, rep):
    """Sum of coef * Ad(value(w)^-1) over the terms; the right-module convention
    under which D1 matches the finite-difference relator derivative."""
    group = rep.group
    out = np.zeros((group.dim, group.dim))
    for w, c in e.terms.items():
        g = _value(group, rep.values, w.letters)
        out += c * group.Ad_matrix(g.conj().T)
    return out


def _d0(group, values):
    """D0 at the point: the stacked I - Ad(y_j^-1), the derivative of conjugation."""
    eye = np.eye(group.dim)
    return np.vstack([eye - group.Ad_matrix(y.conj().T) for y in values])


def _d1(pres, group, values):
    """D1 at the point. Block (i, j) is dr_i/dx_j evaluated as in
    evaluate_group_ring, summed term by term in one walk over r_i's letters."""
    d = group.dim
    D1 = np.zeros((pres.m * d, pres.n * d))
    for i, r in enumerate(pres.relators):
        for j, sign, start in fox_terms(r):
            g = _value(group, values, r.letters[start:])
            D1[i * d:(i + 1) * d, (j - 1) * d:j * d] += sign * group.Ad_matrix(g.conj().T)
    return D1


def _svd(M):
    # deterministic identity factors for the all-zero operator
    if not M.any():
        p, q = M.shape
        return np.eye(p), np.zeros(min(p, q)), np.eye(q)
    return np.linalg.svd(M)


def build_complex(pres, rep, rank_tol=1e-8):
    """Evaluate the complex at the representation and split off cohomology bases."""
    group = rep.group
    d = group.dim
    D0, D1 = _d0(group, rep.values), _d1(pres, group, rep.values)

    u0, s0, vt0 = _svd(D0)
    rank0 = _rank(s0, rank_tol)
    basis_H0 = vt0[rank0:].T
    basis_B1 = u0[:, :rank0]

    u1, s1, vt1 = _svd(D1)
    rank1 = _rank(s1, rank_tol)
    basis_Z1 = vt1[rank1:].T
    basis_H2 = u1[:, rank1:]

    stacked = np.vstack([D1, basis_B1.T])
    us, ss, vts = _svd(stacked)
    basis_H1 = vts[_rank(ss, rank_tol):].T

    h_dims = (d - rank0, (pres.n * d - rank1) - rank0, pres.m * d - rank1)
    return CochainData(D0, D1, rank0, rank1, h_dims, basis_H0, basis_Z1,
                       basis_B1, basis_H1, basis_H2, rank_tol)


def _relators_at(pres, group, values, cm):
    """Relator values at the point and their largest Frobenius distance to the
    central target cm."""
    rels = [_value(group, values, r.letters) for r in pres.relators]
    return rels, max(float(np.linalg.norm(v - cm)) for v in rels)


def relator_defect(pres, rep, c=None):
    """Largest Frobenius distance between a relator value and the central target."""
    return _relators_at(pres, rep.group, rep.values, _class_matrix(rep.group, c))[1]


def finite_diff_check_d1(pres, rep, u, h):
    """Max-norm gap between D1*u and the central-difference relator derivative
    along the curves y_j exp(t u_j); the oracle that pins the evaluation convention."""
    group = rep.group
    d = group.dim
    u = np.asarray(u, dtype=float).reshape(pres.n, d)
    D1 = _d1(pres, group, rep.values)
    lin = D1 @ u.ravel()
    plus = [y @ group.exp(h * u[j]) for j, y in enumerate(rep.values)]
    minus = [y @ group.exp(-h * u[j]) for j, y in enumerate(rep.values)]
    worst = 0.0
    for i, r in enumerate(pres.relators):
        g0i = _value(group, rep.values, r.letters).conj().T
        xi = (group.log(g0i @ _value(group, plus, r.letters))
              - group.log(g0i @ _value(group, minus, r.letters))) / (2 * h)
        worst = max(worst, float(np.linalg.norm(xi - lin[i * d:(i + 1) * d])))
    return worst


def finite_diff_check_d0(pres, rep, X, h):
    """Same contract for D0 against the conjugation-orbit map x -> x^-1 y x."""
    group = rep.group
    d = group.dim
    X = np.asarray(X, dtype=float)
    D0 = _d0(group, rep.values)
    lin = D0 @ X
    ep = group.exp(h * X)
    em = group.exp(-h * X)
    worst = 0.0
    for j, y in enumerate(rep.values):
        yi = y.conj().T
        xi = (group.log(yi @ em @ y @ ep) - group.log(yi @ ep @ y @ em)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(xi - lin[j * d:(j + 1) * d])))
    return worst


def obstruction_quadratic(pres, rep, u, data=None, cocycle_tol=1e-9):
    """Second-order term of the relator word map along a cocycle direction,
    projected to the complement of im D1; coordinates in basis_H2."""
    group = rep.group
    d = group.dim
    if data is None:
        data = build_complex(pres, rep)
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(data.D1 @ u) > cocycle_tol * max(1.0, np.linalg.norm(u)):
        raise ValueError("direction is not a cocycle (D1 u != 0)")
    u2 = u.reshape(pres.n, d)
    coords = []
    for r in pres.relators:
        C0 = group.identity()
        C1 = np.zeros_like(C0)
        C2 = np.zeros_like(C0)
        for j, e in r.letters:
            U = group.algebra_to_matrix(u2[j - 1])
            y = rep.values[j - 1]
            if e == 1:
                B0, B1, B2 = y, y @ U, 0.5 * y @ U @ U
            else:
                yi = y.conj().T
                B0, B1, B2 = yi, -U @ yi, 0.5 * U @ U @ yi
            C0, C1, C2 = C0 @ B0, C0 @ B1 + C1 @ B0, C0 @ B2 + C1 @ B1 + C2 @ B0
        inv0 = C0.conj().T
        S1 = inv0 @ C1
        S2 = inv0 @ C2
        coords.append(group.matrix_to_algebra(S2 - 0.5 * S1 @ S1))
    return data.basis_H2.T @ np.concatenate(coords)


def newton_project_to_variety(pres, group, start, c=None, tol=1e-9, max_iter=60,
                              slice_basis=None):
    """Gauss-Newton on the residual log(r_i(y) c^-1), stepping by y_j exp(delta_j);
    optionally restricted to a slice (columns of slice_basis)."""
    cm = _class_matrix(group, c)
    cmi = cm.conj().T
    d = group.dim

    def residual(rels):
        return np.concatenate([group.log(v @ cmi) for v in rels])

    rels, defect = _relators_at(pres, group, start.values, cm)
    if defect < tol:
        return start
    values = [v.copy() for v in start.values]
    F = residual(rels)
    for _ in range(max_iter):
        D1 = _d1(pres, group, values)
        if slice_basis is None:
            step, *_ = np.linalg.lstsq(D1, -F, rcond=None)
        else:
            v, *_ = np.linalg.lstsq(D1 @ slice_basis, -F, rcond=None)
            step = slice_basis @ v
        base = np.linalg.norm(F)
        alpha = 1.0
        for _ in range(25):
            trial = [
                group.project_to_group(y @ group.exp(alpha * step[d * j:d * (j + 1)]))
                for j, y in enumerate(values)
            ]
            try:
                rels, defect = _relators_at(pres, group, trial, cm)
                Ft = residual(rels)
            except ValueError:
                alpha /= 2
                continue
            if np.linalg.norm(Ft) < base:
                break
            alpha /= 2
        else:
            raise ConvergenceError("line search stalled before reaching tolerance")
        values, F = trial, Ft
        if defect < tol:
            return RepPoint(group, values)
    raise ConvergenceError(f"no convergence after {max_iter} iterations")


def sample_cone_directions(pres, rep, c=None, count=200, seed=0, eps=1e-3,
                           rank_tol=1e-8):
    """Harvest variety tangent directions: step along random cocycles, project
    back within the slice transverse to the conjugation orbit, and keep the
    normalized displacement. Returns (directions, span in Z1, span in H1);
    failures are skipped, so len(directions) carries the success count."""
    group = rep.group
    d = group.dim
    data = build_complex(pres, rep, rank_tol)
    Z1 = data.basis_Z1
    if data.rank0:
        _, _, vt = _svd(data.basis_B1.T)
        slice_basis = vt[data.rank0:].T
    else:
        slice_basis = None
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(count):
        u = Z1 @ rng.standard_normal(Z1.shape[1])
        u /= np.linalg.norm(u)
        start_vals = [
            y @ group.exp(eps * u[d * j:d * (j + 1)]) for j, y in enumerate(rep.values)
        ]
        try:
            star = newton_project_to_variety(
                pres, group, RepPoint(group, start_vals), c,
                tol=1e-12, max_iter=80, slice_basis=slice_basis,
            )
        except (ConvergenceError, ValueError):
            continue
        xi = np.concatenate([
            group.log(y.conj().T @ ys) for y, ys in zip(rep.values, star.values)
        ])
        xi = Z1 @ (Z1.T @ xi)
        norm = np.linalg.norm(xi)
        if norm < eps * 1e-6:
            continue
        dirs.append(xi / norm)
    if not dirs:
        return [], 0, 0
    D = np.column_stack(dirs)
    span_z1 = _rank(np.linalg.svd(Z1.T @ D, compute_uv=False), rank_tol)
    span_h1 = _rank(np.linalg.svd(data.basis_H1.T @ D, compute_uv=False), rank_tol)
    return dirs, span_z1, span_h1


def sample_stabilizer(rep, count=8, seed=0):
    """Center elements plus exponentials of random centralizer directions."""
    group = rep.group
    els = [z.copy() for z in group.center_elements]
    Zc = group.centralizer_algebra(rep.values)
    if Zc.shape[1]:
        rng = np.random.default_rng(seed)
        for _ in range(count):
            els.append(group.exp(Zc @ rng.standard_normal(Zc.shape[1])))
    return els


def stabilizer_fixed_subspace(pres, rep, elements, tol=1e-9, rank_tol=1e-8):
    """Dimension of the subspace of H1 fixed by the given stabilizer elements;
    this is the local dimension of the orbit-type stratum."""
    group = rep.group
    for s in elements:
        worst = max(float(np.linalg.norm(s @ y - y @ s)) for y in rep.values)
        if worst > tol:
            raise ValueError(f"element does not stabilize the representation ({worst:.3e})")
    data = build_complex(pres, rep, rank_tol)
    H1 = data.basis_H1
    h1 = H1.shape[1]
    if h1 == 0:
        return 0
    eye_n = np.eye(pres.n)
    rows = []
    for s in elements:
        B = np.kron(eye_n, group.Ad_matrix(s))
        # the componentwise action must preserve cocycles and coboundaries
        if np.linalg.norm(data.D1 @ (B @ data.basis_Z1)) > 1e-7 * (1 + np.linalg.norm(data.D1)):
            raise ValueError("action does not preserve the cocycle space")
        proj = data.basis_B1 @ data.basis_B1.T
        if np.linalg.norm((np.eye(len(proj)) - proj) @ (B @ data.basis_B1)) > 1e-7:
            raise ValueError("action does not preserve the coboundary space")
        rows.append(H1.T @ B @ H1 - np.eye(h1))
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    return h1 - _rank(s, rank_tol)


def classify_orbit_type(rep):
    """Stabilizer dimension and its stratum label (the dimension where the group names none)."""
    k = rep.group.centralizer_algebra(rep.values).shape[1]
    return k, rep.group.stratum_labels.get(k, str(k))


def conjugation_isomorphism_check(pres, rep, x, tol=1e-8):
    """True iff conjugating the representation by x leaves the cohomology dims
    unchanged and Ad(x) intertwines the evaluated operators."""
    group = rep.group
    xi = np.linalg.inv(x)
    crep = RepPoint(group, [x @ y @ xi for y in rep.values])
    a = build_complex(pres, rep)
    b = build_complex(pres, crep)
    if a.h_dims != b.h_dims:
        return False
    Ad = group.Ad_matrix(x)
    Bn = np.kron(np.eye(pres.n), Ad)
    Bm = np.kron(np.eye(pres.m), Ad)
    ok0 = np.linalg.norm(b.D0 - Bn @ a.D0 @ np.linalg.inv(Ad)) <= tol * (1 + np.linalg.norm(a.D0))
    ok1 = np.linalg.norm(b.D1 - Bm @ a.D1 @ np.linalg.inv(Bn)) <= tol * (1 + np.linalg.norm(a.D1))
    return bool(ok0 and ok1)


def enumerate_central_reps(pres, group, c=None, tol=1e-9):
    """All tuples of center elements whose relator values hit the central target."""
    if not group.center_elements:
        raise ValueError("group has no enumerable center list")
    cm = _class_matrix(group, c)
    out = []
    for combo in itertools.product(group.center_elements, repeat=pres.n):
        if _relators_at(pres, group, combo, cm)[1] <= tol:
            out.append(RepPoint(group, [v.copy() for v in combo]))
    return out


def rep_from_name(pres, group, text):
    """Build a representation from a constructor string:
    "central:[+,-,...]", "torus:[angles]", or "random:seed" (Newton-projected)."""
    kind, _, arg = text.partition(":")
    arg = arg.strip()
    if arg.startswith("[") and arg.endswith("]"):
        items = [p.strip() for p in arg[1:-1].split(",")] if arg[1:-1].strip() else []
    else:
        items = [arg]
    if kind == "central":
        if len(items) != pres.n:
            raise ValueError(f"need {pres.n} signs, got {len(items)}")
        eye = group.identity()
        vals = []
        for s in items:
            if s == "+":
                vals.append(eye)
            elif s == "-":
                if not any(np.allclose(z, -eye) for z in group.center_elements):
                    raise ValueError("group center does not contain minus the identity")
                vals.append(-eye)
            else:
                raise ValueError(f"bad sign {s!r}, expected + or -")
        return RepPoint(group, vals)
    if kind == "torus":
        try:
            angles = [float(s) for s in items]
        except ValueError:
            raise ValueError(f"bad angle list {arg!r}") from None
        if len(angles) != pres.n:
            raise ValueError(f"need {pres.n} angles, got {len(angles)}")
        if group.torus is None:
            raise ValueError(f"no torus constructor for group {group.name!r}")
        return RepPoint(group, [group.torus(t) for t in angles])
    if kind == "random":
        try:
            seed = int(arg)
        except ValueError:
            raise ValueError(f"bad seed {arg!r}") from None
        for attempt in range(8):
            rng = np.random.default_rng((seed, attempt))
            start = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
            try:
                return newton_project_to_variety(pres, group, start, tol=1e-10, max_iter=200)
            except (ConvergenceError, ValueError):
                continue
        raise ConvergenceError(f"no solution found from seed {seed}")
    raise ValueError(f"unknown representation constructor {kind!r}")

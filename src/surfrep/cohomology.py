"""Twisted cohomology at a surface-group representation.

The free-group word maps are differentiated through Fox calculus: evaluating
group-ring elements under the adjoint action turns the algebraic 3-term
complex into matrices D0 (conjugation directions) and D1 (relator
linearization). Their SVDs give the cohomology bases, whose column counts are
the cohomology dimensions; the quadratic jet of the relator gives the
obstruction cone, and Gauss-Newton projection onto the solution variety gives
tangent-direction sampling. Gauss-Newton runs over a stack of starts at once,
each sample taking the steps it would take alone.

One walk over a relator's letters gives both its value and every suffix its
Fox terms read, each distinct suffix once (_walk_plan), and D1 takes one
stacked Ad of those suffixes per relator. A presentation keeps its walk plan
under its relators' letters. Gauss-Newton walks each relator once per
line-search trial and builds the next D1 from the accepted trial's walk.

A point's values are one read-only stack, so nothing built from them can go
stale: a RepPoint keeps D0 with its SVD, the last complex build_complex made
of it and its last walk of the relators. Newton leaves its own last walk on
the point it returns, so relator_defect and build_complex there walk nothing.
That is at most one CochainData, one SVD of D0 and one walk, all read-only,
however many presentations or cutoffs are tried.
"""

import dataclasses
import itertools

import numpy as np

from .groups import (GROUP_DEFECT_TOL, RANK_TOL, ConvergenceError, _cut, _cut_error, _dagger,
                     _elements, _frobenius, _lstsq, _norm, _on_group, _rank)
from .words import fox_terms

# Cone samples per stacked Gauss-Newton pass: a pass holds this many copies of
# the point and of D1, so peak memory does not grow with the sample count.
CONE_CHUNK = 64
CONE_EPS = 1e-3  # step along a unit cocycle before a cone sample is projected back
# Center tuples enumerate_central_reps may walk, as one stack of relator
# evaluations: len(center) ** n, four times more per genus for SU(2). 4096 is
# SU(2) at genus 6 (about 0.3 s on a 2-vCPU host); the genus-2 report walks 16.
MAX_CENTRAL_TUPLES = 4096


class RepPoint:
    """A representation of the free group: one group element per generator,
    held as one read-only stack (n, m, m), checked as groups._elements checks.
    It keeps what is built of its values, read-only: D0 with its SVD, the last
    complex under its relator letters and rank_tol, and the last walk of the
    relators (one walk per relator over its plan's starts, as _walks gives)
    under their letters, the walk Newton left or build_complex made."""

    def __init__(self, group, values):
        Y = _elements(group, values, "representation matrix")
        if not len(Y):
            raise ValueError("a representation needs at least one value")
        self._hold(group, Y)

    def _hold(self, group, Y):
        self.group = group
        self.values = Y
        self.n = len(Y)
        self._d0 = None  # (D0, u, s, vt), taken once
        self._complex = None  # ((relator letters, rank_tol), CochainData) of the last build
        self._walks = None  # (relator letters, walks) of the last walk
        return self


def _checked_point(group, Y):
    """A RepPoint of a non-empty read-only stack Y that groups._elements made,
    unchecked (as words._reduced is for words)."""
    return RepPoint.__new__(RepPoint)._hold(group, Y)


class BundleClass:
    """A central target value for the relators (the topological twisting): a
    point of the group (groups._elements) held as a read-only copy."""

    def __init__(self, group, central_element):
        (c,) = _elements(group, [central_element], "central element")
        if np.linalg.norm(group.Ad_matrix(c) - np.eye(group.dim)) > GROUP_DEFECT_TOL:
            raise ValueError("element is not central (adjoint action is nontrivial)")
        self.group = group
        self.central_element = c


@dataclasses.dataclass(frozen=True, eq=False)
class CochainData:
    """Evaluated 3-term complex: operators, ranks, and cohomology bases. Made by
    build_complex, every array read-only and no field rebindable, so a point can
    hand it out again. Equal only to itself: its arrays have no one truth value."""

    D0: np.ndarray
    D1: np.ndarray
    rank0: int
    rank1: int
    h_dims: tuple
    basis_H0: np.ndarray
    basis_Z1: np.ndarray
    basis_B1: np.ndarray
    basis_H1: np.ndarray
    basis_H2: np.ndarray
    rank_tol: float


def _class_matrix(group, c):
    """The relators' central target: the identity for c None, else c's element."""
    if c is None:
        return group.identity()
    if not isinstance(c, BundleClass) or c.group.name != group.name:
        raise ValueError(f"c must be None or a BundleClass of {group.name}")
    return c.central_element


def _check_generators(pres, values):
    if len(values) != pres.n:
        raise ValueError(f"presentation has {pres.n} generators, point has {len(values)} values")


def _suffixes(group, values, letters, starts):
    """The suffix products y_s y_{s+1} ... of a word's letters at the
    representation, one per start (starts non-decreasing), stacked
    (len(starts), ..., m, m), from one walk over the letters left to right.
    Inverse letters are conjugate transposes, taken of all values once per
    walk, and values[j] may be a stack (..., m, m) of samples. Per sample the
    entries are held as one tall block (len(starts) m, m); at letter k the
    entries with start <= k, its top rows, take one product, so each entry is
    the identity times its letters in order: the bits of multiplying it out
    alone, checked for 1x1, 2x2, 3x3, 4x4 and 6x6 matrices on OpenBLAS's
    SkylakeX kernels and for all but 4x4 on its Haswell kernels, where a 4x4
    entry's bits depend on the block's height."""
    values = np.asarray(values)
    inverses = _dagger(values)
    lead, m = values.shape[1:-2], group.matrix_dim
    # letter k's block height, the rows of the entries with start <= k; the
    # letter reads one buffer's top rows and writes their products to the other's
    heights = (np.searchsorted(starts, np.arange(len(letters)), side="right") * m).tolist()
    G = np.tile(group.identity(), lead + (len(starts), 1))
    H = G.copy()
    for (j, e), rows in zip(letters, heights):
        if j > len(values):
            raise ValueError(f"word uses generator x{j} but only {len(values)} values given")
        np.matmul(G[..., :rows, :], (values if e == 1 else inverses)[j - 1], out=H[..., :rows, :])
        G, H = H, G
    L = len(lead)
    return G.reshape(lead + (len(starts), m, m)).transpose(L, *range(L), L + 1, L + 2)


def _value(group, values, letters):
    """Evaluate a word's letters at the representation, left to right."""
    return _suffixes(group, values, letters, [0])[0]


def evaluate_group_ring(e, rep):
    """Sum of coef * Ad(value(w)^-1) over the terms; the right-module convention
    under which D1 matches the finite-difference relator derivative."""
    group = rep.group
    out = np.zeros((group.dim, group.dim))
    for w, c in e.terms.items():
        out += c * group.Ad_matrix(_dagger(_value(group, rep.values, w.letters)))
    return out


def _d0(group, values):
    """D0 at the point: the stacked I - Ad(y_j^-1), the derivative of conjugation."""
    return (np.eye(group.dim) - group.Ad_matrix(_dagger(np.stack(values)))).reshape(-1, group.dim)


def _read_only(*arrays):
    """The arrays, made read-only; views taken afterwards are read-only too."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _letters(pres):
    """The presentation's relators as letters: the key of what is kept of them."""
    return tuple(r.letters for r in pres.relators)


def _walk_plan(pres):
    """How one walk per relator gives both its value and its rows of D1. Per
    relator (starts, skip, cols, signs, rows): starts are the distinct suffix
    starts of its Fox terms (words.fox_terms) and start 0, the relator value,
    first; the terms read walk[skip:] (skip is 1 where no term reads start 0);
    and cols, signs and rows hold the terms in letter order, as generator
    indices, signs and rows of walk[skip:], read-only. Built on first use and
    kept on the presentation under its relators' letters."""
    letters = _letters(pres)
    if pres._plan is None or pres._plan[0] != letters:
        plan = []
        for r in pres.relators:
            j, signs, s = np.array(list(fox_terms(r)), dtype=int).reshape(-1, 3).T
            starts = sorted({0, *s.tolist()})
            skip = int(s.all())
            plan.append((starts, skip, *_read_only(j - 1, signs, np.searchsorted(starts, s) - skip)))
        pres._plan = (letters, plan)
    return pres._plan[1]


def _walks(pres, group, values, plan):
    """Each relator's walk (starts, ..., m, m) over its plan's starts."""
    _check_generators(pres, values)
    return [_suffixes(group, values, r.letters, starts)
            for r, (starts, *_) in zip(pres.relators, plan)]


def _plan_d1(pres, group, plan, walks, lead):
    """D1 (lead + (relators d, n d)) from the relators' walks: block (i, j) is
    dr_i/dx_j evaluated as in evaluate_group_ring. Per relator one stacked Ad
    of the suffixes its terms read, then one unbuffered add (np.add.at), so
    each block sums its terms from zeros in letter order."""
    d = group.dim
    D1 = np.zeros(lead + (pres.m * d, pres.n * d))
    L = len(lead)
    blocks = D1.reshape(lead + (pres.m, d, pres.n, d)).transpose(L, L + 2, *range(L), L + 1, L + 3)
    for i, (walk, (_, skip, cols, signs, rows)) in enumerate(zip(walks, plan)):
        A = group.Ad_matrix(_dagger(walk[skip:]))
        np.add.at(blocks[i], cols, signs.reshape((-1,) + (1,) * (A.ndim - 1)) * A[rows])
    return D1


def _d1(pres, group, values):
    """D1 at the point, or one per sample (..., m d, n d) for stacked values,
    from one walk over each relator's letters."""
    plan = _walk_plan(pres)
    return _plan_d1(pres, group, plan, _walks(pres, group, values, plan), np.shape(values[0])[:-2])


def _point_walks(pres, rep):
    """The point's walk of each relator, read-only: the kept one when the
    relator letters match, else walked once and kept."""
    letters = _letters(pres)
    if rep._walks is None or rep._walks[0] != letters:
        rep._walks = (letters, _read_only(*_walks(pres, rep.group, rep.values, _walk_plan(pres))))
    return rep._walks[1]


def _point_d0(rep):
    """The point's D0 and its SVD (D0, u, s, vt), read-only, taken once and kept."""
    if rep._d0 is None:
        D0 = _d0(rep.group, rep.values)
        rep._d0 = _read_only(D0, *np.linalg.svd(D0))
    return rep._d0


def _point_centralizer(rep):
    """Orthonormal basis (columns) of the centralizer of the point's values in
    the algebra: ker D0, cut at RANK_TOL from the point's kept SVD of D0."""
    _, _, s, vt = _point_d0(rep)
    return vt[_rank(s, RANK_TOL):].T


def build_complex(pres, rep, rank_tol=RANK_TOL):
    """Evaluate the complex at the representation and split off cohomology
    bases, ranks cut at rank_tol (finite and positive). The point keeps the
    result under its relator letters (not the presentation, whose list may
    change) and rank_tol: the same key returns the same CochainData, and
    another builds from the point's kept SVD of D0 and its kept walk (walked
    once and kept where the relator letters differ) and replaces it."""
    if not 0 < rank_tol < np.inf:
        raise ValueError(f"rank_tol must be finite and positive, got {rank_tol}")
    _check_generators(pres, rep.values)
    key = (_letters(pres), rank_tol)
    if rep._complex is not None and rep._complex[0] == key:
        return rep._complex[1]
    D0, u0, s0, vt0 = _point_d0(rep)
    rank0 = _rank(s0, rank_tol)
    basis_H0 = vt0[rank0:].T
    basis_B1 = u0[:, :rank0]

    D1 = _plan_d1(pres, rep.group, _walk_plan(pres), _point_walks(pres, rep), ())
    D1, u1, s1, vt1 = _read_only(D1, *np.linalg.svd(D1))
    rank1 = _rank(s1, rank_tol)
    basis_Z1 = vt1[rank1:].T
    basis_H2 = u1[:, rank1:]

    stacked = np.vstack([D1, basis_B1.T])
    _, ss, vts = _read_only(*np.linalg.svd(stacked))
    basis_H1 = vts[_rank(ss, rank_tol):].T

    h_dims = (basis_H0.shape[1], basis_H1.shape[1], basis_H2.shape[1])
    data = CochainData(D0, D1, rank0, rank1, h_dims, basis_H0, basis_Z1,
                       basis_B1, basis_H1, basis_H2, rank_tol)
    rep._complex = (key, data)
    return data


def _relators(rels, shape, cm):
    """The relator values rels, one (shape) per relator, as one stack
    (relators,) + shape, and per sample their largest Frobenius distance to the
    central target cm (0 where the presentation has no relators)."""
    rels = np.array(rels, dtype=complex).reshape((len(rels),) + shape)
    return rels, _frobenius(rels - cm).max(axis=0, initial=0.0)


def _relators_at(pres, group, values, cm):
    """_relators at the point, or at each sample of stacked values, each
    relator walked from start 0 alone."""
    _check_generators(pres, values)
    return _relators([_value(group, values, r.letters) for r in pres.relators],
                     np.shape(values[0]), cm)


def relator_defect(pres, rep, c=None):
    """Largest Frobenius distance between a relator value and the central
    target; the values are read from the point's kept walk where its relator
    letters match, else each relator is walked from start 0 alone."""
    cm = _class_matrix(rep.group, c)
    _check_generators(pres, rep.values)
    kept = rep._walks
    if kept is not None and kept[0] == _letters(pres):
        return float(_relators([w[0] for w in kept[1]], rep.values.shape[1:], cm)[1])
    return float(_relators_at(pres, rep.group, rep.values, cm)[1])


def _jet_walk(pres, group, Y, U):
    """The relators' second-order terms in algebra coordinates (k, relators d)
    at the values Y (n, m, m) along a stack of directions U (k, n d). A
    relator's 2-jet C0 + t C1 + t^2 C2 is walked as one (k, 3, m, m) stack: per
    letter, one broadcast product of the orders so far with the letter's 2-jet
    B, summed order by order as C0 B0, C0 B1 + C1 B0, C0 B2 + C1 B1 + C2 B0,
    the bits of one direction's walk alone."""
    k, mm = len(U), group.matrix_dim
    X = group.algebra_to_matrix(U.reshape(k, pres.n, group.dim))
    Yi = _dagger(Y)
    # the 2-jets at t = 0 of y_j exp(t u_j) and of its inverse: (k, n, 3, m, m)
    plus, minus = np.empty((2, k, pres.n, 3, mm, mm), dtype=complex)
    plus[:, :, 0], plus[:, :, 1], plus[:, :, 2] = Y, Y @ X, 0.5 * Y @ X @ X
    minus[:, :, 0], minus[:, :, 1], minus[:, :, 2] = Yi, -X @ Yi, 0.5 * X @ X @ Yi
    jets = {1: plus, -1: minus}
    coords = []
    for r in pres.relators:
        C = np.zeros((k, 3, mm, mm), dtype=complex)
        C[:, 0] = group.identity()
        for j, e in r.letters:
            P = C[:, :, None] @ jets[e][:, j - 1, None]  # P[:, a, b] = C_a B_b
            C = P[:, 0]
            C[:, 1:] += P[:, 1, :2]
            C[:, 2] += P[:, 2, 0]
        S = _dagger(C[:, :1]) @ C[:, 1:]
        S1, S2 = S[:, 0], S[:, 1]
        coords.append(group.matrix_to_algebra(S2 - 0.5 * S1 @ S1))
    return np.concatenate(coords, axis=-1)


def obstruction_quadratic(pres, rep, u, data=None):
    """Second-order term of the relator word map along a cocycle direction u
    (n d,), or along each of a stack (k, n d), projected to the complement of
    im D1; coordinates (h2,) or (k, h2) in basis_H2 of data, the point's
    CochainData (when omitted, build_complex's at the default rank cutoff,
    which the point keeps). Where H2 is zero (on the variety h2 = h0, so
    wherever the centralizer is discrete) the result is empty and nothing is
    walked. A stack is walked CONE_CHUNK directions at a time, each direction
    with the bits it gets alone."""
    group = rep.group
    nd = pres.n * group.dim
    u = np.asarray(u, dtype=float)
    if u.ndim not in (1, 2) or u.shape[-1] != nd:
        raise ValueError(f"u must have shape ({nd},) or (k, {nd}), got {u.shape}")
    U = u.reshape(-1, nd)
    size = _norm(U)
    if not np.isfinite(size).all():
        raise ValueError("direction must be finite")
    if data is None:
        data = build_complex(pres, rep)
    lin = np.matmul(data.D1, U[..., None])[..., 0]
    if not (_norm(lin) <= 1e-9 * np.maximum(1.0, size)).all():
        raise ValueError("direction is not a cocycle (D1 u != 0)")
    H2 = data.basis_H2
    q = np.zeros((len(U), H2.shape[1]))
    if H2.shape[1]:
        for first in range(0, len(U), CONE_CHUNK):
            c = _jet_walk(pres, group, rep.values, U[first:first + CONE_CHUNK])
            q[first:first + CONE_CHUNK] = np.matmul(H2.T, c[..., None])[..., 0]
    return q.reshape(u.shape[:-1] + q.shape[-1:])


def _per_sample(x):
    """(relators, ..., k) -> (..., relators * k), relator by relator."""
    x = x.transpose(*range(1, x.ndim - 1), 0, x.ndim - 1)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _residual(group, rels, cmi):
    """The Newton residual, log(r_i c^-1) concatenated over relators, per sample
    (..., m d), and the rotation angles of those logs in the same order
    (..., m k). The residual of a sample means nothing where one is cut."""
    coords, angles = group._log(rels @ cmi)
    return _per_sample(coords), _per_sample(angles)


def _gauss_newton(pres, group, values, cm, tol, max_iter, slice_basis):
    """Gauss-Newton from S starts at once, values (n, S, m, m), stepping within
    the columns of slice_basis (the identity: everywhere); newton_project_to_variety
    is its unsliced one-sample case. Each sample takes the steps and halvings it
    takes alone: its own line search, and its own lstsq's bits from one stacked
    gelsd per iteration (groups._lstsq). Returns (values, errors, moved,
    walks): errors[s] is the exception sample s ends with, None once its
    relator defect is below tol, moved[s] is False where the start was already
    there, and walks are the relators' walks (starts, S, m, m) at the returned
    values, from the last accepted trial."""
    n, S, d = values.shape[0], values.shape[1], group.dim
    cmi = _dagger(cm)
    values = values.copy()
    plan = _walk_plan(pres)
    walks = _walks(pres, group, values, plan)
    rels, defect = _relators([w[0] for w in walks], values.shape[1:], cm)
    F, angles = _residual(group, rels, cmi)
    cut = _cut(angles).any(axis=-1)
    moved = ~(defect < tol)
    errors = [None] * S
    for s in np.flatnonzero(moved & cut):
        errors[s] = _cut_error(angles[s])
    live = np.flatnonzero(moved & ~cut)
    for _ in range(max_iter):
        if not live.size:
            break
        Y = values[:, live]
        D1 = _plan_d1(pres, group, plan, [w[:, live] for w in walks], (len(live),)) @ slice_basis
        step = np.matmul(slice_basis, _lstsq(D1, -F[live])[..., None])[..., 0]
        base = _norm(F[live])
        alpha = np.ones(len(live))
        todo = np.arange(len(live))
        for _ in range(25):
            delta = (alpha[todo, None] * step[todo]).reshape(len(todo), n, d)
            trial = group.project_to_group(Y[:, todo] @ group.exp(delta.swapaxes(0, 1)))
            trial_walks = _walks(pres, group, trial, plan)
            rels, trial_defect = _relators([w[0] for w in trial_walks], trial.shape[1:], cm)
            Ft, angles = _residual(group, rels, cmi)
            better = ~_cut(angles).any(axis=-1) & (_norm(Ft) < base[todo])
            done = live[todo[better]]
            values[:, done], F[done], defect[done] = trial[:, better], Ft[better], trial_defect[better]
            for w, t in zip(walks, trial_walks):
                w[:, done] = t[:, better]
            alpha[todo[~better]] /= 2
            todo = todo[~better]
            if not todo.size:
                break
        for k in todo:
            errors[live[k]] = ConvergenceError("line search stalled before reaching tolerance")
        stepped = np.ones(len(live), dtype=bool)
        stepped[todo] = False
        live = live[stepped & ~(defect[live] < tol)]
    for s in live:
        errors[s] = ConvergenceError(f"no convergence after {max_iter} iterations")
    return values, errors, moved, walks


def newton_project_to_variety(pres, group, start, c=None, tol=1e-9, max_iter=60):
    """Gauss-Newton on the residual log(r_i(y) c^-1), stepping by y_j exp(delta_j).
    The one-sample case of the stacked iteration that sample_cone_directions runs;
    tol must be finite and positive, max_iter an integer at least 1. A new
    point keeps Newton's last walk, the walk at its values."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    values, errors, moved, walks = _gauss_newton(
        pres, group, start.values[:, None], _class_matrix(group, c),
        tol, max_iter, np.eye(pres.n * group.dim))
    if errors[0] is not None:
        raise errors[0]
    if not moved[0]:
        return start
    rep = RepPoint(group, values[:, 0])
    rep._walks = (_letters(pres), _read_only(*(w[:, 0] for w in walks)))
    return rep


def sample_cone_directions(pres, rep, c=None, count=200, seed=0, eps=CONE_EPS, data=None):
    """Harvest variety tangent directions: step along random cocycles, project
    back within the slice transverse to the conjugation orbit (everywhere at a
    central point), and keep the normalized displacement. Returns (directions,
    span in Z1, span in H1); failures are skipped, so len(directions) carries
    the success count. The spans are cut at data.rank_tol; data as in obstruction_quadratic.

    Samples are projected together, CONE_CHUNK at a time, each as
    newton_project_to_variety would project it alone. Peak memory is that of
    one chunk, whatever count is: CONE_CHUNK stacked copies of D1 (relators * d
    by n * d floats each), of the point's n matrices and of each relator's
    distinct suffixes (at most its length plus one matrices). Only the returned
    directions grow with count, by n * d floats each. count must be a positive
    integer and eps finite and positive."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    group = rep.group
    n, d = rep.n, group.dim
    cm = _class_matrix(group, c)
    if data is None:
        data = build_complex(pres, rep)
    Z1 = data.basis_Z1
    _, _, vt = np.linalg.svd(data.basis_B1.T)
    slice_basis = vt[data.rank0:].T
    Y = rep.values[:, None]
    rng = np.random.default_rng(seed)
    dirs = []
    for first in range(0, count, CONE_CHUNK):
        size = min(CONE_CHUNK, count - first)
        U = np.matmul(Z1, rng.standard_normal((size, Z1.shape[1]))[..., None])[..., 0]
        U = U / _norm(U)[:, None]
        starts = Y @ group.exp((eps * U).reshape(size, n, d).swapaxes(0, 1))
        ok = _on_group(group, starts).all(axis=0)
        star, errors, *_ = _gauss_newton(pres, group, starts[:, ok], cm, 1e-12, 80, slice_basis)
        star = star[:, [e is None for e in errors]]
        star = star[:, _on_group(group, star).all(axis=0)]
        # sample-major, so a cut raises for the sample a one-at-a-time loop reaches first
        xi = group.log((_dagger(Y) @ star).swapaxes(0, 1)).reshape(-1, n * d)
        xi = np.matmul(Z1, np.matmul(Z1.T, xi[..., None]))[..., 0]
        norm = _norm(xi)
        keep = ~(norm < eps * 1e-6)
        dirs.extend(xi[keep] / norm[keep, None])
    D = np.reshape(dirs, (-1, n * d)).T
    span_z1 = _rank(np.linalg.svd(Z1.T @ D, compute_uv=False), data.rank_tol)
    span_h1 = _rank(np.linalg.svd(data.basis_H1.T @ D, compute_uv=False), data.rank_tol)
    return dirs, span_z1, span_h1


def sample_stabilizer(rep, count=8, seed=0, data=None):
    """Center elements plus exponentials of random centralizer directions: ker D0,
    read from data.basis_H0 (data as in obstruction_quadratic, but never built
    here) or, without data, cut at RANK_TOL from the point's kept SVD of D0,
    the one build_complex cuts."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 0:
        raise ValueError(f"count must be a non-negative integer, got {count!r}")
    group = rep.group
    els = [z.copy() for z in group.center_elements]
    Zc = _point_centralizer(rep) if data is None else data.basis_H0
    if Zc.shape[1]:
        X = np.random.default_rng(seed).standard_normal((count, Zc.shape[1]))
        els.extend(group.exp(np.matmul(Zc, X[..., None])[..., 0]))
    return els


def stabilizer_fixed_subspace(pres, rep, elements, data=None):
    """Dimension of the subspace of H1 fixed by the given stabilizer elements;
    this is the local dimension of the orbit-type stratum. Ranks are cut at
    data.rank_tol; data as in obstruction_quadratic. The checks scale with it
    too: each element must commute with the values to rank_tol / 10, and its
    action must preserve cocycles (to 10 rank_tol (1 + |D1|)) and coboundaries
    (to 10 rank_tol). Every element must first be a point of the group
    (groups._elements). The elements are taken as one stack, each with the
    bits it gets alone: first every element's commuting check, then each
    element's two action checks in turn, so the first failure raises as a loop
    over the elements would."""
    group = rep.group
    S = _elements(group, elements, "stabilizer element")
    if data is None:
        data = build_complex(pres, rep)
    tol = data.rank_tol
    Y = rep.values
    worst = _frobenius(S[:, None] @ Y - Y @ S[:, None]).max(axis=1)
    bad = np.flatnonzero(worst > tol / 10)
    if bad.size:
        raise ValueError(f"element does not stabilize the representation ({worst[bad[0]]:.3e})")
    H1 = data.basis_H1
    h1 = H1.shape[1]
    B = np.kron(np.eye(pres.n), group.Ad_matrix(S))  # (elements, n d, n d)
    cocycle_tol = 10 * tol * (1 + np.linalg.norm(data.D1))
    proj = data.basis_B1 @ data.basis_B1.T
    off_b1 = np.eye(len(proj)) - proj
    # the componentwise action must preserve cocycles and coboundaries
    cocycle = _frobenius(data.D1 @ (B @ data.basis_Z1))
    coboundary = _frobenius(off_b1 @ (B @ data.basis_B1))
    for z, b in zip(cocycle, coboundary):
        if z > cocycle_tol:
            raise ValueError("action does not preserve the cocycle space")
        if b > 10 * tol:
            raise ValueError("action does not preserve the coboundary space")
    # one row block per element; no elements leave all of H1 fixed
    rows = (H1.T @ B @ H1 - np.eye(h1)).reshape(len(S) * h1, h1)
    s = np.linalg.svd(rows, compute_uv=False)
    return h1 - _rank(s, data.rank_tol)


def _orbit_type(group, k):
    """Centralizer dimension k and its stratum label (k itself where the group names none)."""
    return k, group.stratum_labels.get(k, str(k))


def classify_orbit_type(rep):
    """Stabilizer dimension and its stratum label, from the centralizer (ker D0) of the values."""
    return _orbit_type(rep.group, _point_centralizer(rep).shape[1])


def conjugation_isomorphism_check(pres, rep, x):
    """True iff conjugating the representation by x, a point of the group
    (groups._elements), leaves the cohomology dims unchanged and Ad(x)
    intertwines the evaluated operators."""
    group = rep.group
    (x,) = _elements(group, [x], "conjugating element")
    xi = np.linalg.inv(x)
    crep = RepPoint(group, [x @ y @ xi for y in rep.values])
    a = build_complex(pres, rep)
    b = build_complex(pres, crep)
    if a.h_dims != b.h_dims:
        return False
    Ad = group.Ad_matrix(x)
    Bn = np.kron(np.eye(pres.n), Ad)
    Bm = np.kron(np.eye(pres.m), Ad)
    ok0 = np.linalg.norm(b.D0 - Bn @ a.D0 @ np.linalg.inv(Ad)) <= 1e-8 * (1 + np.linalg.norm(a.D0))
    ok1 = np.linalg.norm(b.D1 - Bm @ a.D1 @ np.linalg.inv(Bn)) <= 1e-8 * (1 + np.linalg.norm(a.D1))
    return bool(ok0 and ok1)


def enumerate_central_reps(pres, group, c=None):
    """All tuples of center elements whose relator values hit the central target;
    at most MAX_CENTRAL_TUPLES of them, walked as one stack of samples. The
    center elements are checked once, as groups._elements checks."""
    k = len(group.center_elements)
    if k ** pres.n > MAX_CENTRAL_TUPLES:
        raise ValueError(
            f"{k} ** {pres.n} center tuples exceed the budget of {MAX_CENTRAL_TUPLES}")
    Z = _elements(group, group.center_elements, "center element")
    combos = Z[np.array(list(itertools.product(range(k), repeat=pres.n)))]
    hit = _relators_at(pres, group, combos.swapaxes(0, 1), _class_matrix(group, c))[1] <= 1e-9
    (hits,) = _read_only(combos[hit])
    return [_checked_point(group, Y) for Y in hits]


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
        if not np.isfinite(angles).all():
            raise ValueError(f"bad angle list {arg!r}")
        if len(angles) != pres.n:
            raise ValueError(f"need {pres.n} angles, got {len(angles)}")
        if group.torus is None:
            raise ValueError(f"no torus constructor for group {group.name!r}")
        return RepPoint(group, [group.torus(t) for t in angles])
    if kind == "random":
        try:
            seed = int(arg)
            if seed < 0:  # numpy's own error would not name the input
                raise ValueError
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

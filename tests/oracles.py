"""Finite-difference oracles for the twisted complex: D1 and D0 at a point
against central differences of the relator and conjugation-orbit maps, and
D1 itself as the library builds it, from one walk plan over the relators."""

import functools

import numpy as np

from surfrep.cohomology import _d0, _dagger, _norm, _plan_d1, _walk_plan, _walks


def _d1(pres, group, values):
    """D1 at the point, or one per sample (..., m d, n d) for stacked values,
    from one walk over each relator's letters."""
    plan = _walk_plan(pres)
    return _plan_d1(pres, group, plan, _walks(pres, group, values, plan), np.shape(values[0])[:-2])


def _relator_values(pres, group, Y):
    """Each relator's value at the point Y (n, m, m), its letters multiplied
    left to right, stacked (relators, m, m): apart from the walk D1 reads."""
    factors = {1: Y, -1: _dagger(Y)}
    rels = [functools.reduce(np.matmul, [factors[e][j - 1] for j, e in r.letters], group.identity())
            for r in pres.relators]
    return np.array(rels, dtype=complex).reshape((len(rels),) + Y.shape[1:])


def finite_diff_check_d1(pres, rep, u, h):
    """Max-norm gap between D1*u and the central-difference relator derivative
    along the curves y_j exp(t u_j); the oracle that pins the evaluation convention."""
    group = rep.group
    d = group.dim
    u = np.asarray(u, dtype=float).reshape(pres.n, d)
    lin = (_d1(pres, group, rep.values) @ u.ravel()).reshape(pres.m, d)
    Y = rep.values
    r0i = _dagger(_relator_values(pres, group, Y))
    plus = _relator_values(pres, group, Y @ group.exp(h * u))
    minus = _relator_values(pres, group, Y @ group.exp(-h * u))
    xi = (group.log(r0i @ plus) - group.log(r0i @ minus)) / (2 * h)
    return float(_norm(xi - lin).max(initial=0.0))


def finite_diff_check_d0(pres, rep, X, h):
    """Same contract for D0 against the conjugation-orbit map x -> x^-1 y x."""
    group = rep.group
    X = np.asarray(X, dtype=float)
    lin = (_d0(group, rep.values) @ X).reshape(rep.n, group.dim)
    Y = rep.values
    ep = group.exp(h * X)
    em = group.exp(-h * X)
    xi = (group.log(_dagger(Y) @ em @ Y @ ep) - group.log(_dagger(Y) @ ep @ Y @ em)) / (2 * h)
    return float(_norm(xi - lin).max())

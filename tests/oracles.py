"""Finite-difference oracles for the twisted complex: D1 and D0 at a point
against central differences of the relator and conjugation-orbit maps."""

import numpy as np

from surfrep.cohomology import _d0, _d1, _dagger, _norm, _relators_at


def finite_diff_check_d1(pres, rep, u, h):
    """Max-norm gap between D1*u and the central-difference relator derivative
    along the curves y_j exp(t u_j); the oracle that pins the evaluation convention."""
    group = rep.group
    d = group.dim
    u = np.asarray(u, dtype=float).reshape(pres.n, d)
    lin = (_d1(pres, group, rep.values) @ u.ravel()).reshape(pres.m, d)
    Y, eye = rep.values, group.identity()
    r0i = _dagger(_relators_at(pres, group, Y, eye)[0])
    plus = _relators_at(pres, group, Y @ group.exp(h * u), eye)[0]
    minus = _relators_at(pres, group, Y @ group.exp(-h * u), eye)[0]
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

"""Ad keeps the bits of the conjugation formula it replaced.

Ad_matrix takes both contractions with the stack axis last and contiguous, so
einsum's inner loop runs over the stack, not over one matrix's axis. It keeps
every product and the order of every sum. These tests hold it, and D1 built
from it, to the formula as it stood before, copied below: the three-operand
einsum of g, the basis and g^H, then matrix_to_algebra, then swapaxes.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg

from surfrep.cohomology import _d1
from surfrep.groups import _dagger, group_from_name
from surfrep.words import surface_presentation

GROUPS = ("SU2", "SO3", "U1", "SU2xU1", "SU2xSU2", "SO3xSU2xU1")

# ---------------------------------------------------------------------------
# The formula as it stood before


def _conjugate_basis_before(group, g):
    conj = np.einsum("...ab,kbc,...cd->...kad", g, group.algebra_basis, _dagger(g))
    traces = np.einsum("kij,...ji->...k", group.algebra_basis, conj)
    return (-group._scales * traces.real).swapaxes(-1, -2)


def _ad_before(name, g):
    """Ad of g as it was built: a product's Ad is block-diagonal, each factor's
    formula on its own block."""
    factors = [group_from_name(part) for part in name.split("x")]
    if len(factors) == 1:
        return _conjugate_basis_before(factors[0], np.asarray(g, dtype=complex))
    c0 = sum(f.dim for f in factors)
    out = np.zeros(np.shape(g)[:-2] + (c0, c0))
    m0 = c0 = 0
    for f in factors:
        ms, cs = slice(m0, m0 + f.matrix_dim), slice(c0, c0 + f.dim)
        out[..., cs, cs] = _conjugate_basis_before(f, g[..., ms, ms])
        m0, c0 = m0 + f.matrix_dim, c0 + f.dim
    return out


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_elements(group, shape, seed):
    rng = np.random.default_rng(seed)
    m = group.matrix_dim
    els = [group.random_element(rng) for _ in range(int(np.prod(shape)))]
    return np.reshape(els, shape + (m, m)).astype(complex)


def _exact_elements(name):
    """Elements with exact entries, where a signed zero of a product shows: the
    centre, torus points, Q8 in SU(2) and rotations by pi about the axes in
    SO(3); a product's are the block-diagonal combinations of its factors'."""
    parts = name.split("x")
    if len(parts) > 1:
        blocks = itertools.product(*(_exact_elements(part) for part in parts))
        return np.array([scipy.linalg.block_diag(*b) for b in blocks], dtype=complex)
    group = group_from_name(name)
    els = list(group.center_elements)
    if name == "SU2":
        sx, sy, sz = (np.array(s, dtype=complex) for s in
                      ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))
        els += [sign * 1j * s for sign in (1, -1) for s in (sx, sy, sz)]  # the rest of Q8
    if name == "SO3":
        els += [np.diag(d).astype(complex) for d in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1))]
    els += [group.torus(t) for t in (0.0, np.pi / 2, np.pi, -np.pi / 3, 2.0)]
    return np.asarray(els, dtype=complex)


# ---------------------------------------------------------------------------
# Bits


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3, 5), (0,)])
def test_ad_keeps_its_bits_on_every_leading_shape(name, shape):
    group = group_from_name(name)
    for seed in range(3):
        g = _random_elements(group, shape, seed)
        assert _same_bits(group.Ad_matrix(g), _ad_before(name, g)), seed


@pytest.mark.parametrize("name", GROUPS)
def test_ad_keeps_its_bits_on_views(name):
    # a conjugate-transpose view and strided slices, none contiguous but a 1x1 transpose
    group = group_from_name(name)
    g = _random_elements(group, (6, 4), seed=11)
    for view in (_dagger(g), g[::2, 1::2], _dagger(g[1::3])):
        assert group.matrix_dim == 1 or not view.flags.c_contiguous
        assert _same_bits(group.Ad_matrix(view), _ad_before(name, view)), view.shape


@pytest.mark.parametrize("name", GROUPS)
def test_ad_keeps_its_bits_on_exact_elements(name):
    # centre elements, torus points, Q8 and rotations by pi about the axes,
    # stacked and one at a time
    group, els = group_from_name(name), _exact_elements(name)
    assert _same_bits(group.Ad_matrix(els), _ad_before(name, els))
    for g in els:
        assert _same_bits(group.Ad_matrix(g), _ad_before(name, g))


@pytest.mark.parametrize("name", GROUPS)
@pytest.mark.parametrize("genus", [2, 3])
def test_d1_keeps_its_bits(name, genus):
    # the same walks, with Ad taken by the formula before: at single points and
    # at a stack of samples
    pres = surface_presentation(genus)
    group = group_from_name(name)
    before = group_from_name(name)
    before._Ad = lambda g: _ad_before(name, g)
    for seed, shape in ((1, ()), (2, ()), (3, (5,))):
        values = _random_elements(group, (pres.n,) + shape, seed)
        assert _same_bits(_d1(pres, group, values), _d1(pres, before, values)), seed

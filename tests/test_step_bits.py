"""Transport's step kernel and a connection's kept products keep the bits of the formulas built alone.

The step kernel takes both commutator products in one matmul,
algebra_to_matrix is the np.dot that np.tensordot makes, and a PathConnection
keeps the product of its own steps at each refinement level over [0, b]. These
tests hold every array to the bits of the formulas they replaced, copied below
as they stood before: the step kernel with its two commutator products, the
twisted integral, and algebra_to_matrix as np.tensordot.
"""

import importlib

import numpy as np
import pytest

from surfrep.groups import ConvergenceError, group_from_name
from surfrep.holonomy import (
    MAX_NODES,
    MAX_SUBSTEPS,
    PathConnection,
    Variation,
    _product,
    _steps,
    _transport,
    _twisted_integral,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
    horizontal_transport,
)

# the module itself: the package exports a function of the same name
holonomy_module = importlib.import_module("surfrep.holonomy")

GROUPS = ("SU2", "SO3", "U1", "SU2xU1", "SO3xSU2xU1")
NODES = (2, 3, MAX_NODES)

# ---------------------------------------------------------------------------
# The formulas as they stood before


def _a2m_tensordot(group, coords):
    return np.tensordot(np.asarray(coords, dtype=float), group.algebra_basis, axes=1)


def _interpolate_alone(conn, values, t):
    nodes = values.shape[-2]
    cell = conn.b / (nodes - 1)
    i = np.clip(np.floor(t / cell).astype(int), 0, nodes - 2)
    frac = ((t - conn.times[i]) / cell)[..., None]
    return values[..., i, :] + frac * (values[..., i + 1, :] - values[..., i, :])


def _grid_alone(conn, t_end, n_sub):
    t0 = conn.times[:-1][conn.times[:-1] < t_end]
    h = (np.minimum(conn.times[1:len(t0) + 1], t_end) - t0) / n_sub
    return h, t0[:, None] + np.arange(n_sub + 1) * h[:, None]


_GAUSS = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])


def _steps_alone(conn, values, t_end, n_sub):
    h, grid = _grid_alone(conn, t_end, n_sub)
    hs = np.repeat(h, n_sub)[:, None, None]
    gauss = grid[:, :-1].ravel() + np.outer(_GAUSS, hs.ravel())
    A = _a2m_tensordot(conn.group, _interpolate_alone(conn, values, gauss))
    A1, A2 = A[..., 0, :, :, :], A[..., 1, :, :, :]
    omega = -0.5 * hs * (A1 + A2) + (np.sqrt(3) / 12) * hs ** 2 * (A2 @ A1 - A1 @ A2)
    lam, V = np.linalg.eigh(1j * omega)
    return (V * np.exp(-1j * lam)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def _twisted_integral_alone(conn, var, n_sub):
    group = conn.group
    _, grid = _grid_alone(conn, conn.b, n_sub)
    ts = np.concatenate([[0.0], grid[:, 1:].ravel()])
    mats = np.concatenate([group.identity()[None], _steps_alone(conn, conn.values, conn.b, n_sub)])
    holonomy_module._prefix(mats[1:])
    theta = _a2m_tensordot(group, _interpolate_alone(conn, var.values, ts))
    twisted = mats.conj().swapaxes(-1, -2) @ theta @ mats
    integrand = group.matrix_to_algebra(twisted)
    cells = len(conn.times) - 1
    w = np.where(np.arange(n_sub + 1) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    idx = n_sub * np.arange(cells)[:, None] + np.arange(n_sub + 1)
    h = (ts[idx[:, -1]] - ts[idx[:, 0]]) / n_sub
    return np.einsum("c,k,ckd->d", h / 3, w, integrand[idx])


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _connection(group, nodes, seed, scale=1.0):
    values = scale * np.random.default_rng(seed).standard_normal((nodes, group.dim))
    return PathConnection(group, 0.3, values)


# ---------------------------------------------------------------------------
# Bits


@pytest.mark.parametrize("name", GROUPS)
def test_algebra_to_matrix_is_the_tensordot(name):
    group = group_from_name(name)
    rng = np.random.default_rng(1)
    for shape in [(group.dim,), (5, group.dim), (2, 3, 4, group.dim), (0, group.dim)]:
        coords = rng.standard_normal(shape)
        assert _same_bits(group.algebra_to_matrix(coords), _a2m_tensordot(group, coords)), shape
    strided = rng.standard_normal((4, 2 * group.dim))[:, ::2]
    assert _same_bits(group.algebra_to_matrix(strided), _a2m_tensordot(group, strided))
    assert _same_bits(group.algebra_to_matrix(list(strided[0])), _a2m_tensordot(group, strided[0]))


@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("name", GROUPS)
def test_steps_keep_their_bits(name, nodes):
    group = group_from_name(name)
    conn = _connection(group, nodes, seed=nodes)
    stack = np.random.default_rng(2).standard_normal((2, nodes, group.dim))
    for n in (1, 2, 3, 8):
        # one connection and a stack, over the whole path
        assert _same_bits(_steps(conn, conn.values, n), _steps_alone(conn, conn.values, conn.b, n))
        assert _same_bits(_steps(conn, stack, n), _steps_alone(conn, stack, conn.b, n))


@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("name", GROUPS)
def test_refined_readings_keep_their_bits(name, nodes):
    # every kept level's steps, product and twisted integral, and the
    # transport at a given n_sub, which keeps nothing, against the formulas
    # built alone
    group = group_from_name(name)
    conn = _connection(group, nodes, seed=10 + nodes)
    var = Variation(conn, np.random.default_rng(3).standard_normal(conn.values.shape))
    H = holonomy(conn)
    holonomy_derivative(conn, var)
    holonomy_derivative_fd(conn, var)
    # the derivative may refine further than the holonomy
    assert conn._levels.keys() >= conn._products.keys()
    for n, steps in conn._levels.items():
        alone = _steps_alone(conn, conn.values, conn.b, n)
        assert _same_bits(steps, alone), n
        assert _same_bits(_twisted_integral(conn, var, n), _twisted_integral_alone(conn, var, n)), n
        if n in conn._products:
            assert _same_bits(conn._products[n], _product(alone)), n
    assert _same_bits(H, conn._products[max(conn._products)])
    for n_sub in (1, 2, 6):
        assert _same_bits(holonomy(conn, n_sub=n_sub),
                          _product(_steps_alone(conn, conn.values, conn.b, n_sub)))


@pytest.mark.parametrize("name", GROUPS)
def test_chunked_passes_keep_the_bits_of_one_pass(name, monkeypatch):
    # with the budget at 16 substeps per cell, a MAX_NODES stack runs one entry per pass
    group = group_from_name(name)
    conn = _connection(group, MAX_NODES, seed=4)
    stack = conn.values + 1e-4 * np.random.default_rng(5).standard_normal((3,) + conn.values.shape)
    monkeypatch.setattr(holonomy_module, "MAX_SUBSTEPS", 16)
    passes = []

    def counted(conn, values, n_sub):
        passes.append(len(values))
        return _steps(conn, values, n_sub)

    monkeypatch.setattr(holonomy_module, "_steps", counted)
    got = _transport(conn, stack, 16)
    assert passes == [1, 1, 1]
    assert _same_bits(got, _product(_steps_alone(conn, stack, conn.b, 16)))


# ---------------------------------------------------------------------------
# What a connection keeps


def test_a_second_holonomy_multiplies_nothing_out(monkeypatch):
    conn = _connection(group_from_name("SU2xU1"), 5, seed=6, scale=4.0)
    calls = []

    def counted(mats):
        calls.append(mats.shape)
        return _product(mats)

    monkeypatch.setattr(holonomy_module, "_product", counted)
    first = holonomy(conn)
    assert len(calls) == len(conn._levels) >= 3
    del calls[:]
    assert _same_bits(holonomy(conn), first)
    assert calls == []


def test_kept_steps_and_products_are_read_only_and_one_per_refinement_level():
    # the call mix of the kept-steps test: transport at a given n_sub keeps
    # nothing; the refinements, which never settle to 1e-14 on this path, keep
    # one of each per level
    values = 40 * np.random.default_rng(0).standard_normal((3, 3))
    conn = PathConnection(group_from_name("SU2"), 1.0, values)
    var = Variation(conn, np.ones((3, 3)))
    stores = (conn._levels, conn._products)
    for n_sub in (1, 2, 3, 8, MAX_SUBSTEPS):
        holonomy(conn, n_sub=n_sub)
    assert not any(stores)
    for call in (lambda: holonomy_derivative_fd(conn, var, tol=1e-14),
                 lambda: holonomy(conn, tol=1e-14),
                 lambda: holonomy_derivative(conn, var, tol=1e-14)):
        with pytest.raises(ConvergenceError):
            call()
    levels = [2 ** k for k in range(1, int(np.log2(MAX_SUBSTEPS)) + 1)]
    for store in stores:
        assert sorted(store) == levels
        for kept in store.values():
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[(0,) * kept.ndim] = kept[(0,) * kept.ndim]


# ---------------------------------------------------------------------------
# Inputs that cannot work, rejected before any step


@pytest.mark.parametrize("n_sub", [2.5, np.float64(4.0), 4.0, True, "4", np.array(4)])
def test_a_non_integer_n_sub_is_rejected(n_sub, monkeypatch):
    conn = _connection(group_from_name("SU2"), 3, seed=7)

    def no_steps(*args):
        raise AssertionError("a transport step was built")

    monkeypatch.setattr(holonomy_module, "_steps", no_steps)
    for call in (lambda: holonomy(conn, n_sub=n_sub),
                 lambda: horizontal_transport(conn, n_sub=n_sub)):
        with pytest.raises(ValueError, match="n_sub"):
            call()


def test_integer_n_sub_of_any_integer_type_is_accepted():
    conn = _connection(group_from_name("SU2"), 3, seed=7)
    expected = holonomy(conn, n_sub=4)
    for n_sub in (np.int64(4), np.uint8(4), np.int32(4)):
        assert _same_bits(holonomy(conn, n_sub=n_sub), expected)


@pytest.mark.parametrize("derivative", [holonomy_derivative, holonomy_derivative_fd])
@pytest.mark.parametrize("conn_group, var_group", [("SU2", "SO3"), ("SU2", "SU2xU1"), ("SO3", "SU2")])
def test_a_variation_of_another_groups_connection_is_rejected(derivative, conn_group, var_group,
                                                               monkeypatch):
    # same length and nodes: an SO3 variation on an SU2 connection used to
    # return a number, an SU2xU1 one numpy's shape errors
    conn = _connection(group_from_name(conn_group), 3, seed=8)
    other = _connection(group_from_name(var_group), 3, seed=9)
    var = Variation(other, np.ones_like(other.values))

    def no_steps(*args):
        raise AssertionError("a transport step was built")

    monkeypatch.setattr(holonomy_module, "_steps", no_steps)
    with pytest.raises(ValueError, match=f"{var_group} connection.*{conn_group}"):
        derivative(conn, var)

import numpy as np
import pytest

from surfrep.cohomology import ConvergenceError
from surfrep.groups import direct_product, so3, su2, u1
from surfrep.holonomy import (
    PathConnection,
    Variation,
    conjugation_invariance_check,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
    horizontal_transport,
)


def random_connection(model, n_nodes=9, b=1.0, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((n_nodes, model.dim))
    return PathConnection(model, b, values)


def test_zero_connection_transports_trivially():
    model = su2()
    conn = PathConnection(model, 1.0, np.zeros((4, 3)))
    assert np.allclose(holonomy(conn), np.eye(2), atol=1e-14)
    assert np.allclose(horizontal_transport(conn, 0.37), np.eye(2), atol=1e-14)


def test_constant_connection_closed_form():
    # a' = -X a with constant X integrates to exp(-X t); each Magnus step
    # exponentiates the constant generator exactly, so already at n_sub=2
    for model in (su2(), so3(), u1(), direct_product(su2(), u1())):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(model.dim)
        for n_nodes in (2, 5):
            conn = PathConnection(model, 1.0, np.tile(x, (n_nodes, 1)))
            assert np.linalg.norm(holonomy(conn) - model.exp(-x)) < 1e-10
            assert np.linalg.norm(holonomy(conn, n_sub=2) - model.exp(-x)) <= 1e-13
            assert np.linalg.norm(horizontal_transport(conn, 0.5) - model.exp(-0.5 * x)) < 1e-10


def test_off_grid_transport_matches_two_node_holonomy():
    # up to t inside the first cell the path is the two-node segment to conn.at(t)
    model = su2()
    conn = random_connection(model, n_nodes=5, seed=15, scale=2.0)
    t = 0.17
    segment = PathConnection(model, t, [conn.values[0], conn.at(t)])
    assert np.linalg.norm(horizontal_transport(conn, t) - holonomy(segment)) < 1e-12
    for n_sub in (2, 16):
        assert np.linalg.norm(
            horizontal_transport(conn, t, n_sub=n_sub) - holonomy(segment, n_sub=n_sub)) < 1e-13


def test_transport_concatenation():
    model = su2()
    conn = random_connection(model, n_nodes=9, seed=2)
    half = PathConnection(model, 0.5, conn.values[:5])
    second = PathConnection(model, 0.5, conn.values[4:])
    whole = holonomy(conn)
    composed = holonomy(second) @ holonomy(half)
    assert np.linalg.norm(whole - composed) < 1e-9


def test_path_reversal_inverts_holonomy():
    model = su2()
    conn = random_connection(model, seed=3)
    reverse = PathConnection(model, conn.b, -conn.values[::-1])
    assert np.linalg.norm(holonomy(reverse) @ holonomy(conn) - np.eye(2)) < 1e-9


def test_transport_stays_on_group():
    for model in (su2(), so3(), direct_product(su2(), u1())):
        conn = random_connection(model, seed=4, scale=2.0)
        assert model.group_defect(holonomy(conn)) < 1e-10


def test_stiff_transport_stays_on_group_without_projection():
    # 5 * 1024 steps multiplied together, none projected back onto the group
    for model in (su2(), so3(), u1(), direct_product(su2(), u1())):
        values = np.random.default_rng(16).standard_normal((5, model.dim))
        values *= 20 / np.sqrt(np.mean(values ** 2))
        conn = PathConnection(model, 1.0, values)
        assert model.group_defect(holonomy(conn, n_sub=1024)) <= 1e-11


def test_derivative_of_zero_variation_is_zero():
    model = su2()
    conn = random_connection(model, seed=5)
    var = Variation(conn, np.zeros_like(conn.values))
    assert np.linalg.norm(holonomy_derivative(conn, var)) < 1e-14


def test_derivative_at_zero_connection_is_plain_integral():
    # with a == e the twist disappears and the derivative is the integral of
    # the piecewise-linear variation, which the trapezoid rule computes exactly
    model = su2()
    conn = PathConnection(model, 2.0, np.zeros((7, 3)))
    rng = np.random.default_rng(6)
    values = rng.standard_normal((7, 3))
    var = Variation(conn, values)
    expected = np.trapezoid(values, conn.times, axis=0)
    assert np.allclose(holonomy_derivative(conn, var), expected, atol=1e-12)


def test_derivative_matches_finite_difference():
    for model in (su2(), so3(), u1(), direct_product(su2(), u1())):
        conn = random_connection(model, seed=7)
        rng = np.random.default_rng(8)
        var = Variation(conn, rng.standard_normal(conn.values.shape))
        exact = holonomy_derivative(conn, var)
        approx = holonomy_derivative_fd(conn, var, s=1e-4)
        assert np.linalg.norm(exact - approx) < 1e-6


def test_derivative_linear_in_variation():
    model = su2()
    conn = random_connection(model, seed=9)
    rng = np.random.default_rng(10)
    v1 = rng.standard_normal(conn.values.shape)
    v2 = rng.standard_normal(conn.values.shape)
    lhs = holonomy_derivative(conn, Variation(conn, 2.0 * v1 - 3.0 * v2))
    rhs = 2.0 * holonomy_derivative(conn, Variation(conn, v1)) - 3.0 * holonomy_derivative(
        conn, Variation(conn, v2)
    )
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_conjugation_invariance():
    model = su2()
    conn = random_connection(model, seed=11)
    assert conjugation_invariance_check(conn, np.eye(2, dtype=complex)) < 1e-12
    assert conjugation_invariance_check(conn, -np.eye(2, dtype=complex)) < 1e-12
    x = model.random_element(np.random.default_rng(12))
    assert conjugation_invariance_check(conn, x) < 1e-9


def test_integrator_order_at_least_3_5():
    model = su2()
    conn = random_connection(model, n_nodes=5, seed=13, scale=1.5)
    reference = holonomy(conn, n_sub=256)
    e4 = np.linalg.norm(holonomy(conn, n_sub=4) - reference)
    e8 = np.linalg.norm(holonomy(conn, n_sub=8) - reference)
    order = np.log2(e4 / e8)
    assert order >= 3.5


def test_variation_shape_must_match():
    model = su2()
    conn = random_connection(model, seed=14)
    with pytest.raises(ValueError):
        Variation(conn, np.zeros((3, 3)))


def test_connection_needs_two_nodes():
    with pytest.raises(ValueError):
        PathConnection(su2(), 1.0, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        PathConnection(su2(), 1.0, np.array([[np.nan, 0, 0], [0, 0, 0]]))


def test_refinement_cap_raises_instead_of_returning_last_iterate():
    # on this stiff path the last two refinements differ by about 3e-10 (2.5e-9
    # for the derivative), and the capped answer lies 1.9e-11 from the
    # 4096-substep one: tol=1e-14 is unmet
    conn = PathConnection(su2(), 1.0, 40 * np.random.default_rng(0).standard_normal((3, 3)))
    var = Variation(conn, np.ones((3, 3)))
    with pytest.raises(ConvergenceError):
        holonomy(conn, tol=1e-14)
    with pytest.raises(ConvergenceError):
        holonomy_derivative(conn, var, tol=1e-14)

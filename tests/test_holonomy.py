import importlib

import numpy as np
import pytest
from scipy.linalg import expm

from surfrep.cohomology import ConvergenceError
from surfrep.groups import _frobenius, direct_product, group_from_name, so3, su2, u1
from surfrep.holonomy import (
    MAX_NODES,
    MAX_SUBSTEPS,
    PathConnection,
    Variation,
    _prefix,
    _product,
    _refine,
    _steps,
    _transport,
    conjugation_invariance_check,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
    horizontal_transport,
)

# the module itself: the package exports a function of the same name
holonomy_module = importlib.import_module("surfrep.holonomy")


def random_connection(model, n_nodes=9, b=1.0, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    values = scale * rng.standard_normal((n_nodes, model.dim))
    return PathConnection(model, b, values)


def test_zero_connection_transports_trivially():
    model = su2()
    conn = PathConnection(model, 1.0, np.zeros((4, 3)))
    assert np.allclose(holonomy(conn), np.eye(2), atol=1e-14)
    assert np.allclose(horizontal_transport(conn), np.eye(2), atol=1e-14)


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
            half = PathConnection(model, 0.5, np.tile(x, (n_nodes, 1)))
            assert np.linalg.norm(holonomy(half) - model.exp(-0.5 * x)) < 1e-10


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


# The gauge identity: gauging A by exp(s xi(t)) varies it by theta = xi' + [A, xi],
# and the derivative of holonomy along theta is Ad(y^-1) xi(b) - xi(0) (Goldman,
# Adv. Math. 54 (1984); Atiyah and Bott, Phil. Trans. R. Soc. A 308 (1983)).
GAUGE_GROUPS = ("SU2", "SO3", "SU2xU1")


def gauge_gap(group, A, xi, dxi, nodes):
    """|holonomy_derivative - (Ad(y^-1) xi(1) - xi(0))| and the size of the
    latter, for the connection and theta sampled at nodes over [0, 1]."""
    t = np.linspace(0.0, 1.0, nodes)
    conn = PathConnection(group, 1.0, [A(s) for s in t])
    var = Variation(conn, [dxi(s) + group.bracket(A(s), xi(s)) for s in t])
    expected = group.Ad_matrix(holonomy(conn).conj().T) @ xi(1.0) - xi(0.0)
    return np.linalg.norm(holonomy_derivative(conn, var) - expected), np.linalg.norm(expected)


@pytest.mark.parametrize("name", GAUGE_GROUPS)
def test_gauge_identity_is_exact_for_constant_connection_and_linear_xi(name):
    # theta is linear in t, so Variation holds it exactly, and transport of a
    # constant connection is exact: only the 1e-10 refinement tolerance is left
    # (measured gaps at most 3.5e-12)
    group = group_from_name(name)
    rng = np.random.default_rng(3)
    a, x0, x1 = (rng.standard_normal(group.dim) for _ in range(3))
    for nodes in (2, 5, 9):
        gap, size = gauge_gap(group, lambda s: a, lambda s: x0 + s * x1, lambda s: x1, nodes)
        assert gap <= 1e-9, nodes
        assert size > 0.1


@pytest.mark.parametrize("name", GAUGE_GROUPS)
def test_gauge_identity_converges_at_order_two_on_a_smooth_path(name):
    # sampling theta at the nodes is the only approximation: linear interpolation
    # is second order, so the gap shrinks 4-fold per halving of the grid (measured
    # orders 1.91-2.00 over 5 to 65 nodes), far above the transport tolerance
    group = group_from_name(name)
    rng = np.random.default_rng(3)
    a0, a1, a2, x0, x1 = (rng.standard_normal(group.dim) for _ in range(5))

    def A(s):
        return a0 + a1 * np.sin(2 * s) + a2 * np.cos(3 * s)

    def xi(s):
        return x0 * np.cos(s) + x1 * np.sin(2 * s)

    def dxi(s):
        return -x0 * np.sin(s) + 2 * x1 * np.cos(2 * s)

    gaps = [gauge_gap(group, A, xi, dxi, nodes)[0] for nodes in (5, 9, 17, 33, 65)]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.25), orders


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


@pytest.mark.parametrize("derivative", [holonomy_derivative, holonomy_derivative_fd])
@pytest.mark.parametrize("b, nodes", [(2.0, 5), (1.0, 3)], ids=["length", "nodes"])
def test_variation_must_live_on_its_connections_grid(derivative, b, nodes):
    # a variation is interpolated on its own connection's grid: made on a
    # path of another length or node count, it would be read at the wrong
    # times (or not at all) by a derivative that transports on conn's grid
    model = su2()
    conn = random_connection(model, n_nodes=5, b=1.0, seed=15)
    other = random_connection(model, n_nodes=nodes, b=b, seed=16)
    var = Variation(other, np.random.default_rng(17).standard_normal(other.values.shape))
    with pytest.raises(ValueError, match="variation grid"):
        derivative(conn, var)


def test_connection_needs_two_nodes():
    with pytest.raises(ValueError):
        PathConnection(su2(), 1.0, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        PathConnection(su2(), 1.0, np.array([[np.nan, 0, 0], [0, 0, 0]]))


def test_connection_rejects_wrong_dimension_and_nonpositive_length():
    with pytest.raises(ValueError, match="group algebra has dim"):
        PathConnection(su2(), 1.0, np.zeros((3, 2)))
    for b in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="path length"):
            PathConnection(su2(), b, np.zeros((3, 3)))


# inputs that cannot work, each with the message it raises before any step is built
UNWORKABLE = {
    "no-substeps": (lambda conn, var: holonomy(conn, n_sub=0), "n_sub"),
    "negative-substeps": (lambda conn, var: horizontal_transport(conn, n_sub=-2), "n_sub"),
    "too-many-substeps": (lambda conn, var: holonomy(conn, n_sub=MAX_SUBSTEPS + 1), "n_sub"),
    "zero-tol": (lambda conn, var: holonomy(conn, tol=0.0), "tol"),
    "nan-tol": (lambda conn, var: holonomy(conn, tol=np.nan), "tol"),
    "negative-tol-derivative": (lambda conn, var: holonomy_derivative(conn, var, tol=-1.0), "tol"),
    "infinite-tol-fd": (lambda conn, var: holonomy_derivative_fd(conn, var, tol=np.inf), "tol"),
    "zero-step": (lambda conn, var: holonomy_derivative_fd(conn, var, s=0.0), "step"),
    "nan-step": (lambda conn, var: holonomy_derivative_fd(conn, var, s=np.nan), "step"),
    # s theta overflows to inf, with no overflow warning before the error
    "overflowing-step": (lambda conn, var: holonomy_derivative_fd(
        conn, Variation(conn, 10 * var.values), s=1e308), "samples must be finite"),
}


@pytest.mark.parametrize("case", UNWORKABLE)
def test_unworkable_inputs_are_rejected_before_any_step(case, monkeypatch):
    conn = random_connection(su2(), seed=14)
    var = Variation(conn, np.ones_like(conn.values))

    def no_steps(*args):
        raise AssertionError("a transport step was built")

    monkeypatch.setattr(holonomy_module, "_steps", no_steps)
    call, match = UNWORKABLE[case]
    with pytest.raises(ValueError, match=match):
        call(conn, var)


def test_a_negative_finite_difference_step_is_accepted():
    conn = random_connection(su2(), seed=14)
    var = Variation(conn, np.ones_like(conn.values))
    assert np.allclose(holonomy_derivative_fd(conn, var, s=-1e-4),
                       holonomy_derivative_fd(conn, var), atol=1e-8)


def test_variation_rejects_non_finite_samples():
    conn = random_connection(su2(), seed=14)
    for bad in (np.nan, np.inf):
        values = np.zeros_like(conn.values)
        values[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            Variation(conn, values)


def test_connection_and_variation_keep_their_own_read_only_copy():
    # a caller's later write used to reach the stored samples, past the
    # finiteness check: holonomy then refined to MAX_SUBSTEPS and raised
    # ConvergenceError instead of the constructor's ValueError
    model = su2()
    A = np.random.default_rng(15).standard_normal((9, model.dim))
    conn = PathConnection(model, 1.0, A)
    theta = np.ones_like(A)
    var = Variation(conn, theta)
    expected = holonomy(conn)
    derivative = holonomy_derivative(conn, var)
    A[0, 0] = np.nan
    theta[:] = np.nan
    assert np.array_equal(holonomy(conn), expected)
    assert np.array_equal(holonomy_derivative(conn, var), derivative)
    for obj in (conn, var):
        with pytest.raises(ValueError, match="read-only"):
            obj.values[0, 0] = 0.0


@pytest.mark.parametrize("t", [0.5, 1])
def test_an_end_time_given_by_position_is_a_type_error(t):
    # transport runs over the whole path, and n_sub and tol are keyword-only:
    # a positional 1 would otherwise be taken as one substep per cell
    conn = random_connection(su2(), seed=3)
    with pytest.raises(TypeError):
        horizontal_transport(conn, t)


def test_holonomy_takes_its_options_by_keyword_only():
    # as horizontal_transport does: a positional 4 used to be read as n_sub
    conn = random_connection(su2(), seed=3)
    with pytest.raises(TypeError):
        holonomy(conn, 4)


def test_connection_rejects_more_than_max_nodes():
    # a refinement level holds (nodes - 1) * MAX_SUBSTEPS step matrices at once
    group = direct_product(so3(), su2(), u1())
    PathConnection(group, 1.0, np.zeros((MAX_NODES, group.dim)))
    with pytest.raises(ValueError, match="at most"):
        PathConnection(group, 1.0, np.zeros((MAX_NODES + 1, group.dim)))


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


def test_stacked_refinement_cap_raises():
    # the stiff path above: a stack with an entry that cannot meet tol raises,
    # after refining every entry to the cap
    conn = PathConnection(su2(), 1.0, 40 * np.random.default_rng(0).standard_normal((3, 3)))
    var = Variation(conn, np.ones((3, 3)))
    with pytest.raises(ConvergenceError):
        holonomy_derivative_fd(conn, var, tol=1e-14)


# ---------------------------------------------------------------------------
# An independent reference: sixth-order Magnus on three Gauss-Legendre points
# (Blanes, Casas, Oteo and Ros, Phys. Rep. 470 (2009), section 4), each step
# exponentiated by scipy's expm. It shares no code with the library's
# fourth-order two-point scheme and its eigh exponential.

_GAUSS3 = 0.5 + np.sqrt(15) / 10 * np.array([-1.0, 0.0, 1.0])


def _comm(X, Y):
    return X @ Y - Y @ X


def magnus6_holonomy(conn, n_sub):
    """a(b) for a' = -A a, a(0) = e, by n_sub sixth-order steps per grid cell."""
    basis = np.stack(conn.group.algebra_basis)
    a = np.eye(basis.shape[1], dtype=complex)
    for t0, t1 in zip(conn.times[:-1], conn.times[1:]):
        h = (t1 - t0) / n_sub
        t = t0 + h * (np.arange(n_sub)[:, None] + _GAUSS3)
        coords = np.stack([np.interp(t, conn.times, col) for col in conn.values.T], axis=-1)
        M1, M2, M3 = np.moveaxis(-np.tensordot(coords, basis, axes=1), 1, 0)
        a1 = h * M2
        a2 = np.sqrt(15) * h / 3 * (M3 - M1)
        a3 = 10 * h / 3 * (M3 - 2 * M2 + M1)
        C1 = _comm(a1, a2)
        C2 = -_comm(a1, 2 * a3 + C1) / 60
        for step in expm(a1 + a3 / 12 + _comm(-20 * a1 - a3 + C1, a2 + C2) / 240):
            a = step @ a
    return a


REFERENCE_GAP = 1e-13


def magnus6_reference(conn):
    """magnus6_holonomy refined until two successive levels agree to REFERENCE_GAP;
    at order 6 the finer level is then off by about that gap / 63."""
    prev, n = magnus6_holonomy(conn, 4), 8
    while n <= 1024:
        cur = magnus6_holonomy(conn, n)
        if np.linalg.norm(cur - prev) < REFERENCE_GAP:
            return cur
        prev, n = cur, 2 * n
    raise AssertionError("the reference did not settle by 1024 substeps per cell")


def reference_path(group, scale, nodes, seed=1):
    values = np.random.default_rng(seed).standard_normal((nodes, group.dim))
    return PathConnection(group, 1.0, scale * values / np.sqrt(np.mean(values ** 2)))


REFERENCE_GROUPS = ("SU2", "SO3", "SU2xU1")
# (RMS amplitude, grid nodes): holonomy refines the smooth paths to 128 substeps
# per cell, the stiff ones to 512
REFERENCE_PATHS = {"smooth": (1.0, 7), "stiff": (8.0, 5)}


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_magnus6_reference_has_order_six(name):
    # the gap between levels n and 2n shrinks 2^6-fold per doubling; at 2 to 16
    # substeps per cell every gap lies between about 1e-7 and 2e-11, far above roundoff
    conn = reference_path(group_from_name(name), *REFERENCE_PATHS["smooth"])
    levels = [magnus6_holonomy(conn, n) for n in (2, 4, 8, 16)]
    gaps = [np.linalg.norm(fine - coarse) for coarse, fine in zip(levels, levels[1:])]
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(np.abs(orders - 6.0) < 0.25), orders


# holonomy stops once two successive fourth-order levels agree to its tol, 1e-10;
# the finer level's own error is then about that gap / (2^4 - 1), so within
# tol, and the reference adds less than REFERENCE_GAP (measured worst: 6.3e-12,
# SO3 stiff)
HOLONOMY_TOL = 1e-10


@pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_holonomy_matches_the_sixth_order_reference(name, path):
    conn = reference_path(group_from_name(name), *REFERENCE_PATHS[path])
    assert np.linalg.norm(holonomy(conn) - magnus6_reference(conn)) <= HOLONOMY_TOL


# ---------------------------------------------------------------------------
# The product tree and the prefix scan


TREE_GROUPS = ("U1", "SU2", "SO3", "SU2xU1", "SO3xSU2xU1")


@pytest.mark.parametrize("name", TREE_GROUPS)
def test_product_tree_is_the_last_prefix_product(name):
    # the tree aligned at E_N brackets E_N ... E_1 as the scan's last entry
    # does, so the two agree bit for bit at every length. Entry n - 1 of a scan
    # reads only the first n steps, so one scan serves every length.
    group = group_from_name(name)
    rng = np.random.default_rng(17)
    conn = PathConnection(group, 1.0, np.zeros((2, group.dim)))
    short = _steps(conn, 3 * rng.standard_normal((2, 3, 2, group.dim)), 70)
    # 4096 distinct steps, tiled to the longest length
    steps = _steps(conn, 3 * rng.standard_normal((1, 2, group.dim)), 4096)
    long = np.tile(steps, (16, 1, 1))
    for mats, lengths in ((short, range(1, 71)), (long, [2 ** p for p in range(17)])):
        scan = _prefix(mats.copy())
        for n in lengths:
            assert np.array_equal(_product(mats[..., :n, :, :]), scan[..., n - 1, :, :]), n


# ---------------------------------------------------------------------------
# Stacked refinement: each entry stops at its own level


def _stiff_and_constant(name):
    group = group_from_name(name)
    stiff = reference_path(group, *REFERENCE_PATHS["stiff"])
    constant = PathConnection(group, stiff.b, np.tile(stiff.values[0], (len(stiff.values), 1)))
    return group, stiff, constant


def _counting_steps(monkeypatch):
    """Record (entries, step count) of every _steps pass."""
    passes = []

    def counted(conn, values, n_sub):
        mats = _steps(conn, values, n_sub)
        passes.append(mats.shape[:-2])
        return mats

    monkeypatch.setattr(holonomy_module, "_steps", counted)
    return passes


def test_stacked_refinement_keeps_each_entry_at_its_own_level(monkeypatch):
    # the constant connection settles at 4 substeps per cell, the RMS-8 path
    # at 512; each equals its own holonomy bit for bit
    group, stiff, constant = _stiff_and_constant("SU2")
    passes = _counting_steps(monkeypatch)
    values = np.stack([constant.values, stiff.values])
    got = _refine(lambda n, live: _transport(stiff, values[live], n), 2, 1e-10, _frobenius)
    cells = len(stiff.values) - 1
    assert passes == [(2, 2 * cells), (2, 4 * cells)] + [
        (1, n * cells) for n in (8, 16, 32, 64, 128, 256, 512)]
    assert np.array_equal(got[0], holonomy(constant))
    assert np.array_equal(got[1], holonomy(stiff))


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_stacked_oracles_equal_separate_holonomies(name):
    # the finite-difference and gauge oracles, rebuilt from one holonomy call
    # per connection
    group, stiff, constant = _stiff_and_constant(name)
    rng = np.random.default_rng(18)
    s = 1e-4
    for conn in (constant, stiff):
        var = Variation(conn, rng.standard_normal(conn.values.shape))
        y = holonomy(conn)
        gp = holonomy(PathConnection(group, conn.b, conn.values - s * var.values))
        gm = holonomy(PathConnection(group, conn.b, conn.values + s * var.values))
        yinv = y.conj().T
        fd = (group.log(yinv @ gp) - group.log(yinv @ gm)) / (2 * s)
        assert np.array_equal(holonomy_derivative_fd(conn, var, s=s), fd)

        x = group.random_element(rng)
        gauged = PathConnection(group, conn.b, conn.values @ group.Ad_matrix(x).T)
        residual = np.linalg.norm(holonomy(gauged) - x @ holonomy(conn) @ np.linalg.inv(x))
        assert conjugation_invariance_check(conn, x) == float(residual)


def test_transport_passes_stay_within_the_step_budget(monkeypatch):
    # a pass holds at most (MAX_NODES - 1) * MAX_SUBSTEPS step matrices: with
    # the cap at 16, the oracle's two varied entries at 65 nodes run two to a
    # pass up to 8 substeps per cell and one at a time at 16, where the stack
    # raises before the connection's own holonomy is refined
    group = group_from_name("SU2")
    conn = reference_path(group, 8.0, MAX_NODES)
    var = Variation(conn, np.ones_like(conn.values))
    values = np.stack([conn.values, conn.values - 1e-4 * var.values, conn.values + 1e-4 * var.values])
    whole = _transport(conn, values, 16)
    monkeypatch.setattr(holonomy_module, "MAX_SUBSTEPS", 16)
    passes = _counting_steps(monkeypatch)
    with pytest.raises(ConvergenceError):
        holonomy_derivative_fd(conn, var, tol=1e-14)
    cells = MAX_NODES - 1
    assert passes == [(2, 2 * cells), (2, 4 * cells), (2, 8 * cells)] + [(1, 16 * cells)] * 2
    assert max(np.prod(shape) for shape in passes) <= cells * 16
    # chunks keep the bits of one pass
    assert np.array_equal(_transport(conn, values, 16), whole)


# ---------------------------------------------------------------------------
# A connection's own steps: built once per refinement level, kept on it


@pytest.mark.parametrize("path", sorted(REFERENCE_PATHS))
@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_kept_steps_give_every_reading_the_bits_of_a_fresh_connection(name, path):
    # in every order, and read twice, each reading equals the same reading of
    # a connection that has kept nothing yet
    group = group_from_name(name)
    base = reference_path(group, *REFERENCE_PATHS[path])
    rng = np.random.default_rng(19)
    theta = rng.standard_normal(base.values.shape)
    x = group.random_element(rng)

    def fresh():
        """H, D, F and the gauge residual of a new connection on base's samples."""
        conn = PathConnection(group, base.b, base.values)
        var = Variation(conn, theta)
        return {
            "H": lambda: holonomy(conn),
            "D": lambda: holonomy_derivative(conn, var),
            "F": lambda: holonomy_derivative_fd(conn, var),
            "G": lambda: conjugation_invariance_check(conn, x),
        }

    expected = {key: read() for key, read in fresh().items()}
    for order in ("HDFG", "DHDF", "FHGD", "GDDH"):
        readings = fresh()
        for key in order:
            assert np.array_equal(readings[key](), expected[key]), (order, key)


def test_kept_steps_are_read_only_and_the_scan_leaves_them_unchanged():
    group = group_from_name("SU2xU1")
    conn = reference_path(group, *REFERENCE_PATHS["smooth"])
    var = Variation(conn, np.random.default_rng(20).standard_normal(conn.values.shape))
    derivative = holonomy_derivative(conn, var)
    assert conn._levels
    for n, steps in conn._levels.items():
        assert np.array_equal(steps, _steps(conn, conn.values, n))
        with pytest.raises(ValueError, match="read-only"):
            steps[0, 0, 0] = 0.0
    # the derivative scans again, in place on a copy of the kept steps
    kept = {n: steps.copy() for n, steps in conn._levels.items()}
    assert np.array_equal(holonomy_derivative(conn, var), derivative)
    assert kept.keys() == conn._levels.keys()
    for n, steps in conn._levels.items():
        assert np.array_equal(steps, kept[n])


def test_a_connection_keeps_at_most_one_step_array_per_refinement_level():
    # transport at a given n_sub keeps nothing; the refinement levels are kept
    # once each, and this path, which never settles to 1e-14, reaches every one
    # of them
    conn = PathConnection(su2(), 1.0, 40 * np.random.default_rng(0).standard_normal((3, 3)))
    var = Variation(conn, np.ones((3, 3)))
    for n_sub in (1, 2, 3, 8, MAX_SUBSTEPS):
        holonomy(conn, n_sub=n_sub)
    with pytest.raises(ValueError, match="n_sub"):
        holonomy(conn, n_sub=2 * MAX_SUBSTEPS)
    assert conn._levels == {}
    with pytest.raises(ConvergenceError):
        holonomy(conn, tol=1e-14)
    with pytest.raises(ConvergenceError):
        holonomy_derivative(conn, var, tol=1e-14)
    levels = int(np.log2(MAX_SUBSTEPS))
    assert sorted(conn._levels) == [2 ** k for k in range(1, levels + 1)]
    for n, steps in conn._levels.items():
        assert steps.shape == (2 * n, 2, 2)  # two grid cells


@pytest.mark.parametrize("x, match", [
    (2 * np.eye(2), "off the group"),
    (np.eye(3), "shape"),
    (np.zeros((2, 2)), "off the group"),
], ids=["twice-identity", "wrong-size", "zero"])
def test_gauge_element_off_the_group_is_rejected_before_any_transport(x, match, monkeypatch):
    conn = random_connection(su2(), seed=11)

    def no_steps(*args):
        raise AssertionError("a transport step was built")

    monkeypatch.setattr(holonomy_module, "_steps", no_steps)
    with pytest.raises(ValueError, match=match):
        conjugation_invariance_check(conn, x)

import numpy as np
import pytest
from scipy.linalg import expm

from surfrep.cohomology import GROUP_DEFECT_TOL
from surfrep.groups import LieGroupModel, _rank, direct_product, group_from_name, so3, su2, u1


def models():
    return [su2(), so3(), u1(), direct_product(su2(), u1()), group_from_name("SO3xSU2xU1")]


# exponential and logarithm

def test_su2_exp_closed_form_example():
    # angle pi/2 about the third axis
    g = su2().exp(np.array([0.0, 0.0, np.pi / 2]))
    expected = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    assert np.allclose(g, expected, atol=1e-14)


def test_su2_exp_matches_independent_quaternion_formula():
    # exp(sum c_k E_k) with E_k = (i/2) sigma_k must equal
    # cos(|c|/2) I + i sin(|c|/2) (c_hat . sigma), written out by hand here
    model = su2()
    rng = np.random.default_rng(1)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    for _ in range(20):
        c = rng.standard_normal(3) * 2
        t = np.linalg.norm(c)
        n = c / t
        oracle = np.cos(t / 2) * np.eye(2) + 1j * np.sin(t / 2) * (
            n[0] * sx + n[1] * sy + n[2] * sz
        )
        assert np.allclose(model.exp(c), oracle, atol=1e-12)


def test_exp_matches_scipy_expm():
    for model in models():
        rng = np.random.default_rng(2)
        for _ in range(10):
            c = rng.standard_normal(model.dim)
            assert np.allclose(model.exp(c), expm(model.algebra_to_matrix(c)), atol=1e-12)


def test_exp_zero_is_identity():
    for model in models():
        assert np.allclose(model.exp(np.zeros(model.dim)), np.eye(model.matrix_dim), atol=1e-15)


def test_log_exp_roundtrip_small_vectors():
    for model in models():
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = rng.standard_normal(model.dim)
            c *= 0.9 / max(1.0, np.linalg.norm(c))
            assert np.allclose(model.log(model.exp(c)), c, atol=1e-10)


def test_exp_log_roundtrip_random_elements():
    for model in models():
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = model.random_element(rng)
            assert np.allclose(model.exp(model.log(g)), g, atol=1e-10)


def test_log_domain_error_at_cut_locus():
    with pytest.raises(ValueError):
        su2().log(-np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        so3().log(np.diag([-1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        u1().log(np.array([[-1.0 + 0j]]))


# algebra structure

def test_basis_orthonormal_under_trace_form():
    for model in models():
        gram = model.matrix_to_algebra(model.algebra_basis).T
        assert np.allclose(gram, np.eye(model.dim), atol=1e-12)


def test_coordinate_roundtrip():
    for model in models():
        rng = np.random.default_rng(5)
        c = rng.standard_normal(model.dim)
        assert np.allclose(model.matrix_to_algebra(model.algebra_to_matrix(c)), c, atol=1e-13)


def test_ad_invariance_of_inner_product():
    for model in models():
        rng = np.random.default_rng(6)
        for _ in range(100):
            g = model.random_element(rng)
            x = rng.standard_normal(model.dim)
            y = rng.standard_normal(model.dim)
            ad = model.Ad_matrix(g)
            assert abs(np.dot(ad @ x, ad @ y) - np.dot(x, y)) < 1e-10


def test_Ad_identity_is_identity_matrix():
    for model in models():
        assert np.allclose(model.Ad_matrix(np.eye(model.matrix_dim)), np.eye(model.dim), atol=1e-14)


def test_Ad_matches_matrix_conjugation():
    for model in models():
        rng = np.random.default_rng(7)
        g = model.random_element(rng)
        x = rng.standard_normal(model.dim)
        lhs = model.Ad_matrix(g) @ x
        rhs = model.matrix_to_algebra(g @ model.algebra_to_matrix(x) @ np.linalg.inv(g))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_Ad_of_exp_equals_expm_of_ad():
    for model in models():
        rng = np.random.default_rng(8)
        x = rng.standard_normal(model.dim)
        assert np.allclose(model.Ad_matrix(model.exp(x)), expm(model.ad_matrix(x)), atol=1e-10)


def test_bracket_antisymmetric_and_jacobi():
    for model in models():
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, y, z = (rng.standard_normal(model.dim) for _ in range(3))
            assert np.allclose(model.bracket(x, y), -model.bracket(y, x), atol=1e-12)
            jac = (
                model.bracket(x, model.bracket(y, z))
                + model.bracket(y, model.bracket(z, x))
                + model.bracket(z, model.bracket(x, y))
            )
            assert np.linalg.norm(jac) < 1e-12


def test_su2_structure_constants_are_minus_cross_product():
    # with E_k = (i/2) sigma_k the bracket is the negative cross product
    model = su2()
    e = np.eye(3)
    assert np.allclose(model.bracket(e[0], e[1]), -e[2], atol=1e-14)
    assert np.allclose(model.bracket(e[1], e[2]), -e[0], atol=1e-14)
    assert np.allclose(model.bracket(e[2], e[0]), -e[1], atol=1e-14)


def test_so3_structure_constants_are_cross_product():
    model = so3()
    e = np.eye(3)
    assert np.allclose(model.bracket(e[0], e[1]), e[2], atol=1e-14)


# random sampling

def test_random_element_deterministic_per_seed():
    for model in models():
        a = model.random_element(np.random.default_rng(42))
        b = model.random_element(np.random.default_rng(42))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["SU2", "SO3", "U1", "SU2xU1"])
def test_random_element_advances_the_callers_generator(name):
    # a Generator is used as given, not reseeded: two calls on one generator
    # are two sequential draws from it
    model = group_from_name(name)
    shared = np.random.default_rng(44)
    first, second = model.random_element(shared), model.random_element(shared)
    fresh = np.random.default_rng(44)
    assert np.array_equal(first, model._random_element(fresh))
    assert np.array_equal(second, model._random_element(fresh))
    assert not np.array_equal(first, second)


def test_random_su2_element_is_unitary_with_unit_det():
    model = su2()
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = model.random_element(rng)
        assert abs(np.linalg.det(g) - 1) < 1e-12
        assert np.allclose(g.conj().T @ g, np.eye(2), atol=1e-12)


def test_mean_adjoint_over_many_samples_is_near_zero():
    # Monte-Carlo oracle: Haar mean of Ad is the projection onto invariants,
    # which is 0 for su(2)
    model = su2()
    rng = np.random.default_rng(12)
    total = np.zeros((3, 3))
    for _ in range(10**4):
        total += model.Ad_matrix(model.random_element(rng))
    assert np.max(np.abs(total / 10**4)) < 5e-2


def test_random_algebra_vector_deterministic():
    model = su2()
    a = model.random_algebra_vector(np.random.default_rng(13))
    b = model.random_algebra_vector(np.random.default_rng(13))
    assert np.array_equal(a, b)
    assert a.shape == (3,)


# products

def test_product_dims_add_and_operations_are_blockwise():
    prod = direct_product(su2(), u1())
    assert prod.name == "SU2xU1"
    assert prod.dim == 4
    assert prod.matrix_dim == 3
    assert prod.algebra_basis.shape == (4, 3, 3)
    c = np.array([0.3, -0.2, 0.5, 1.1])
    g = prod.exp(c)
    assert np.allclose(g[:2, :2], su2().exp(c[:3]), atol=1e-13)
    assert np.allclose(g[2:, 2:], u1().exp(c[3:]), atol=1e-13)
    assert np.allclose(g[:2, 2:], 0)
    ad = prod.Ad_matrix(g)
    assert np.allclose(ad[:3, 3:], 0, atol=1e-14)
    assert np.allclose(ad[3:, 3:], 1, atol=1e-14)
    assert np.allclose(prod.log(g), c, atol=1e-10)


@pytest.mark.parametrize("name", ["SU2xU1", "SO3xSU2xU1", "SU2xSU2", "SO3xSO3"])
def test_product_Ad_is_its_factors_blocks_bit_for_bit(name):
    # each factor's Ad fills its own coordinate block: the same bits as
    # conjugating the whole block-diagonal basis, stacked and one at a time
    prod = group_from_name(name)
    g = prod.exp(np.random.default_rng(21).standard_normal((400, prod.dim)))
    blocks = prod.Ad_matrix(g)
    assert np.array_equal(blocks, prod._conjugate_basis(g))
    assert np.array_equal(blocks, [prod._conjugate_basis(x) for x in g])


@pytest.mark.parametrize("factors", [(), (su2(),)], ids=["none", "one"])
def test_product_needs_two_factors(factors):
    with pytest.raises(ValueError, match="at least two factors"):
        direct_product(*factors)


def test_product_center_is_product_of_centers():
    prod = direct_product(su2(), u1())
    assert len(prod.center_elements) == 4


def test_a_group_without_center_elements_is_rejected():
    # the identity is central in every group, so an empty list is a mistake
    base = u1()
    with pytest.raises(ValueError, match="center_elements"):
        LieGroupModel("U1", base.algebra_basis, [], exp=base._exp, log=base._log,
                      random_element=base._random_element, project=base._project,
                      defect=base._defect)


def test_group_from_name():
    assert group_from_name("SU2").name == "SU2"
    assert group_from_name("SO3").name == "SO3"
    assert group_from_name("U1").name == "U1"
    assert group_from_name("SU2xU1").dim == 4
    with pytest.raises(ValueError):
        group_from_name("E8")


def test_center_elements_act_trivially():
    for model in models():
        for c in model.center_elements:
            assert np.allclose(model.Ad_matrix(c), np.eye(model.dim), atol=1e-10)
    assert len(su2().center_elements) == 2
    assert len(u1().center_elements) == 2


def test_project_to_group_removes_drift():
    for model in models():
        rng = np.random.default_rng(14)
        g = model.random_element(rng)
        noisy = g + 1e-4 * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        if model.name == "SO3":
            noisy = g + 1e-4 * rng.standard_normal(g.shape)
        fixed = model.project_to_group(noisy)
        assert model.group_defect(fixed) < 1e-12
        assert np.linalg.norm(fixed - g) < 1e-3


def test_so3_projection_of_reflections_is_a_rotation():
    # the polar factor of a det -1 matrix is a reflection: projection flips the
    # last singular vector of those entries only, and a stack keeps each entry's bits
    model = so3()
    rng = np.random.default_rng(5)
    M = np.stack([model.random_element(rng).real @ np.diag([1.0, 1.0, (-1.0) ** k])
                  + 1e-3 * rng.standard_normal((3, 3)) for k in range(6)])
    assert (np.sign(np.linalg.det(M)) == [1, -1, 1, -1, 1, -1]).all()
    projected = model.project_to_group(M)
    for P, m in zip(projected, M):
        assert abs(np.linalg.det(P) - 1) < 1e-12
        assert model.group_defect(P) <= GROUP_DEFECT_TOL
        assert np.array_equal(P, model.project_to_group(m))


# rank decisions

def test_rank_is_the_count_of_values_above_the_relative_cutoff():
    # the rule as a formula of its own, over spectra of every length, empty
    # ones included, and leading values of NaN or inf, which keep nothing
    rng = np.random.default_rng(26)
    shapes = [(0,), (1,), (6,), (5, 0), (7, 6), (3, 4, 5)]
    for shape in shapes * 8:
        s = -np.sort(-np.abs(rng.standard_normal(shape))
                     * 10.0 ** rng.integers(-18, 5, size=shape), axis=-1)
        if s.size and rng.random() < 0.5:
            s[..., 0] = rng.choice([np.nan, np.inf], size=shape[:-1])
        for tol in (1e-8, 1e-9, 1e-12, 0.5):
            want = np.sum(s > tol * np.maximum(s[..., :1], 1.0), axis=-1)
            for row, count in zip(s.reshape(want.size, shape[-1]), want.ravel().tolist()):
                got = _rank(row, tol)
                assert got == count and type(got) is int

"""The stacked least-squares solve that both Gauss-Newton loops take once per
iteration: groups._lstsq must give every row of a stack the bits
np.linalg.lstsq gives that row alone, and fail where the loop fails.

The stacks are the ones the loops solve: the momentum models' Jacobians
(reduction._project_starts) and D1 within the cone's slice basis
(cohomology._gauss_newton), plus the shapes LAPACK treats apart.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from surfrep.cohomology import build_complex, rep_from_name
from surfrep.groups import _lstsq, group_from_name
from surfrep.reduction import sample_zero_locus, so2_model, so3_model
from surfrep.words import surface_presentation

from oracles import _d1

MODELS = {"SO2": so2_model(), "SO3": so3_model()}


def one_at_a_time(A, b):
    return [np.linalg.lstsq(a, r, rcond=None)[0] for a, r in zip(A, b)]


def assert_rows_match(A, b):
    x = _lstsq(A, b)
    assert x.shape == (len(A), A.shape[-1])
    assert np.array_equal(x, np.reshape(one_at_a_time(A, b), x.shape))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_momentum_jacobians_solve_as_one_row_at_a_time(name):
    model = MODELS[name]
    rng = np.random.default_rng(3)
    starts = rng.standard_normal((200, model.W_dim))
    zeros = np.array([p.w for p in sample_zero_locus(model, 50, seed=1)])  # the origin first
    for W in (starts, zeros, np.zeros((3, model.W_dim))):
        J = model._jacobian(W)
        assert_rows_match(J, -model._momentum(W))
        assert_rows_match(J, rng.standard_normal(J.shape[:2]))


def _points(group, pres):
    """A central, a torus (where the group has one) and a random: point."""
    names = ["central:[" + ",".join("+" * pres.n) + "]", "random:1"]
    if group.torus is not None:
        names.append("torus:[" + ",".join(str(0.3 + 0.2 * j) for j in range(pres.n)) + "]")
    return [rep_from_name(pres, group, text) for text in names]


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("name", ["SU2", "SO3", "SU2xU1"])
def test_d1_in_the_slice_basis_solves_as_one_row_at_a_time(name, genus):
    group, pres = group_from_name(name), surface_presentation(genus)
    rng = np.random.default_rng(genus)
    for rep in _points(group, pres):
        data = build_complex(pres, rep)
        slice_basis = np.linalg.svd(data.basis_B1.T)[2][data.rank0:].T
        # the point itself (D1 = 0 at a central point) and nearby cone-like starts
        near = rep.values[:, None] @ group.exp(1e-3 * rng.standard_normal((pres.n, 40, group.dim)))
        Y = np.concatenate([rep.values[:, None], near], axis=1)
        D1 = _d1(pres, group, Y) @ slice_basis
        assert_rows_match(D1, rng.standard_normal(D1.shape[:2]))


def test_edge_stacks_solve_as_one_row_at_a_time():
    rng = np.random.default_rng(5)
    low_rank = rng.standard_normal((30, 6, 2)) @ rng.standard_normal((30, 2, 5))
    # a singular value between eps * min(m, n) and eps * max(m, n), where rcond cuts
    U, V = (np.linalg.qr(rng.standard_normal((30, k, k)))[0] for k in (3, 4))
    near_cutoff = U @ np.diag([1.0, 0.5, 3.5 * np.finfo(float).eps]) @ V[:, :3]
    stacks = {
        "rank-deficient": low_rank,
        "near the cutoff": near_cutoff,
        "all-zero": np.zeros((30, 3, 4)),
        "tall": rng.standard_normal((30, 9, 4)),
        "wide": rng.standard_normal((30, 1, 4)),
        "empty": np.zeros((0, 3, 4)),
    }
    for A in stacks.values():
        assert_rows_match(A, rng.standard_normal(A.shape[:2]))
    assert _lstsq(stacks["empty"], np.zeros((0, 3))).shape == (0, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_entry_fails_as_the_loop_does(bad):
    # one entry of A: gelsd fails, and both raise numpy's LinAlgError (a whole
    # row of infinities, on which gelsd does not return, is the next test's)
    rng = np.random.default_rng(7)
    A, b = rng.standard_normal((6, 3, 4)), rng.standard_normal((6, 3))
    A[4, 1, 2] = bad
    message = "SVD did not converge in Linear Least Squares"
    with pytest.raises(np.linalg.LinAlgError, match=message):
        one_at_a_time(A, b)
    with pytest.raises(np.linalg.LinAlgError, match=message):
        _lstsq(A, b)
    # one entry of b: no failure either way, and the row is NaN in both
    A[4, 1, 2], b[4, 1] = 0.0, bad
    x = _lstsq(A, b)
    assert np.isnan(x[4]).all()
    assert np.array_equal(x, one_at_a_time(A, b), equal_nan=True)


@pytest.mark.parametrize("bad", ["inf", "-inf"])
def test_a_row_of_infinities_raises_instead_of_hanging(bad):
    # gelsd spins on such a row, so _lstsq must raise before it: run in a
    # child process, so that a hang fails the test instead of the suite
    script = f"""
import numpy as np
from surfrep.groups import _lstsq
rng = np.random.default_rng(7)
A, b = rng.standard_normal((6, 3, 4)), rng.standard_normal((6, 3))
A[4, 1] = float("{bad}")
try:
    _lstsq(A, b)
except np.linalg.LinAlgError as error:
    print(error)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=30, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "SVD did not converge in Linear Least Squares\n"

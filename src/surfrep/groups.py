"""Numerical models of compact matrix groups: U(1), SU(2), SO(3), and finite direct products.

Each model carries an orthonormal Lie algebra basis for the Ad-invariant inner
product <X,Y> = -scale * Re tr(XY), scale = -1 / Re tr(EE) per basis vector E.
Algebra vectors are plain coordinate arrays in that basis, read off by matrix_to_algebra.

The kernels (exp, log, project, defect, Ad) take stacks: coordinates (..., d)
and matrices (..., m, m), with any number of leading axes. Each entry of a stack
gets the same bits as the entry alone, so a batched caller and a one-at-a-time
caller agree exactly. Ad moves the stack axis last: einsum's inner loop then
runs over the stack, not over one matrix's axis, with the same products and sums.
"""

import itertools

import numpy as np

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_CUT_MARGIN = 1e-6
# default relative cutoff of _rank for the complex (and so for the centralizer, ker D0)
RANK_TOL = 1e-8
# Largest defect of a point of G (_on_group), and BundleClass's bound on |Ad(c) - I|
GROUP_DEFECT_TOL = 1e-10


def _norm(x):
    """Euclidean norm over the last axis; bit-identical to np.linalg.norm of each 1-D slice."""
    return np.sqrt(np.vecdot(x, x))


def _frobenius(M):
    """Frobenius norm over the last two axes; bit-identical to np.linalg.norm of each matrix."""
    # as norm's ravel; the size is explicit so that empty stacks reshape too
    f = np.ascontiguousarray(M).reshape(M.shape[:-2] + (M.shape[-2] * M.shape[-1],))
    return np.sqrt(np.vecdot(f.real, f.real) + np.vecdot(f.imag, f.imag))


def _abs(z):
    """|z| elementwise; bit-identical to abs() of each complex scalar (np.abs is not)."""
    return np.hypot(z.real, z.imag)


def _cut(angles):
    """Where a rotation angle is within _CUT_MARGIN of pi, the cut locus of log."""
    return np.abs(angles) >= np.pi - _CUT_MARGIN


def _cut_error(angles):
    """The error log raises for rotation angles (any shape): it names the first
    angle on the cut locus, in C order. None when no angle is on it."""
    cut = _cut(angles)
    if not cut.any():
        return None
    return ValueError(f"log undefined near the cut locus (angle {angles[cut][0]:.6f})")


def _dagger(g):
    """Conjugate transpose of each matrix in a stack (the inverse on a unitary group)."""
    return g.conj().swapaxes(-1, -2)


class ConvergenceError(RuntimeError):
    pass


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(A, b):
    """Least-squares solutions (k, n) of a stack A (k, m, n), b (k, m), by one call
    of numpy's gelsd gufunc (numpy.linalg._umath_linalg.lstsq): each row gets the
    bits np.linalg.lstsq(A[i], b[i], rcond=None)[0] gives it, and the same error.
    A non-finite entry of A raises that error before gelsd, which does not return
    on a row of infinities; one of b gives its row NaN, as lstsq does."""
    if not np.isfinite(A).all():
        _lstsq_failed(None, None)
    rcond = np.finfo(float).eps * max(A.shape[-2:])
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        x = np.linalg._umath_linalg.lstsq(A, b[..., None], rcond, signature="ddd->ddid")[0]
    return x[..., 0]


def _on_group(group, Y):
    """Mask over the leading axes of Y (..., m, m): True where a matrix is a point
    of G, finite with defect within GROUP_DEFECT_TOL (taken of finite ones only)."""
    ok = np.isfinite(Y).all(axis=(-2, -1))
    ok[ok] = ~(group._defect(Y[ok]) > GROUP_DEFECT_TOL)
    return ok


def _elements(group, elements, what):
    """The elements as one read-only (k, m, m) complex stack, a copy; each must be
    a point of the group. They are checked in order, each for shape and then by
    _on_group, and the first that fails raises a ValueError naming `what`."""
    els = [np.asarray(g, dtype=complex) for g in elements]
    shape = (group.matrix_dim, group.matrix_dim)
    bad = next((i for i, g in enumerate(els) if g.shape != shape), len(els))
    Y = np.asarray(els[:bad], dtype=complex).reshape((bad,) + shape)
    off = Y[~_on_group(group, Y)]
    if len(off):
        raise ValueError(f"{what} lies off the group (defect {group.group_defect(off[0]):.3e})"
                         if np.isfinite(off[0]).all() else f"{what} must be finite")
    if bad < len(els):
        raise ValueError(f"{what} must have shape {shape}, got {els[bad].shape}")
    Y.flags.writeable = False
    return Y


def _rank(s, tol):
    """Numerical rank from descending singular values (or eigenvalue magnitudes):
    the count above tol * max(s[0], 1). The cutoff is relative, floored at the
    O(1) scale of the package's operators so that roundoff-only spectra
    (s[0] ~ 1e-16) count as rank zero. Every rank decision goes through here.
    The spectrum is an array (k,) or a list of floats. The rule is taken in
    Python floats, with np.maximum's bits: a NaN or inf s[0] keeps nothing."""
    if isinstance(s, np.ndarray):
        s = s.tolist()
    if not s:
        return 0
    cut = tol * max(s[0], 1.0)  # max keeps a NaN s[0], as np.maximum does
    return len([value for value in s if value > cut])


class LieGroupModel:
    """A compact matrix group with algebra basis, exp/log, Ad, brackets, and sampling.

    Group elements are square complex matrices. The factory functions su2(),
    so3(), u1(), direct_product() supply the group's kernels (exp, log,
    random_element, project, defect, and Ad where it is not the conjugation of
    the basis), its maximal-torus map t -> element
    (`torus`, None if it has none) and the names of its orbit-type strata by
    centralizer dimension (`stratum_labels`). The log kernel returns the
    coordinates and the rotation angles (..., k), one per factor; an element
    is on the cut locus when any of its angles is.
    """

    def __init__(self, name, basis, center_elements, *, exp, log, random_element,
                 project, defect, Ad=None, torus=None, stratum_labels=None):
        self.name = name
        self.algebra_basis = np.asarray(basis, dtype=complex)  # (d, m, m)
        self.dim, self.matrix_dim = self.algebra_basis.shape[:2]
        self._scales = -1 / np.einsum("kij,kji->k", self.algebra_basis, self.algebra_basis).real
        self.center_elements = [np.asarray(c, dtype=complex) for c in center_elements]
        if not self.center_elements:
            raise ValueError("center_elements is empty; the identity is central in every group")
        self._exp = exp
        self._log = log
        self._random_element = random_element
        self._project = project
        self._defect = defect
        self._Ad = Ad or self._conjugate_basis
        self.torus = torus
        self.stratum_labels = stratum_labels or {}

    def identity(self):
        return np.eye(self.matrix_dim, dtype=complex)

    # coordinates

    def algebra_to_matrix(self, coords):
        # np.tensordot(coords, basis, axes=1) without its Python bookkeeping: the same dot
        coords = np.asarray(coords, dtype=float)
        return np.dot(coords.reshape(-1, coords.shape[-1]), self.algebra_basis.reshape(self.dim, -1)
                      ).reshape(coords.shape[:-1] + self.algebra_basis.shape[1:])

    def matrix_to_algebra(self, M):
        """Coordinates of an algebra matrix, or of each in a stack (..., m, m)."""
        traces = np.einsum("kij,...ji->...k", self.algebra_basis, np.asarray(M, dtype=complex))
        return -self._scales * traces.real

    # exp / log

    def exp(self, coords):
        """Group elements (..., m, m) of algebra coordinates (..., d)."""
        return self._exp(np.asarray(coords, dtype=float))

    def log(self, g):
        """Principal-branch logarithm of g (..., m, m); raises near the cut locus
        (rotation angle >= pi)."""
        coords, angles = self._log(np.asarray(g, dtype=complex))
        error = _cut_error(angles)
        if error is not None:
            raise error
        return coords

    # adjoint structure

    def Ad_matrix(self, g):
        """Matrix of X -> g X g^-1 in algebra coordinates (real, orthogonal), for
        g (..., m, m)."""
        return self._Ad(np.asarray(g, dtype=complex))

    def _conjugate_basis(self, g):
        # the stack S last and contiguous: einsum's inner loop runs over it
        lead, m = g.shape[:-2], self.matrix_dim
        gT = np.ascontiguousarray(g.reshape(-1, m, m).transpose(1, 2, 0))
        gdT = np.ascontiguousarray(gT.conj().transpose(1, 0, 2))
        conj = np.einsum("abS,kbc,cdS->kadS", gT, self.algebra_basis, gdT)
        traces = np.einsum("lij,kjiS->Skl", self.algebra_basis, conj)
        return (-self._scales * traces.real).swapaxes(-1, -2).reshape(lead + (self.dim, self.dim))

    def ad_matrix(self, coords):
        X, B = self.algebra_to_matrix(coords), self.algebra_basis
        return self.matrix_to_algebra(X @ B - B @ X).T

    def bracket(self, x, y):
        X = self.algebra_to_matrix(x)
        Y = self.algebra_to_matrix(y)
        return self.matrix_to_algebra(X @ Y - Y @ X)

    # sampling (Haar per group, deterministic per seed)

    def random_element(self, rng):
        return self._random_element(np.random.default_rng(rng))

    def random_algebra_vector(self, rng):
        return np.random.default_rng(rng).standard_normal(self.dim)

    # group constraint

    def project_to_group(self, M):
        """Nearest group element to M (..., m, m) (polar projection per factor)."""
        return self._project(np.asarray(M, dtype=complex))

    def group_defect(self, g):
        """Unitarity plus per-group constraint residual; ~0 iff g lies on the group."""
        return float(self._defect(np.asarray(g, dtype=complex)))


def _hat(c):
    """Cross-product matrices (..., 3, 3) of vectors (..., 3)."""
    K = np.zeros(c.shape[:-1] + (3, 3))
    K[..., 0, 1], K[..., 0, 2] = -c[..., 2], c[..., 1]
    K[..., 1, 0], K[..., 1, 2] = c[..., 2], -c[..., 0]
    K[..., 2, 0], K[..., 2, 1] = -c[..., 1], c[..., 0]
    return K


def _mat(x):
    """Scalars (...) as (..., 1, 1), to scale a stack of matrices."""
    return np.asarray(x)[..., None, None]


def _unitary_defect(g):
    return _frobenius(_dagger(g) @ g - np.eye(g.shape[-1]))


def su2():
    def exp(coords):
        t = _norm(coords)
        s = 0.5 * np.sinc(t / (2 * np.pi))  # sin(t/2)/t
        c = [_mat(coords[..., k]) for k in range(3)]
        return _mat(np.cos(t / 2)) * np.eye(2) + _mat(1j * s) * (
            c[0] * _SX + c[1] * _SY + c[2] * _SZ
        )

    def log(g):
        a = np.trace(g, axis1=-2, axis2=-1).real / 2
        B = -1j * (g - _mat(a) * np.eye(2))
        b = np.stack([B[..., 0, 1].real, B[..., 1, 0].imag, B[..., 0, 0].real], axis=-1)
        alpha = np.arctan2(_norm(b), a)
        return (2.0 / np.sinc(alpha / np.pi))[..., None] * b, alpha[..., None]

    def random_element(rng):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        return np.array([
            [q[0] + 1j * q[3], q[2] + 1j * q[1]],
            [-q[2] + 1j * q[1], q[0] - 1j * q[3]],
        ])

    def project(M):
        u, _, vh = np.linalg.svd(M)
        U = u @ vh
        det = np.linalg.det(U)
        return U * _mat(det ** (-0.5))

    basis = [0.5j * _SX, 0.5j * _SY, 0.5j * _SZ]
    center = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
    return LieGroupModel(
        "SU2", basis, center, exp=exp, log=log,
        random_element=random_element, project=project,
        defect=lambda g: _unitary_defect(g) + _abs(np.linalg.det(g) - 1),
        torus=lambda t: np.diag([np.exp(1j * t), np.exp(-1j * t)]),
        stratum_labels={0: "Z", 1: "(T)", 3: "G"},
    )


def so3():
    def exp(coords):
        t = _norm(coords)
        K = _hat(coords)
        g = (
            np.eye(3)
            + _mat(np.sinc(t / np.pi)) * K
            # float_power is libm pow, as ** is on a scalar; ** on an array squares
            + _mat(0.5 * np.float_power(np.sinc(t / (2 * np.pi)), 2)) * (K @ K)
        )
        return g.astype(complex)

    def log(g):
        R = g.real
        ct = np.clip((np.trace(R, axis1=-2, axis2=-1) - 1) / 2, -1.0, 1.0)
        theta = np.arccos(ct)
        A = (R - R.swapaxes(-1, -2)) / 2
        axial = np.stack([A[..., 2, 1], A[..., 0, 2], A[..., 1, 0]], axis=-1)
        return axial / np.sinc(theta / np.pi)[..., None], theta[..., None]

    def random_element(rng):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        w, x, y, z = q
        R = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ])
        return R.astype(complex)

    def project(M):
        u, _, vh = np.linalg.svd(M.real)
        u[..., -1] *= np.where(np.linalg.det(u @ vh) < 0, -1.0, 1.0)[..., None]
        return (u @ vh).astype(complex)

    return LieGroupModel(
        "SO3", _hat(np.eye(3)), [np.eye(3, dtype=complex)], exp=exp, log=log,
        random_element=random_element, project=project,
        defect=lambda g: (_unitary_defect(g) + _abs(np.linalg.det(g) - 1)
                          + _frobenius(g.imag)),
        torus=lambda t: exp(np.array([0.0, 0.0, t])),
    )


def u1():
    """U(1) as 1x1 unitary matrices, with {1, -1} recorded as enumerable center."""
    def log(g):
        z = g[..., 0, :1]
        theta = np.arctan2(z.imag, z.real)
        return theta, theta

    center = [np.array([[np.exp(2j * np.pi * k / 2)]]) for k in range(2)]
    return LieGroupModel(
        "U1", [np.array([[1j]])], center,
        exp=lambda coords: np.exp(1j * coords[..., None]), log=log,
        random_element=lambda rng: np.array([[np.exp(1j * rng.uniform(-np.pi, np.pi))]]),
        project=lambda M: M / _abs(M), defect=_unitary_defect,
        torus=lambda t: np.array([[np.exp(1j * t)]]),
    )


def direct_product(*factors):
    """Block-diagonal product: each kernel applies the factors' own, block by
    block. A product has no maximal-torus map."""
    if len(factors) < 2:
        raise ValueError("direct_product needs at least two factors")
    # per factor: (factor, matrix rows, coordinate range)
    blocks = []
    m0, c0 = 0, 0
    for f in factors:
        blocks.append((f, slice(m0, m0 + f.matrix_dim), slice(c0, c0 + f.dim)))
        m0 += f.matrix_dim
        c0 += f.dim

    def assemble(parts):
        """The block-diagonal matrices (..., m, m) with one part per factor."""
        g = np.zeros(np.shape(parts[0])[:-2] + (m0, m0), dtype=complex)
        for (_, ms, _), part in zip(blocks, parts):
            g[..., ms, ms] = part
        return g

    def log(g):
        parts = [f._log(g[..., ms, ms]) for f, ms, _ in blocks]
        return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))

    def Ad(g):
        """Block-diagonal: each factor's Ad on its own coordinates."""
        out = np.zeros(g.shape[:-2] + (c0, c0))
        for f, ms, cs in blocks:
            out[..., cs, cs] = f._Ad(g[..., ms, ms])
        return out

    zeros = [np.zeros((f.matrix_dim, f.matrix_dim)) for f in factors]
    basis = [assemble(zeros[:k] + [E] + zeros[k + 1:])
             for k, f in enumerate(factors) for E in f.algebra_basis]
    centers = [assemble(c) for c in itertools.product(*(f.center_elements for f in factors))]
    return LieGroupModel(
        "x".join(f.name for f in factors), basis, centers,
        exp=lambda coords: assemble([f.exp(coords[..., cs]) for f, _, cs in blocks]),
        log=log, random_element=lambda rng: assemble([f.random_element(rng) for f in factors]),
        project=lambda M: assemble([f.project_to_group(M[..., ms, ms]) for f, ms, _ in blocks]),
        defect=lambda g: sum(f._defect(g[..., ms, ms]) for f, ms, _ in blocks), Ad=Ad,
    )


def group_from_name(name):
    """Resolve a group specification string: "SU2", "SO3", "U1", or an x-joined product."""
    table = {"SU2": su2, "SO3": so3, "U1": u1}
    parts = name.split("x")
    if not all(p in table for p in parts):
        raise ValueError(f"unknown group specification {name!r}")
    if len(parts) == 1:
        return table[parts[0]]()
    return direct_product(*(table[p]() for p in parts))

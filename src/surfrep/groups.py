"""Numerical models of compact matrix groups: U(1), SU(2), SO(3), and finite direct products.

Each model carries an orthonormal Lie algebra basis for the Ad-invariant inner
product <X,Y> = -scale * Re tr(XY). Algebra vectors are plain coordinate arrays
in that basis (the AlgebraVector alias below).
"""

import itertools

import numpy as np

AlgebraVector = np.ndarray

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

_CUT_MARGIN = 1e-6


def _rank(s, tol):
    """Numerical rank from descending singular values (or eigenvalue magnitudes):
    the count above tol * max(s[0], 1). The cutoff is relative, floored at the
    O(1) scale of the package's operators so that roundoff-only spectra
    (s[0] ~ 1e-16) count as rank zero. Every rank decision goes through here."""
    if len(s) == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > tol * max(s[0], 1.0)))


class LieGroupModel:
    """A compact matrix group with algebra basis, exp/log, Ad, brackets, and sampling.

    Group elements are square complex matrices. The factory functions su2(),
    so3(), u1(), direct_product() supply the group's kernels (exp, log,
    random_element, project, defect), its maximal-torus map t -> element
    (`torus`, None if it has none) and the names of its orbit-type strata by
    centralizer dimension (`stratum_labels`).
    """

    def __init__(self, name, basis, scales, center_elements, *, exp, log, random_element,
                 project, defect, torus=None, stratum_labels=None):
        self.name = name
        self.algebra_basis = [np.asarray(b, dtype=complex) for b in basis]
        self.matrix_dim = self.algebra_basis[0].shape[0]
        self.dim = len(self.algebra_basis)
        self._basis_arr = np.stack(self.algebra_basis)
        self._scales = np.asarray(scales, dtype=float)
        self.center_elements = [np.asarray(c, dtype=complex) for c in center_elements]
        self._exp = exp
        self._log = log
        self._random_element = random_element
        self._project = project
        self._defect = defect
        self.torus = torus
        self.stratum_labels = stratum_labels or {}

    def identity(self):
        return np.eye(self.matrix_dim, dtype=complex)

    # coordinates

    def algebra_to_matrix(self, coords):
        return np.tensordot(np.asarray(coords, dtype=float), self._basis_arr, axes=1)

    def matrix_to_algebra(self, M):
        """Coordinates of an algebra matrix, or of each in a stack (..., m, m)."""
        traces = np.einsum("kij,...ji->...k", self._basis_arr, np.asarray(M, dtype=complex))
        return -self._scales * traces.real

    def gram_matrix(self):
        """Trace-form Gram matrix of the basis; identity when the basis is orthonormal."""
        traces = np.einsum("aij,bji->ab", self._basis_arr, self._basis_arr)
        return -self._scales[:, None] * traces.real

    # exp / log

    def exp(self, coords):
        return self._exp(np.asarray(coords, dtype=float))

    def log(self, g):
        """Principal-branch logarithm; raises near the cut locus (rotation angle >= pi)."""
        return self._log(np.asarray(g, dtype=complex))

    # adjoint structure

    def Ad_matrix(self, g):
        """Matrix of X -> g X g^-1 in algebra coordinates (real, orthogonal)."""
        g = np.asarray(g, dtype=complex)
        conj = np.einsum("ab,kbc,cd->kad", g, self._basis_arr, g.conj().T)
        traces = np.einsum("aij,kji->ak", self._basis_arr, conj)
        return -self._scales[:, None] * traces.real

    def ad_matrix(self, coords):
        X = self.algebra_to_matrix(coords)
        cols = [self.matrix_to_algebra(X @ E - E @ X) for E in self.algebra_basis]
        return np.column_stack(cols)

    def bracket(self, x, y):
        X = self.algebra_to_matrix(x)
        Y = self.algebra_to_matrix(y)
        return self.matrix_to_algebra(X @ Y - Y @ X)

    def centralizer_algebra(self, elements, rank_tol=1e-8):
        """Orthonormal basis (columns) of {X : Ad(y) X = X for all y in elements}."""
        elements = list(elements)
        if not elements:
            return np.eye(self.dim)
        rows = np.vstack([self.Ad_matrix(y) - np.eye(self.dim) for y in elements])
        _, s, vt = np.linalg.svd(rows)
        return vt[_rank(s, rank_tol):].T

    # sampling (Haar per group, deterministic per seed)

    def random_element(self, rng):
        return self._random_element(_as_rng(rng))

    def random_algebra_vector(self, rng):
        return _as_rng(rng).standard_normal(self.dim)

    # group constraint

    def project_to_group(self, M):
        """Nearest group element (polar projection per factor)."""
        return self._project(np.asarray(M, dtype=complex))

    def group_defect(self, g):
        """Unitarity plus per-group constraint residual; ~0 iff g lies on the group."""
        return float(self._defect(np.asarray(g, dtype=complex)))


def _hat(c):
    return np.array([
        [0.0, -c[2], c[1]],
        [c[2], 0.0, -c[0]],
        [-c[1], c[0], 0.0],
    ])


def _as_rng(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def _unitary_defect(g):
    return np.linalg.norm(g.conj().T @ g - np.eye(len(g)))


def su2():
    def exp(coords):
        t = np.linalg.norm(coords)
        s = 0.5 * np.sinc(t / (2 * np.pi))  # sin(t/2)/t
        return np.cos(t / 2) * np.eye(2) + 1j * s * (
            coords[0] * _SX + coords[1] * _SY + coords[2] * _SZ
        )

    def log(g):
        a = g.trace().real / 2
        B = -1j * (g - a * np.eye(2))
        b = np.array([B[0, 1].real, B[1, 0].imag, B[0, 0].real])
        alpha = np.arctan2(np.linalg.norm(b), a)
        if alpha >= np.pi - _CUT_MARGIN:
            raise ValueError(f"log undefined near the cut locus (angle {alpha:.6f})")
        return (2.0 / np.sinc(alpha / np.pi)) * b

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
        return U * det ** (-0.5)

    basis = [0.5j * _SX, 0.5j * _SY, 0.5j * _SZ]
    center = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
    return LieGroupModel(
        "SU2", basis, [2.0, 2.0, 2.0], center, exp=exp, log=log,
        random_element=random_element, project=project,
        defect=lambda g: _unitary_defect(g) + abs(np.linalg.det(g) - 1),
        torus=lambda t: np.diag([np.exp(1j * t), np.exp(-1j * t)]),
        stratum_labels={0: "Z", 1: "(T)", 3: "G"},
    )


def so3():
    def exp(coords):
        t = np.linalg.norm(coords)
        K = _hat(coords)
        g = (
            np.eye(3)
            + np.sinc(t / np.pi) * K
            + 0.5 * np.sinc(t / (2 * np.pi)) ** 2 * (K @ K)
        )
        return g.astype(complex)

    def log(g):
        R = g.real
        ct = np.clip((np.trace(R) - 1) / 2, -1.0, 1.0)
        theta = np.arccos(ct)
        if theta >= np.pi - _CUT_MARGIN:
            raise ValueError(f"log undefined near the cut locus (angle {theta:.6f})")
        A = (R - R.T) / 2
        axial = np.array([A[2, 1], A[0, 2], A[1, 0]])
        return axial / np.sinc(theta / np.pi)

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
        R = u @ vh
        if np.linalg.det(R) < 0:
            u[:, -1] *= -1
            R = u @ vh
        return R.astype(complex)

    basis = []
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        basis.append(_hat(e).astype(complex))
    model = LieGroupModel(
        "SO3", basis, [0.5, 0.5, 0.5], [np.eye(3, dtype=complex)], exp=exp, log=log,
        random_element=random_element, project=project,
        defect=lambda g: _unitary_defect(g) + abs(np.linalg.det(g) - 1) + np.linalg.norm(g.imag),
        torus=lambda t: model.exp([0.0, 0.0, t]),
    )
    return model


def u1(center_order=2):
    """U(1) as 1x1 unitary matrices; center_order picks the finite cyclic subgroup
    recorded as enumerable center (0 means none is enumerated)."""
    def log(g):
        z = g[0, 0]
        theta = np.arctan2(z.imag, z.real)
        if abs(theta) >= np.pi - _CUT_MARGIN:
            raise ValueError(f"log undefined near the cut locus (angle {theta:.6f})")
        return np.array([theta])

    center = [
        np.array([[np.exp(2j * np.pi * k / center_order)]]) for k in range(center_order)
    ] if center_order else []
    return LieGroupModel(
        "U1", [np.array([[1j]])], [1.0], center,
        exp=lambda coords: np.array([[np.exp(1j * coords[0])]]), log=log,
        random_element=lambda rng: np.array([[np.exp(1j * rng.uniform(-np.pi, np.pi))]]),
        project=lambda M: np.array([[M[0, 0] / abs(M[0, 0])]]), defect=_unitary_defect,
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
        """The block-diagonal matrix with one part per factor."""
        g = np.zeros((m0, m0), dtype=complex)
        for (_, ms, _), part in zip(blocks, parts):
            g[ms, ms] = part
        return g

    zeros = [np.zeros((f.matrix_dim, f.matrix_dim)) for f in factors]
    basis = [assemble(zeros[:k] + [E] + zeros[k + 1:])
             for k, f in enumerate(factors) for E in f.algebra_basis]
    centers = [assemble(c) for c in itertools.product(*(f.center_elements for f in factors))]
    return LieGroupModel(
        "x".join(f.name for f in factors), basis, np.concatenate([f._scales for f in factors]),
        centers, exp=lambda coords: assemble([f.exp(coords[cs]) for f, _, cs in blocks]),
        log=lambda g: np.concatenate([f.log(g[ms, ms]) for f, ms, _ in blocks]),
        random_element=lambda rng: assemble([f.random_element(rng) for f in factors]),
        project=lambda M: assemble([f.project_to_group(M[ms, ms]) for f, ms, _ in blocks]),
        defect=lambda g: sum(f.group_defect(g[ms, ms]) for f, ms, _ in blocks),
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

"""Numerical models of compact matrix groups: U(1), SU(2), SO(3), and finite direct products.

Each model carries an orthonormal Lie algebra basis for the Ad-invariant inner
product <X,Y> = -scale * Re tr(XY). Algebra vectors are plain coordinate arrays
in that basis (the AlgebraVector alias below).
"""

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

    Group elements are square complex matrices. Construction goes through the
    factory functions su2(), so3(), u1(), direct_product().
    """

    def __init__(self, name, basis, scales, center_elements, kind, factors=None):
        self.name = name
        self.algebra_basis = [np.asarray(b, dtype=complex) for b in basis]
        self.matrix_dim = self.algebra_basis[0].shape[0]
        self.dim = len(self.algebra_basis)
        self._basis_arr = np.stack(self.algebra_basis)
        self._scales = np.asarray(scales, dtype=float)
        self.center_elements = [np.asarray(c, dtype=complex) for c in center_elements]
        self._kind = kind
        self._factors = factors or []
        # factor slices: (matrix rows, coordinate range)
        self._slices = []
        m0, c0 = 0, 0
        for f in self._factors:
            self._slices.append((slice(m0, m0 + f.matrix_dim), slice(c0, c0 + f.dim)))
            m0 += f.matrix_dim
            c0 += f.dim

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
        coords = np.asarray(coords, dtype=float)
        if self._kind == "SU2":
            t = np.linalg.norm(coords)
            s = 0.5 * np.sinc(t / (2 * np.pi))  # sin(t/2)/t
            return np.cos(t / 2) * np.eye(2) + 1j * s * (
                coords[0] * _SX + coords[1] * _SY + coords[2] * _SZ
            )
        if self._kind == "SO3":
            t = np.linalg.norm(coords)
            K = _hat(coords)
            g = (
                np.eye(3)
                + np.sinc(t / np.pi) * K
                + 0.5 * np.sinc(t / (2 * np.pi)) ** 2 * (K @ K)
            )
            return g.astype(complex)
        if self._kind == "U1":
            return np.array([[np.exp(1j * coords[0])]])
        g = np.zeros((self.matrix_dim, self.matrix_dim), dtype=complex)
        for f, (ms, cs) in zip(self._factors, self._slices):
            g[ms, ms] = f.exp(coords[cs])
        return g

    def log(self, g):
        """Principal-branch logarithm; raises near the cut locus (rotation angle >= pi)."""
        g = np.asarray(g, dtype=complex)
        if self._kind == "SU2":
            a = g.trace().real / 2
            B = -1j * (g - a * np.eye(2))
            b = np.array([B[0, 1].real, B[1, 0].imag, B[0, 0].real])
            alpha = np.arctan2(np.linalg.norm(b), a)
            if alpha >= np.pi - _CUT_MARGIN:
                raise ValueError(f"log undefined near the cut locus (angle {alpha:.6f})")
            return (2.0 / np.sinc(alpha / np.pi)) * b
        if self._kind == "SO3":
            R = g.real
            ct = np.clip((np.trace(R) - 1) / 2, -1.0, 1.0)
            theta = np.arccos(ct)
            if theta >= np.pi - _CUT_MARGIN:
                raise ValueError(f"log undefined near the cut locus (angle {theta:.6f})")
            A = (R - R.T) / 2
            axial = np.array([A[2, 1], A[0, 2], A[1, 0]])
            return axial / np.sinc(theta / np.pi)
        if self._kind == "U1":
            z = g[0, 0]
            theta = np.arctan2(z.imag, z.real)
            if abs(theta) >= np.pi - _CUT_MARGIN:
                raise ValueError(f"log undefined near the cut locus (angle {theta:.6f})")
            return np.array([theta])
        out = np.zeros(self.dim)
        for f, (ms, cs) in zip(self._factors, self._slices):
            out[cs] = f.log(g[ms, ms])
        return out

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
        rng = _as_rng(rng)
        if self._kind == "SU2":
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            return np.array([
                [q[0] + 1j * q[3], q[2] + 1j * q[1]],
                [-q[2] + 1j * q[1], q[0] - 1j * q[3]],
            ])
        if self._kind == "SO3":
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            w, x, y, z = q
            R = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ])
            return R.astype(complex)
        if self._kind == "U1":
            return np.array([[np.exp(1j * rng.uniform(-np.pi, np.pi))]])
        g = np.zeros((self.matrix_dim, self.matrix_dim), dtype=complex)
        for f, (ms, _) in zip(self._factors, self._slices):
            g[ms, ms] = f.random_element(rng)
        return g

    def random_algebra_vector(self, rng):
        return _as_rng(rng).standard_normal(self.dim)

    # group constraint

    def project_to_group(self, M):
        """Nearest group element (polar projection per factor)."""
        M = np.asarray(M, dtype=complex)
        if self._kind == "SU2":
            u, _, vh = np.linalg.svd(M)
            U = u @ vh
            det = np.linalg.det(U)
            return U * det ** (-0.5)
        if self._kind == "SO3":
            u, _, vh = np.linalg.svd(M.real)
            R = u @ vh
            if np.linalg.det(R) < 0:
                u[:, -1] *= -1
                R = u @ vh
            return R.astype(complex)
        if self._kind == "U1":
            z = M[0, 0]
            return np.array([[z / abs(z)]])
        g = np.zeros((self.matrix_dim, self.matrix_dim), dtype=complex)
        for f, (ms, _) in zip(self._factors, self._slices):
            g[ms, ms] = f.project_to_group(M[ms, ms])
        return g

    def group_defect(self, g):
        """Unitarity plus per-group constraint residual; ~0 iff g lies on the group."""
        g = np.asarray(g, dtype=complex)
        if self._kind == "product":
            return float(sum(f.group_defect(g[ms, ms]) for f, (ms, _) in zip(self._factors, self._slices)))
        res = np.linalg.norm(g.conj().T @ g - np.eye(self.matrix_dim))
        if self._kind in ("SU2", "SO3"):
            res += abs(np.linalg.det(g) - 1)
        if self._kind == "SO3":
            res += np.linalg.norm(g.imag)
        return float(res)


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


def su2():
    basis = [0.5j * _SX, 0.5j * _SY, 0.5j * _SZ]
    center = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex)]
    return LieGroupModel("SU2", basis, [2.0, 2.0, 2.0], center, "SU2")


def so3():
    basis = []
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        basis.append(_hat(e).astype(complex))
    return LieGroupModel("SO3", basis, [0.5, 0.5, 0.5], [np.eye(3, dtype=complex)], "SO3")


def u1(center_order=2):
    """U(1) as 1x1 unitary matrices; center_order picks the finite cyclic subgroup
    recorded as enumerable center (0 means none is enumerated)."""
    center = [
        np.array([[np.exp(2j * np.pi * k / center_order)]]) for k in range(center_order)
    ] if center_order else []
    return LieGroupModel("U1", [np.array([[1j]])], [1.0], center, "U1")


def direct_product(*factors):
    if len(factors) < 2:
        raise ValueError("direct_product needs at least two factors")
    name = "x".join(f.name for f in factors)
    mdim = sum(f.matrix_dim for f in factors)
    basis, scales = [], []
    m0 = 0
    for f in factors:
        for E, sc in zip(f.algebra_basis, f._scales):
            big = np.zeros((mdim, mdim), dtype=complex)
            big[m0:m0 + f.matrix_dim, m0:m0 + f.matrix_dim] = E
            basis.append(big)
            scales.append(sc)
        m0 += f.matrix_dim
    combos = [[]]
    for f in factors:
        combos = [c + [z] for c in combos for z in f.center_elements]
    centers = []
    for combo in combos:
        big = np.zeros((mdim, mdim), dtype=complex)
        m0 = 0
        for f, z in zip(factors, combo):
            big[m0:m0 + f.matrix_dim, m0:m0 + f.matrix_dim] = z
            m0 += f.matrix_dim
        centers.append(big)
    return LieGroupModel(name, basis, scales, centers, "product", factors=list(factors))


def group_from_name(name):
    """Resolve a group specification string: "SU2", "SO3", "U1", or an x-joined product."""
    table = {"SU2": su2, "SO3": so3, "U1": u1}
    parts = name.split("x")
    if not all(p in table for p in parts):
        raise ValueError(f"unknown group specification {name!r}")
    if len(parts) == 1:
        return table[parts[0]]()
    return direct_product(*(table[p]() for p in parts))

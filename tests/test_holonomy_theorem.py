"""The derivative of holonomy, fed through D1, is the derivative of the relator map.

The source paper identifies the derivative of the holonomy map with a twisted
integration map into group cohomology (Goldman, Invent. Math. 85 (1986);
Huebschmann, arXiv dg-ga/9411008). The package computes the two halves in
separate modules, each pinned by its own oracle: `holonomy_derivative` against
`holonomy_derivative_fd`, and D1 against `finite_diff_check_d1`. This test
composes them, so a convention changed in one module together with that
module's oracle fails here. It multiplies the relator out letter by letter,
sharing no code with D1's suffix walk, and takes its central difference at
one fixed grid, which holds the chain rule to 1e-7 at s = 1e-5, ten times
tighter than test_across_groups.py's test_holonomy_derivative_matches_d1
(1e-6 at s = 1e-4, on refined transports). The other half of the identification, a gauge variation -ad_X A
integrating to -D0 X with that sign, is test_across_groups.py's
test_gauge_direction_integrates_to_coboundary.

Setup: 2g connections A_j on [0, 0.7], 4 nodes each, whose holonomies y_j are
the values of a point of the free group on 2g generators (not in general on
the variety: D1 is the derivative of the relator map at any point). A
variation theta_j moves A_j to A_j - s theta_j, so y_j(s) = y_j exp(s D_j + ...)
with D_j = holonomy_derivative(A_j, theta_j).
"""

import functools

import numpy as np
import pytest

from surfrep import (
    PathConnection,
    Variation,
    group_from_name,
    holonomy,
    holonomy_derivative,
    surface_presentation,
)
from surfrep.cohomology import _d1

B = 0.7
NODES = 4
S = 1e-5  # the central difference's step
# the central difference holds one fixed grid, so both sides share their
# discretization and the quotient differentiates one smooth map; at this
# step per cell the fourth-order error is far below CHAIN_TOL
FD_SUBSTEPS = 256
CHAIN_TOL = 1e-7  # measured worst 3.0e-9 (SU2xU1, genus 2)

# U1 is abelian: D1 of the commutator relator is 0, so the chain rule checks
# that the relator does not move
CASES = [("SU2", 1), ("SU2", 2), ("SO3", 1), ("SO3", 2), ("SU2xU1", 1), ("SU2xU1", 2), ("U1", 2)]


def _relator(pres, values):
    """The relator's value at values (n, m, m), multiplied out letter by letter."""
    (r,) = pres.relators
    return functools.reduce(np.matmul, [values[j - 1] if e == 1 else values[j - 1].conj().T
                                        for j, e in r.letters])


def _connections(group, genus, seed):
    rng = np.random.default_rng(seed)
    return [PathConnection(group, B, rng.standard_normal((NODES, group.dim)))
            for _ in range(2 * genus)]


@pytest.mark.parametrize("name, genus", CASES, ids=[f"{n}-g{g}" for n, g in CASES])
def test_d1_of_the_holonomy_derivative_is_the_relator_derivative(name, genus):
    # D1(y) [D_j]_j = d/ds log(r(y)^-1 r(y(s))) at s = 0
    group = group_from_name(name)
    pres = surface_presentation(genus)
    conns = _connections(group, genus, seed=genus)
    thetas = np.random.default_rng(10 + genus).standard_normal((len(conns), NODES, group.dim))
    y = np.stack([holonomy(conn) for conn in conns])
    D = np.stack([holonomy_derivative(conn, Variation(conn, theta))
                  for conn, theta in zip(conns, thetas)])
    lin = _d1(pres, group, y) @ D.ravel()

    def moved(s):
        return np.stack([holonomy(PathConnection(group, B, conn.values - s * theta), n_sub=FD_SUBSTEPS)
                         for conn, theta in zip(conns, thetas)])

    r0i = _relator(pres, y).conj().T
    plus, minus = (group.log(r0i @ _relator(pres, moved(s))) for s in (S, -S))
    fd = (plus - minus) / (2 * S)
    assert np.abs(lin - fd).max() <= CHAIN_TOL

"""Acceptance suite: one test per published criterion, one line per verdict.

Each test prints ``criterion NN <name>: PASS`` when its assertions hold, so a
verbose run reads as a checklist.  Tolerances and sample counts are stated
inline; timing bounds are asserted with generous margins so failures mean a
real regression, not scheduler noise.
"""

import shutil
import subprocess
import sys
import time

import numpy as np

from surfrep.cohomology import (
    RepPoint,
    build_complex,
    enumerate_central_reps,
    obstruction_quadratic,
    rep_from_name,
    relator_defect,
    sample_cone_directions,
    sample_stabilizer,
    stabilizer_fixed_subspace,
)
from surfrep.groups import su2
from surfrep.holonomy import (
    PathConnection,
    Variation,
    conjugation_invariance_check,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
)
from surfrep.reduction import (
    check_relations,
    hilbert_map,
    momentum_so3,
    sample_zero_locus,
    so2_cone_model_report,
    so2_model,
    so3_model,
    spanning_configurations,
    zariski_dim_at_origin,
)
from surfrep.reports import irreducible_rep, measure_obstruction_constant
from surfrep.words import Word, reduce, surface_presentation, verify_fox_identity

from oracles import finite_diff_check_d0, finite_diff_check_d1


def _report(number, name):
    print(f"criterion {number:02d} {name}: PASS")


def test_criterion_01_fox_identity_suite():
    """1000 random words on up to 4 generators, length up to 20, exact."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        length = int(rng.integers(0, 21))
        letters = [
            (int(rng.integers(1, 5)), int(rng.choice((-1, 1))))
            for _ in range(length)
        ]
        word = reduce(letters)
        assert verify_fox_identity(word), word
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"fox suite took {elapsed:.2f}s"
    _report(1, "fox identity suite (1000 words, exact)")


def test_criterion_02_finite_difference_oracles():
    """Both evaluated operators match their curve derivatives, second order."""
    started = time.perf_counter()
    group = su2()
    rng = np.random.default_rng(2024)
    for i in range(50):
        genus = 1 + i % 3
        pres = surface_presentation(genus)
        rep = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
        u = rng.standard_normal(pres.n * group.dim)
        X = rng.standard_normal(group.dim)
        assert finite_diff_check_d1(pres, rep, u, 1e-4) < 1e-6
        assert finite_diff_check_d0(pres, rep, X, 1e-4) < 1e-6
        for check, arg in ((finite_diff_check_d1, u), (finite_diff_check_d0, X)):
            ratio = check(pres, rep, arg, 2e-3) / check(pres, rep, arg, 1e-3)
            assert 3.0 <= ratio <= 6.0, ratio
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"finite-difference suite took {elapsed:.2f}s"
    _report(2, "finite differences vs operators, O(h^2), 50 reps")


def _on_variety_test_reps():
    group = su2()
    reps = []
    pres2 = surface_presentation(2)
    for rep in enumerate_central_reps(pres2, group):
        reps.append((2, pres2, rep))
    rng = np.random.default_rng(7)
    for _ in range(8):
        angles = rng.uniform(0.2, 1.3, size=4) * rng.choice((-1, 1), size=4)
        text = "torus:[" + ",".join(f"{t:.6f}" for t in angles) + "]"
        reps.append((2, pres2, rep_from_name(pres2, group, text)))
    reps.append((2, pres2, irreducible_rep(group)))
    for seed in (5, 6):
        reps.append((2, pres2, rep_from_name(pres2, group, f"random:{seed}")))
    x = group.random_element(rng)
    torus = rep_from_name(pres2, group, "torus:[0.7,1.1,-0.5,0.3]")
    conjugated = RepPoint(group, [x @ y @ x.conj().T for y in torus.values])
    reps.append((2, pres2, conjugated))
    pres1 = surface_presentation(1)
    reps.append((1, pres1, rep_from_name(pres1, group, "central:[+,-]")))
    reps.append((1, pres1, rep_from_name(pres1, group, "torus:[0.9,-0.4]")))
    pres3 = surface_presentation(3)
    reps.append((3, pres3, rep_from_name(pres3, group, "central:[+,+,-,-,+,-]")))
    reps.append((3, pres3, rep_from_name(pres3, group,
                                         "torus:[0.5,1.2,-0.8,0.3,0.6,-1.1]")))
    return reps


def test_criterion_03_duality_and_euler_on_variety():
    """h0 = h2 and h1 = 2 h0 + (2 genus - 2) dim g at every on-variety rep."""
    group = su2()
    count = 0
    for genus, pres, rep in _on_variety_test_reps():
        assert relator_defect(pres, rep) <= 1e-9
        h0, h1, h2 = build_complex(pres, rep, rank_tol=1e-8).h_dims
        assert h0 == h2, (genus, (h0, h1, h2))
        assert h1 == 2 * h0 + (2 * genus - 2) * group.dim, (genus, (h0, h1, h2))
        count += 1
    assert count >= 28
    _report(3, f"duality and euler identities at {count} on-variety reps")


def test_criterion_04_worked_example_reproduction():
    """Central count 16; per-stratum cohomology and fixed-subspace dims."""
    started = time.perf_counter()
    group = su2()
    pres = surface_presentation(2)
    central = enumerate_central_reps(pres, group)
    assert len(central) == 16
    cases = [
        (rep_from_name(pres, group, "central:[+,+,+,+]"), (3, 12, 3), 0),
        (rep_from_name(pres, group, "torus:[0.7,1.1,-0.5,0.3]"), (1, 8, 1), 4),
        (irreducible_rep(group), (0, 6, 0), 6),
    ]
    for rep, h_expected, fixed_expected in cases:
        data = build_complex(pres, rep, rank_tol=1e-8)
        assert data.h_dims == h_expected, data.h_dims
        elements = sample_stabilizer(rep, count=8, seed=0)
        fixed = stabilizer_fixed_subspace(pres, rep, elements)
        assert fixed == fixed_expected, (data.h_dims, fixed)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"worked example took {elapsed:.2f}s"
    _report(4, "16 central points, h dims and fixed dims per stratum")


def test_criterion_05_zariski_dimensions():
    """Model tangent dims 3 and 10, middle stratum 4 + 3 = 7, spanning set."""
    started = time.perf_counter()
    so2 = so2_model()
    assert zariski_dim_at_origin(so2, sample_zero_locus(so2, 100, seed=11)) == 3
    so3 = so3_model()
    points = sample_zero_locus(so3, 500, seed=12)
    assert zariski_dim_at_origin(so3, points) == 10
    assert so2_cone_model_report(count=100, seed=13)["total_dim"] == 7
    configs = spanning_configurations()
    assert len(configs) == 10
    images = []
    for w in configs:
        assert np.linalg.norm(momentum_so3(w[0:3], w[6:9], w[3:6], w[9:12])) == 0.0
        images.append(hilbert_map(so3, w).ravel())
    s = np.linalg.svd(np.array(images), compute_uv=False)
    assert int(np.sum(s > 1e-8 * s[0])) == 10
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"zariski suite took {elapsed:.2f}s"
    _report(5, "zariski dims 3 / 10 / 7 and rank-10 spanning images")


def test_criterion_06_relation_suite_500_samples():
    """Every residual of the full relation suite below 1e-9 at 500 samples."""
    model = so3_model()
    worst = 0.0
    points = sample_zero_locus(model, 500, seed=14)
    assert len(points) == 500
    for point in points:
        report = check_relations(model, point)
        assert set(report) == {"det", "psi", "couple_max", "minor_max", "psd", "rank"}
        worst = max(worst, max(report.values()))
    assert worst < 1e-9, worst
    _report(6, f"relation suite over 500 samples, max residual {worst:.2e}")


def test_criterion_07_cone_spans():
    """Harvested cone directions span H1 and Z1 at all three strata."""
    group = su2()
    pres = surface_presentation(2)
    cases = [
        (rep_from_name(pres, group, "central:[+,+,+,+]"), 12, 12),
        (rep_from_name(pres, group, "torus:[0.7,1.1,-0.5,0.3]"), 8, 10),
        (irreducible_rep(group), 6, 9),
    ]
    for rep, h1_expected, z1_expected in cases:
        data = build_complex(pres, rep, rank_tol=1e-8)
        assert data.h_dims[1] == h1_expected
        assert data.basis_Z1.shape[1] == z1_expected
        directions, span_z1, span_h1 = sample_cone_directions(
            pres, rep, count=300, seed=15)
        assert span_h1 == h1_expected, (span_h1, h1_expected)
        assert span_z1 == z1_expected, (span_z1, z1_expected)
        assert len(directions) >= 0.95 * 300, len(directions)
    _report(7, "cone spans (6, 8, 12) in H1 and full Z1, >= 95% success")


def test_criterion_08_obstruction_cross_check():
    """Jet obstruction is one constant times the cross-product form."""
    group = su2()
    pres = surface_presentation(2)
    rep = rep_from_name(pres, group, "central:[+,+,+,+]")
    rng = np.random.default_rng(16)
    constant, worst = measure_obstruction_constant(pres, rep, count=100, seed=rng)
    assert worst <= 1e-8, worst
    irreducible = irreducible_rep(group)
    irr_data = build_complex(pres, irreducible, rank_tol=1e-8)
    assert irr_data.h_dims[2] == 0
    for _ in range(10):
        u = irr_data.basis_Z1 @ rng.standard_normal(irr_data.basis_Z1.shape[1])
        q_val = obstruction_quadratic(pres, irreducible, u, data=irr_data)
        assert q_val.shape == (0,)
    _report(8, f"obstruction = {constant:+.3f} x cross form; trivial when h2 = 0")


def test_criterion_09_holonomy():
    """Closed form exact, derivative matches differencing, gauge covariant."""
    group = su2()
    rng = np.random.default_rng(17)
    nodes, length = 7, 1.0
    for _ in range(20):
        u = group.random_algebra_vector(rng)
        conn = PathConnection(group, length, np.tile(u, (nodes, 1)))
        assert np.linalg.norm(holonomy(conn) - group.exp(-length * u)) <= 1e-10
    for _ in range(10):
        conn = PathConnection(group, length, rng.standard_normal((nodes, group.dim)))
        var = Variation(conn, rng.standard_normal((nodes, group.dim)))
        gap = np.linalg.norm(holonomy_derivative(conn, var)
                             - holonomy_derivative_fd(conn, var, s=1e-4))
        assert gap < 1e-6, gap
    for _ in range(10):
        conn = PathConnection(group, length, rng.standard_normal((nodes, group.dim)))
        assert conjugation_invariance_check(conn, group.random_element(rng)) < 1e-9
    conn = PathConnection(group, length, rng.standard_normal((nodes, group.dim)))
    reference = holonomy(conn, n_sub=256)
    order = np.log2(np.linalg.norm(holonomy(conn, n_sub=4) - reference)
                    / np.linalg.norm(holonomy(conn, n_sub=8) - reference))
    assert order >= 3.5, order
    _report(9, "holonomy closed form, derivative, gauge, order >= 3.5")


def test_criterion_10_deterministic_report():
    """Re-running the consolidated report with one seed is byte-identical."""
    script = shutil.which("surfrep")
    if script:
        base = [script]
    else:
        base = [sys.executable, "-m", "surfrep.cli"]
    args = base + ["genus2-su2-report", "--seed", "7", "--json"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout, "report was empty"
    assert first.stdout == second.stdout
    _report(10, "byte-identical JSON for repeated seeded report")

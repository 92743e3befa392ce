"""Report builders behind the command line, one per subcommand.

Each builder takes resolved inputs (names, counts, seeds, tolerances), runs
the library computation and returns ``(payload, status)``: a dict of results
and ``"pass"``, ``"fail: <check>"`` or ``"skipped: <reason>"``. Bad input
raises ValueError and a failed iteration raises ConvergenceError; nothing is
printed. The genus-2 SU(2) worked example is built from the same pieces as
the single-representation reports.
"""

import numpy as np

from . import words
from .cohomology import (
    RepPoint,
    build_complex,
    classify_orbit_type,
    enumerate_central_reps,
    obstruction_quadratic,
    relator_defect,
    rep_from_name,
    sample_cone_directions,
    sample_stabilizer,
    stabilizer_fixed_subspace,
)
from .groups import group_from_name, su2
from .holonomy import (
    PathConnection,
    Variation,
    _check_node_count,
    conjugation_invariance_check,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
)
from .reduction import (
    check_relations,
    hilbert_map,
    sample_zero_locus,
    so2_cone_model_report,
    so2_model,
    so3_model,
    stratum_label,
    zariski_dim_at_origin,
)
from .words import (
    format_ring,
    format_word,
    fox_derivative,
    parse_word,
    surface_presentation,
    verify_fox_identity,
)

CONE_EPS = 1e-3  # step along a cocycle before projecting back onto the variety


def _first_failure(checks):
    """"pass", or "fail: <name>" for the first check that did not hold."""
    for name, ok in checks.items():
        if not ok:
            return f"fail: {name}"
    return "pass"


def irreducible_rep(group):
    """The irreducible point [a, b, b, a] of the genus-2 worked example: two
    generic elements arranged so both commutators cancel exactly."""
    a = group.exp(np.array([0.7, 0.2, -0.4]))
    b = group.exp(np.array([-0.3, 0.8, 0.5]))
    return RepPoint(group, [a, b, b, a])


def measure_obstruction_constant(pres, rep, count, seed, data=None):
    """Fit q = c * (u1 x u2 + u3 x u4) over count random cochains at a genus-2
    SU(2) point and return (c, max relative error). seed is a seed or a
    numpy Generator, which is then advanced; data is the point's cochain data
    (built with the default rank cutoff when omitted)."""
    if data is None:
        data = build_complex(pres, rep)
    rng = np.random.default_rng(seed)
    constant = None
    worst = 0.0
    for _ in range(count):
        u = rng.standard_normal(4 * 3)
        blocks = u.reshape(4, 3)
        reference = np.cross(blocks[0], blocks[1]) + np.cross(blocks[2], blocks[3])
        reference = data.basis_H2.T @ reference
        q_val = obstruction_quadratic(pres, rep, u, data=data)
        if constant is None:
            constant = float((q_val @ reference) / (reference @ reference))
        err = np.linalg.norm(q_val - constant * reference) / np.linalg.norm(q_val)
        worst = max(worst, float(err))
    return constant, worst


# ---------------------------------------------------------------------------
# per-representation pieces


def _named_rep(group, genus, rep):
    """Group, presentation, representation text, point and its relator defect;
    rep None names the trivial central representation."""
    group = group_from_name(group)
    pres = surface_presentation(genus)
    if rep is None:
        rep = "central:[" + ",".join(["+"] * pres.n) + "]"
    point = rep_from_name(pres, group, rep)
    return group, pres, rep, point, relator_defect(pres, point)


def _complex(pres, rep, rank_tol):
    """Cochain data at rep, with its centralizer dimension and orbit-type stratum."""
    k, stratum = classify_orbit_type(rep)
    return build_complex(pres, rep, rank_tol=rank_tol), k, stratum


def _fixed_subspace(pres, rep, seed, rank_tol):
    """Dimension of the stratum through rep, and the stabilizer sample size."""
    elements = sample_stabilizer(rep, count=8, seed=seed)
    return stabilizer_fixed_subspace(pres, rep, elements, rank_tol=rank_tol), len(elements)


def _cone(pres, rep, samples, seed, rank_tol):
    """Harvested cone directions with their spans in Z1 and H1."""
    return sample_cone_directions(pres, rep, count=samples, seed=seed, eps=CONE_EPS,
                                  rank_tol=rank_tol)


# ---------------------------------------------------------------------------
# reports


def fox_report(word, n):
    """Print all Fox derivatives of WORD and verify the fundamental identity."""
    word = parse_word(word)
    if n is None:
        n = max((g for g, _ in word.letters), default=1)
    if n < 1:
        raise ValueError("--n must be at least 1")
    if n > words.MAX_GENERATORS:
        raise ValueError(f"{n} generators exceed the budget of {words.MAX_GENERATORS}")
    over = [g for g, _ in word.letters if g > n]
    if over:
        raise ValueError(f"word uses generator x{max(over)} beyond --n {n}")
    identity_ok = verify_fox_identity(word)
    payload = {
        "word": format_word(word),
        "n": n,
        "derivatives": {
            f"x{j}": format_ring(fox_derivative(word, j)) for j in range(1, n + 1)
        },
        "identity_ok": identity_ok,
    }
    return payload, "pass" if identity_ok else "fail: fox identity"


def cohomology_report(group, genus, rep, rank_tol, defect_tol):
    """Twisted cohomology dimensions and orbit type at a representation."""
    group, pres, text, point, defect = _named_rep(group, genus, rep)
    data, k, stratum = _complex(pres, point, rank_tol)
    on_variety = defect <= defect_tol
    h0, h1, h2 = data.h_dims
    d = group.dim
    euler_ok = (h0 - h1 + h2) == (1 - pres.n + pres.m) * d
    if on_variety:
        duality_ok = (h0 == h2) and (h1 == 2 * h0 + (2 * genus - 2) * d)
        status = _first_failure({"euler": euler_ok, "duality": duality_ok})
    else:
        duality_ok = "skipped: rep off the variety"
        status = "pass" if euler_ok else "fail: euler"
    payload = {
        "group": group.name, "genus": genus, "rep": text,
        "h_dims": list(data.h_dims),
        "ranks": [data.rank0, data.rank1],
        "centralizer_dim": k,
        "stratum": stratum,
        "relator_defect": defect,
        "on_variety": on_variety,
        "euler_ok": euler_ok,
        "duality_ok": duality_ok,
    }
    return payload, status


def stratify_report(group, genus, rep, seed, rank_tol, defect_tol):
    """Orbit-type stratum of a representation and its fixed subspace in H1."""
    group, pres, text, point, defect = _named_rep(group, genus, rep)
    data, k, stratum = _complex(pres, point, rank_tol)
    fixed, sampled = _fixed_subspace(pres, point, seed, rank_tol)
    payload = {
        "group": group.name, "genus": genus, "rep": text, "seed": seed,
        "stratum": stratum,
        "centralizer_dim": k,
        "h_dims": list(data.h_dims),
        "fixed_subspace_dim": fixed,
        "stabilizer_sample_count": sampled,
        "relator_defect": defect,
        "on_variety": defect <= defect_tol,
    }
    return payload, "pass"


def cone_span_report(group, genus, rep, seed, samples, rank_tol, defect_tol):
    """Span of the obstruction cone inside cocycles and harmonic space."""
    if samples < 1:
        raise ValueError("--samples must be at least 1")
    group, pres, text, point, defect = _named_rep(group, genus, rep)
    if defect > defect_tol:
        raise ValueError(f"representation is off the variety (defect {defect:.3e})")
    data = build_complex(pres, point, rank_tol=rank_tol)
    directions, span_z1, span_h1 = _cone(pres, point, samples, seed, rank_tol)
    q_max = 0.0
    for direction in directions:
        q_val = obstruction_quadratic(pres, point, CONE_EPS * direction, data=data)
        q_max = max(q_max, float(np.linalg.norm(q_val)))
    dim_z1 = data.basis_Z1.shape[1]
    h1 = data.h_dims[1]
    success_rate = len(directions) / samples
    payload = {
        "group": group.name, "genus": genus, "rep": text,
        "seed": seed, "samples": samples,
        "span_dim_Z1": span_z1, "dim_Z1": dim_z1,
        "span_dim_H1": span_h1, "h1": h1,
        "success_count": len(directions),
        "success_rate": success_rate,
        "obstruction_residual_max": q_max,
    }
    status = _first_failure({
        "span_Z1": span_z1 == dim_z1,
        "span_H1": span_h1 == h1,
        "success_rate": success_rate >= 0.95,
        "obstruction_residual": q_max <= 1e-8,
    })
    return payload, status


def reduction_report(model, seed, samples, defect_tol):
    """Zero-locus sampling, relation residuals and Zariski dimension of a model."""
    model = so2_model() if model.lower() == "so2" else so3_model()
    if samples < 2 * model.invariant_count:
        raise ValueError(f"--samples must be at least {2 * model.invariant_count}")
    points = sample_zero_locus(model, samples, seed=seed)
    residual_max = 0.0
    histogram = {}
    for point in points:
        residual_max = max(residual_max, max(check_relations(model, point).values()))
        label = stratum_label(model, hilbert_map(model, point.w))
        histogram[label] = histogram.get(label, 0) + 1
    zariski_dim = zariski_dim_at_origin(model, points)
    payload = {
        "model": model.name,
        "samples": samples,
        "zariski_dim": zariski_dim,
        "relation_residual_max": residual_max,
        "stratum_histogram": dict(sorted(histogram.items())),
    }
    status = _first_failure({
        "relation_residuals": residual_max < defect_tol,
        "zariski_dim": zariski_dim == model.invariant_count,
    })
    return payload, status


def holonomy_check_report(group, seed, samples, nodes, b, fd_step):
    """Exactness, derivative and gauge checks for path holonomy."""
    if samples < 1:
        raise ValueError("--samples must be at least 1")
    if nodes < 2:
        raise ValueError("nodes must be at least 2")
    _check_node_count(nodes)
    group = group_from_name(group)
    rng = np.random.default_rng(seed)

    closed_max = 0.0
    for _ in range(min(samples, 50)):
        u = group.random_algebra_vector(rng)
        conn = PathConnection(group, b, np.tile(u, (nodes, 1)))
        err = np.linalg.norm(holonomy(conn) - group.exp(-b * u))
        closed_max = max(closed_max, float(err))

    fd_max = 0.0
    for _ in range(min(samples, 20)):
        conn = PathConnection(group, b, rng.standard_normal((nodes, group.dim)))
        var = Variation(conn, rng.standard_normal((nodes, group.dim)))
        exact = holonomy_derivative(conn, var)
        approx = holonomy_derivative_fd(conn, var, s=fd_step)
        fd_max = max(fd_max, float(np.linalg.norm(exact - approx)))

    conj_max = 0.0
    for _ in range(min(samples, 10)):
        conn = PathConnection(group, b, rng.standard_normal((nodes, group.dim)))
        x = group.random_element(rng)
        conj_max = max(conj_max, float(conjugation_invariance_check(conn, x)))

    conn = PathConnection(group, b, rng.standard_normal((nodes, group.dim)))
    reference = holonomy(conn, n_sub=256)
    coarse = np.linalg.norm(holonomy(conn, n_sub=4) - reference)
    fine = np.linalg.norm(holonomy(conn, n_sub=8) - reference)
    # an error at roundoff means the steps are exact on this path (an abelian
    # group integrates its connection exactly): there is no order to measure
    exact = coarse <= 1e-11 or fine == 0
    order = np.inf if exact else float(np.log2(coarse / fine))

    payload = {
        "group": group.name, "seed": seed, "nodes": nodes, "b": b,
        "closed_form_max_error": closed_max,
        "fd_derivative_max_error": fd_max,
        "conjugation_max_error": conj_max,
        "refinement_order": order,
    }
    status = _first_failure({
        "closed_form": closed_max <= 1e-10,
        "fd_derivative": fd_max <= 1e-6,
        "conjugation": conj_max <= 1e-9,
        "refinement_order": order >= 3.5,
    })
    return payload, status


# the worked example's strata: representation, expected h dims, fixed-subspace
# dimension and orbit type
_WORKED_STRATA = {
    "central": ("central:[+,+,+,+]", [3, 12, 3], 0, "G"),
    "torus": ("torus:[0.7,1.1,-0.5,0.3]", [1, 8, 1], 4, "(T)"),
    "irreducible": ("constructed commuting-free pair", [0, 6, 0], 6, "Z"),
}


def genus2_su2_report(seed, samples, rank_tol, defect_tol):
    """Consolidated reproduction of the genus-2 SU(2) worked example."""
    if samples < 1:
        raise ValueError("--samples must be at least 1")
    group = su2()
    pres = surface_presentation(2)

    central = enumerate_central_reps(pres, group)
    checks = {"central_count": len(central) == 16}

    strata, complexes = {}, {}
    for offset, (name, (text, want_h, want_fixed, want_stratum)) in enumerate(
            _WORKED_STRATA.items()):
        if name == "irreducible":
            point = irreducible_rep(group)
        else:
            point = rep_from_name(pres, group, text)
        data, _, stratum = _complex(pres, point, rank_tol)
        fixed, _ = _fixed_subspace(pres, point, seed, rank_tol)
        directions, span_z1, span_h1 = _cone(pres, point, samples, seed + offset, rank_tol)
        entry = {
            "rep": text,
            "h_dims": list(data.h_dims),
            "stratum": stratum,
            "fixed_subspace_dim": fixed,
            "span_dim_Z1": span_z1,
            "dim_Z1": data.basis_Z1.shape[1],
            "span_dim_H1": span_h1,
            "success_rate": len(directions) / samples,
        }
        checks[f"h_dims_{name}"] = entry["h_dims"] == want_h
        checks[f"stratum_{name}"] = stratum == want_stratum
        checks[f"fixed_subspace_{name}"] = fixed == want_fixed
        checks[f"cone_span_Z1_{name}"] = span_z1 == entry["dim_Z1"]
        checks[f"cone_span_H1_{name}"] = span_h1 == entry["h_dims"][1]
        checks[f"cone_success_{name}"] = entry["success_rate"] >= 0.95
        strata[name] = entry
        complexes[name] = point, data

    # local models at the three strata: deep point, middle stratum, top
    model = so3_model()
    zero_locus = sample_zero_locus(model, max(samples, 2 * model.invariant_count), seed=seed)
    so3_residual = max(max(check_relations(model, p).values()) for p in zero_locus)
    deep_dim = zariski_dim_at_origin(model, zero_locus)
    middle = so2_cone_model_report(count=max(40, samples // 5), seed=seed)
    top_dim = strata["irreducible"]["h_dims"][1]
    local_models = {
        "deep_zariski_dim": deep_dim,
        "middle_zariski_dim": middle["total_dim"],
        "top_zariski_dim": top_dim,
        "so3_relation_residual_max": so3_residual,
        "so2_relation_residual_max": middle["relation_residual_max"],
    }
    checks["zariski_deep"] = deep_dim == 10
    checks["zariski_middle"] = middle["total_dim"] == 7
    checks["zariski_top"] = top_dim == 6
    checks["so3_relations"] = so3_residual < defect_tol

    point, data = complexes["central"]
    constant, rel_err = measure_obstruction_constant(pres, point, count=100, seed=seed,
                                                     data=data)
    irreducible_h2 = strata["irreducible"]["h_dims"][2]
    obstruction = {
        "constant": constant,
        "max_relative_error": rel_err,
        "irreducible_h2": irreducible_h2,
    }
    checks["obstruction_constant"] = rel_err <= 1e-8
    checks["obstruction_vanishes_irreducible"] = irreducible_h2 == 0

    payload = {
        "seed": seed,
        "samples": samples,
        "central_count": len(central),
        "strata": strata,
        "local_models": local_models,
        "obstruction": obstruction,
        "checks": checks,
    }
    return payload, _first_failure(checks)

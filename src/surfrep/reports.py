"""Report builders behind the command line, one per subcommand.

Each builder takes resolved inputs (names, counts, seeds, tolerances), runs
the library computation and returns ``(payload, status)``: a dict of results
and ``"pass"`` or ``"fail: <check>"``. Bad input
raises ValueError and a failed iteration raises ConvergenceError; nothing is
printed. The genus-2 SU(2) worked example is built from the same pieces as
the single-representation reports. Each builds a point's complex once, with
its --tol-rank, and every rank decision at the point reads it (the centralizer
is ker D0: its dimension is h0, and the stabilizer sample draws from it).
"""

import numpy as np

from . import words
from .cohomology import (
    CONE_EPS,
    RepPoint,
    _orbit_type,
    build_complex,
    enumerate_central_reps,
    obstruction_quadratic,
    relator_defect,
    rep_from_name,
    sample_cone_directions,
    sample_stabilizer,
    stabilizer_fixed_subspace,
)
from .groups import _norm, group_from_name, su2
from .holonomy import (
    PathConnection,
    Variation,
    conjugation_invariance_check,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
)
from .reduction import (
    MAX_SAMPLES,
    MODELS,
    momentum_so3,
    relation_residual_max,
    sample_zero_locus,
    so2_cone_model_report,
    so3_model,
    stratum_histogram,
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

CONE_SUCCESS_MIN = 0.95  # the share of cone samples a report needs kept
Q_MAX = 1e-8  # cone-span's largest obstruction residual
CLOSED_FORM_MAX = 1e-10  # holonomy-check's largest closed-form error
FD_GAP_MAX = 1e-6  # holonomy-check's largest gap to the finite-difference derivative
GAUGE_MAX = 1e-9  # holonomy-check's largest conjugation residual


def _first_failure(checks):
    """"pass", or "fail: <name>" for the first check that did not hold."""
    for name, ok in checks.items():
        if not ok:
            return f"fail: {name}"
    return "pass"


def _check_sample_budget(samples):
    """A cone sample count is 1 to MAX_SAMPLES: reject any other before any work."""
    if samples < 1:
        raise ValueError("--samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be at most {MAX_SAMPLES}")


def _check_samples_span(samples, data):
    """Fewer cone samples than dim Z1 can never span Z1: reject before any draw."""
    if samples < data.basis_Z1.shape[1]:
        raise ValueError(f"--samples must be at least dim Z1 = {data.basis_Z1.shape[1]}, "
                         "or the cone directions cannot span Z1")


def irreducible_rep(group):
    """The irreducible point [a, b, b, a] of the genus-2 worked example: two
    generic elements arranged so both commutators cancel exactly."""
    a = group.exp(np.array([0.7, 0.2, -0.4]))
    b = group.exp(np.array([-0.3, 0.8, 0.5]))
    return RepPoint(group, [a, b, b, a])


def measure_obstruction_constant(pres, rep, count, seed, data=None):
    """Fit q = c * momentum_so3(u1, u2, u3, u4) = c * (u1 x u2 + u3 x u4) over
    count >= 1 random cochains at a genus-2 SU(2) point and return (c, max
    relative error). seed is a seed or a numpy Generator, which is then
    advanced; data is the point's cochain data (built with the default rank
    cutoff when omitted). The obstructions and the fit are taken as one stack."""
    if count < 1:
        raise ValueError("the obstruction fit needs at least one cochain")
    if data is None:
        data = build_complex(pres, rep)
    U = np.random.default_rng(seed).standard_normal((count, 4, 3))
    q = obstruction_quadratic(pres, rep, U.reshape(count, 4 * 3), data=data)
    ref = momentum_so3(U[:, 0], U[:, 1], U[:, 2], U[:, 3])
    ref = np.matmul(data.basis_H2.T, ref[..., None])[..., 0]
    constant = float((q[0] @ ref[0]) / (ref[0] @ ref[0]))
    return constant, float((_norm(q - constant * ref) / _norm(q)).max())


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


def _complex_checks(pres, group, data, on_variety):
    """The Euler characteristic and, on the variety, Poincare duality of a
    surface point's h dims: (euler_ok, duality_ok, status). Off the variety
    duality_ok is the reason it was skipped and only Euler is asserted."""
    h0, h1, h2 = data.h_dims
    d = group.dim
    euler_ok = (h0 - h1 + h2) == (1 - pres.n + pres.m) * d
    if not on_variety:
        return euler_ok, "skipped: rep off the variety", "pass" if euler_ok else "fail: euler"
    duality_ok = (h0 == h2) and (h1 == 2 * h0 + (2 * pres.genus - 2) * d)
    return euler_ok, duality_ok, _first_failure({"euler": euler_ok, "duality": duality_ok})


# ---------------------------------------------------------------------------
# reports


def fox_report(word, n):
    """Print all Fox derivatives of WORD and verify the fundamental identity."""
    word = parse_word(word)
    top = word.max_generator()
    n = max(top, 1) if n is None else n
    if n < 1:
        raise ValueError("--n must be at least 1")
    if n > words.MAX_GENERATORS:
        raise ValueError(f"{n} generators exceed the budget of {words.MAX_GENERATORS}")
    if top > n:
        raise ValueError(f"word uses generator x{top} beyond --n {n}")
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
    data = build_complex(pres, point, rank_tol)
    k, stratum = _orbit_type(group, data.h_dims[0])
    on_variety = defect <= defect_tol
    euler_ok, duality_ok, status = _complex_checks(pres, group, data, on_variety)
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
    data = build_complex(pres, point, rank_tol)
    k, stratum = _orbit_type(group, data.h_dims[0])
    elements = sample_stabilizer(point, seed=seed, data=data)
    fixed = stabilizer_fixed_subspace(pres, point, elements, data=data)
    on_variety = defect <= defect_tol
    payload = {
        "group": group.name, "genus": genus, "rep": text, "seed": seed,
        "stratum": stratum,
        "centralizer_dim": k,
        "h_dims": list(data.h_dims),
        "fixed_subspace_dim": fixed,
        "stabilizer_sample_count": len(elements),
        "relator_defect": defect,
        "on_variety": on_variety,
    }
    return payload, _complex_checks(pres, group, data, on_variety)[2]


def cone_span_report(group, genus, rep, seed, samples, rank_tol, defect_tol):
    """Span of the obstruction cone inside cocycles and harmonic space."""
    _check_sample_budget(samples)
    group, pres, text, point, defect = _named_rep(group, genus, rep)
    if defect > defect_tol:
        raise ValueError(f"representation is off the variety (defect {defect:.3e})")
    data = build_complex(pres, point, rank_tol)
    _check_samples_span(samples, data)
    dim_z1 = data.basis_Z1.shape[1]
    directions, span_z1, span_h1 = sample_cone_directions(
        pres, point, count=samples, seed=seed, data=data)
    q_val = obstruction_quadratic(
        pres, point, CONE_EPS * np.reshape(directions, (-1, pres.n * group.dim)), data=data)
    q_max = float(_norm(q_val).max(initial=0.0))
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
        "success_rate": success_rate >= CONE_SUCCESS_MIN,
        "obstruction_residual": q_max <= Q_MAX,
    })
    return payload, status


def reduction_report(model, seed, samples, defect_tol):
    """Zero-locus sampling, relation residuals and Zariski dimension of a model."""
    model = MODELS[model.lower()]()
    if samples < 2 * model.invariant_count:
        raise ValueError(f"--samples must be at least {2 * model.invariant_count}")
    points = sample_zero_locus(model, samples, seed=seed)
    residual_max = relation_residual_max(model, points)
    zariski_dim = zariski_dim_at_origin(model, points)
    payload = {
        "model": model.name,
        "samples": samples,
        "zariski_dim": zariski_dim,
        "relation_residual_max": residual_max,
        "stratum_histogram": stratum_histogram(model, points),
    }
    status = _first_failure({
        "relation_residuals": residual_max < defect_tol,
        "zariski_dim": zariski_dim == model.invariant_count,
    })
    return payload, status


def holonomy_check_report(group, seed, samples):
    """Exactness, derivative and gauge checks for path holonomy."""
    b, nodes = 1.0, 7  # path length and grid nodes
    if samples < 1:
        raise ValueError("--samples must be at least 1")
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
        approx = holonomy_derivative_fd(conn, var)
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
        "closed_form": closed_max <= CLOSED_FORM_MAX,
        "fd_derivative": fd_max <= FD_GAP_MAX,
        "conjugation": conj_max <= GAUGE_MAX,
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
    _check_sample_budget(samples)
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
        data = build_complex(pres, point, rank_tol)
        _check_samples_span(samples, data)
        _, stratum = _orbit_type(group, data.h_dims[0])
        elements = sample_stabilizer(point, seed=seed, data=data)
        fixed = stabilizer_fixed_subspace(pres, point, elements, data=data)
        directions, span_z1, span_h1 = sample_cone_directions(
            pres, point, count=samples, seed=seed + offset, data=data)
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
        checks[f"cone_success_{name}"] = entry["success_rate"] >= CONE_SUCCESS_MIN
        strata[name] = entry
        complexes[name] = point, data

    # local models at the three strata: deep point, middle stratum, top
    model = so3_model()
    zero_locus = sample_zero_locus(model, max(samples, 2 * model.invariant_count), seed=seed)
    so3_residual = relation_residual_max(model, zero_locus)
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

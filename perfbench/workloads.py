"""Seeded job inputs, job bodies and oracles for the four benchmark workloads.

A job is one unit of work a user would ask for. ``build(name, seed)`` makes
the shared groups and presentations and a list of job inputs from the seed
alone; ``run(job)`` calls the library on one input and returns its raw
outputs; ``evaluate(job, out)`` checks those outputs against oracles that use
the repository's own bounds and returns the failures and the derived per-layer
values. Inputs carry plain data (strings, seeds, arrays); every library call
happens inside ``run``.
"""

import numpy as np

from surfrep import (
    BundleClass,
    PathConnection,
    RepPoint,
    Variation,
    build_complex,
    check_relations,
    classify_orbit_type,
    conjugation_invariance_check,
    group_from_name,
    hilbert_map,
    holonomy,
    holonomy_derivative,
    holonomy_derivative_fd,
    newton_project_to_variety,
    obstruction_quadratic,
    relator_defect,
    rep_from_name,
    sample_cone_directions,
    sample_stabilizer,
    sample_zero_locus,
    so2_model,
    so3_model,
    stabilizer_fixed_subspace,
    stratum_label,
    surface_presentation,
    verify_fox_identity,
    zariski_dim_at_origin,
)

# Job inputs made per run. More than the fastest workload completes in a
# 60-second run today, so a run does not revisit inputs unless the code gets
# several times faster.
N_INPUTS = 1024

# Bounds, each as the repository's tests, CLI or defaults state it.
CONE_EPS = 1e-3           # cone-span CLI step
CONE_SUCCESS_MIN = 0.95   # cone-span CLI and acceptance criterion 07
Q_MAX = 1e-8              # cone-span CLI obstruction residual
DEFECT_TOL = 1e-9         # CLI default relator defect and relation residual
HOL_TOL = 1e-10           # holonomy refinement tolerance (library default)
CLOSED_FORM_MAX = 1e-10   # holonomy-check closed form; also bounds the error reached
FD_STEP = 1e-4            # CLI default finite-difference step
FD_GAP_MAX = 1e-6         # holonomy-check derivative gap
GAUGE_MAX = 1e-9          # holonomy-check conjugation residual

WORKED_SAMPLES = 24       # cone samples per genus-2 job, >= dim Z1 = 12
HIGH_GENUS_SAMPLES = 12   # the short cone sample of a high-genus job
HOL_LENGTH = 0.1          # path length b; amplitude * b sets the stiffness
# (construct, newton) points per job; SO(2) points are cheaper, so its jobs
# take more of them and both models' jobs cost about the same
REDUCTION_SIZES = {"SO3": (150, 30), "SO2": (1500, 150)}
ZARISKI = {"SO3": 10, "SO2": 3}

# genus-2 SU(2) strata: expected (h_dims, stratum label, fixed subspace dim),
# as in the genus2-su2-report and acceptance criterion 04
WORKED_EXPECTED = {
    "central": ((3, 12, 3), "G", 0),
    "torus": ((1, 8, 1), "(T)", 4),
    "constructed": ((0, 6, 0), "Z", 6),
    "random": ((0, 6, 0), "Z", 6),
}
# one round of job kinds: the singular strata (slowest, they form the 90th
# percentile) take a quarter of the jobs, so neither the median nor the 90th
# percentile falls in the gap between slow and fast jobs
WORKED_KINDS = ("central", "constructed", "random", "torus",
                "constructed", "random", "constructed", "random")

HOL_GROUPS = ("SU2", "SO3", "SU2xU1")
# per group, a cycle of four connections (amplitude, nodes, extra checks):
# three smooth, one stiff; one smooth job also runs the closed-form and gauge
# checks. The amplitude is the exact RMS of the node values, so the refinement
# depth a job needs varies with the direction drawn, not with its size.
HOL_PATTERN = ((1.0, 2, False), (1.0, 3, True), (1.0, 3, False), (6.0, 2, False))

HIGH_GENERA = (4, 5, 6, 7, 8)
# (group, twisted by c = -I, centralizer dimension of a generic point)
HIGH_GROUPS = (("SU2", False, 0), ("SO3", False, 0), ("SU2xU1", False, 1), ("SU2", True, 0))

REDUCTION_MODELS = ("SO3", "SO2")


class Workload:
    """The shared objects and generated inputs of one workload at one seed."""

    def __init__(self, name, jobs):
        self.name = name
        self.jobs = jobs


def _seed(rng):
    return int(rng.integers(2**31))


def _scaled(rng, shape, rms):
    """Gaussian direction rescaled to the given root-mean-square entry."""
    x = rng.standard_normal(shape)
    return x * (rms / np.sqrt(np.mean(x * x)))


def _worked_example(rng):
    group = group_from_name("SU2")
    pres = surface_presentation(2)
    jobs = []
    for i in range(N_INPUTS):
        kind = WORKED_KINDS[i % len(WORKED_KINDS)]
        job = {"kind": kind, "group": group, "pres": pres, "seed": _seed(rng)}
        if kind == "central":
            job["rep"] = "central:[" + ",".join(rng.choice(["+", "-"], 4)) + "]"
        elif kind == "torus":
            job["rep"] = "torus:[" + ",".join(repr(float(t)) for t in rng.uniform(-np.pi, np.pi, 4)) + "]"
        elif kind == "constructed":
            # the report's construction [a, b, b, a]: both commutators cancel
            job["a"], job["b"] = rng.standard_normal(3), rng.standard_normal(3)
        else:
            job["rep"] = f"random:{_seed(rng)}"
        jobs.append(job)
    return Workload("worked-example", jobs)


def _holonomy(rng):
    groups = {name: group_from_name(name) for name in HOL_GROUPS}
    jobs = []
    for i in range(N_INPUTS):
        name = HOL_GROUPS[i % len(HOL_GROUPS)]
        amplitude, nodes, extras = HOL_PATTERN[(i // len(HOL_GROUPS)) % len(HOL_PATTERN)]
        d = groups[name].dim
        job = {
            "group": groups[name],
            "A": _scaled(rng, (nodes, d), amplitude),
            "theta": _scaled(rng, (nodes, d), 1.0),
            "extras": extras,
        }
        if extras:
            job["u"] = rng.standard_normal(d)
            job["x_seed"] = _seed(rng)
        jobs.append(job)
    return Workload("holonomy", jobs)


def _high_genus(rng):
    groups = {name: group_from_name(name) for name in ("SU2", "SO3", "SU2xU1")}
    minus_one = BundleClass(groups["SU2"], -groups["SU2"].identity())
    presentations = {g: surface_presentation(g) for g in HIGH_GENERA}
    combos = [(g, spec) for g in HIGH_GENERA for spec in HIGH_GROUPS]
    jobs = []
    for i in range(N_INPUTS):
        genus, (name, twisted, k) = combos[i % len(combos)]
        jobs.append({
            "genus": genus,
            "pres": presentations[genus],
            "group": groups[name],
            "c": minus_one if twisted else None,
            "k": k,
            "seed": _seed(rng),
        })
    return Workload("high-genus", jobs)


def _reduction(rng):
    models = {"SO3": so3_model(), "SO2": so2_model()}
    jobs = []
    for i in range(N_INPUTS):
        name = REDUCTION_MODELS[i % len(REDUCTION_MODELS)]
        jobs.append({"name": name, "model": models[name],
                     "seed": _seed(rng), "newton_seed": _seed(rng)})
    return Workload("reduction", jobs)


BUILDERS = {
    "worked-example": _worked_example,
    "holonomy": _holonomy,
    "high-genus": _high_genus,
    "reduction": _reduction,
}


def build(name, seed):
    """Groups, presentations and job inputs of a workload, from the seed alone."""
    return BUILDERS[name](np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# job bodies: library calls only


def _cone(pres, rep, data, c, count, seed):
    dirs, span_z1, span_h1 = sample_cone_directions(
        pres, rep, c=c, count=count, seed=seed, eps=CONE_EPS)
    return {
        "kept": len(dirs), "attempted": count,
        "span_z1": span_z1, "span_h1": span_h1,
        "dim_z1": data.basis_Z1.shape[1],
    }, dirs


def _run_worked(job):
    group, pres = job["group"], job["pres"]
    if job["kind"] == "constructed":
        a, b = group.exp(job["a"]), group.exp(job["b"])
        rep = RepPoint(group, [a, b, b, a])
    else:
        rep = rep_from_name(pres, group, job["rep"])
    data = build_complex(pres, rep)
    _, stratum = classify_orbit_type(rep)
    elements = sample_stabilizer(rep, count=8, seed=job["seed"])
    fixed = stabilizer_fixed_subspace(pres, rep, elements)
    cone, dirs = _cone(pres, rep, data, None, WORKED_SAMPLES, job["seed"])
    q_max = max((float(np.linalg.norm(obstruction_quadratic(pres, rep, CONE_EPS * u, data=data)))
                 for u in dirs), default=0.0)
    return {"data": data, "stratum": stratum, "fixed": fixed,
            "q_max": q_max, **cone}


def _run_holonomy(job):
    group = job["group"]
    conn = PathConnection(group, HOL_LENGTH, job["A"])
    var = Variation(conn, job["theta"])
    out = {
        "H": holonomy(conn, tol=HOL_TOL),
        "D": holonomy_derivative(conn, var, tol=HOL_TOL),
        "F": holonomy_derivative_fd(conn, var, s=FD_STEP, tol=HOL_TOL),
    }
    if job["extras"]:
        nodes = len(job["A"])
        const = PathConnection(group, HOL_LENGTH, np.tile(job["u"], (nodes, 1)))
        out["closed"] = float(np.linalg.norm(
            holonomy(const, tol=HOL_TOL) - group.exp(-HOL_LENGTH * job["u"])))
        out["gauge"] = conjugation_invariance_check(conn, group.random_element(job["x_seed"]))
    return out


def _run_high_genus(job):
    pres, group, c = job["pres"], job["group"], job["c"]
    fox_ok = verify_fox_identity(pres.relators[0])
    if c is None:
        rep = rep_from_name(pres, group, f"random:{job['seed']}")
    else:
        rng = np.random.default_rng(job["seed"])
        start = RepPoint(group, [group.random_element(rng) for _ in range(pres.n)])
        rep = newton_project_to_variety(pres, group, start, c=c, tol=1e-10, max_iter=200)
    defect = relator_defect(pres, rep, c)
    data = build_complex(pres, rep)
    k, _ = classify_orbit_type(rep)
    cone, _ = _cone(pres, rep, data, c, HIGH_GENUS_SAMPLES, job["seed"])
    return {"fox_ok": fox_ok, "defect": defect, "data": data, "k": k, **cone}


def _run_reduction(job):
    model = job["model"]
    n_construct, n_newton = REDUCTION_SIZES[job["name"]]
    points = sample_zero_locus(model, n_construct, seed=job["seed"])
    newton_points = sample_zero_locus(model, n_newton, seed=job["newton_seed"], method="newton")
    residual = 0.0
    labels = set()
    for point in points + newton_points:
        residual = max(residual, max(check_relations(model, point).values()))
        labels.add(stratum_label(model, hilbert_map(model, point.w)))
    return {
        "points": (len(points), len(newton_points)),
        "residual": float(residual),
        "labels": sorted(str(label) for label in labels),
        "zariski": (zariski_dim_at_origin(model, points),
                    zariski_dim_at_origin(model, newton_points)),
    }


RUNNERS = {
    "worked-example": _run_worked,
    "holonomy": _run_holonomy,
    "high-genus": _run_high_genus,
    "reduction": _run_reduction,
}


def run(workload, job):
    """Run one job; returns the library's raw outputs."""
    return RUNNERS[workload.name](job)


# ---------------------------------------------------------------------------
# oracles and derived values: benchmark code only, no library calls


def _rank_gaps(data):
    """sigma_r / sigma_{r+1} at the D0 and D1 rank cutoffs (r >= 1). Where
    sigma_{r+1} is missing or below the rank threshold tol * max(sigma_1, 1),
    the threshold stands in for it, so the value is always how far the kept
    singular values sit from flipping the rank decision."""
    gaps = []
    for M, r in ((data.D0, data.rank0), (data.D1, data.rank1)):
        s = np.linalg.svd(M, compute_uv=False)
        if r == 0:
            continue
        threshold = data.rank_tol * max(s[0], 1.0)
        below = s[r] if r < len(s) else 0.0
        gaps.append(float(s[r - 1] / max(below, threshold)))
    return gaps


def _cohomology_failures(failures, data, pres, d, h_expected):
    h0, h1, h2 = data.h_dims
    if data.h_dims != h_expected:
        failures.append(f"h_dims {data.h_dims} != {h_expected}")
    if h0 - h1 + h2 != (1 - pres.n + pres.m) * d:
        failures.append("euler")
    if h0 != h2 or h1 != 2 * h0 + (2 * pres.genus - 2) * d:
        failures.append("duality")


def _cone_failures(failures, out, h1):
    if out["kept"] < CONE_SUCCESS_MIN * out["attempted"]:
        failures.append(f"cone success {out['kept']}/{out['attempted']}")
    if out["span_z1"] != min(out["attempted"], out["dim_z1"]):
        failures.append(f"cone span Z1 {out['span_z1']}")
    if out["span_h1"] != min(out["attempted"], h1):
        failures.append(f"cone span H1 {out['span_h1']}")


def _eval_worked(job, out):
    failures = []
    data = out["data"]
    h_expected, stratum, fixed = WORKED_EXPECTED[job["kind"]]
    _cohomology_failures(failures, data, job["pres"], job["group"].dim, h_expected)
    if out["stratum"] != stratum:
        failures.append(f"stratum {out['stratum']}")
    if out["fixed"] != fixed:
        failures.append(f"fixed subspace {out['fixed']}")
    _cone_failures(failures, out, data.h_dims[1])
    if out["q_max"] > Q_MAX:
        failures.append(f"obstruction {out['q_max']:.3e}")
    return failures, {"cone": (out["kept"], out["attempted"]), "rank_gaps": _rank_gaps(data)}


def _magnus_exp(omega):
    # omega is anti-Hermitian, so i*omega is Hermitian
    lam, V = np.linalg.eigh(1j * omega)
    return (V * np.exp(-1j * lam)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def reference_holonomy(group, b, values, substeps=256):
    """Holonomy of the linearly interpolated connection by fourth-order Magnus
    steps at two Gauss points, independent of the library's RK4 transport."""
    basis = np.stack(group.algebra_basis)
    cells = len(values) - 1
    h = b / cells / substeps
    offset = np.sqrt(3) / 6
    k = np.arange(substeps)
    result = np.eye(basis.shape[1], dtype=complex)
    for c in range(cells):
        lo, hi = values[c], values[c + 1]
        m1, m2 = [-np.einsum("sd,dij->sij", lo + f[:, None] * (hi - lo), basis)
                  for f in ((k + 0.5 - offset) / substeps, (k + 0.5 + offset) / substeps)]
        omega = 0.5 * h * (m1 + m2) + (np.sqrt(3) / 12) * h * h * (m2 @ m1 - m1 @ m2)
        for step in _magnus_exp(omega):
            result = step @ result
    return result


def _eval_holonomy(job, out):
    failures = []
    err = float(np.linalg.norm(out["H"] - reference_holonomy(job["group"], HOL_LENGTH, job["A"])))
    if err > CLOSED_FORM_MAX:
        failures.append(f"holonomy error {err:.3e}")
    gap = float(np.linalg.norm(out["D"] - out["F"]))
    if gap > FD_GAP_MAX:
        failures.append(f"fd gap {gap:.3e}")
    if job["extras"]:
        if out["closed"] > CLOSED_FORM_MAX:
            failures.append(f"closed form {out['closed']:.3e}")
        if out["gauge"] > GAUGE_MAX:
            failures.append(f"gauge {out['gauge']:.3e}")
    return failures, {"hol_err": err}


def _eval_high_genus(job, out):
    failures = []
    data = out["data"]
    pres, d, k = job["pres"], job["group"].dim, job["k"]
    if not out["fox_ok"]:
        failures.append("fox identity")
    if out["defect"] > DEFECT_TOL:
        failures.append(f"relator defect {out['defect']:.3e}")
    if out["k"] != k:
        failures.append(f"centralizer dim {out['k']}")
    _cohomology_failures(failures, data, pres, d, (k, 2 * k + (2 * pres.genus - 2) * d, k))
    _cone_failures(failures, out, data.h_dims[1])
    return failures, {"cone": (out["kept"], out["attempted"]), "rank_gaps": _rank_gaps(data)}


def _eval_reduction(job, out):
    failures = []
    if out["points"] != REDUCTION_SIZES[job["name"]]:
        failures.append(f"point counts {out['points']}")
    if not out["residual"] < DEFECT_TOL:
        failures.append(f"relation residual {out['residual']:.3e}")
    if "outside" in out["labels"]:
        failures.append("point outside the reduced space")
    want = ZARISKI[job["name"]]
    if out["zariski"] != (want, want):
        failures.append(f"zariski dims {out['zariski']}")
    return failures, {"points": sum(out["points"]), "residual": out["residual"]}


EVALUATORS = {
    "worked-example": _eval_worked,
    "holonomy": _eval_holonomy,
    "high-genus": _eval_high_genus,
    "reduction": _eval_reduction,
}


def evaluate(workload, job, out):
    """Oracle failures (empty when the job passed) and derived per-layer values."""
    return EVALUATORS[workload.name](job, out)

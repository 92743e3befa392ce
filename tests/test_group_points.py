"""Whether a matrix is a point of G is decided by one check, groups._elements.

The five inputs that must be group elements (a representation's values, a
bundle class's target, stabilizer elements and the constant gauge elements of
both conjugation checks) are rejected with its message, before any work and
without a numpy warning. The constructor-string and point-list inputs that
cannot work are rejected before any work too.
"""

import importlib
import itertools
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from surfrep import cohomology, reduction
from surfrep.cli import main
from surfrep.cohomology import (
    BundleClass,
    RepPoint,
    conjugation_isomorphism_check,
    rep_from_name,
    stabilizer_fixed_subspace,
)
from surfrep.groups import _elements, group_from_name, su2
from surfrep.holonomy import PathConnection, conjugation_invariance_check
from surfrep.words import surface_presentation

# the package exports a function named holonomy, which hides the module
holonomy_module = importlib.import_module("surfrep.holonomy")

G = su2()
P2 = surface_presentation(2)
REP = rep_from_name(P2, G, "torus:[0.7,1.1,-0.5,0.3]")
CONN = PathConnection(G, 1.0, np.random.default_rng(11).standard_normal((9, 3)))

# entry point -> (the name its errors give the element, a call with element x)
ENTRIES = {
    "RepPoint": ("representation matrix", lambda x: RepPoint(G, [x])),
    "BundleClass": ("central element", lambda x: BundleClass(G, x)),
    "stabilizer": ("stabilizer element", lambda x: stabilizer_fixed_subspace(P2, REP, [x])),
    "gauge": ("gauge element", lambda x: conjugation_invariance_check(CONN, x)),
    "conjugation": ("conjugating element", lambda x: conjugation_isomorphism_check(P2, REP, x)),
}
# flaw -> (element, the message after the element's name)
FLAWS = {
    "wrong-shape": (np.eye(3), r"must have shape \(2, 2\), got \(3, 3\)"),
    "vector": (np.ones(2), r"must have shape \(2, 2\), got \(2,\)"),
    "nan": (np.full((2, 2), np.nan), "must be finite"),
    "inf": (np.diag([np.inf, 1.0]), "must be finite"),
    "off-group": (2 * np.eye(2),
                  re.escape(f"lies off the group (defect {G.group_defect(2 * np.eye(2)):.3e})")),
}


def fail(*args, **kwargs):
    raise AssertionError("work began before the element was checked")


@pytest.mark.parametrize("flaw", FLAWS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_point_of_g_is_decided_by_one_check(entry, flaw, monkeypatch):
    what, call = ENTRIES[entry]
    x, message = FLAWS[flaw]
    with pytest.raises(ValueError) as shared:
        _elements(G, [x], what)
    # numpy's broadcast and reshape errors are ValueErrors too: the text decides
    assert re.fullmatch(re.escape(what) + " " + message, str(shared.value))
    monkeypatch.setattr(cohomology, "build_complex", fail)
    monkeypatch.setattr(holonomy_module, "_steps", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call(x)
    assert str(err.value) == str(shared.value)


def test_the_first_failing_element_names_the_error():
    # in order, as a representation's values: an off-group element before a
    # malformed one wins, and a malformed one before an off-group one wins
    eye = np.eye(2)
    with pytest.raises(ValueError, match="stabilizer element lies off the group"):
        stabilizer_fixed_subspace(P2, REP, [eye, 2 * eye, np.eye(3)])
    with pytest.raises(ValueError, match=r"stabilizer element must have shape"):
        stabilizer_fixed_subspace(P2, REP, [eye, np.eye(3), 2 * eye])


def _alone(x, what):
    """The message _elements gives for x alone, None when x is a point of G."""
    try:
        _elements(G, [x], what)
    except ValueError as exc:
        return str(exc)
    return None


def test_a_mixed_list_raises_for_its_first_failing_element():
    # in list order, each element checked for shape, then finiteness, then its
    # defect: the first element that fails alone names the error
    rng = np.random.default_rng(7)
    pool = [np.eye(3), np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), 2 * np.eye(2),
            (1 + 1e-9) * np.eye(2), G.random_element(rng), -np.eye(2)]
    for size in (1, 2, 3, len(pool)):
        for order in itertools.permutations(range(len(pool)), size):
            elements = [pool[i] for i in order]
            want = next(filter(None, (_alone(x, "element") for x in elements)), None)
            if want is None:
                assert len(_elements(G, elements, "element")) == size
                continue
            with pytest.raises(ValueError) as err:
                _elements(G, elements, "element")
            assert str(err.value) == want


@pytest.mark.parametrize("seed", ["-1", "-12"])
def test_a_negative_random_seed_is_a_bad_seed(seed, monkeypatch):
    monkeypatch.setattr(G, "random_element", fail)
    with pytest.raises(ValueError, match=re.escape(f"bad seed '{seed}'")):
        rep_from_name(P2, G, f"random:{seed}")
    result = CliRunner().invoke(main, ["cohomology", "--rep", f"random:{seed}"])
    assert result.exit_code == 3
    assert f"bad seed '{seed}'" in result.stderr


@pytest.mark.parametrize("name", ["SU2", "SO3", "U1"])
@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_a_non_finite_torus_angle_is_a_bad_angle_list(name, angle, monkeypatch):
    # an infinite angle reached the torus map, whose exp or sin warned
    group = group_from_name(name)
    monkeypatch.setattr(group, "torus", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="bad angle list"):
            rep_from_name(P2, group, f"torus:[{angle},0,0,0]")


def test_cli_rejects_an_infinite_torus_angle_without_a_warning():
    result = CliRunner().invoke(main, ["cohomology", "--rep", "torus:[inf,0,0,0]"])
    assert result.exit_code == 3
    assert "bad angle list" in result.stderr
    assert "Warning" not in result.stderr


@pytest.mark.parametrize("name", sorted(reduction.MODELS))
def test_an_empty_point_list_is_rejected_before_any_work(name, monkeypatch):
    model = reduction.MODELS[name]()
    monkeypatch.setattr(model, "_hilbert", fail)
    monkeypatch.setattr(model, "_relations", fail)
    for summary in (reduction.relation_residual_max, reduction.stratum_histogram):
        with pytest.raises(ValueError, match="the point list is empty"):
            summary(model, [])


@pytest.mark.parametrize("name", sorted(reduction.MODELS))
def test_another_models_points_are_rejected_before_any_work(name, monkeypatch):
    model = reduction.MODELS[name]()
    other = reduction.MODELS[({"so2", "so3"} - {name}).pop()]()
    points = reduction.sample_zero_locus(other, 2 * model.invariant_count, seed=0)
    # one stray point anywhere in the list is enough
    mixed = reduction.sample_zero_locus(model, 2 * model.invariant_count, seed=0)
    mixed[-1] = points[-1]
    monkeypatch.setattr(model, "_hilbert", fail)
    monkeypatch.setattr(model, "_relations", fail)
    message = f"point of model {other.name}, not {model.name}"
    for summary in (reduction.relation_residual_max, reduction.stratum_histogram,
                    reduction.zariski_dim_at_origin, reduction.check_relations):
        for batch in (points, mixed):
            with pytest.raises(ValueError, match=re.escape(message)):
                summary(model, batch[-1] if summary is reduction.check_relations else batch)

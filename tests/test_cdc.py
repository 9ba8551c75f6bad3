"""Polynomial Cartesian differential maps: D, axioms, sections, classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentcat.cdc import (
    cdc_context,
    cdc_map,
    classify_cdc_map,
    classify_linear,
    compose,
    differential,
    fibre_linear,
    full_section,
    is_section_of,
    linear_matrix,
    linearize_section,
    random_cdc_map,
    random_theta_section,
    section_context,
    tangent,
    theta,
    theta_composition_sides,
    theta_flip_sides,
    verify_cdc_axioms,
    verify_tangent_identities,
)
from tangentcat import cdc
from tangentcat.errors import InconsistentClassification, NotASection, UnsupportedDomain
from tangentcat.polycore import NN, QQ, ZZ, poly_parse, prime_field

F5 = prime_field(5)
DOMAINS = (QQ, F5, ZZ)


def mk(dom, n, texts, ctx=None):
    c = ctx if ctx is not None else cdc_context(n)
    return cdc_map(dom, n, tuple(poly_parse(t, c, dom) for t in texts), context=c)


def sample_map():
    return mk(QQ, 2, ("x1^2 + x2", "x1*x2"))


def zero_diff(pair):
    lhs, rhs = pair
    return all((a - b).is_zero() for a, b in zip(lhs.components, rhs.components))


# --- the differential operator ----------------------------------------------

def test_differential_doubles_the_arity():
    Df = differential(sample_map())
    assert (Df.arity_in, Df.arity_out) == (4, 2)
    assert [str(c) for c in Df.components] == ["2*x1*x3 + x4", "x2*x3 + x1*x4"]


def test_tangent_is_base_then_derivative():
    Tf = tangent(sample_map())
    assert [str(c) for c in Tf.components] == [
        "x1^2 + x2",
        "x1*x2",
        "2*x1*x3 + x4",
        "x2*x3 + x1*x4",
    ]


def test_theta_projects_the_basepoint():
    th = theta(sample_map())
    assert [str(c) for c in th.components] == [
        "x1",
        "x2",
        "2*x1*x3 + x4",
        "x2*x3 + x1*x4",
    ]


# --- axiom schemas ----------------------------------------------------------

@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_axioms_hold_on_a_fixed_pair(dom):
    f = mk(dom, 2, ("x1^2 + x2", "x1*x2"))
    g = mk(dom, 2, ("x1*x2",))
    for check in verify_cdc_axioms(f, g):
        assert check.holds, check.name
    for check in verify_tangent_identities(f):
        assert check.holds, check.name


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(DOMAINS))
def test_axioms_hold_on_random_maps(seed, dom):
    rng = random.Random(seed)
    f = random_cdc_map(rng, dom, 2, 2, max_degree=3)
    g = random_cdc_map(rng, dom, 2, 1, max_degree=3)
    for check in verify_cdc_axioms(f, g):
        assert check.holds, check.name


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_theta_laws_reduce_to_zero(seed):
    rng = random.Random(seed)
    f = random_cdc_map(rng, QQ, 2, 2, max_degree=3)
    g = random_cdc_map(rng, QQ, 2, 1, max_degree=3)
    assert zero_diff(theta_composition_sides(f, g))
    assert zero_diff(theta_flip_sides(f))


# --- sections of theta ------------------------------------------------------

def tap_and_section():
    tap = mk(QQ, 2, ("x1",))
    s = mk(QQ, 3, ("w1", "w1^2 + x1*w1"), ctx=section_context(2, 1))
    return tap, s


def test_section_predicate():
    tap, s = tap_and_section()
    assert is_section_of(tap, s) == (True, "")


def test_full_section_is_identity_on_the_base():
    tap, s = tap_and_section()
    full = full_section(tap, s)
    assert [str(c) for c in full.components] == ["x1", "x2", "w1", "x1*w1 + w1^2"]


def test_linearization_drops_higher_fibre_degree():
    tap, s = tap_and_section()
    lin = linearize_section(tap, s)
    assert [str(c) for c in lin.components] == ["x1", "x2", "w1", "x1*w1"]
    assert fibre_linear(lin, 2)
    again = linearize_section(tap, lin)
    assert [str(c) for c in again.components] == [str(c) for c in lin.components]


def test_non_section_is_rejected_with_discrepancy():
    tap, _ = tap_and_section()
    bad = mk(QQ, 3, ("w1 + 1", "w1^2"), ctx=section_context(2, 1))
    with pytest.raises(NotASection) as exc:
        linearize_section(tap, bad)
    assert exc.value.discrepancy == "component 2: w1 + 1 != w1"


def test_linearization_is_checked_again(monkeypatch):
    # the linearized section is verified afresh, not trusted by construction
    tap, s = tap_and_section()
    checks = iter([(True, None), (False, "component 2: sabotaged")])
    monkeypatch.setattr(cdc, "is_section_of", lambda f, s: next(checks))
    with pytest.raises(InconsistentClassification, match="sabotaged"):
        linearize_section(tap, s)


def test_linearization_needs_subtraction():
    tap = mk(NN, 2, ("x1",))
    s = mk(NN, 3, ("w1", "w1*x1"), ctx=section_context(2, 1))
    with pytest.raises(UnsupportedDomain):
        linearize_section(tap, s)


@pytest.mark.parametrize("dom", DOMAINS, ids=str)
def test_random_sections_round_trip(dom):
    rng = random.Random(7)
    for _ in range(5):
        f, s = random_theta_section(rng, dom, 2, 1)
        ok, why = is_section_of(f, s)
        assert ok, why
        lin = linearize_section(f, s)
        assert is_section_of(f, lin)[0]
        assert fibre_linear(lin, 2)


# --- classification of the linear fragment ----------------------------------

def test_linear_matrix_extraction():
    assert linear_matrix(mk(NN, 2, ("x1 + x2",))) == [[1, 1]]
    assert linear_matrix(mk(QQ, 1, ("x1^2",))) is None


def test_fold_over_the_naturals():
    report = classify_linear([[1, 1]], NN, name="fold")
    statuses = {k: v.status for k, v in report.predicates.items()}
    assert statuses == {
        "T_monic": "fails",
        "T_immersion": "fails",
        "T_unramified": "holds",
        "T_submersion": "undetermined",
        "split_T_submersion": "undetermined",
        "T_etale": "undetermined",
        "monic_T_etale": "fails",
    }
    assert report.predicates["T_unramified"].evidence == {"zero_columns": []}
    assert (
        report.predicates["T_submersion"].reason
        == "epimorphism-flavoured predicates over N need negation"
    )
    laws = {row["law"]: row for row in report.coherence}
    assert laws["unramified_implies_immersion"]["note"] == "no negation in this instance"


def test_doubling_over_the_integers():
    report = classify_linear([[2]], ZZ, name="double")
    statuses = {k: v.status for k, v in report.predicates.items()}
    assert statuses["T_monic"] == "holds"
    assert statuses["T_submersion"] == "undetermined"
    assert statuses["split_T_submersion"] == "fails"
    assert statuses["T_etale"] == "fails"
    assert report.predicates["T_monic"].evidence == {"rational_rank": 1, "columns": 1}
    assert (
        report.predicates["T_submersion"].reason
        == "over Z a submersion is only certified through a splitting"
    )


def test_shear_is_invertible():
    report = classify_linear([[1, 1], [0, 1]], QQ, name="shear")
    assert all(v.status == "holds" for v in report.predicates.values())
    assert report.predicates["split_T_submersion"].evidence == {
        "right_inverse": [["1", "-1"], ["0", "1"]]
    }


def test_projection_splits_but_is_not_monic():
    report = classify_linear([[1, 0]], QQ, name="crush")
    assert report.predicates["T_monic"].evidence == {
        "rank": 1,
        "columns": 2,
        "kernel_vector": ["0", "1"],
    }
    assert report.predicates["split_T_submersion"].evidence == {
        "right_inverse": [["1"], ["0"]]
    }


def test_nonlinear_maps_stay_undetermined():
    report = classify_cdc_map(mk(QQ, 1, ("x1^3",)), name="cube")
    assert all(v.status == "undetermined" for v in report.predicates.values())
    assert (
        report.predicates["T_monic"].reason
        == "only the linear fragment is classified; this map is nonlinear"
    )
    assert report.annotations == {"degree": 3}
    assert all(row["status"] == "skipped" for row in report.coherence)


def test_linear_maps_classify_through_their_matrix():
    report = classify_cdc_map(mk(QQ, 2, ("x1",)), name="crush")
    statuses = {k: v.status for k, v in report.predicates.items()}
    assert statuses == {
        "T_monic": "fails",
        "T_immersion": "fails",
        "T_unramified": "fails",
        "T_submersion": "holds",
        "split_T_submersion": "holds",
        "T_etale": "fails",
        "monic_T_etale": "fails",
    }

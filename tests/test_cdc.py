"""Polynomial Cartesian differential maps: D, axioms, sections, classification."""

import hashlib
import json
import random
from pathlib import Path

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
    pick,
    projection_map,
    random_cdc_map,
    random_polynomial,
    reindex,
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
from tangentcat.polycore import NN, QQ, ZZ, Polynomial, poly_parse, prime_field

from conftest import run_cli
from theta_sections import random_theta_section

F5 = prime_field(5)
DOMAINS = (QQ, F5, ZZ)
CDC_DIGEST = Path(__file__).parent / "data" / "cdc_digest.json"


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


@pytest.mark.parametrize("dom", (QQ, F5, ZZ, NN), ids=str)
def test_compose_through_empty_shapes(dom):
    """A 0-ary inner map feeds constants; a map with no outputs feeds none."""
    g = mk(dom, 3, ("2*x1 + x2*x3", "2*x1", "x3", "x1^2", "0"))
    point = mk(dom, 0, ("2", "0", "1"))
    h = compose(g, point)
    assert h.context == point.context and h.arity_out == 5
    assert [str(c) for c in h.components] == ["4", "4", "1", "4", "0"]
    nothing = mk(dom, 2, ())
    const = mk(dom, 0, ("3", "0", "1"))
    k = compose(const, nothing)
    assert k.context == nothing.context
    assert k.components == tuple(poly_parse(t, nothing.context, dom) for t in ("3", "0", "1"))
    assert compose(mk(dom, 0, ()), nothing).components == ()
    # a lone scaled variable is not passed through as its image
    f = mk(dom, 2, ("x1 + x2", "x1*x2", "1"))
    expected = ("2*x1 + 2*x2 + x1*x2", "2*x1 + 2*x2", "1", "x1^2 + 2*x1*x2 + x2^2", "0")
    assert compose(g, f).components == tuple(poly_parse(t, f.context, dom) for t in expected)


def reference_random_polynomial(rng, ctx, domain, max_degree=2, max_terms=3):
    """The same draws summed as one-term polynomials, one addition each."""
    p = Polynomial.zero(ctx, domain)
    lo = -3 if domain.has_negation else 0
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(ctx)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(ctx))] += 1
        p = p + Polynomial(ctx, domain, {tuple(mono): rng.randint(lo, 3)})
    return p


@pytest.mark.parametrize("dom", (QQ, F5, prime_field(2), ZZ, NN), ids=str)
def test_random_polynomial_matches_summed_terms(dom):
    """Same draws, same cancellations, same first-seen term order."""
    for seed in range(200):
        n = 1 + seed % 3
        got = random_polynomial(random.Random(seed), cdc_context(n), dom, 2, 5)
        ref = reference_random_polynomial(random.Random(seed), cdc_context(n), dom, 2, 5)
        assert got == ref and list(got.terms.items()) == list(ref.terms.items())


def test_structure_maps_compose_by_reindexing():
    """Picking components (index list after f) and renaming variables (f after
    an index list) agree with composing through projection_map, the reference."""
    rng = random.Random(3)
    zeros = repeats = 0
    for dom in (QQ, F5, ZZ, NN):
        for _ in range(30):
            n, k, big_n = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            f = random_cdc_map(rng, dom, n, k, max_degree=3)
            before = [rng.choice([None, *range(k)]) for _ in range(rng.randint(1, 5))]
            after = [rng.choice([None, *range(big_n)]) for _ in range(n)]
            assert pick(before, f) == compose(projection_map(dom, k, before), f)
            assert reindex(f, after, big_n) == compose(f, projection_map(dom, big_n, after))
            for idx in (before, after):
                zeros += None in idx
                repeats += len(set(idx)) < len(idx)
    assert zeros > 20 and repeats > 20


def test_the_law_checks_have_teeth(monkeypatch):
    """With D[f] doubled, every law that fixes the scale of D must fail."""
    true_d = cdc.differential
    monkeypatch.setattr(cdc, "differential", lambda f: cdc.add_maps(true_d(f), true_d(f)))
    f, g = sample_map(), mk(QQ, 2, ("x1*x2",))
    checks = verify_cdc_axioms(f, g) + verify_tangent_identities(f, g)
    assert {c.name for c in checks if not c.holds} == {
        "CD3_identity_and_projections", "CD5_chain_rule", "CD6_lift",
        "lift_naturality", "theta_composition", "theta_flip",
    }
    code, out = run_cli(["verify", "--suite", "theta-laws", "--count", "5", "--seed", "0",
                         "--json", "-"])
    assert code == 6 and len(json.loads(out)["failures"]) == 10


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


def test_a_section_quadratic_in_the_fibre_is_not_fibre_linear():
    tap, s = tap_and_section()
    assert not fibre_linear(full_section(tap, s), 2)


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


# matrices with no rows, no columns, or no rank: 0x0, 0x3, 1x0, 2x0, a zero
# 1x2 and a rank-1 2x2, as (rows, arity_in)
EMPTY_SHAPES = (([], 0), ([], 3), ([[]], 0), ([[], []], 0), ([[0, 0]], 2), ([[1, 2], [2, 4]], 2))


@pytest.mark.parametrize("dom, statuses, sha256", [
    (QQ, "hhhhhhh fffhhff hhhffff hhhffff fffffff fffffff",
     "1b5c755a86221f54023c3ddd5893809049750d4afc4ab4b40e15934821ea7423"),
    (F5, "hhhhhhh fffhhff hhhffff hhhffff fffffff fffffff",
     "16a2c85dc6c8ecbf03c2c0c9d3d5ff83eddbc1af59732831b2ef783b0d9d9924"),
    (ZZ, "hhhhhhh fffhhff hhhufff hhhufff fffufff fffufff",
     "c1aff6b46fcb2a6876efdf6172e7d84b2cc2bd31e101fa97f4f5ddf62c026e75"),
    (NN, "hhhuuuu fffuuuf hhhuuuu hhhuuuu fffuuuf ffhuuuf",
     "7c069daca8c2b8bd1ac0ed7620b1e20de089bc59acf8b9656baf0fd2608cb69b"),
], ids=str)
def test_degenerate_matrices_classify_as_recorded(dom, statuses, sha256):
    """Statuses (first letters, in PREDICATES order) and the SHA-256 of the
    JSON reports, timings blanked, as recorded when each domain had its own
    rank computation; the Z hash was recorded again when the 0 x 3 matrix's
    right inverse kept its three rows, [[], [], []] as over Q."""
    h, got = hashlib.sha256(), []
    for rows, n in EMPTY_SHAPES:
        report = classify_linear(rows, dom, name="m", arity_in=n).to_json()
        report["timings_ms"] = {}
        got.append("".join(v["status"][0] for v in report["predicates"].values()))
        h.update((json.dumps(report) + "\n").encode())
    assert " ".join(got) == statuses
    assert h.hexdigest() == sha256


# --- the whole layer against a recording ------------------------------------

def cdc_digest(seeds=range(200)):
    """SHA-256 over the text of D[f], T(f), theta(f), both sides of the two
    theta laws and a linearized section, for seeded maps over Q, F2, F5, Z, N.

    Degrees reach 6, past both primes, so D[f] loses its p*c terms.
    """
    domains = (QQ, prime_field(2), F5, ZZ, NN)
    h = hashlib.sha256()
    for seed in seeds:
        rng = random.Random(seed)
        dom = domains[seed % len(domains)]
        n, m, l = (rng.randint(1, 2) for _ in range(3))
        f = random_cdc_map(rng, dom, n, m, max_degree=6)
        g = random_cdc_map(rng, dom, m, l)
        maps = [differential(f), tangent(f), theta(f)]
        maps += [*theta_composition_sides(f, g), *theta_flip_sides(f)]
        if dom.has_negation:
            k = rng.randint(1, 3)
            maps.append(linearize_section(*random_theta_section(rng, dom, k, rng.randint(1, k), 3)))
        text = "".join("[" + ", ".join(c.to_str() for c in mp.components) + "]\n" for mp in maps)
        h.update(f"{seed}\n{text}".encode())
    return h.hexdigest()


def test_cdc_layer_matches_the_recorded_digest():
    # recorded before D[f] became one term map and the polynomial
    # operations lost their CoefficientDomain arithmetic
    recorded = json.loads(CDC_DIGEST.read_text())
    assert cdc_digest(range(recorded["inputs"])) == recorded["sha256"]

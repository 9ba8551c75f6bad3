"""End-to-end classification reports and the coherence laws."""

import random

import pytest

from tangentcat.cdc import cdc_context, cdc_map, classify_cdc_map
from tangentcat.classify import (
    and3,
    classify_affine,
    classify_calg,
    coherence_check,
    fails,
    from_bool,
    holds,
    undetermined,
)
from tangentcat.errors import InconsistentClassification
from tangentcat.polycore import QQ, Polynomial, context, poly_parse, prime_field
from tangentcat.presentations import free_algebra, morphism, present

F2 = prime_field(2)
ORDER = (
    "T_monic",
    "T_immersion",
    "T_unramified",
    "T_submersion",
    "split_T_submersion",
    "T_etale",
    "monic_T_etale",
)


def statuses(report):
    return tuple(report.predicates[k].status[0] for k in ORDER)  # h/f/u initials


def build_morphisms():
    """The same menagerie the golden workspace declares."""
    P1 = free_algebra(QQ, ("u",))
    A1 = free_algebra(QQ, ("t",))
    B1 = present(QQ, ("t",), (poly_parse("t^2", context("t"), QQ),))
    C1 = present(QQ, ("x",), (poly_parse("x^2 - x", context("x"), QQ),))
    K1 = free_algebra(QQ, ())
    R = free_algebra(QQ, ("t",))
    AR = present(QQ, (), (), base=R)
    BR = present(QQ, (), (poly_parse("t^2", context("t"), QQ),), base=R)
    k2 = free_algebra(F2, ())
    D2 = present(F2, ("x",), (poly_parse("x^2", context("x"), F2),))
    return {
        "iso": morphism(P1, P1, (poly_parse("u", context("u"), QQ),)),
        "trunc": morphism(A1, B1, (poly_parse("t", context("t"), QQ),)),
        "point": morphism(C1, K1, (Polynomial.zero(K1.context, QQ),)),
        "unit": morphism(K1, A1, ()),
        "qrel": morphism(AR, BR, (), over_base=True),
        "structure": morphism(k2, D2, ()),
    }


# one row per (instance, morphism): initials in ORDER, h=holds f=fails u=undet
CALG_TABLE = {
    "iso": "hhhhhhh",
    "trunc": "fffhfff",
    "point": "fffhhff",
    "unit": "hhhffff",
}
AFFINE_TABLE = {
    "iso": "hhhhhhh",
    "trunc": "hhhffff",
    "point": "hhhhhhh",
    "unit": "fffhhff",
    "qrel": "hhhhhhh",
    "structure": "fffhhff",
}


@pytest.mark.parametrize("name,row", sorted(CALG_TABLE.items()))
def test_algebra_instance_verdicts(name, row):
    f = build_morphisms()[name]
    report = classify_calg(f, name=name)
    assert "".join(statuses(report)) == row


@pytest.mark.parametrize("name,row", sorted(AFFINE_TABLE.items()))
def test_affine_instance_verdicts(name, row):
    f = build_morphisms()[name]
    base = "R" if name == "qrel" else None
    report = classify_affine(f, name=name, base_name=base)
    assert "".join(statuses(report)) == row


def test_immersion_agrees_with_unramified_on_the_table():
    for report_row in (*CALG_TABLE.values(), *AFFINE_TABLE.values()):
        assert report_row[1] == report_row[2]


def test_structure_map_fails_the_jacobian_criterion():
    f = build_morphisms()["structure"]
    report = classify_affine(f, name="structure")
    jac = report.annotations["jacobian_criterion"]
    assert jac["verdict"] == "fails"
    assert jac["reason"] == "no module retraction of the conormal differential exists"
    assert "note" not in report.annotations  # etale fails, so no mismatch to flag


def test_tangent_etale_against_a_thick_presentation_is_flagged():
    D2 = present(F2, ("x",), (poly_parse("x^2", context("x"), F2),))
    ident = morphism(D2, D2, (poly_parse("x", context("x"), F2),))
    report = classify_affine(ident, name="ident")
    assert all(v.status == "holds" for v in report.predicates.values())
    assert report.annotations["note"] == (
        "tangent-etale but not formally etale: "
        "the Jacobian splitting criterion fails for the target presentation"
    )


def test_report_serialization_shape():
    report = classify_calg(build_morphisms()["point"], name="point")
    doc = report.to_json()
    assert list(doc) == [
        "schema_version",
        "instance",
        "morphism",
        "base",
        "predicates",
        "coherence",
        "annotations",
        "timings_ms",
    ]
    assert doc["schema_version"] == "1"
    assert doc["instance"] == "calg"
    assert doc["morphism"] == "point"
    assert doc["base"] is None
    assert list(doc["predicates"]) == list(ORDER)


def test_every_instance_stamps_a_total_time():
    """calg, affine and both cdc-linear branches time their reports, and a
    monic T-etale verdict the caller set is kept as it is."""
    ctx = cdc_context(2)
    shear = cdc_map(QQ, 2, (poly_parse("x1 + x2", ctx, QQ), poly_parse("x2", ctx, QQ)))
    cube = cdc_map(QQ, 2, (poly_parse("x1^3", ctx, QQ),))
    trunc = build_morphisms()["trunc"]
    reports = [classify_calg(trunc), classify_affine(trunc),
               classify_cdc_map(shear), classify_cdc_map(cube)]
    for report in reports:
        assert list(report.timings_ms) == ["total"]
        assert isinstance(report.timings_ms["total"], float)
        assert report.timings_ms["total"] >= 0
    nonlinear = reports[-1].predicates
    assert nonlinear["monic_T_etale"].reason == nonlinear["T_monic"].reason


# --- coherence laws in isolation --------------------------------------------

def fabricate(row):
    perds = {}
    for key, ch in zip(ORDER, row):
        perds[key] = {"h": holds({}), "f": fails({}), "u": undetermined("test")}[ch]
    return perds


def test_violated_law_raises():
    with pytest.raises(InconsistentClassification) as exc:
        coherence_check(fabricate("hhfhhhh"))
    assert exc.value.law == "immersion_implies_unramified"
    assert "immersion_implies_unramified" in str(exc.value)


def test_converse_law_needs_negation():
    # unramified holds, immersion fails: only contradictory with negation
    rows = coherence_check(fabricate("ffhfffff"[:7]), has_negation=False)
    table = {r["law"]: r for r in rows}
    row = table["unramified_implies_immersion"]
    assert row["status"] == "skipped"
    assert row["note"] == "no negation in this instance"
    with pytest.raises(InconsistentClassification) as exc:
        coherence_check(fabricate("ffhfffff"[:7]), has_negation=True)
    assert exc.value.law == "unramified_implies_immersion"


def test_undetermined_inputs_skip_the_law():
    rows = coherence_check(fabricate("uuuuuuu"))
    assert all(r["status"] == "skipped" for r in rows)
    assert all(r["note"] == "undetermined input" for r in rows)


def test_consistent_table_checks_clean():
    rows = coherence_check(fabricate("hhhhhhh"))
    assert all(r["status"] == "checked" for r in rows)


# --- three-valued helpers ----------------------------------------------------

def test_from_bool_covers_the_three_values():
    assert from_bool(True, {"a": 1}) == holds({"a": 1})
    assert from_bool(False, {"a": 1}) == fails({"a": 1})
    s = from_bool(None, {"a": 1}, reason="later")
    assert s.status == "undetermined" and s.reason == "later"
    assert s.evidence == {"a": 1}
    assert not s.decided


def test_and3_short_circuits_on_failure():
    out = and3(holds({}), fails({"k": 0}), undetermined("x"))
    assert out.status == "fails"
    assert out.evidence == {"because": {"k": 0}}
    assert and3(holds({}), holds({})).status == "holds"
    assert and3(holds({}), undetermined("pending")).reason == "pending"


# --- cross-instance agreement ------------------------------------------------

CROSS_DOMAINS = (QQ, F2, prime_field(3), prime_field(5), prime_field(7))


def _linear_map(dom, rows, offsets):
    """x -> rows·x + offsets, one component per row, over x1..xn."""
    n = len(rows[0])
    ctx = cdc_context(n)
    unit = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    return [Polynomial(ctx, dom, {(0,) * n: b, **{unit[i]: a for i, a in enumerate(row)}})
            for row, b in zip(rows, offsets)]


def _disagreements(cdc_report, affine_report):
    """The predicates both reports decide and decide differently."""
    out = []
    for key in ORDER:
        c, a = cdc_report.predicates[key], affine_report.predicates[key]
        if c.decided and a.decided and c.status != a.status:
            out.append(key)
    return out


def test_linear_maps_agree_across_the_cdc_and_affine_instances():
    """x -> Ax + b classified as a cdc-linear map and as the affine morphism
    opposite to k[y] -> k[x], y_j -> (Ax + b)_j: the paper characterises each
    class in both settings, and the two engines share only polycore, so every
    predicate both decide must agree.  The cdc side fed the transpose, which
    swaps injective and surjective, must be refuted.  300 maps, under 1 s on a
    2-vCPU VM.  calg is not paired: no theorem relates it to cdc-linear on
    split_T_submersion."""
    rng = random.Random(16)
    compared, refuted = 0, 0
    for dom in CROSS_DOMAINS:
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            offsets = [rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(m)]
            comps = _linear_map(dom, rows, offsets)
            xs = free_algebra(dom, cdc_context(n).names)
            ys = free_algebra(dom, tuple(f"y{j + 1}" for j in range(m)))
            affine = classify_affine(morphism(ys, xs, comps))
            cdc = classify_cdc_map(cdc_map(dom, n, comps))
            assert _disagreements(cdc, affine) == [], (dom, rows, offsets)
            compared += sum(cdc.predicates[k].decided and affine.predicates[k].decided for k in ORDER)
            transpose = [list(col) for col in zip(*rows)]
            mutant = classify_cdc_map(cdc_map(dom, m, _linear_map(dom, transpose, [0] * n)))
            refuted += bool(_disagreements(mutant, affine))
    assert compared > 1500
    assert refuted > 0

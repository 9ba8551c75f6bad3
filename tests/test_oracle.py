"""Randomized corroboration and certificate replay."""

import random
from fractions import Fraction

import pytest

from tangentcat.cdc import cdc_context, cdc_map, classify_cdc_map, classify_linear
from tangentcat.classify import classify_affine, classify_calg
from tangentcat.errors import ContextMismatch, EmbeddingFailure, EvidenceMismatch
from tangentcat import groebner, oracle, presentations
from tangentcat.oracle import (
    MERSENNE_61,
    identity_check,
    maps_probably_equal,
    replay_evidence,
)
from tangentcat.polycore import QQ, ZZ, Polynomial, context, poly_parse, prime_field
from tangentcat.presentations import free_algebra, morphism, present

X = context("x")


def test_the_sampling_prime_is_mersenne():
    assert MERSENNE_61 == 2**61 - 1
    assert all(MERSENNE_61 % q for q in (3, 5, 7, 11, 13))  # smell test only


def test_identity_check_separates_distinct_polynomials():
    assert identity_check(
        poly_parse("(x+1)^2", X, QQ), poly_parse("x^2 + 2*x + 1", X, QQ)
    ) == "probably_equal"
    assert identity_check(
        poly_parse("x^2", X, QQ), poly_parse("x", X, QQ)
    ) == "definitely_unequal"


@pytest.mark.parametrize(
    "prime, lhs, rhs, verdict",
    [
        # x^p and x agree as functions on F_p, so no sample tells them apart
        (2, "x^2", "x", "definitely_unequal"),
        (5, "x^5", "x", "definitely_unequal"),
        (2, "(x+1)^2", "x^2 + 1", "probably_equal"),
    ],
    ids=["F2-unequal", "F5-unequal", "F2-equal"],
)
def test_identity_check_compares_exactly_over_small_fields(prime, lhs, rhs, verdict):
    F = prime_field(prime)
    p, q = poly_parse(lhs, X, F), poly_parse(rhs, X, F)
    assert identity_check(p, q) == verdict


def test_identity_check_refuses_mixed_contexts():
    with pytest.raises(ContextMismatch):
        identity_check(poly_parse("x", X, QQ), poly_parse("y", context("y"), QQ))


def test_embedding_failure_on_bad_denominator():
    bad = Polynomial.variable(X, QQ, 0).scale(Fraction(1, MERSENNE_61))
    with pytest.raises(EmbeddingFailure):
        identity_check(bad, bad)


def test_maps_probably_equal():
    ctx = cdc_context(1)
    f = cdc_map(QQ, 1, (poly_parse("(x1+1)^3", ctx, QQ),))
    g = cdc_map(QQ, 1, (poly_parse("x1^3 + 3*x1^2 + 3*x1 + 1", ctx, QQ),))
    h = cdc_map(QQ, 1, (poly_parse("x1^3", ctx, QQ),))
    assert maps_probably_equal(f, g) == "probably_equal"
    assert maps_probably_equal(f, h) == "definitely_unequal"
    # a different output arity is decided before any sample is drawn
    pair = cdc_map(QQ, 1, (poly_parse("(x1+1)^3", ctx, QQ),) * 2)
    assert maps_probably_equal(f, pair) == "definitely_unequal"


def test_config_seed_fixes_the_sample_points(monkeypatch):
    monkeypatch.setattr(oracle, "SAMPLES", 4)
    monkeypatch.setattr(oracle, "SEED", 99)
    p = poly_parse("x^3 - x", X, QQ)
    assert identity_check(p, p) == "probably_equal"
    # determinism: same seed, same verdict object-for-object
    q = poly_parse("x^3", X, QQ)
    first = identity_check(p, q)
    assert all(identity_check(p, q) == first for _ in range(3))


# --- certificate replay -----------------------------------------------------

def point_morphism():
    C1 = present(QQ, ("x",), (poly_parse("x^2 - x", X, QQ),))
    K1 = free_algebra(QQ, ())
    return morphism(C1, K1, (Polynomial.zero(K1.context, QQ),))


def test_replay_corroborates_algebra_evidence():
    f = point_morphism()
    report = classify_calg(f, name="point")
    rows = replay_evidence(report, morphism=f)
    assert {(r["predicate"], r["claim"]) for r in rows} == {
        ("T_monic", "kernel_generators"),
        ("T_immersion", "kernel_generators"),
        ("T_unramified", "kernel_generators"),
        ("T_submersion", "preimages"),
        ("split_T_submersion", "witness"),
    }
    assert all(r["status"] == "corroborated" for r in rows)


def test_replay_corroborates_codiagonal_evidence():
    F2 = prime_field(2)
    k2 = free_algebra(F2, ())
    D2 = present(F2, ("x",), (poly_parse("x^2", X, F2),))
    f = morphism(k2, D2, ())
    report = classify_affine(f, name="structure")
    rows = replay_evidence(report, morphism=f)
    claims = {r["claim"] for r in rows}
    assert "codiagonal_kernel_generators" in claims
    assert all(r["status"] == "corroborated" for r in rows)


def test_replay_without_the_morphism_is_explicit():
    report = classify_calg(point_morphism(), name="point")
    rows = replay_evidence(report)
    assert rows == [
        {"status": "not_replayable",
         "note": "algebra-side replay needs the morphism object"}
    ]


def test_replay_with_nothing_to_check():
    ctx = cdc_context(1)
    cube = classify_cdc_map(cdc_map(QQ, 1, (poly_parse("x1^3", ctx, QQ),)))
    assert replay_evidence(cube) == [
        {"status": "not_replayable", "note": "no matrix annotation on this report"}
    ]
    from tangentcat.polycore import NN

    fold = classify_linear([[1, 1]], NN, name="fold")
    assert replay_evidence(fold) == [{"status": "nothing_to_replay"}]


def test_tampered_witness_is_caught():
    f = point_morphism()
    report = classify_calg(f, name="point")
    report.predicates["split_T_submersion"].evidence["witness"] = "x + 1"
    with pytest.raises(EvidenceMismatch) as exc:
        replay_evidence(report, morphism=f)
    assert "witness" in str(exc.value)


def _search_forbidden(*args):
    raise AssertionError("the replay ran the kernel search")


def test_witness_replay_reads_the_stored_kernel(monkeypatch):
    f = point_morphism()
    A = f.source
    identity = morphism(A, A, (A.var(0),))
    reports = [classify_calg(f, name="point"), classify_calg(identity, name="identity")]
    assert reports[1].predicates["T_monic"].evidence == {"kernel": "zero"}
    monkeypatch.setattr(presentations, "ring_map_kernel", _search_forbidden)
    monkeypatch.setattr(groebner, "ring_map_kernel", _search_forbidden)
    for report, g in zip(reports, (f, identity)):
        rows = replay_evidence(report, morphism=g)
        assert ("split_T_submersion", "witness", "corroborated") in {
            (r["predicate"], r["claim"], r["status"]) for r in rows
        }
    # 1 maps to 1 but does not annihilate the stored generator x
    report = reports[0]
    report.predicates["split_T_submersion"].evidence["witness"] = "1"
    with pytest.raises(EvidenceMismatch, match="does not annihilate x"):
        replay_evidence(report, morphism=f)
    del report.predicates["T_monic"].evidence["kernel_generators"]
    with pytest.raises(EvidenceMismatch, match="stores no kernel generators"):
        replay_evidence(report, morphism=f)


def test_witness_replay_needs_the_whole_kernel():
    # Q[x, y]/(x^2 - x, y^2 - y) -> Q has kernel (x, y); 1 - x annihilates
    # x alone, so a report that stores only x must not corroborate it
    xy = context("x", "y")
    A = present(QQ, ("x", "y"), (poly_parse("x^2 - x", xy, QQ), poly_parse("y^2 - y", xy, QQ)))
    K = free_algebra(QQ, ())
    f = morphism(A, K, (Polynomial.zero(K.context, QQ),) * 2)
    report = classify_calg(f, name="corner")
    assert report.predicates["T_monic"].evidence == {"kernel_generators": ["x", "y"]}
    assert replay_evidence(report, morphism=f)
    report.predicates["T_monic"].evidence["kernel_generators"] = ["x"]
    report.predicates["split_T_submersion"].evidence["witness"] = "-x + 1"
    with pytest.raises(EvidenceMismatch, match="do not generate the kernel"):
        replay_evidence(report, morphism=f)


def test_tampered_right_inverse_is_caught():
    report = classify_linear([[2, 1]], ZZ, name="wide")
    rows = replay_evidence(report)
    assert ("split_T_submersion", "right_inverse", "corroborated") in {
        (r["predicate"], r["claim"], r["status"]) for r in rows
    }
    report.predicates["split_T_submersion"].evidence["right_inverse"][0][0] = "5"
    with pytest.raises(EvidenceMismatch):
        replay_evidence(report)


def test_tampered_kernel_vector_is_caught():
    report = classify_linear([[2, 4]], ZZ, name="thin")
    assert report.predicates["T_monic"].evidence["kernel_vector"] == ["-2", "1"]
    report.predicates["T_monic"].evidence["kernel_vector"] = ["1", "1"]
    with pytest.raises(EvidenceMismatch):
        replay_evidence(report)


@pytest.mark.parametrize("modulus", [2, 3, 5, MERSENNE_61, 2**31 - 1])
def test_sample_points_are_the_randrange_sequence(modulus, monkeypatch):
    # the seeded points, and so every oracle verdict, are those randrange drew
    ctx = context("x", "y", "z")
    dom = prime_field(modulus) if modulus < 6 else QQ
    p = poly_parse("x + 2*y + z", ctx, dom)  # degree 1: sampled even over F_2
    points = []
    monkeypatch.setattr(oracle, "_eval_mod", lambda residues, point, m: points.append(point) or 0)
    monkeypatch.setattr(oracle, "MERSENNE_61", modulus)
    monkeypatch.setattr(oracle, "SAMPLES", 4)
    for seed in range(50):
        monkeypatch.setattr(oracle, "SEED", seed)
        assert identity_check(p, p) == "probably_equal"
        rng = random.Random(seed)
        expected = [[rng.randrange(modulus) for _ in range(3)] for _ in range(4)]
        assert points[::2] == points[1::2] == expected
        points.clear()


def onto_a_line():
    # Q[x, y]/(y^2 - y) -> Q[t], x -> t, y -> 1: kernel (y - 1), preimage
    # x for t, and witness y, which maps to 1 and annihilates y - 1
    xy, t = context("x", "y"), context("t")
    A = present(QQ, ("x", "y"), (poly_parse("y^2 - y", xy, QQ),))
    return morphism(A, free_algebra(QQ, ("t",)), (poly_parse("t", t, QQ), poly_parse("1", t, QQ)))


@pytest.mark.parametrize("predicate, key, value, message", [
    ("T_monic", "kernel_generators", ["y^2 - y"], r"y\^2 - y is zero in the source"),
    ("T_monic", "kernel_generators", ["x"], "x does not map to zero"),
    ("T_submersion", "preimages", {"t": "x + 1"}, r"x \+ 1 does not hit t"),
    ("split_T_submersion", "witness", "2*y", r"2\*y does not map to 1"),
    ("T_submersion", "preimages", {}, "do not define a map back to the source"),
], ids=["zero-generator", "generator-off-the-kernel", "preimage-misses", "witness-not-1",
        "no-map-back"])
def test_mutated_algebra_evidence_is_refuted(predicate, key, value, message):
    f = onto_a_line()
    report = classify_calg(f, name="line")
    assert all(r["status"] == "corroborated" for r in replay_evidence(report, morphism=f))
    report.predicates[predicate].evidence[key] = value
    with pytest.raises(EvidenceMismatch, match=message):
        replay_evidence(report, morphism=f)


@pytest.mark.parametrize("predicate, key, value, message", [
    ("T_monic", "kernel_vector", ["0", "0"], "the claimed kernel vector is zero"),
    # 1 + 2·2 is 5, which is 0 only modulo 5
    ("split_T_submersion", "right_inverse", [["1"], ["2"]], r"entry \(0, 0\) is 0, not 1"),
], ids=["zero-kernel-vector", "wrong-right-inverse"])
def test_mutated_linear_evidence_over_f5_is_refuted(predicate, key, value, message):
    report = classify_linear([[1, 2]], prime_field(5), name="wide")
    assert all(r["status"] == "corroborated" for r in replay_evidence(report))
    report.predicates[predicate].evidence[key] = value
    with pytest.raises(EvidenceMismatch, match=message):
        replay_evidence(report)

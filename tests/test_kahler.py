"""Kaehler differentials, module presentations, and the cotangent sequence."""

import pytest

from tangentcat.errors import ResourceLimit, ShapeMismatch
from tangentcat.groebner import degree_cap
from tangentcat.kahler import (
    ModulePresentation,
    base_change_check,
    classify_cotangent,
    conormal_sequence,
    cotangent_map,
    free_module,
    jacobian_split_verdict,
    kahler_module,
    module_map,
    module_map_kernel,
    relative_kahler,
    retraction_solve,
    zero_module_evidence,
)
from tangentcat.polycore import QQ, Polynomial, context, poly_parse, prime_field
from tangentcat.presentations import free_algebra, morphism, present

F2 = prime_field(2)
T = context("t")


def nilpotent_line():
    return present(QQ, ("t",), (poly_parse("t^2", T, QQ),))


def truncation_map():
    A = free_algebra(QQ, ("t",))
    return morphism(A, nilpotent_line(), (poly_parse("t", T, QQ),))


# --- Kaehler modules --------------------------------------------------------

def test_free_algebra_has_free_differentials():
    A = free_algebra(QQ, ("u", "v"))
    M = kahler_module(A)
    assert M.labels == ("du", "dv")
    assert len(M.relations) == 0
    assert not zero_module_evidence(M)[0]


def test_unit_derivative_kills_the_module():
    # d(y^2 - 1) = 2y dy and 2y is invertible mod y^2 - 1
    B = present(QQ, ("y",), (poly_parse("y^2 - 1", context("y"), QQ),))
    M = kahler_module(B)
    assert [[str(e) for e in row] for row in M.relations] == [["2*y"]]
    zero, ev = zero_module_evidence(M)
    assert zero
    assert ev == {"generators": 1, "all_reduce_to_zero": True}


def test_characteristic_two_keeps_the_differential():
    # over F2 the relation x^2 differentiates to 0, so dx survives
    D = present(F2, ("x",), (poly_parse("x^2", context("x"), F2),))
    M = kahler_module(D)
    assert M.labels == ("dx",)
    assert [[str(e) for e in row] for row in M.relations] == [["0"]]
    assert not zero_module_evidence(M)[0]
    assert M.dimension() == 2


def test_empty_presentation_is_the_zero_module():
    B = nilpotent_line()
    M = ModulePresentation(B, (), ())
    assert zero_module_evidence(M) == (True, {"generators": 0})


def test_degree_cap_reaches_a_cached_module_basis():
    # a basis cached under the default cap must not be handed out under a
    # lower one: the relation x^3 exceeds a cap of 2 whatever the cache holds
    A = free_algebra(QQ, ("x",))
    M = ModulePresentation(A, ("e",), ((A.parse("x^3"),),))
    M.gb()
    token = degree_cap.set(2)
    try:
        with pytest.raises(ResourceLimit):
            M.gb()
    finally:
        degree_cap.reset(token)


# --- module maps ------------------------------------------------------------

def test_module_map_checks_relations():
    B = nilpotent_line()
    M = ModulePresentation(B, ("e",), ((B.parse("t"),),))
    F = free_module(B, ("e",))
    with pytest.raises(ShapeMismatch):
        module_map(M, F, ((B.one(),),))


def test_module_map_kernel_by_syzygies():
    B = nilpotent_line()
    F = free_module(B, ("e",))
    phi = module_map(F, F, ((B.parse("t"),),))
    ker = module_map_kernel(phi)
    assert [[str(e) for e in vec] for vec in ker] == [["t"]]


def test_retraction_solver_both_ways():
    B = present(QQ, ("y",), (poly_parse("y^3", context("y"), QQ),))
    M = kahler_module(B)
    N = free_module(B, ("e",))
    # 2y is a zero divisor mod y^3: no retraction exists
    blocked = retraction_solve(module_map(N, M, ((B.parse("2*y"),),)))
    assert not blocked.exists
    assert blocked.matrix is None
    # the identity on a free module retracts by the identity
    ident = retraction_solve(module_map(N, N, ((B.one(),),)))
    assert ident.exists
    assert ident.matrix is not None
    # a nonzero module does not retract through the zero module
    Z = ModulePresentation(B, ("z",), ((B.one(),),))
    assert not retraction_solve(module_map(N, Z, ((B.one(),),))).exists


# --- cotangent sequence -----------------------------------------------------

def test_truncation_cotangent_sequence():
    seq = cotangent_map(truncation_map())
    assert [[str(e) for e in row] for row in seq.v.matrix] == [["1"]]
    v = classify_cotangent(seq)
    assert v.regime == "finite"
    monic, ev = v.monic
    assert monic is False
    assert ev["source_dimension"] == 2 and ev["matrix_rank"] == 1
    coker, ev = v.cokernel_zero
    assert coker is True and ev["module"] == "cokernel"
    split, ev = v.split_monic
    assert split is False
    assert ev["reason"] == "the retraction system is infeasible"
    iso, _ = v.iso
    assert iso is False


def test_invertible_comparison_map_splits():
    A = free_algebra(QQ, ("u",))
    ident = morphism(A, A, (poly_parse("u", context("u"), QQ),))
    v = classify_cotangent(cotangent_map(ident))
    assert v.regime == "general"
    assert v.monic[0] and v.cokernel_zero[0] and v.iso[0]
    split, ev = v.split_monic
    assert split is True
    assert ev["route"] == "iso"


def test_relative_differentials_vanish_for_quotients():
    # absolute quotient
    assert zero_module_evidence(relative_kahler(truncation_map()))[0]
    # the same quotient presented over the base Q[t]
    R = free_algebra(QQ, ("t",))
    AR = present(QQ, (), (), base=R)
    BR = present(QQ, (), (poly_parse("t^2", T, QQ),), base=R)
    qrel = morphism(AR, BR, (), over_base=True)
    assert zero_module_evidence(relative_kahler(qrel)) == (True, {"generators": 0})


# --- base change ------------------------------------------------------------

def test_base_change_of_the_parabola():
    A = free_algebra(QQ, ("x",))
    bctx = context("x", "y")
    B = present(QQ, ("x", "y"), (poly_parse("y^2 - x", bctx, QQ),))
    kctx = context("z")
    K = present(QQ, ("z",), (poly_parse("z", kctx, QQ),))
    f = morphism(A, B, (poly_parse("x", bctx, QQ),))
    g = morphism(A, K, (Polynomial.zero(kctx, QQ),))
    res = base_change_check(f, g)
    assert res.isomorphic
    assert (res.left_dimension, res.right_dimension) == (1, 1)
    assert res.detail == "canonical map has full rank"


# --- Jacobian criterion -----------------------------------------------------

def test_jacobian_splitting_verdicts():
    free = free_algebra(QQ, ("u",))
    ok, ev = jacobian_split_verdict(free)
    assert ok and "no relations" in ev["reason"]

    etale = present(QQ, ("y",), (poly_parse("y^2 - 1", context("y"), QQ),))
    ok, ev = jacobian_split_verdict(etale)
    assert ok and "retraction" in ev

    thick = present(F2, ("x",), (poly_parse("x^2", context("x"), F2),))
    ok, ev = jacobian_split_verdict(thick)
    assert ok is False
    assert ev["reason"] == "no module retraction of the conormal differential exists"


def test_conormal_delta_of_a_transverse_relation():
    B = present(QQ, ("y",), (poly_parse("y^2 - 1", context("y"), QQ),))
    cs = conormal_sequence(B)
    assert cs.conormal.rank == 1
    assert [str(e) for e in cs.delta.column(0)] == ["2*y"]

"""Kaehler differentials, module presentations, and the cotangent sequence."""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import random
import time

import pytest

from tangentcat import groebner
from tangentcat.classify import classify_affine
from tangentcat.cli import load_workspace
from tangentcat.errors import ResourceLimit, ShapeMismatch
from tangentcat.groebner import ModuleGroebnerBasis, degree_cap, module_buchberger
from tangentcat.kahler import (
    ModulePresentation,
    _module_gb,
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
from tangentcat.cdc import random_polynomial
from tangentcat.polycore import QQ, Polynomial, VariableContext, context, poly_parse, prime_field
from tangentcat.presentations import (
    AlgebraPresentation,
    absolute,
    codiagonal,
    free_algebra,
    fresh_names,
    identity_morphism,
    morphism,
    present,
    pushout,
)

from conftest import DATA, run_cli, scrub_timings
from poly_reference import describe

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


def test_kahler_rows_are_raw_and_the_cli_prints_them_reduced(tmp_path):
    # d(x^2) = 2x is the raw row; x lies in (x^2, x^3 + x), so it reduces to 0
    ws = tmp_path / "ws.tgc"
    ws.write_text("field Q\nalgebra A = vars(x) / (x^2, x^3 + x)\n")
    M = kahler_module(load_workspace(str(ws)).algebras["A"])
    assert [[str(e) for e in row] for row in M.relations] == [["2*x"], ["3*x^2 + 1"]]
    out = tmp_path / "out.json"
    assert run_cli(["kahler", "--workspace", str(ws), "--algebra", "A", "--json", str(out)])[0] == 0
    assert json.loads(out.read_text())["relations"] == [["0"], ["1"]]


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


def test_the_zero_module_reduces_and_counts_like_any_other():
    M = ModulePresentation(nilpotent_line(), (), ())
    assert M.reduce(()) == ()
    with pytest.raises(ShapeMismatch, match=r"^vector rank 1 != module rank 0$"):
        M.reduce((M.algebra.one(),))
    assert M.finite().basis == ()
    assert M.dimension() == 0


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


@pytest.mark.parametrize("name", ["B1", "C1", "D2"])
def test_normal_forms_and_staircases_build_no_polynomials(monkeypatch, name):
    # a basis used only for normal forms and staircases never builds its
    # Polynomials, which keeps peak memory flat; a budget that no other test
    # sets keys fresh cache entries, so every basis here is computed anew
    B = load_workspace(str(DATA / "figure1.tgc")).algebras[name]
    read = []
    monkeypatch.setattr(ModuleGroebnerBasis, "generators", property(read.append))
    token = degree_cap.set(63)
    try:
        M = kahler_module(B)
        zero_module_evidence(M)
        assert M.finite() is not None and B.finite_basis() is not None
    finally:
        degree_cap.reset(token)
    assert read == []


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


def test_module_map_kernel_into_and_out_of_the_zero_module():
    A = free_algebra(QQ, ("t",))
    zero = free_module(A, ())
    # into the zero module every vector is in the kernel
    ker = module_map_kernel(module_map(free_module(A, ("a", "b")), zero, ()))
    assert [[str(e) for e in vec] for vec in ker] == [["0", "1"], ["1", "0"]]
    # out of it nothing but zero is
    assert module_map_kernel(module_map(zero, free_module(A, ("e",)), ((),))) == []
    B = nilpotent_line()
    target = ModulePresentation(B, ("e",), ((B.parse("t"),),))
    assert module_map_kernel(module_map(ModulePresentation(B, (), ()), target, ((),))) == []


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


def test_base_change_with_an_infinite_side_is_undecided():
    # Q -> Q[x] along Q -> Q: both sides are Q[x] dx, infinite-dimensional
    k, line = free_algebra(QQ, ()), free_algebra(QQ, ("x",))
    res = base_change_check(morphism(k, line, ()), morphism(k, k, ()))
    assert (res.isomorphic, res.left_dimension, res.right_dimension) == (None, None, None)
    assert res.detail == "comparison needs finite-dimensional differentials on both sides"


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


def test_jacobian_verdict_of_an_infinite_target_is_undetermined():
    # the two axes Q[x, y]/(xy) have relations but no finite staircase
    xy = context("x", "y")
    axes = present(QQ, ("x", "y"), (poly_parse("x*y", xy, QQ),))
    reason = "conormal splitting needs finite-dimensional modules"
    assert jacobian_split_verdict(axes) == (None, {"reason": reason})
    f = morphism(free_algebra(QQ, ("t",)), axes, (poly_parse("x", xy, QQ),))
    report = classify_affine(f, name="axis")
    assert report.annotations == {"jacobian_criterion": {"verdict": "undetermined", "reason": reason}}


def test_conormal_delta_of_a_transverse_relation():
    B = present(QQ, ("y",), (poly_parse("y^2 - 1", context("y"), QQ),))
    delta = conormal_sequence(B)
    assert delta.source.rank == 1
    assert [str(e) for e in delta.column(0)] == ["2*y"]


def test_conormal_module_without_relative_relations():
    # R[y] over R = Q[t]/(t^2): the base relation t^2 is no relation of K/K^2
    B = present(QQ, ("y",), (), base=nilpotent_line())
    delta = conormal_sequence(B)
    assert (delta.source.labels, delta.source.relations) == ((), ())
    assert delta.matrix == ((),)
    assert jacobian_split_verdict(B) == (True, {"reason": "no relations: the conormal module is zero"})


def _trim(a):
    """A coefficient list mod p, constant first, without trailing zeros."""
    while a and not a[-1]:
        a = a[:-1]
    return a


def _rem(a, b, p):
    """The remainder of a by a nonzero b over F_p."""
    a, b = _trim(a), _trim(b)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        q, shift = a[-1] * inv % p, len(a) - len(b)
        a = _trim([(c - q * b[i - shift]) % p if i >= shift else c for i, c in enumerate(a)])
    return a


def _gcd_is_one(a, b, p):
    while _trim(b):
        a, b = b, _rem(a, b, p)
    return len(_trim(a)) == 1


def _monic_polynomials(p, degree):
    """Coefficient lists, constant first, of every monic h of that degree over F_p."""
    for low in itertools.product(range(p), repeat=degree):
        yield [*low, 1]


def test_jacobian_verdicts_of_univariate_quotients_over_small_fields():
    """F_p[y]/(h) splits its conormal differential exactly when h is
    separable, gcd(h, h') = 1; a True verdict's retraction R inverts the
    matrix of multiplication by h' on 1, y, ..., y^(d-1) mod h."""
    targets = [(2, d) for d in (1, 2, 3)] + [(p, d) for p in (3, 5, 7) for d in (1, 2)]
    count = split = 0
    for p, d in targets:
        dom = prime_field(p)
        for h in _monic_polynomials(p, d):
            dh = [i * c % p for i, c in enumerate(h)][1:]
            B = present(dom, ("y",), (Polynomial(context("y"), dom, {(i,): c for i, c in enumerate(h) if c}),))
            ok, ev = jacobian_split_verdict(B)
            count += 1
            assert ok is _gcd_is_one(h, dh, p), (p, h, ev)
            if not ok:
                continue
            split += 1
            # column j: the coordinates of y^j * h' mod h
            cols = [_rem([0] * j + dh, h, p) for j in range(d)]
            M = [[col[i] if i < len(col) else 0 for col in cols] for i in range(d)]
            R = [[int(x) for x in row] for row in ev["retraction"]]
            product = [[sum(R[i][k] * M[k][j] for k in range(d)) % p for j in range(d)] for i in range(d)]
            assert product == [[int(i == j) for j in range(d)] for i in range(d)], (p, h, R)
    assert (count, split) == (112, 91)


def _gcd(a, b, p):
    while _trim(b):
        a, b = b, _rem(a, b, p)
    return _trim(a)


def _derivative(a, p):
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _compose_mod(g, b, h, p):
    """g(b) mod h, by Horner's rule."""
    acc = []
    for c in reversed(g):
        prod = [c] + [0] * (len(acc) + len(b))
        for i, x in enumerate(acc):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        acc = _rem([x % p for x in prod], h, p)
    return acc


def test_zero_differentials_of_univariate_morphisms_over_small_fields():
    """For every morphism F_p[x]/(g) -> F_p[y]/(h), x -> b, with g and h
    monic of degree 1-3 over F_2 and 1-2 over F_3 and F_5 and b of degree
    below deg h, the cokernel of the comparison map (T_immersion) and the
    relative differentials (T_unramified) are zero exactly when
    gcd(h, h', b') = 1, by the Euclid above.  The full family fits its
    budget of about 3 s (1.0-1.5 s on a 2-vCPU VM), so no stride is taken;
    the test fails past 15 s."""
    start, count, zero = time.perf_counter(), 0, 0
    for p, top in ((2, 3), (3, 2), (5, 2)):
        dom = prime_field(p)

        def univariate(name, coeffs):
            return Polynomial(context(name), dom, {(i,): c for i, c in enumerate(coeffs) if c})

        for g in (g for d in range(1, top + 1) for g in _monic_polynomials(p, d)):
            A = present(dom, ("x",), (univariate("x", g),))
            for h in (h for d in range(1, top + 1) for h in _monic_polynomials(p, d)):
                B = present(dom, ("y",), (univariate("y", h),))
                for b in itertools.product(range(p), repeat=len(h) - 1):
                    b = _trim(list(b))
                    if _compose_mod(g, b, h, p):
                        continue  # x -> b does not respect g
                    f = morphism(A, B, (univariate("y", b),))
                    expected = len(_gcd(h, _gcd(_derivative(h, p), _derivative(b, p), p), p)) == 1
                    immersion = zero_module_evidence(cotangent_map(f).cokernel)[0]
                    unramified = zero_module_evidence(relative_kahler(f))[0]
                    assert immersion == unramified == expected, (p, g, h, b)
                    count += 1
                    zero += expected
    assert (count, zero) == (1898, 1604)
    assert time.perf_counter() - start < 15.0


# --- raw Jacobian rows against reduced ones --------------------------------
# Reduced rows are the reference: reducing a row by the algebra's ideal adds
# ideal multiples, which every module basis folds in, so both presentations
# have one reduced module basis.

@pytest.fixture(scope="module")
def fixture_morphisms():
    """The benchmark's 200 acceptance morphisms, read from bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", DATA.parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.fixture_morphisms()


def _reduced_rows(M):
    B = M.algebra
    return ModulePresentation(B, M.labels, tuple(tuple(B.reduce(c) for c in row) for row in M.relations))


def _reduced_cokernel(seq):
    """The cokernel on the reduced rows of the middle module; the image
    columns of v come reduced already."""
    middle = _reduced_rows(seq.middle)
    images = seq.cokernel.relations[len(seq.middle.relations):]
    return ModulePresentation(middle.algebra, middle.labels, middle.relations + images)


def _raw_and_reduced(f):
    """(name, raw, reduced) builders of the three differential modules of f."""
    return [
        ("middle", lambda: kahler_module(f.target), lambda: _reduced_rows(kahler_module(f.target))),
        ("cokernel", lambda: cotangent_map(f).cokernel, lambda: _reduced_cokernel(cotangent_map(f))),
        ("relative", lambda: relative_kahler(f), lambda: _reduced_rows(relative_kahler(f))),
    ]


def test_raw_rows_give_the_module_of_reduced_rows(fixture_morphisms):
    """Same reduced basis and same zero-module evidence on the 200 fixture
    morphisms and on every figure-1 algebra and morphism."""
    ws = load_workspace(str(DATA / "figure1.tgc"))
    builders = [(name, lambda B=B: kahler_module(B), lambda B=B: _reduced_rows(kahler_module(B)))
                for name, B in ws.algebras.items()]
    for f in list(fixture_morphisms) + list(ws.morphisms.values()):
        builders += _raw_and_reduced(f)
    differs = 0
    for name, raw, reduced in builders:
        M, ref = raw(), reduced()
        differs += M.relations != ref.relations
        assert M.gb().generators == ref.gb().generators, name
        assert zero_module_evidence(M) == zero_module_evidence(ref), name
    assert differs  # some raw rows are not reduced, so the comparison bites


def _outcome(build, cap):
    token = degree_cap.set(cap)
    try:
        return zero_module_evidence(build())
    except ResourceLimit:
        return "limit"
    finally:
        degree_cap.reset(token)


def test_raw_rows_meet_the_degree_cap_where_reduced_rows_do(fixture_morphisms):
    """Under caps 0-5, on every second fixture morphism (600 cases a module),
    raw and reduced rows raise ResourceLimit on the same cases and agree
    elsewhere.  Budget: under 20 s (about 2 s on a 2-vCPU VM)."""
    start, limits = time.perf_counter(), 0
    for cap in range(6):
        for f in fixture_morphisms[::2]:
            for name, raw, reduced in _raw_and_reduced(f):
                outcome = _outcome(raw, cap)
                assert outcome == _outcome(reduced, cap), (cap, name, describe(f))
                limits += outcome == "limit"
    assert 0 < limits < 1800  # both outcomes are exercised
    assert time.perf_counter() - start < 20.0


def test_the_relative_route_builds_no_ring_basis(fixture_morphisms):
    """With each target's basis warm, the relative differentials and their
    zero test fetch no ideal basis that is not cached already."""
    groebner._cached_gb.cache_clear()
    for f in fixture_morphisms:
        f.target.gb()
    misses = groebner._cached_gb.cache_info().misses
    for f in fixture_morphisms:
        zero_module_evidence(relative_kahler(f))
    assert groebner._cached_gb.cache_info().misses == misses


# --- linked presentations -----------------------------------------------------
# cotangent_map links the cokernel to the middle module, and the middle and
# pulled-back modules to free modules over the target, so each basis is
# built on the one it extends; every linked basis must be the basis of an
# unlinked run on the raw relations and the ideal multiples.

def _typed(gens):
    """The generators' terms in stored order, with coefficient types."""
    return [[[(m, type(c).__name__, c) for m, c in comp.terms.items()] for comp in v] for v in gens]


def _unlinked_generators(M):
    B = M.algebra
    zero = B.zero()
    multiples = [tuple(g if j == i else zero for j in range(M.rank)) for g in B.ideal for i in range(M.rank)]
    return module_buchberger(list(M.relations) + multiples, M.rank, B.context, B.domain).generators


def test_linked_module_bases_equal_unlinked_runs(fixture_morphisms):
    """The cokernel, middle, pulled-back and free-module bases of the 200
    fixture morphisms and of every figure-1 morphism."""
    ws = load_workspace(str(DATA / "figure1.tgc"))
    _module_gb.cache_clear()  # every basis below is built through its link
    for f in list(fixture_morphisms) + list(ws.morphisms.values()):
        seq = cotangent_map(f)
        assert seq.cokernel.extends is seq.middle
        assert seq.middle.extends.relations == seq.pullback.extends.relations == ()
        assert relative_kahler(f).extends is None
        for M in (seq.middle.extends, seq.pullback.extends, seq.middle, seq.pullback, seq.cokernel):
            assert _typed(M.gb().generators) == _typed(_unlinked_generators(M)), describe(f)


def test_a_link_changes_no_equality_and_must_be_a_prefix():
    B = nilpotent_line()
    row = B.parse("2*t")
    free = free_module(B, ("dt",))
    middle = ModulePresentation(B, ("dt",), ((row,),), free)
    assert middle == ModulePresentation(B, ("dt",), ((row,),))
    assert hash(middle) == hash(ModulePresentation(B, ("dt",), ((row,),)))
    ModulePresentation(B, ("dt",), ((row,), (B.one(),)), middle)
    for labels, relations, base in ((("dt",), ((B.one(),),), middle),
                                    (("ds",), ((row,),), free),
                                    (("dt",), ((row,),), free_module(free_algebra(QQ, ("t",)), ("dt",)))):
        with pytest.raises(ShapeMismatch, match="not a prefix"):
            ModulePresentation(B, labels, relations, base)


# exit code and SHA-256 of stdout (timings blanked) and stderr of cotangent
# and classify --instance affine on every figure-1 morphism under degree
# caps 0-6, recorded before the presentations were linked: a seeded basis
# run may meet the cap on other elements than a run from scratch
PINNED_CAP_CODES = "055500050555005500000555" + "0" * 60
PINNED_CAP_SHA256 = "790a39d805aeeb8a88dacefab009e8a41b72ece61aa0fbcca33630969bcf5634"


def test_linked_presentations_meet_the_degree_cap_as_recorded():
    h, codes = hashlib.sha256(), []
    for cap in range(7):
        for name in ("iso", "trunc", "point", "unit", "qrel", "structure"):
            for cmd in (["cotangent"], ["classify", "--instance", "affine"]):
                argv = [*cmd, "--workspace", str(DATA / "figure1.tgc"), "--morphism", name, "--degree-cap", str(cap)]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code, out = run_cli(argv)
                codes.append(code)
                h.update(f"{cap} {name} {cmd}\n{code}\n{scrub_timings(out)}\n{err.getvalue()}\n".encode())
    assert "".join(map(str, codes)) == PINNED_CAP_CODES
    assert h.hexdigest() == PINNED_CAP_SHA256


# --- relative differentials through the pushout -------------------------------
# References: the hand-built constructions that relative_kahler, pushout,
# codiagonal and identity_morphism used before relative differentials came
# from the pushout along id_A and one rule chose the covered variables.

def reference_relative_kahler(f):
    """The target re-presented over the source by hand: A's variables and
    relations, then the target's relative ones under fresh names, then one
    gluing relation x - f(x) per relative source variable x."""
    f = absolute(f)
    A, B = f.source, f.target
    ctx = VariableContext(A.context.names + fresh_names(A.context.names, B.relative_names))
    nA = len(A.context)
    embed_b = list(range(B.n_base)) + [nA + i for i in range(len(B.relative_names))]
    ideal = [g.rename(ctx, list(range(nA))) for g in A.ideal]
    ideal += [g.rename(ctx, embed_b) for g in B.relative_ideal]
    ideal += [Polynomial.variable(ctx, A.domain, A.n_base + i) - img.rename(ctx, embed_b)
              for i, img in enumerate(f.images)]
    return kahler_module(AlgebraPresentation(A.domain, ctx, tuple(ideal), A))


def reference_identity(A):
    if A.base is not None:
        images = tuple(A.var(A.n_base + i) for i in range(len(A.relative_names)))
        return morphism(A, A, images, over_base=True, check=False)
    return morphism(A, A, tuple(A.var(i) for i in range(len(A.context))), check=False)


def reference_coprojections(B, C, P):
    """The two legs B -> P <- C of a pushout algebra P, one branch per case."""
    nB = len(B.context)
    if B.base is not None:
        left = tuple(P.var(B.n_base + i) for i in range(len(B.relative_names)))
        right = tuple(P.var(nB + i) for i in range(len(C.relative_names)))
        return (morphism(B, P, left, over_base=True, check=False),
                morphism(C, P, right, over_base=True, check=False))
    left = tuple(P.var(i) for i in range(nB))
    right = tuple(P.var(nB + i) for i in range(len(C.context)))
    return morphism(B, P, left, check=False), morphism(C, P, right, check=False)


def reference_codiagonal(P, B):
    if B.base is not None:
        rel = tuple(B.var(B.n_base + i) for i in range(len(B.relative_names)))
        return morphism(P, B, rel + rel, over_base=True, check=False)
    every = tuple(B.var(i) for i in range(len(B.context)))
    return morphism(P, B, every + every, check=False)


def based_morphisms(seed, count):
    """Seeded morphisms between algebras over R = Q[t]/(t^3), which has a
    relation of its own: A = R[x]/(g) and B = R[y, z]/(g(t, p), h), so that
    x -> p is well defined both over R and absolutely (with t -> t)."""
    rng = random.Random(seed)
    R = present(QQ, ("t",), (poly_parse("t^3", T, QQ),))
    out = []
    for _ in range(count):
        A0, B0 = present(QQ, ("x",), (), base=R), present(QQ, ("y", "z"), (), base=R)
        g = random_polynomial(rng, A0.context, QQ)
        p = random_polynomial(rng, B0.context, QQ)
        h = random_polynomial(rng, B0.context, QQ)
        A = present(QQ, ("x",), (g,), base=R)
        B = present(QQ, ("y", "z"), (g.substitute((B0.var(0), p)), h), base=R)
        out.append(morphism(A, B, (p,), over_base=True))
        out.append(morphism(A, B, (B.var(0), p)))
    return out


def test_relative_kahler_is_the_pushout_along_the_identity(fixture_morphisms):
    """On the 200 fixture morphisms, figure 1 and 60 seeded morphisms over a
    base with relations, relative_kahler and the pushout, codiagonal and
    identity legs equal the hand-built references: names, relation order and
    base included."""
    ws = load_workspace(str(DATA / "figure1.tgc"))
    based = based_morphisms(20, 30)
    assert sum(f.over_base for f in based) == 30
    morphisms = list(fixture_morphisms) + list(ws.morphisms.values()) + based
    for f in morphisms:
        assert relative_kahler(f) == reference_relative_kahler(f), describe(f)
        for A in (f.source, f.target):
            assert identity_morphism(A) == reference_identity(A)
            if A.base is not None:  # the base relations prefix A's ideal
                embed = range(len(A.base.context))
                assert A.ideal[: len(A.base.ideal)] == tuple(g.rename(A.context, embed) for g in A.base.ideal)
        for po in (pushout(f, f), pushout(identity_morphism(f.source), f)):
            B, C = po.into_left.source, po.into_right.source
            assert (po.into_left, po.into_right) == reference_coprojections(B, C, po.algebra)
        po = pushout(f, f)
        assert codiagonal(po, f) == reference_codiagonal(po.algebra, f.target)

"""Presented algebras, morphisms, dual numbers, sections, pushouts."""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tangentcat
from tangentcat.errors import ContextMismatch, DomainMismatch, IllDefinedMorphism, NotSurjective
from tangentcat.groebner import morphism_graph, ring_map_kernel
from tangentcat.modlin import coords, kernel_basis
from tangentcat.polycore import QQ, Polynomial, context, poly_parse, prime_field
from tangentcat.presentations import (
    codiagonal,
    compose,
    dual_numbers,
    free_algebra,
    identity_morphism,
    is_surjective,
    linear_section_exists,
    morphism,
    present,
    pushout,
)

X = context("x")
T = context("t")


def two_point_algebra():
    """QQ[x]/(x^2 - x): two idempotent points."""
    return present(QQ, ("x",), (poly_parse("x^2 - x", X, QQ),))


def nilpotent_line():
    return present(QQ, ("t",), (poly_parse("t^2", T, QQ),))


def point_map():
    """Evaluation at x = 0 out of the two-point algebra."""
    A = two_point_algebra()
    K = free_algebra(QQ, ())
    return morphism(A, K, (Polynomial.zero(K.context, QQ),))


def truncation_map():
    A = free_algebra(QQ, ("t",))
    B = nilpotent_line()
    return morphism(A, B, (poly_parse("t", T, QQ),))


# --- presentations ----------------------------------------------------------

def test_reduce_uses_the_relations():
    A = two_point_algebra()
    assert str(A.reduce(A.parse("x^2"))) == "x"
    assert str(A.reduce(A.parse("x^5 + 1"))) == "x + 1"


def test_present_refuses_a_relation_over_another_context_or_domain():
    with pytest.raises(ContextMismatch):
        present(QQ, ("x",), (poly_parse("t^2", T, QQ),))
    with pytest.raises(DomainMismatch):
        present(QQ, ("x",), (poly_parse("x^2", X, prime_field(5)),))


def test_presentation_over_a_base():
    R = free_algebra(QQ, ("t",))
    ctx = context("t")
    B = present(QQ, (), (poly_parse("t^2", ctx, QQ),), base=R)
    assert B.n_base == 1
    assert B.relative_names == ()
    assert [str(g) for g in B.relative_ideal] == ["t^2"]


# --- morphisms --------------------------------------------------------------

def test_well_defined_morphism():
    f = truncation_map()
    assert all(f.apply(g).is_zero() for g in f.source.ideal)


def test_ill_defined_morphism_raises_with_residue():
    A = nilpotent_line()
    B = free_algebra(QQ, ("x",))
    with pytest.raises(IllDefinedMorphism) as exc:
        morphism(A, B, (poly_parse("x", X, QQ),))
    assert str(exc.value.relation) == "t^2"
    assert str(exc.value.residue) == "x^2"


def test_compose_and_identity():
    f = truncation_map()
    g = point_map_from_nilpotent()
    h = compose(g, f)
    assert h.source == f.source and h.target == g.target
    assert [str(i) for i in h.images] == ["0"]
    ident = identity_morphism(f.source)
    assert compose(f, ident).images == f.images


def point_map_from_nilpotent():
    B = nilpotent_line()
    K = free_algebra(QQ, ())
    return morphism(B, K, (Polynomial.zero(K.context, QQ),))


def test_injectivity_and_kernel():
    f = truncation_map()
    assert [str(k) for k in ring_map_kernel(f)] == ["t^2"]


def test_surjectivity_and_preimages():
    f = truncation_map()
    ok, pre = is_surjective(f)
    assert ok
    assert str(pre["t"]) == "t"
    A = free_algebra(QQ, ("x",))
    B = free_algebra(QQ, ("y",))
    g = morphism(A, B, (poly_parse("y^2", B.context, QQ),))
    ok, missing = is_surjective(g)
    assert not ok and missing == ["y"]
    assert morphism_graph(g).preimage(poly_parse("y^4", B.context, QQ)) is not None
    assert morphism_graph(g).preimage(poly_parse("y", B.context, QQ)) is None


# --- dual numbers -----------------------------------------------------------

def test_dual_numbers_square_to_zero():
    A = two_point_algebra()
    TA = dual_numbers(A)
    eps = Polynomial.variable(TA.context, QQ, 1)
    assert TA.reduce(eps * eps).is_zero()
    x = Polynomial.variable(TA.context, QQ, 0)
    q = TA.reduce((x + eps) ** 2)
    # split q = a + a'e into its constant part and its e-coefficient
    n = len(A.context)
    drop_eps = [*range(n), None]
    assert str(q.rename(A.context, drop_eps)) == "x"
    assert str(q.partial(n).rename(A.context, drop_eps)) == "2*x"


def test_dual_numbers_of_dual_numbers_take_a_fresh_eps():
    TTA = dual_numbers(dual_numbers(two_point_algebra()))
    assert TTA.context.names == ("x", "@e0", "@e1")
    assert [str(g) for g in TTA.ideal] == ["x^2 - x", "@e0^2", "@e1^2"]


def dual_numbers_map(f):
    """The induced map A[e]/(e^2) -> B[e]/(e^2), sending e to e."""
    TA, TB = dual_numbers(f.source), dual_numbers(f.target)
    embed = list(range(len(f.target.context)))
    images = tuple(img.rename(TB.context, embed) for img in f.images)
    eps_image = Polynomial.variable(TB.context, TB.domain, len(f.target.context))
    return morphism(TA, TB, images + (eps_image,), over_base=f.over_base, check=False)


def test_dual_numbers_map_fixes_eps():
    f = truncation_map()
    Tf = dual_numbers_map(f)
    assert str(Tf.images[-1]) == str(
        Polynomial.variable(Tf.target.context, QQ, len(f.target.context))
    )
    # kernel of Tf contains the kernel of f
    tk = [str(k) for k in ring_map_kernel(Tf)]
    assert "t^2" in tk


def theta_calg_eval(f, a, a_prime):
    """Descend a tangent element a + a'e along f: the pair (a, f(a')) in A x B."""
    return (f.source.reduce(a), f.apply(a_prime))


def semidirect_mul(f, u, v):
    """Multiply in A x B twisted by f: (a,b)(x,y) = (ax, f(a)y + bf(x))."""
    (a, b), (x, y) = u, v
    return (f.source.reduce(a * x), f.target.reduce(f.apply(a) * y + b * f.apply(x)))


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=30)
@given(small, small, small, small)
def test_bundle_descent_is_multiplicative(a0, a1, b0, b1):
    """theta(u * v) equals theta(u) * theta(v) in the twisted product."""
    f = point_map()
    A = f.source
    x = A.var(0)
    a = A.reduce(x.scale(QQ.from_int(a0)) + A.one().scale(QQ.from_int(a1)))
    ap = A.reduce(x.scale(QQ.from_int(b1)))
    b = A.reduce(x.scale(QQ.from_int(b0)) - A.one().scale(QQ.from_int(a1)))
    bp = A.reduce(x.scale(QQ.from_int(a0)) + A.one())
    lhs = theta_calg_eval(f, A.reduce(a * b), A.reduce(ap * b + a * bp))
    u = theta_calg_eval(f, a, ap)
    v = theta_calg_eval(f, b, bp)
    assert lhs == semidirect_mul(f, u, v)


# --- linear sections --------------------------------------------------------

def test_section_witness_matches_frozen_value():
    sec = linear_section_exists(point_map())
    assert sec.holds
    assert str(sec.witness) == "-x + 1"
    assert sec.route == "finite"


def test_no_section_for_nilpotent_point():
    sec = linear_section_exists(point_map_from_nilpotent())
    assert not sec.holds
    assert sec.route == "finite"


def test_a_section_needs_a_surjective_morphism():
    """x -> y*z reaches neither y nor z, and the error names them both."""
    A = free_algebra(QQ, ("x",))
    B = free_algebra(QQ, ("y", "z"))
    f = morphism(A, B, (poly_parse("y*z", B.context, QQ),))
    with pytest.raises(NotSurjective, match=r"no preimage for target variables \['y', 'z'\]"):
        linear_section_exists(f)


def test_no_section_for_infinite_dimensional_source():
    sec = linear_section_exists(truncation_map())
    assert not sec.holds
    assert sec.route != "finite"


def test_finite_and_general_routes_agree():
    """The witness on a finite-dimensional source replays: f(w) = 1, Ker(f)·w = 0."""
    from tangentcat.presentations import SectionResult  # noqa: F401

    f = point_map()
    sec = linear_section_exists(f)
    # replay the witness: maps to 1 and annihilates the kernel
    w = sec.witness
    assert f.target.reduce(f.apply(w) - f.target.one()).is_zero()
    for k in ring_map_kernel(f):
        assert f.source.reduce(k * w).is_zero()


def crt_projection(rng):
    """Q[u, v]/(a(u), b(v)) -> Q[u, v]/(a1(u), b1(v)), identity on u and v.

    Each relation is a1·a2 with a1 = (u - r1)^k1 and a2 = (u - r2)^k2, so
    the map splits exactly when r1 != r2 for every variable (the Chinese
    remainder theorem); then the section picks the product of idempotents.
    """
    names = ("u", "v")[: rng.randint(1, 2)]
    ctx = context(*names)
    src, tgt, coprime = [], [], True
    for i in range(len(names)):
        x = Polynomial.variable(ctx, QQ, i)
        r1, r2 = rng.randint(-2, 2), rng.randint(-2, 2)
        a1 = (x - Polynomial.constant(ctx, QQ, QQ.from_int(r1))) ** rng.randint(1, 2)
        a2 = (x - Polynomial.constant(ctx, QQ, QQ.from_int(r2))) ** rng.randint(1, 2)
        src.append(a1 * a2)
        tgt.append(a1)
        coprime = coprime and r1 != r2
    A, B = present(QQ, names, tuple(src)), present(QQ, names, tuple(tgt))
    return morphism(A, B, tuple(B.var(i) for i in range(len(names)))), coprime


def test_section_witness_annihilates_a_basis_of_the_kernel():
    """The solver imposes kappa·a = 0 only for the ideal generators of Ker(f).

    The witness must still annihilate every vector of a k-basis of Ker(f),
    which is the condition the finite route imposed before.
    """
    rng = random.Random(0)
    outcomes = []
    for _ in range(40):
        f, coprime = crt_projection(rng)
        sec = linear_section_exists(f)
        assert sec.route == "finite" and sec.holds == coprime
        outcomes.append(sec.holds)
        if not sec.holds:
            continue
        A, B = f.source, f.target
        basis_a = A.finite_basis()
        index_b = {m: i for i, m in enumerate(B.finite_basis())}
        columns = [coords(f.apply(Polynomial(A.context, QQ, {m: QQ.one()})), index_b, QQ) for m in basis_a]
        klin = kernel_basis([list(row) for row in zip(*columns)], QQ, ncols=len(basis_a))
        assert len(klin) == len(basis_a) - len(index_b)
        for kvec in klin:
            kappa = Polynomial(A.context, QQ, dict(zip(basis_a, kvec)))
            assert A.reduce(kappa * sec.witness).is_zero()
    assert outcomes.count(True) >= 10 and False in outcomes


def test_section_search_stays_within_the_kernel_degree():
    # the rows hold κ and the relations, never products κ_i·κ_j, so a
    # kernel generator of degree 40 is decided under the default cap of 64
    A = free_algebra(QQ, ("t",))
    B = present(QQ, ("t",), (poly_parse("t^40", T, QQ),))
    sec = linear_section_exists(morphism(A, B, (poly_parse("t", T, QQ),)))
    assert (sec.holds, sec.route) == (False, "general")


SECTION_DIGEST = Path(__file__).parent / "data" / "section_digest.json"


def _root(x, rng):
    """(x - r)^k for a seeded root r in -2..2 and k in 1..2."""
    r = Polynomial.constant(x.context, x.domain, x.domain.from_int(rng.randint(-2, 2)))
    return (x - r) ** rng.randint(1, 2)


def quotient_maps(dom, rng, count):
    """k[u(,y)]/(a1·a2, extra) -> the same algebra modulo a1, identity on u, y.

    A free y makes both sides infinite-dimensional, so every (route,
    verdict) cell occurs; with a1, a2 coprime the map is a CRT projection.
    """
    for _ in range(count):
        names = ("u", "y")[: rng.randint(1, 2)]
        ctx = context(*names)
        u = Polynomial.variable(ctx, dom, 0)
        a1, a2 = _root(u, rng), _root(u, rng)
        rels = (a1 * a2,)
        if len(names) == 2:
            y = Polynomial.variable(ctx, dom, 1)
            extra = rng.choice((None, y * y, y * y - y, u * y, y ** 3 - u * y))
            rels += () if extra is None else (extra,)
        A, B = present(dom, names, rels), present(dom, names, rels + (a1,))
        yield morphism(A, B, tuple(B.var(i) for i in range(len(names))))


def free_target_maps(dom, rng, count):
    """k[u, y]/(rels) -> k[y], u -> r, y -> y: targets without relations."""
    ctx = context("u", "y")
    u, y = Polynomial.variable(ctx, dom, 0), Polynomial.variable(ctx, dom, 1)
    B = free_algebra(dom, ("y",))
    for _ in range(count):
        r = rng.randint(-2, 2)
        a1 = (u - Polynomial.constant(ctx, dom, dom.from_int(r))) ** rng.randint(1, 2)
        a2 = _root(u, rng)
        A = present(dom, ("u", "y"), rng.choice(((), (a1 * a2,), (a1 * y,), (a1 * a2 * y,))))
        yield morphism(A, B, (Polynomial.constant(B.context, dom, dom.from_int(r)), B.var(0)))


def based_maps(rng, count):
    """The quotient maps in one relative variable u over Q[s] or Q[s]/(s^2)."""
    ctx = context("s", "u")
    s, u = Polynomial.variable(ctx, QQ, 0), Polynomial.variable(ctx, QQ, 1)
    bases = (present(QQ, ("s",), (poly_parse("s^2", context("s"), QQ),)), free_algebra(QQ, ("s",)))
    for _ in range(count):
        base = rng.choice(bases)
        a1 = _root(u - s if rng.random() < 0.5 else u, rng)
        a2 = _root(u, rng)
        A = present(QQ, ("u",), (a1 * a2,), base=base)
        B = present(QQ, ("u",), (a1 * a2, a1), base=base)
        yield morphism(A, B, (B.var(1),), over_base=True)


def section_digest():
    """(number of maps, SHA-256 over domain, verdict, route, note, witness)."""
    rng = random.Random(0)
    maps = []
    for dom in (QQ, prime_field(2), prime_field(3), prime_field(5)):
        maps += quotient_maps(dom, rng, 80)
        maps += free_target_maps(dom, rng, 20)
    maps += based_maps(rng, 40)
    h = hashlib.sha256()
    for f in maps:
        sec = linear_section_exists(f)
        doc = [str(f.source.domain), sec.holds, sec.route, sec.reason, str(sec.witness)]
        h.update(json.dumps(doc).encode() + b"\n")
    return len(maps), h.hexdigest()


def test_section_results_match_the_recorded_digest():
    # a section witness is unique in A (a - 1 lies in Ker(f), so a^2 = a,
    # and two witnesses give a = aa' = a'), so its normal form cannot depend
    # on the algorithm; the digest was recorded with the finite linear solve
    # and the transporter-ideal route
    recorded = json.loads(SECTION_DIGEST.read_text())
    assert section_digest() == (recorded["maps"], recorded["sha256"])


# --- pushouts ---------------------------------------------------------------

def test_pushout_of_parabola_matches_frozen_dimension():
    A = free_algebra(QQ, ("x",))
    ctx_b = context("x", "y")
    B = present(QQ, ("x", "y"), (poly_parse("y^2 - x", ctx_b, QQ),))
    K_ctx = context("z")
    K = present(QQ, ("z",), (poly_parse("z", K_ctx, QQ),))
    f = morphism(A, B, (poly_parse("x", ctx_b, QQ),))
    g = morphism(A, K, (Polynomial.zero(K_ctx, QQ),))
    po = pushout(f, g)
    # frozen: GB of the pushout ideal is {x, y^2}, a 2-dimensional algebra
    assert len(po.algebra.finite_basis()) == 2


def test_pushout_legs_commute():
    A = free_algebra(QQ, ("t",))
    B = nilpotent_line()
    f = morphism(A, B, (poly_parse("t", T, QQ),))
    po = pushout(f, f)
    left = compose(po.into_left, f)
    right = compose(po.into_right, f)
    P = po.algebra
    for i in range(len(f.source.context)):
        li = left.var_images[i]
        ri = right.var_images[i]
        assert P.reduce(li - ri).is_zero()


def test_codiagonal_collapses_the_two_copies():
    f = truncation_map()
    po = pushout(f, f)
    mu = codiagonal(po, f)
    # codiagonal après both legs is the identity on the target
    for leg in (po.into_left, po.into_right):
        comp = compose(mu, leg)
        for i, img in enumerate(comp.var_images):
            assert f.target.reduce(img - f.target.var(i)).is_zero()


def test_quotients_are_ring_epis():
    """The codiagonal of a surjection has zero kernel."""
    f = truncation_map()
    mu = codiagonal(pushout(f, f), f)
    assert ring_map_kernel(mu) == []


SABOTAGED_SECTION_SEARCH = textwrap.dedent("""
    import sys
    from tangentcat import groebner, presentations
    from tangentcat.errors import InconsistentClassification
    from tangentcat.polycore import QQ, Polynomial, context, poly_parse

    if not sys.flags.optimize:
        sys.exit("the check must run with asserts stripped")
    # a normal form that answers zero everywhere hands back the witness 0,
    # which does not map to 1
    groebner.ModuleGroebnerBasis.normal_form = lambda self, v: tuple(c - c for c in v)
    A = presentations.present(QQ, ("x",), (poly_parse("x^2 - x", context("x"), QQ),))
    K = presentations.free_algebra(QQ, ())
    f = presentations.morphism(A, K, (Polynomial.zero(K.context, QQ),))
    try:
        presentations.linear_section_exists(f)
    except InconsistentClassification as e:
        print(e)
        sys.exit(0)
    sys.exit(1)
""")


def test_wrong_section_witness_raises_under_python_O():
    # python -O strips asserts, so the check that guards a decided section
    # must be an explicit raise
    src = str(Path(tangentcat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", SABOTAGED_SECTION_SEARCH],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "section witness failed verification"

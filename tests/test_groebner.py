"""Groebner engine: bases, normal forms, elimination, kernels, modules.

The worked values here were frozen from an independent computer-algebra
run before this engine existed; the tests assert byte-equal results.
"""

import random
from fractions import Fraction

import pytest

from tangentcat.errors import ResourceLimit, ShapeMismatch
from tangentcat.groebner import (
    GREVLEX,
    buchberger_extended,
    degree_cap,
    division,
    elimination_ideal,
    groebner_basis,
    ideal_basis,
    ideal_intersection,
    ideal_quotient,
    module_buchberger,
    module_lt,
    module_normal_form,
    normal_form,
    ring_map_kernel,
    syzygy_basis,
    vec_is_zero,
    vec_sub,
    vec_term_mul,
)
from tangentcat.polycore import (
    LEX,
    QQ,
    Polynomial,
    context,
    elimination_order,
    mono_div,
    mono_lcm,
    poly_parse,
    prime_field,
)

XY = context("x", "y")


def qq(text, ctx=XY):
    return poly_parse(text, ctx, QQ)


# --- scalar bases -----------------------------------------------------------

def test_lex_basis_matches_frozen_value():
    gb = groebner_basis((qq("x^2 - y"), qq("x^3 - x")), LEX)
    assert sorted(str(g) for g in gb.generators) == [
        "x*y - x",
        "x^2 - y",
        "y^2 - y",
    ]


def test_normal_form_matches_frozen_value():
    gb = groebner_basis((qq("x^2 - y"),), LEX)
    assert str(gb.normal_form(qq("x^3"))) == "x*y"


def test_basis_is_idempotent_and_deterministic():
    gens = (qq("x^2 - y"), qq("x^3 - x"))
    gb = groebner_basis(gens, LEX)
    again = groebner_basis(gb.generators, LEX)
    assert again.generators == gb.generators
    assert groebner_basis(gens, LEX).generators == gb.generators


def test_membership_via_contains():
    gb = groebner_basis((qq("x^2 - y"), qq("y^2 - y")),)
    assert gb.contains(qq("x^4 - y"))
    assert not gb.contains(qq("x"))


def test_division_certificate():
    p = qq("x^3 + y")
    divisors = [qq("x^2 - y")]
    quotients, remainder = division(p, divisors, GREVLEX)
    rebuilt = remainder
    for q, d in zip(quotients, divisors):
        rebuilt = rebuilt + q * d
    assert rebuilt == p
    # the remainder is irreducible by the divisor's leading term
    assert str(remainder) == "x*y + y"
    # a zero divisor divides nothing and gets a zero quotient
    quotients, again = division(p, divisors + [Polynomial.zero(XY, QQ)], GREVLEX)
    assert again == remainder and quotients[0] * divisors[0] + again == p
    assert quotients[1].is_zero()


def test_extended_basis_cofactors():
    gens = (qq("x^2 - y"), qq("x^3 - x"))
    gb, rows = buchberger_extended(gens, LEX)
    for k, g in enumerate(gb.generators):
        acc = Polynomial.zero(XY, QQ)
        for c, src in zip(rows[k], gens):
            acc = acc + c * src
        assert acc == g


def test_empty_generator_lists():
    with pytest.raises(ShapeMismatch):
        groebner_basis(())
    gb = ideal_basis((), XY, QQ)
    assert gb.generators == ()
    assert str(gb.normal_form(qq("x + y"))) == "x + y"


# --- elimination and ring-map kernels ---------------------------------------

def test_elimination_of_a_graph_variable():
    # no polynomial in x alone vanishes on the graph of x = y^2
    ctx = context("y", "x")
    elim = elimination_ideal((poly_parse("x - y^2", ctx, QQ),), 1)
    assert elim == []


def test_ring_map_kernel_of_injection_is_empty():
    from tangentcat.presentations import free_algebra, morphism

    A = free_algebra(QQ, ("x",))
    B = free_algebra(QQ, ("y",))
    f = morphism(A, B, (poly_parse("y^2", B.context, QQ),))
    assert ring_map_kernel(f) == []


def test_ring_map_kernel_of_quotient():
    from tangentcat.presentations import free_algebra, morphism, present

    A = free_algebra(QQ, ("t",))
    ctx = context("t")
    B = present(QQ, ("t",), (poly_parse("t^2", ctx, QQ),))
    f = morphism(A, B, (poly_parse("t", ctx, QQ),))
    assert [str(g) for g in ring_map_kernel(f)] == ["t^2"]


def test_ideal_quotient_and_intersection():
    assert [str(g) for g in ideal_quotient((qq("x^2"),), qq("x"))] == ["x"]
    assert [str(g) for g in ideal_intersection((qq("x"),), (qq("y"),))] == ["x*y"]


# --- resource limits --------------------------------------------------------

def test_degree_cap_raises():
    token = degree_cap.set(3)
    try:
        with pytest.raises(ResourceLimit, match="degree cap"):
            groebner_basis((qq("x^9 - y"),), LEX)
    finally:
        degree_cap.reset(token)


# --- module layer -----------------------------------------------------------

def test_koszul_syzygy():
    x, y = qq("x"), qq("y")
    syz = syzygy_basis([(x,), (y,)], 1, XY, QQ)
    assert [[str(c) for c in v] for v in syz] == [["y", "-x"]]


def test_module_normal_form_reduces_members():
    x, y = qq("x"), qq("y")
    mgb = module_buchberger([(x, y), (y, x)], 2, XY, QQ)
    assert vec_is_zero(mgb.normal_form((x, y)))
    combo = (x + y, x + y)
    assert vec_is_zero(mgb.normal_form(combo))


def test_module_basis_is_deterministic():
    x, y = qq("x"), qq("y")
    a = module_buchberger([(x, y), (y, x)], 2, XY, QQ)
    b = module_buchberger([(x, y), (y, x)], 2, XY, QQ)
    assert [[str(c) for c in v] for v in a.generators] == [
        [str(c) for c in v] for v in b.generators
    ]


def test_module_bases_skip_the_product_criterion():
    # coprime leading monomials x and y in one position, yet the S-vector
    # y*(x, 1) - x*(y, 0) = (0, y) is a new module element
    x, y, one = qq("x"), qq("y"), qq("1")
    mgb = module_buchberger([(x, one), (y, qq("0"))], 2, XY, QQ)
    assert mgb.contains((qq("0"), y))


# --- properties on random inputs --------------------------------------------

def random_poly(rng, ctx, nterms, degree):
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(ctx)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(ctx))] += 1
        terms[tuple(exps)] = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3))
    return Polynomial(ctx, QQ, terms)


def random_vector(rng, rank):
    zero = Polynomial.zero(XY, QQ)
    return tuple(
        zero if rng.random() < 0.3 else random_poly(rng, XY, rng.randint(1, 3), 2)
        for _ in range(rank)
    )


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_module_basis_is_a_reduced_groebner_basis(rank, seed):
    rng = random.Random(seed)
    vectors = [random_vector(rng, rank) for _ in range(rng.randint(rank, rank + 2))]
    mgb = module_buchberger(vectors, rank, XY, QQ)
    for v in vectors:
        assert vec_is_zero(mgb.normal_form(v))
    gens = mgb.generators
    leads = [module_lt(g, GREVLEX) for g in gens]
    for (_, _, c), g in zip(leads, gens):
        assert c == 1
        for (opos, om, _), h in zip(leads, gens):
            if h is g:
                continue
            # reduced: no term of g is divisible by another leading term
            assert all(mono_div(t, om) is None for t in g[opos].terms)
    # Buchberger's criterion: every same-position S-vector reduces to zero
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            (pa, ma, _), (pb, mb, _) = leads[a], leads[b]
            if pa != pb:
                continue
            lcm = mono_lcm(ma, mb)
            s = vec_sub(
                vec_term_mul(gens[a], QQ.one(), mono_div(lcm, ma)),
                vec_term_mul(gens[b], QQ.one(), mono_div(lcm, mb)),
            )
            assert vec_is_zero(mgb.normal_form(s))


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("seed", range(20))
def test_extended_basis_cofactor_identity(order, seed):
    rng = random.Random(seed)
    gens = [random_poly(rng, XY, rng.randint(1, 3), 3) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 2)):
        gens.insert(rng.randint(0, len(gens)), Polynomial.zero(XY, QQ))
    gb, rows = buchberger_extended(gens, order)
    assert gb.generators == groebner_basis(gens, order).generators
    assert len(rows) == len(gb.generators)
    for g, row in zip(gb.generators, rows):
        assert len(row) == len(gens)
        acc = Polynomial.zero(XY, QQ)
        for c, src in zip(row, gens):
            acc = acc + c * src
        assert acc == g


# --- differential check against the polynomial-at-a-time loop -------------

def reference_normal_form(v, basis, order):
    """The reduction loop as it ran on Polynomial objects, one step at a time."""
    ctx, dom = basis[0][0].context, basis[0][0].domain
    reducers = [[] for _ in v]
    for b in basis:
        lt = module_lt(b, order)
        if lt is not None:
            reducers[lt[0]].append((b, lt[1], lt[2]))
    rem = [Polynomial.zero(ctx, dom)] * len(v)
    work = list(v)
    pos = 0
    while pos < len(work):
        if work[pos].is_zero():
            pos += 1
            continue
        m, c = work[pos].leading_term(order)
        for b, bm, bc in reducers[pos]:
            q = mono_div(m, bm)
            if q is not None:
                t = Polynomial(ctx, dom, {q: dom.div(c, bc)})
                for k in range(pos, len(work)):
                    work[k] = work[k] - b[k] * t
                break
        else:
            t = Polynomial(ctx, dom, {m: c})
            rem[pos] = rem[pos] + t
            work[pos] = work[pos] - t
    return tuple(rem)


def reference_division(p, divisors, order):
    ctx, dom = p.context, p.domain
    zero, one = Polynomial.zero(ctx, dom), Polynomial.one(ctx, dom)
    n = len(divisors)
    rows = [(d,) + tuple(one if k == i else zero for k in range(n)) for i, d in enumerate(divisors)]
    r = reference_normal_form((p,) + (zero,) * n, rows, order)
    return [-q for q in r[1:]], r[0]


def exact(polys):
    """Terms with coefficient types, so that Fraction(2) and 2 differ."""
    return [sorted((m, type(c).__name__, c) for m, c in p.terms.items()) for p in polys]


def random_poly_over(rng, ctx, dom, nterms, degree):
    if dom == QQ:
        return random_poly(rng, ctx, nterms, degree)
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(ctx)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(ctx))] += 1
        terms[tuple(exps)] = rng.randint(1, dom.p - 1)
    return Polynomial(ctx, dom, terms)


@pytest.mark.parametrize("dom", [QQ, prime_field(2), prime_field(7)], ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_reduction_matches_the_reference_loop(dom, seed):
    rng = random.Random(seed)
    ctx = context(*("x", "y", "z")[: rng.randint(2, 3)])
    zero = Polynomial.zero(ctx, dom)
    for order in (GREVLEX, LEX, elimination_order(1)):
        rank = rng.randint(1, 3)
        rows = [
            tuple(zero if rng.random() < 0.3 else random_poly_over(rng, ctx, dom, rng.randint(1, 3), 2)
                  for _ in range(rank))
            for _ in range(rng.randint(1, rank + 2))
        ]
        rows.insert(rng.randint(0, len(rows)), (zero,) * rank)  # a zero row reduces nothing
        v = tuple(random_poly_over(rng, ctx, dom, rng.randint(1, 5), 4) for _ in range(rank))
        assert exact(module_normal_form(v, rows, order)) == exact(reference_normal_form(v, rows, order))
        gens = module_buchberger(rows, rank, ctx, dom, order).generators
        if gens:
            assert exact(module_normal_form(v, gens, order)) == exact(reference_normal_form(v, gens, order))
        divisors = [random_poly_over(rng, ctx, dom, rng.randint(1, 3), 3) for _ in range(rng.randint(1, 3))]
        divisors.insert(rng.randint(0, len(divisors)), zero)
        p = random_poly_over(rng, ctx, dom, rng.randint(1, 6), 5)
        quotients, r = division(p, divisors, order)
        ref_quotients, ref_r = reference_division(p, divisors, order)
        assert exact(quotients + [r]) == exact(ref_quotients + [ref_r])
        assert exact([normal_form(p, divisors, order)]) == exact([ref_r])


def test_reduction_in_a_context_without_variables():
    E = context()

    def c(n):
        return Polynomial.constant(E, QQ, QQ.from_int(n))

    zero = Polynomial.zero(E, QQ)
    assert normal_form(c(3), [c(2)]).is_zero()  # (2) is the unit ideal of Q[]
    quotients, r = division(c(3), [c(2)])
    assert r.is_zero() and quotients == [Polynomial.constant(E, QQ, Fraction(3, 2))]
    rows = [(c(2), c(1)), (zero, c(3))]
    assert vec_is_zero(module_normal_form((c(3), c(4)), rows))
    assert module_normal_form((c(3), c(4)), rows[1:]) == (c(3), zero)
    assert exact(module_normal_form((c(3), c(4)), rows)) == exact(reference_normal_form((c(3), c(4)), rows, GREVLEX))


# --- differential check against sympy ---------------------------------------

@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
@pytest.mark.parametrize("seed", range(20))
def test_reduced_basis_matches_sympy(order, seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    ctx = context(*("x", "y", "z")[: rng.randint(2, 3)])
    gens = [random_poly(rng, ctx, rng.randint(2, 3), 3) for _ in range(rng.randint(2, len(ctx)))]
    syms = sympy.symbols(ctx.names)

    def to_sympy(p):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v**e for v, e in zip(syms, m)))
            for m, c in p.terms.items()
        )

    def from_sympy(poly):
        terms = {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}
        return Polynomial(ctx, QQ, terms).monic(order)

    theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order=order.kind, domain="QQ")
    ours = groebner_basis(gens, order)
    assert set(ours.generators) == {from_sympy(p) for p in theirs.polys}
    assert all(g == g.monic(order) for g in ours.generators)

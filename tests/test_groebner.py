"""Groebner engine: bases, normal forms, elimination, kernels, modules.

The worked values here were frozen from an independent computer-algebra
run before this engine existed; the tests assert byte-equal results.
"""

import hashlib
import heapq
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from tangentcat import groebner
from tangentcat.errors import ContextMismatch, ResourceLimit, ShapeMismatch, UnsupportedDomain
from tangentcat.groebner import (
    GREVLEX,
    buchberger_extended,
    degree_cap,
    division,
    groebner_basis,
    ideal_basis,
    module_buchberger,
    module_normal_form,
    morphism_graph,
    normal_form,
    ring_map_kernel,
    syzygy_basis,
    vec_is_zero,
)
from tangentcat.polycore import (
    LEX,
    QQ,
    Polynomial,
    context,
    elimination_order,
    mono_deg,
    mono_div,
    poly_parse,
    prime_field,
)

from poly_reference import leading_term, monic

XY = context("x", "y")


def module_lt(v, order):
    """Leading (position, monomial, coefficient) of a vector, or None."""
    for i, c in enumerate(v):
        if not c.is_zero():
            m, coeff = leading_term(c, order)
            return i, m, coeff
    return None


def mono_lcm(a, b):
    """The lcm of exponent tuples, for the reference loops."""
    return tuple(max(x, y) for x, y in zip(a, b))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_term_mul(v, coeff, mono):
    t = Polynomial(v[0].context, v[0].domain, {mono: coeff})
    return tuple(c * t for c in v)


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
    assert gb.normal_form(qq("x^4 - y")).is_zero()
    assert not gb.normal_form(qq("x")).is_zero()


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

def test_morphism_graph_transports_only_source_polynomials():
    from tangentcat.presentations import free_algebra, morphism

    A = free_algebra(QQ, ("x",))
    B = free_algebra(QQ, ("y",))
    graph = morphism_graph(morphism(A, B, (poly_parse("y^2", B.context, QQ),)))
    assert str(graph.preimage(poly_parse("y^4", B.context, QQ))) == "x^2"
    with pytest.raises(ShapeMismatch, match="source-block"):
        graph.to_source(graph.embed_target(poly_parse("y", B.context, QQ)))


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


def test_ring_map_kernel_is_computed_once_per_graph(monkeypatch):
    from tangentcat.presentations import free_algebra, morphism, present

    ctx = context("u", "v")
    A = free_algebra(QQ, ("u", "v"))
    B = present(QQ, ("u", "v"), (poly_parse("u*v", ctx, QQ),))
    f = morphism(A, B, (poly_parse("u", ctx, QQ), poly_parse("v", ctx, QQ)))
    first = ring_map_kernel(f)
    first.clear()  # each call hands out a fresh list

    def forbidden(*args):
        raise AssertionError("the kernel was searched again")

    monkeypatch.setattr(groebner, "_normal_form", forbidden)
    assert [str(g) for g in ring_map_kernel(f)] == ["u*v"]


def test_preimages_are_computed_once_per_graph(monkeypatch):
    from tangentcat.presentations import is_surjective, morphism, present

    ctx = context("u", "v")
    A = present(QQ, ("u", "v"), (poly_parse("u^3", ctx, QQ), poly_parse("v^2", ctx, QQ)))
    B = present(QQ, ("u", "v"), (poly_parse("u^2", ctx, QQ), poly_parse("v^2", ctx, QQ)))
    f = morphism(A, B, (poly_parse("u + v", ctx, QQ), poly_parse("v", ctx, QQ)))
    assert isinstance(morphism_graph(f), groebner.FiniteGraph)
    first = is_surjective(f)

    def forbidden(*args):
        raise AssertionError("a preimage was searched again")

    monkeypatch.setattr(groebner, "_normal_form", forbidden)
    assert is_surjective(f) == first
    assert {k: str(v) for k, v in first[1].items()} == {"u": "u - v", "v": "v"}


def test_the_staircase_walk_fetches_the_target_basis_once(monkeypatch):
    from tangentcat import presentations
    from tangentcat.presentations import morphism, present

    ctx = context("u", "v")
    A = present(QQ, ("u", "v"), (poly_parse("u^3", ctx, QQ), poly_parse("v^2", ctx, QQ)))
    B = present(QQ, ("u", "v"), (poly_parse("u^2", ctx, QQ), poly_parse("v^2", ctx, QQ)))
    f = morphism(A, B, (poly_parse("u + v", ctx, QQ), poly_parse("v", ctx, QQ)))
    fetched = []
    monkeypatch.setattr(presentations, "ideal_basis", lambda *a: fetched.append(a[0]) or ideal_basis(*a))
    graph = groebner._cached_graph.__wrapped__(f, degree_cap.get())
    assert isinstance(graph, groebner.FiniteGraph)
    assert [str(p) for p in graph.kernel] == ["u^2 - 2*u*v"]
    assert [str(p) for p in graph.variable_preimages] == ["u - v", "v"]
    assert fetched.count(B.ideal) == 1


def test_outputs_over_q_keep_canonical_coefficients():
    """Every coefficient that leaves the engine over Q is an int, or a Fraction
    with denominator above 1, and never a float, although the inputs carry
    rational coefficients and the engine clears their denominators inside."""
    from tangentcat.modlin import kernel_basis, solve_linear
    from tangentcat.presentations import morphism, present

    def canonical(c):
        return type(c) is int or (type(c) is Fraction and c.denominator != 1)

    def coefficients(polys):
        return [c for p in polys for c in p.terms.values()]

    gb = groebner_basis((qq("3/2*x^2 - 1/3*y"), qq("2/5*y^2 - x + 1/7")))
    forms = [gb.normal_form(qq(t)) for t in ("1/2*x^3 + 5/3*x*y", "x^2*y^2 - 7/9", "6*x^2 - 4/3*y")]
    assert str(forms[2]) == "0"
    mgb = module_buchberger([(qq("1/2*x"), qq("2/3*y")), (qq("3/4*y"), qq("x - 5/6"))], 2, XY, QQ)
    B = present(QQ, ("x", "y"), gb.generators)
    f = morphism(present(QQ, ("s", "t"), ()), B, (qq("1/2*x + y"), qq("3/7*x*y")))
    graph = morphism_graph(f)
    assert isinstance(graph, groebner.FiniteGraph)
    images = [graph.preimage(qq(t)) for t in ("1/3*x", "x*y - 2/5", "5/2")]
    assert all(p is not None for p in images)
    out = (coefficients(forms) + coefficients(gb.generators)
           + coefficients(c for v in mgb.generators for c in v)
           + coefficients(graph.kernel) + coefficients(graph.kernel_basis) + coefficients(images))
    rows = [[Fraction(1, 2), Fraction(2, 3), 1], [Fraction(3, 4), 2, Fraction(-5, 6)]]
    sol = solve_linear(rows, [Fraction(1, 3), 4], QQ)
    kb = kernel_basis(rows, QQ)
    assert [sum(a * x for a, x in zip(r, sol)) for r in rows] == [Fraction(1, 3), 4]
    out += sol + [c for v in kb for c in v]
    assert any(type(c) is Fraction for c in out) and any(type(c) is int for c in out)
    assert all(canonical(c) for c in out), [c for c in out if not canonical(c)]


def test_the_degree_budget_is_one_object():
    from tangentcat import polycore

    assert groebner.degree_cap is polycore.degree_cap and groebner.within_cap is polycore.within_cap


# --- resource limits --------------------------------------------------------

def test_degree_cap_raises():
    token = degree_cap.set(3)
    try:
        with pytest.raises(ResourceLimit, match="degree cap"):
            groebner_basis((qq("x^9 - y"),), LEX)
    finally:
        degree_cap.reset(token)


def test_degree_cap_reaches_a_kernel_element_of_the_staircase_walk():
    """u -> x + y into Q[x, y]/(x^2, y^2): every generator of the graph ideal
    has degree at most 2, but the kernel is (u^3), so under cap 2 both
    routes stop at degree 3."""
    from tangentcat.presentations import free_algebra, morphism, present

    B = present(QQ, ("x", "y"), (qq("x^2"), qq("y^2")))
    f = morphism(free_algebra(QQ, ("u",)), B, (qq("x + y"),))
    assert isinstance(morphism_graph(f), groebner.FiniteGraph)
    token = degree_cap.set(2)
    try:
        for route in (groebner.MorphismGraph, morphism_graph):
            with pytest.raises(ResourceLimit, match="polynomial degree 3 exceeds the degree cap 2"):
                route(f).kernel
    finally:
        degree_cap.reset(token)


# --- module layer -----------------------------------------------------------

def test_koszul_syzygy():
    x, y = qq("x"), qq("y")
    syz = syzygy_basis([(x,), (y,)], 1, XY, QQ)
    assert [[str(c) for c in v] for v in syz] == [["y", "-x"]]


def test_no_vectors_have_no_syzygies():
    assert syzygy_basis([], 1, XY, QQ) == []
    assert syzygy_basis([], 0, XY, QQ) == []


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
    assert vec_is_zero(mgb.normal_form((qq("0"), y)))


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
        m, c = leading_term(work[pos], order)
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


def tagged(vectors, ctx, dom):
    zero, one = Polynomial.zero(ctx, dom), Polynomial.one(ctx, dom)
    n = len(vectors)
    return [tuple(v) + tuple(one if k == i else zero for k in range(n)) for i, v in enumerate(vectors)]


def reference_division(p, divisors, order):
    zero = Polynomial.zero(p.context, p.domain)
    rows = tagged([(d,) for d in divisors], p.context, p.domain)
    r = reference_normal_form((p,) + (zero,) * len(divisors), rows, order)
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


def reference_buchberger(vectors, rank, ctx, dom, order=GREVLEX):
    """The module Buchberger loop as it ran on Polynomial objects: S-vectors
    by term multiplication and subtraction, monic scaling by ``scale``."""
    cap = degree_cap.get()
    vectors = [tuple(v) for v in vectors if not vec_is_zero(v)]
    if not vectors:
        return SimpleNamespace(generators=())
    if not dom.is_field:
        raise UnsupportedDomain("Groebner bases require a field domain")
    one = dom.one()
    basis, leads, live, pairs = [], [], [], []

    def insert(v):
        nonlocal pairs
        for comp in v:
            d = comp.degree()
            if d > cap:
                raise ResourceLimit(f"polynomial degree {d} exceeds the degree cap {cap}", degree=d, cap=cap)
        pos, m, c = module_lt(v, order)
        inv = dom.div(one, c)
        new = len(basis)
        basis.append(tuple(comp.scale(inv) for comp in v))
        leads.append((pos, m, one))
        kept = [
            key for key in pairs
            if key[2] != pos
            or mono_div(key[1], m) is None
            or mono_lcm(leads[key[3]][1], m) == key[1]
            or mono_lcm(leads[key[4]][1], m) == key[1]
        ]
        if len(kept) != len(pairs):
            heapq.heapify(kept)
            pairs = kept
        todo = []
        for i in live:
            ipos, mi, _ = leads[i]
            if ipos == pos:
                lcm = mono_lcm(mi, m)
                coprime = rank == 1 and mono_deg(lcm) == mono_deg(mi) + mono_deg(m)
                todo.append((lcm, i, coprime))
        done = []
        while todo:
            lcm, i, coprime = cand = todo.pop(0)
            if coprime or all(mono_div(lcm, other[0]) is None for other in todo + done):
                done.append(cand)
        for lcm, i, coprime in done:
            if not coprime:
                heapq.heappush(pairs, (mono_deg(lcm), lcm, pos, i, new))
        live[:] = [i for i in live if leads[i][0] != pos or mono_div(leads[i][1], m) is None]
        live.append(new)

    for v in vectors:
        insert(v)
    while pairs:
        _, lcm, _, i, j = heapq.heappop(pairs)
        s = vec_sub(
            vec_term_mul(basis[i], one, mono_div(lcm, leads[i][1])),
            vec_term_mul(basis[j], one, mono_div(lcm, leads[j][1])),
        )
        r = reference_normal_form(s, basis, order)
        if not vec_is_zero(r):
            insert(r)
    minimal = [
        i for i in live
        if not any(
            j != i and leads[j][0] == leads[i][0] and mono_div(leads[i][1], leads[j][1]) is not None
            for j in live
        )
    ]
    minimal.sort(key=lambda i: (leads[i][0], order.key(leads[i][1])))
    reduced = []
    for i in minimal:
        others = [basis[k] for k in minimal if k != i]
        reduced.append(reference_normal_form(basis[i], others, order) if others else basis[i])
    return SimpleNamespace(generators=tuple(reduced))


ENGINE_DOMAINS = (QQ, prime_field(2), prime_field(7))
ENGINE_ORDERS = (GREVLEX, LEX, elimination_order(1))
ENGINE_CAP = 8  # bounds the lex cases whose bases climb in degree


def engine_input(seed):
    """A seeded module-basis input: (ctx, dom, order, rank, rows).

    Seeds cycle through Q, F_2, F_7, then grevlex, lex, elimination, then
    ranks 1-3; rows are non-monic, some components are zero, and about half
    the inputs carry a zero row.
    """
    rng = random.Random(seed)
    dom = ENGINE_DOMAINS[seed % 3]
    order = ENGINE_ORDERS[seed // 3 % 3]
    rank = 1 + seed // 9 % 3
    ctx = context(*("x", "y", "z")[: rng.randint(2, 3)])
    zero = Polynomial.zero(ctx, dom)
    rows = [
        tuple(zero if rng.random() < 0.3 else random_poly_over(rng, ctx, dom, rng.randint(1, 3), 2)
              for _ in range(rank))
        for _ in range(rng.randint(1, rank + 2))
    ]
    if rng.random() < 0.5:
        rows.insert(rng.randint(0, len(rows)), (zero,) * rank)
    return ctx, dom, order, rank, rows


def outcome(fn, *args):
    """The vectors ``fn`` returns, terms in stored order with coefficient
    types, or the ResourceLimit it raises."""
    try:
        vectors = fn(*args)
    except ResourceLimit as e:
        return ("ResourceLimit", str(e), e.degree, e.cap)
    return [[[(m, type(c).__name__, c) for m, c in p.terms.items()] for p in v] for v in vectors]


def engine_digest(seeds=range(600)):
    """SHA-256 over the reduced bases of ``engine_input(seed)`` as text."""
    h = hashlib.sha256()
    token = degree_cap.set(ENGINE_CAP)
    try:
        for seed in seeds:
            ctx, dom, order, rank, rows = engine_input(seed)
            try:
                gens = module_buchberger(rows, rank, ctx, dom, order).generators
                text = "".join("[" + ", ".join(c.to_str() for c in v) + "]\n" for v in gens)
            except ResourceLimit as e:
                text = f"ResourceLimit {e} {e.degree} {e.cap}\n"
            h.update(f"{seed}\n{text}".encode())
    finally:
        degree_cap.reset(token)
    return h.hexdigest()


DIGEST = Path(__file__).parent / "data" / "groebner_digest.json"


def test_engine_output_matches_the_recorded_digest():
    # reduced bases are unique: an engine change that alters one byte of
    # them is a bug, whatever the speed-up
    recorded = json.loads(DIGEST.read_text())
    assert engine_digest(range(recorded["inputs"])) == recorded["sha256"]


@pytest.mark.parametrize("seed", range(0, 600, 10))
def test_engine_matches_the_reference_loop(seed):
    ctx, dom, order, rank, rows = engine_input(seed)
    token = degree_cap.set(ENGINE_CAP)
    try:
        assert outcome(lambda: module_buchberger(rows, rank, ctx, dom, order).generators) == outcome(
            lambda: reference_buchberger(rows, rank, ctx, dom, order).generators
        )
        theirs = tagged(rows, ctx, dom)
        assert outcome(syzygy_basis, rows, rank, ctx, dom, order) == outcome(
            lambda: [w[rank:] for w in reference_buchberger(theirs, rank + len(rows), ctx, dom, order).generators
                     if vec_is_zero(w[:rank])]
        )
        gens = [r[0] for r in rows]
        if any(not g.is_zero() for g in gens):

            def extended():
                gb, cofactors = buchberger_extended(gens, order)
                return (gb.generators,) + cofactors

            def reference_extended():
                ref = reference_buchberger(tagged([(g,) for g in gens], ctx, dom), 1 + len(gens), ctx, dom, order)
                led = [w for w in ref.generators if not w[0].is_zero()]
                return (tuple(w[0] for w in led),) + tuple(w[1:] for w in led)

            assert outcome(extended) == outcome(reference_extended)
    finally:
        degree_cap.reset(token)


def test_engine_raises_the_reference_resource_limit():
    x, y = qq("x"), qq("y")
    zero = Polynomial.zero(XY, QQ)
    token = degree_cap.set(3)
    try:
        # on entry: the second component of the second vector is over the cap
        rows = [(x + y, zero), (x, y**5 - x)]
        assert outcome(lambda: module_buchberger(rows, 2, XY, QQ).generators) == outcome(
            lambda: reference_buchberger(rows, 2, XY, QQ).generators
        ) == ("ResourceLimit", "polynomial degree 5 exceeds the degree cap 3", 5, 3)
    finally:
        degree_cap.reset(token)
    token = degree_cap.set(2)
    try:
        # mid-run: y*(x - y^2) - (x*y - 1) = 1 - y^3 under lex, irreducible
        rows = [(qq("x - y^2"),), (qq("x*y - 1"),)]
        assert outcome(lambda: module_buchberger(rows, 1, XY, QQ, LEX).generators) == outcome(
            lambda: reference_buchberger(rows, 1, XY, QQ, LEX).generators
        ) == ("ResourceLimit", "polynomial degree 3 exceeds the degree cap 2", 3, 2)
    finally:
        degree_cap.reset(token)


def test_a_seed_basis_extends_to_the_basis_of_all_rows():
    """On every engine input whose run stays under ENGINE_CAP, the basis of
    the rows before a seeded split point, as the seed of a run on the rows
    after it, gives the basis of a run on all rows."""
    token = degree_cap.set(ENGINE_CAP)
    checked = set()
    try:
        for seed in range(600):
            ctx, dom, order, rank, rows = engine_input(seed)
            try:
                whole = module_buchberger(rows, rank, ctx, dom, order).generators
            except ResourceLimit:
                continue
            k = random.Random(seed).randint(0, len(rows))
            prefix = module_buchberger(rows[:k], rank, ctx, dom, order)
            assert outcome(lambda: module_buchberger(rows[k:], rank, ctx, dom, order, seed=prefix).generators) == (
                outcome(lambda: whole)
            ), seed
            checked.add((dom, order, rank))
    finally:
        degree_cap.reset(token)
    assert len(checked) == 27  # every domain, order and rank


def test_a_seed_packed_for_another_cap_is_packed_again():
    """A seed found under one degree cap runs under another, whose packing
    has fields of another width (5 bits under cap 7, 6 under cap 8), and
    gives the same basis."""

    def under(cap, fn):
        token = degree_cap.set(cap)
        try:
            return fn()
        except ResourceLimit:
            return None
        finally:
            degree_cap.reset(token)

    repacked = 0
    for seed in range(0, 600, 7):
        ctx, dom, order, rank, rows = engine_input(seed)
        k = len(rows) // 2
        for seed_cap, run_cap in ((ENGINE_CAP - 1, ENGINE_CAP), (ENGINE_CAP, ENGINE_CAP - 1)):
            prefix = under(seed_cap, lambda: module_buchberger(rows[:k], rank, ctx, dom, order))
            expected = under(run_cap, lambda: module_buchberger(rows, rank, ctx, dom, order).generators)
            if prefix is None or expected is None:  # a cap was hit
                continue
            got = under(run_cap, lambda: module_buchberger(rows[k:], rank, ctx, dom, order, seed=prefix).generators)
            assert outcome(lambda: got) == outcome(lambda: expected), (seed, seed_cap)
            repacked += prefix.packing is not None
    assert repacked > 50


def test_a_seed_of_another_shape_is_refused():
    seed = module_buchberger([(qq("x^2 - y"),)], 1, XY, QQ)
    assert module_buchberger([], 1, XY, QQ, seed=seed) is seed
    for shape in ((2, XY, QQ, GREVLEX), (1, context("x", "y", "z"), QQ, GREVLEX),
                  (1, XY, prime_field(7), GREVLEX), (1, XY, QQ, LEX)):
        with pytest.raises(ShapeMismatch, match="seed basis does not match"):
            module_buchberger([], *shape, seed=seed)


def test_a_vector_of_another_shape_is_refused():
    x, y = qq("x"), qq("y")
    for vectors in ([(x,)], [(x, y), (x,)], [(x, y, x)]):
        with pytest.raises(ShapeMismatch):
            module_buchberger(vectors, 2, XY, QQ)
    xyz, f7 = context("x", "y", "z"), prime_field(7)
    for other in (poly_parse("z", xyz, QQ), poly_parse("y", XY, f7)):
        for vectors in ([(x, other)], [(other, x)], [(x, y), (y, other)]):
            with pytest.raises(ContextMismatch):
                module_buchberger(vectors, 2, XY, QQ)


def test_a_zero_vector_of_another_shape_is_refused():
    """Zero vectors are dropped only after every vector's shape is checked."""
    x = qq("x")
    with pytest.raises(ShapeMismatch):
        module_buchberger([(x, x), (qq("0"),)], 2, XY, QQ)
    with pytest.raises(ContextMismatch):
        module_buchberger([(x,), (poly_parse("0", XY, prime_field(5)),)], 1, XY, QQ)


def test_normal_form_divides_only_over_fields():
    from tangentcat.polycore import ZZ

    x = Polynomial.variable(XY, ZZ, 0)
    two_x = x + x
    # y is irreducible by 2x: no step, so no division
    assert normal_form(Polynomial.variable(XY, ZZ, 1), [two_x]) == Polynomial.variable(XY, ZZ, 1)
    with pytest.raises(UnsupportedDomain, match="exact division"):
        normal_form(x * x, [two_x])


# --- integer coefficients over Q, divisibility masks, cached reducers ------

def swollen_poly(rng, ctx, nterms, degree):
    """A polynomial over Q with numerators and denominators up to 2^40."""
    terms = {}
    for _ in range(nterms):
        exps = [0] * len(ctx)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(len(ctx))] += 1
        terms[tuple(exps)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**40), rng.randint(1, 2**40))
    return Polynomial(ctx, QQ, terms)


@pytest.mark.parametrize("seed", range(8))
def test_large_coefficients_match_the_reference_loops(seed):
    rng = random.Random(seed)
    ctx = context(*("x", "y", "z")[: rng.randint(2, 3)])
    zero = Polynomial.zero(ctx, QQ)
    rank = 1 + seed % 2
    for order in (GREVLEX, elimination_order(1)):
        # non-monic rows with content > 1: a large integer times each row
        rows = []
        for _ in range(rng.randint(1, 3)):
            k = Polynomial.constant(ctx, QQ, rng.randint(2, 2**40))
            rows.append(tuple(zero if rng.random() < 0.3 else k * swollen_poly(rng, ctx, rng.randint(1, 3), 2)
                              for _ in range(rank)))
        v = tuple(swollen_poly(rng, ctx, rng.randint(1, 5), 4) for _ in range(rank))
        assert exact(module_normal_form(v, rows, order)) == exact(reference_normal_form(v, rows, order))
        divisors = [swollen_poly(rng, ctx, rng.randint(1, 3), 2) for _ in range(rng.randint(1, 3))]
        p = swollen_poly(rng, ctx, rng.randint(1, 6), 4)
        quotients, r = division(p, divisors, order)
        ref_quotients, ref_r = reference_division(p, divisors, order)
        assert exact(quotients + [r]) == exact(ref_quotients + [ref_r])
        token = degree_cap.set(ENGINE_CAP)
        try:
            assert outcome(lambda: module_buchberger(rows, rank, ctx, QQ, order).generators) == outcome(
                lambda: reference_buchberger(rows, rank, ctx, QQ, order).generators
            )
            # tag columns: the syzygies of the rows
            theirs = tagged(rows, ctx, QQ)
            assert outcome(syzygy_basis, rows, rank, ctx, QQ, order) == outcome(
                lambda: [w[rank:] for w in reference_buchberger(theirs, rank + len(rows), ctx, QQ, order).generators
                         if vec_is_zero(w[:rank])]
            )
        finally:
            degree_cap.reset(token)


def test_a_later_step_scales_the_remainder_collected_before_it():
    # x^2 is collected first; reducing y by 2y + 3 then scales the vector
    # by 2, and the collected x^2 must be scaled with it: x^2 - 3/2
    assert str(normal_form(qq("x^2 + y"), [qq("2*y + 3")])) == "x^2 - 3/2"
    zero = Polynomial.zero(XY, QQ)
    rows = [(zero, qq("2*y + 3"))]
    assert [str(c) for c in module_normal_form((qq("x"), qq("y")), rows)] == ["x", "-3/2"]
    quotients, r = division(qq("x^2 + y"), [qq("2*y + 3")])
    assert [str(q) for q in quotients] == ["1/2"] and str(r) == "x^2 - 3/2"
    for v, basis in (((qq("x^2 + y"),), [(qq("2*y + 3"),)]), ((qq("x"), qq("y")), rows)):
        assert exact(module_normal_form(v, basis, GREVLEX)) == exact(reference_normal_form(v, basis, GREVLEX))


def test_normal_form_past_sixty_four_variables():
    # leading monomials in variables 64..69 put their fields past bit 64:
    # the degree sits above 70 fields of 9 bits, field i holding M - e_i
    ctx = context(*(f"x{i}" for i in range(70)))
    pk = groebner._Packing(70, 9)
    m = (1,) + (0,) * 63 + (2, 0, 0, 0, 0, 1)
    assert pk.codes(m) == (4 << 9 * 70) + pk.one - (1 + (2 << 9 * 64) + (1 << 9 * 69))
    assert pk.monos(pk.codes(m)) == m
    gens = [poly_parse(text, ctx, QQ) for text in ("x69*x0 - x68", "x66^2 - 2*x65", "3*x64*x67 + x1")]
    p = poly_parse("x69^2*x0^2 + x66^3*x67 + x64^2*x67^2*x69 + x2", ctx, QQ)
    basis = [(g,) for g in gens]
    assert exact(module_normal_form((p,), basis, GREVLEX)) == exact(reference_normal_form((p,), basis, GREVLEX))
    assert str(normal_form(p, gens)) == "2*x65*x66*x67 + 1/9*x1^2*x69 + x68^2 + x2"


@pytest.mark.parametrize("n", [0, 1, 3, 70])
@pytest.mark.parametrize("width", [2, 5, 9, 33])
def test_packed_monomials_agree_with_the_tuple_functions(n, width):
    pk = groebner._Packing(n, width)
    top = pk.limit
    rng = random.Random(n * 100 + width)

    def mono(bound=top):
        return tuple(rng.choice((0, 1, bound, rng.randint(0, bound))) for _ in range(n))

    for _ in range(60):
        a = mono()
        b = mono() if rng.random() < 0.5 else tuple(rng.randint(0, e) for e in a)  # often b | a
        ca, cb = pk.codes(a), pk.codes(b)
        assert pk.monos(ca) == a and pk.monos(cb) == b and ca >> pk.top == mono_deg(a)
        assert (ca > cb) - (ca < cb) == (GREVLEX.key(a) > GREVLEX.key(b)) - (GREVLEX.key(a) < GREVLEX.key(b))
        assert (not (ca - cb + pk.one) & pk.guards) == (mono_div(a, b) is not None)
        assert pk.monos(pk.lcm(ca, cb)) == mono_lcm(a, b)
        # a product decodes to the sum when every exponent fits, and else sets a guard bit
        product = tuple(x + y for x, y in zip(a, b))
        if max(product, default=0) <= top:
            assert pk.monos(ca + cb - pk.one) == product
        else:
            assert (ca + cb - pk.one) & pk.guards
    if n:
        with pytest.raises(groebner._Overflow):
            pk.codes((top + 1,) + (0,) * (n - 1))


def test_exponents_past_the_first_packing_width_give_the_same_results():
    # values recorded from the engine before it packed monomials: x^100000
    # is far past the fields of a default-cap basis, so each call reruns at a
    # wider packing, and lex and block orders do not bound it by the degree
    p = Polynomial(XY, QQ, {(100000, 1): 1, (0, 1): 1})
    for order in (GREVLEX, LEX, elimination_order(1)):
        assert str(ideal_basis((qq("x^2 - x"),), XY, QQ, order).normal_form(p)) == "x*y + y"
    token = degree_cap.set(100000)
    try:
        gb = groebner_basis((qq("x^100000 - 1"), qq("x^2*y - y")))
        assert [str(g) for g in gb.generators] == ["x^2*y - y", "x^100000 - 1"]
        assert str(gb.normal_form(qq("x^99999*y^2 + x^3"))) == "x^3 + x*y^2"
    finally:
        degree_cap.reset(token)
    # products past the fields of a cap-1000 packing, made while reducing
    xyz = context("x", "y", "z")
    token = degree_cap.set(1000)
    try:
        gb = ideal_basis((qq("x - y^1000", xyz),), xyz, QQ, LEX)
        assert str(gb.normal_form(qq("x^3 + z", xyz))) == "y^3000 + z"
        with pytest.raises(ResourceLimit, match="degree 3001 exceeds the degree cap 1000"):
            groebner_basis((qq("x - y^1000", xyz), qq("x^3*z - 1", xyz)), LEX)
    finally:
        degree_cap.reset(token)


def test_reducers_are_not_shared_across_order_domain_or_rank():
    f7 = prime_field(7)
    gens = (qq("2*x + 3*y"), qq("y^2 + 5"))
    p = qq("x^2*y + y^3 + x")
    for order in (GREVLEX, elimination_order(1), LEX):
        basis = [(g,) for g in gens]
        assert exact(module_normal_form((p,), basis, order)) == exact(reference_normal_form((p,), basis, order))
    # equal term dicts over F_7: a cache keyed on terms alone would mix them up
    gens7 = tuple(Polynomial(XY, f7, {m: int(c) for m, c in g.terms.items()}) for g in gens)
    p7 = Polynomial(XY, f7, {m: int(c) for m, c in p.terms.items()})
    assert all(g7.terms == g.terms for g7, g in zip(gens7, gens))
    for order in (GREVLEX, elimination_order(1)):
        basis = [(g,) for g in gens7]
        assert exact(module_normal_form((p7,), basis, order)) == exact(reference_normal_form((p7,), basis, order))
    # the same polynomials as rank-2 rows
    zero = Polynomial.zero(XY, QQ)
    rows = [(gens[0], zero), (zero, gens[1])]
    v = (p, p)
    assert exact(module_normal_form(v, rows)) == exact(reference_normal_form(v, rows, GREVLEX))


def test_basis_normal_form_is_the_plain_normal_form():
    for order in (GREVLEX, LEX, elimination_order(1)):
        gb = groebner_basis((qq("x^2 - 2*y"), qq("3*x*y - 1")), order)
        for text in ("x^5 + y", "x*y^2", "7/3*x^3*y - x"):
            p = qq(text)
            assert exact([gb.normal_form(p)]) == exact([normal_form(p, gb.generators, gb.order)])


@pytest.mark.parametrize("dom", ENGINE_DOMAINS, ids=str)
@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_module_basis_normal_form_is_the_plain_normal_form(dom, rank, seed):
    # a module basis reduces against the table its run built; the same
    # basis read back as Polynomials must give the same normal form
    rng = random.Random(seed)
    ctx = context(*("x", "y", "z")[: rng.randint(2, 3)])
    zero = Polynomial.zero(ctx, dom)
    for order in ENGINE_ORDERS:
        rows = [
            tuple(zero if rng.random() < 0.3 else random_poly_over(rng, ctx, dom, rng.randint(1, 3), 2)
                  for _ in range(rank))
            for _ in range(rng.randint(1, rank + 1))
        ]
        token = degree_cap.set(ENGINE_CAP)
        try:
            mgb = module_buchberger(rows, rank, ctx, dom, order)
        except ResourceLimit:
            continue
        finally:
            degree_cap.reset(token)
        for _ in range(3):
            v = tuple(random_poly_over(rng, ctx, dom, rng.randint(1, 5), 4) for _ in range(rank))
            ours = exact(mgb.normal_form(v))
            assert ours == exact(module_normal_form(v, mgb.generators, order))
            if mgb.generators:
                assert ours == exact(reference_normal_form(v, mgb.generators, order))


def test_many_distinct_bases_match_the_reference_loop():
    p = qq("x^5 + y")
    for k in range(2, 40):
        basis = [(qq(f"x^2 - {k}*y"),)]
        assert exact(module_normal_form((p,), basis)) == exact(reference_normal_form((p,), basis, GREVLEX))


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
        return monic(Polynomial(ctx, QQ, terms), order)

    theirs = sympy.groebner([to_sympy(g) for g in gens], *syms, order=order.kind, domain="QQ")
    ours = groebner_basis(gens, order)
    assert set(ours.generators) == {from_sympy(p) for p in theirs.polys}
    assert all(g == monic(g, order) for g in ours.generators)

"""Exact polynomial arithmetic: domains, term orders, parsing, calculus."""

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentcat.errors import DomainMismatch, ParseError, ResourceLimit, UnsupportedDomain
from tangentcat.polycore import (
    GREVLEX,
    LEX,
    MAX_COEFFICIENT_BITS,
    MAX_DIGITS,
    MAX_NESTING,
    NN,
    PRIME_TEST_LIMIT,
    QQ,
    ZZ,
    Polynomial,
    context,
    degree_cap,
    elimination_order,
    poly_parse,
    prime_field,
    substitute_all,
    _is_prime,
)

from poly_reference import evaluate, leading_term

XY = context("x", "y")
XYZ = context("x", "y", "z")
F5 = prime_field(5)


def canonical_rational(c):
    """The canonical Q coefficient: an int, or a Fraction that is not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def qq(text, ctx=XY):
    return poly_parse(text, ctx, QQ)


# --- coefficient domains ----------------------------------------------------

def test_domain_flags():
    assert QQ.is_field and QQ.has_negation
    assert not ZZ.is_field and ZZ.has_negation
    assert not NN.is_field and not NN.has_negation
    assert F5.is_field and F5.has_negation


def test_prime_field_arithmetic():
    two = F5.from_int(2)
    assert F5.div(F5.one(), two) == F5.from_int(3)
    assert Polynomial.constant(XY, F5, 4) + Polynomial.constant(XY, F5, two) == Polynomial.one(XY, F5)
    assert F5.normalize(F5.from_int(7)) == two


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(UnsupportedDomain):
        prime_field(6)


def test_prime_test_is_exact_on_small_moduli():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if _is_prime(n)] == [
        n for n in range(5000) if trial_division(n)
    ]


def test_large_prime_modulus_is_accepted_at_once():
    start = time.perf_counter()
    field = prime_field(2**61 - 1)  # the oracle's own modulus
    assert time.perf_counter() - start < 1.0
    assert field.div(field.one(), field.from_int(2)) == 2**60


@pytest.mark.parametrize(
    "modulus",
    [
        2**61 + 1,  # divisible by 3
        561,  # the smallest Carmichael number: a Fermat test passes it
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_composite_moduli_are_rejected(modulus):
    with pytest.raises(UnsupportedDomain, match="needs a prime"):
        prime_field(modulus)


def test_moduli_past_the_exact_range_are_unsupported():
    with pytest.raises(UnsupportedDomain, match="must be below"):
        prime_field(PRIME_TEST_LIMIT)


@pytest.mark.parametrize("dom", [QQ, ZZ, NN, F5], ids=str)
def test_every_domain_rejects_a_bool(dom):
    """True is an int to Python but no coefficient, over Q as over Z, N and F_p."""
    for c in (True, False):
        with pytest.raises(DomainMismatch):
            dom.normalize(c)
    with pytest.raises(DomainMismatch):
        Polynomial(XY, dom, {(0, 0): True})


def test_rationals_are_ints_when_integral():
    assert type(QQ.zero()) is int and type(QQ.one()) is int and type(QQ.from_int(-3)) is int
    assert QQ.normalize(Fraction(6, 3)) == 2 and type(QQ.normalize(Fraction(6, 3))) is int
    assert QQ.normalize(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.div(6, 3)) is int and QQ.div(3, 6) == Fraction(1, 2)
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    half = qq("1/2*x^2 + 3/2*y")
    assert type(half.partial(0).terms[(1, 0)]) is int
    assert type(evaluate(half, [1, 1])) is int
    assert str(half.scale(2)) == "x^2 + 3*y" and type(half.scale(2).terms[(0, 1)]) is int


def test_integer_domains_reject_division():
    with pytest.raises(UnsupportedDomain):
        ZZ.div(ZZ.from_int(3), ZZ.from_int(2))
    with pytest.raises(UnsupportedDomain):
        Polynomial.constant(XY, NN, 2) - Polynomial.constant(XY, NN, 3)


# --- construction and printing ----------------------------------------------

def test_parse_print_round_trip_examples():
    for text in ("x^2 + 2*x*y + y^2", "3/4*x^2 - y", "x*y - 1", "0", "1", "-x + 1"):
        p = qq(text)
        assert poly_parse(str(p), XY, QQ) == p


def test_rational_literals():
    p = qq("3/4*x + 1/2")
    assert p.terms[(1, 0)] == Fraction(3, 4)
    assert p.terms[(0, 0)] == Fraction(1, 2)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        qq("x + * y")
    assert exc.value.column == 5
    with pytest.raises(ParseError) as exc:
        qq("z + 1")
    assert "unknown variable 'z'" in str(exc.value)


@pytest.mark.parametrize("text, dom, message, column", [
    ("1/2*x", F5, "rational literals are not available over", 2),
    ("x + 1/0", QQ, "zero denominator", 7),
    ("1/x", QQ, "expected a denominator, got 'x'", 3),
    ("(x y)", QQ, "expected ')', got 'y'", 4),
    ("-x", NN, "'-' is not available over N", 1),
    ("x - y", NN, "'-' is not available over N", 3),
], ids=["rational-over-Fp", "zero-denominator", "missing-denominator", "unclosed-parenthesis",
        "leading-minus-over-N", "binary-minus-over-N"])
def test_parse_refusals_carry_their_column(text, dom, message, column):
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        poly_parse(text, XY, dom)
    assert exc.value.column == column


def test_signs_read_the_same_leading_and_between_terms():
    assert poly_parse("+x + y", XY, NN) == poly_parse("x + y", XY, NN)
    for dom in (QQ, ZZ, F5):
        assert poly_parse("-x - y + 1", XY, dom) == -poly_parse("x + y - 1", XY, dom)


def test_numbers_are_decimal_digits():
    """A digit int() cannot read ('²', '①') is an unexpected character,
    as an exponent and as a coefficient; other decimal digits read as such."""
    digits = [c for c in map(chr, range(0x10000)) if c.isdigit() and not c.isdecimal()]
    assert "²" in digits and "①" in digits
    for ch in digits:
        for text in (f"x^{ch}", f"{ch}*x"):
            with pytest.raises(ParseError, match="unexpected character"):
                qq(text)
    assert qq("\u0663*x^\u0663") == qq("3*x^3")


def test_constant_and_variable_constructors():
    c = Polynomial.constant(XY, QQ, Fraction(7))
    assert c.degree() == 0 and c.constant_value() == 7
    x = Polynomial.variable(XY, QQ, 0)
    assert str(x) == "x"
    assert Polynomial.zero(XY, QQ).is_zero()


def test_repr_names_the_class_and_the_printed_form():
    assert repr(qq("x^2 - 3*y")) == "Polynomial('x^2 - 3*y')"


# --- term orders ------------------------------------------------------------

def test_leading_terms_differ_by_order():
    p = qq("x^2 - y^3")
    assert leading_term(p, LEX)[0] == (2, 0)
    assert leading_term(p, GREVLEX)[0] == (0, 3)


def test_elimination_order_prefers_the_block():
    order = elimination_order(1)
    p = qq("x - y^3")
    # any monomial touching the eliminated block beats any that avoids it
    assert leading_term(p, order)[0] == (1, 0)
    # "eliminates" marks monomials that avoid the block entirely
    assert not order.eliminates((1, 0))
    assert order.eliminates((0, 3))


# --- ring axioms (property-based) -------------------------------------------

small_coeff = st.integers(min_value=-4, max_value=4)


def polys(ctx, dom, degree=3):
    n = len(ctx)
    monos = st.tuples(*(st.integers(min_value=0, max_value=degree) for _ in range(n)))
    return st.dictionaries(monos, small_coeff, max_size=4).map(
        lambda d: Polynomial(ctx, dom, {m: dom.from_int(c) for m, c in d.items()})
    )


@settings(max_examples=50)
@given(polys(XY, QQ), polys(XY, QQ), polys(XY, QQ))
def test_ring_axioms_qq(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Polynomial.zero(XY, QQ)


@settings(max_examples=25)
@given(polys(XY, F5), polys(XY, F5))
def test_distributivity_mod_p(a, b):
    assert (a + b) * (a + b) == a * a + a * b + a * b + b * b


@settings(max_examples=25)
@given(polys(XY, QQ), polys(XY, QQ))
def test_leibniz_rule(a, b):
    for i in range(2):
        lhs = (a * b).partial(i)
        rhs = a.partial(i) * b + a * b.partial(i)
        assert lhs == rhs


@settings(max_examples=25)
@given(polys(XY, QQ), polys(XY, QQ), small_coeff, small_coeff)
def test_evaluation_is_a_ring_map(a, b, v0, v1):
    point = (QQ.from_int(v0), QQ.from_int(v1))
    assert evaluate(a + b, point) == evaluate(a, point) + evaluate(b, point)
    assert evaluate(a * b, point) == evaluate(a, point) * evaluate(b, point)


@settings(max_examples=25)
@given(polys(XY, QQ))
def test_parse_print_round_trip_property(p):
    assert poly_parse(p.to_str(), XY, QQ) == p


@pytest.mark.parametrize("dom", [QQ, F5, ZZ, NN], ids=str)
@pytest.mark.parametrize("seed", range(10))
def test_arithmetic_results_are_clean(dom, seed):
    """Sums, differences, products and substitutions skip normalization."""
    rng = random.Random(seed)

    def rand():
        terms = {}
        for _ in range(rng.randint(0, 5)):
            c = rng.randint(0 if dom == NN else -3, 3)
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = Fraction(c, rng.randint(1, 2)) if dom == QQ else c
        return Polynomial(XY, dom, terms)

    a, b = rand(), rand()
    results = [a + b, a * b, (a + b) * (a + b), a.substitute((b, rand()))]
    if dom.has_negation:
        results += [a - b, (a - b) * (a + b), a - a]
    for r in results:
        for c in r.terms.values():
            if dom == QQ:
                assert canonical_rational(c) and c != 0
            else:
                assert type(c) is int and c != 0
                assert dom != F5 or 0 < c < 5
                assert dom != NN or c > 0
        assert r == Polynomial(XY, dom, r.terms)


# --- substitution and renaming ----------------------------------------------

def test_substitute_composes():
    p = qq("x^2 + y")
    images = (qq("y + 1"), qq("x*y"))
    q = p.substitute(images)
    assert q == qq("(y + 1)^2 + x*y")


def reference_substitute(poly, images):
    """One polynomial at a time, each with its own power table starting at 1:
    the substitution loop the shared kernel replaced, kept as its reference."""
    ctx, dom = images[0].context, images[0].domain
    one = Polynomial.one(ctx, dom)
    powers = [[one] for _ in images]

    def power(i, e):
        cache = powers[i]
        while len(cache) <= e:
            cache.append(cache[-1] * images[i])
        return cache[e]

    zero, p = dom.zero(), dom.p
    total = {}
    for m, c in poly.terms.items():
        acc = one
        for i, e in enumerate(m):
            if e:
                acc = power(i, e) if acc is one else acc * power(i, e)
        for m2, c2 in acc.terms.items():
            s = total.get(m2, zero) + c * c2
            if p:
                s %= p
            if s:
                total[m2] = s
            else:
                del total[m2]
    return Polynomial(ctx, dom, total)


def _random_polynomial(rng, ctx, dom, max_exp):
    lo = 0 if dom == NN else -3
    terms = {}
    for _ in range(rng.randint(0, 4)):
        c = rng.randint(lo, 3)
        mono = tuple(rng.randint(0, max_exp) if rng.random() < 0.5 else 0 for _ in range(len(ctx)))
        terms[mono] = Fraction(c, rng.randint(1, 2)) if dom == QQ else c
    return Polynomial(ctx, dom, terms)


@pytest.mark.parametrize("dom", [QQ, F5, ZZ, NN], ids=str)
@pytest.mark.parametrize("seed", range(25))
def test_substitute_all_matches_the_reference_loop(dom, seed):
    """The shared kernel equals per-polynomial substitution, term for term."""
    rng = random.Random(seed)
    images = [_random_polynomial(rng, XY, dom, 3) for _ in range(3)]
    polys = [_random_polynomial(rng, XYZ, dom, 6) for _ in range(6)]
    polys += [
        Polynomial.zero(XYZ, dom),
        Polynomial.constant(XYZ, dom, rng.randint(1, 3)),
        Polynomial.one(XYZ, dom),
        Polynomial.variable(XYZ, dom, rng.randrange(3)),
        Polynomial(XYZ, dom, {(0, 1, 0): 2}),
        Polynomial(XYZ, dom, {(2, 0, 3): 1}),
    ]
    got = substitute_all(polys, images, XY, dom)
    assert len(got) == len(polys)
    for poly, q in zip(polys, got):
        ref = reference_substitute(poly, images)
        assert q == ref
        assert q.to_str() == ref.to_str()
        assert list(q.terms) == list(ref.terms)
        assert poly.substitute(images) == ref


@pytest.mark.parametrize("dom", [QQ, F5, ZZ, NN], ids=str)
def test_substitute_all_edge_cases(dom):
    """Unit variables come back as their images; other lone terms do not."""
    x, y, z = (Polynomial.variable(XYZ, dom, i) for i in range(3))
    images = [poly_parse(t, XY, dom) for t in ("x + 2*y", "3*x*y + 1", "y^2")]
    unit, double, const, zero = substitute_all(
        (y, Polynomial(XYZ, dom, {(0, 1, 0): 2}), Polynomial.constant(XYZ, dom, 4),
         Polynomial.zero(XYZ, dom)),
        images, XY, dom,
    )
    assert unit is images[1]
    assert double == images[1] + images[1]
    assert double.to_str() == reference_substitute(Polynomial(XYZ, dom, {(0, 1, 0): 2}), images).to_str()
    assert const == Polynomial.constant(XY, dom, 4) and zero.is_zero()
    # powers up to 6 and a product of them
    p6 = x ** 6 * z + y ** 2
    (q6,) = substitute_all((p6,), images, XY, dom)
    assert q6 == reference_substitute(p6, images) == images[0] ** 6 * images[2] + images[1] ** 2
    if dom.has_negation:
        # x - z cancels once x and z have the same image
        q = x - z
        (d,) = substitute_all((q,), [images[2], images[0], images[2]], XY, dom)
        assert d.is_zero() and d == reference_substitute(q, [images[2], images[0], images[2]])


def test_rename_embeds_into_a_larger_context():
    p = qq("x^2 - y")
    q = p.rename(XYZ, [0, 2])
    assert str(q) == "x^2 - z"
    assert q.rename(XY, [0, 0, 1]) == p


def test_power_and_scale():
    x, y = (Polynomial.variable(XY, QQ, i) for i in range(2))
    assert (x + y) ** 0 == Polynomial.one(XY, QQ)
    assert (x - y) ** 2 == qq("x^2 - 2*x*y + y^2")
    assert x.scale(Fraction(1, 2)) == qq("1/2*x")


def test_subtraction_unavailable_over_nn():
    xn, yn = (Polynomial.variable(XY, NN, i) for i in range(2))
    with pytest.raises(UnsupportedDomain):
        _ = xn - yn


def test_subtraction_over_nn_fails_only_on_a_nonzero_subtrahend():
    xn, yn = (Polynomial.variable(XY, NN, i) for i in range(2))
    zero = Polynomial.zero(XY, NN)
    assert xn - zero == xn and zero - zero == zero
    with pytest.raises(UnsupportedDomain, match="subtraction is not available over N"):
        _ = xn - xn
    with pytest.raises(UnsupportedDomain, match="subtraction is not available over N"):
        _ = zero - yn


# --- edge cases of the term-level operations --------------------------------

F2 = prime_field(2)


def test_partial_drops_terms_whose_exponent_vanishes_mod_p():
    x5 = poly_parse("x^5", XY, F5)
    assert x5.partial(0).is_zero()
    assert poly_parse("x^6 + x^5", XY, F5).partial(0) == poly_parse("x^5", XY, F5)


def test_rename_that_collapses_terms_cancels_mod_p():
    collapsed = poly_parse("x + y", XY, F2).rename(context("x"), [0, 0])
    assert collapsed.is_zero() and not collapsed.terms
    assert qq("x + y").rename(context("x"), [0, 0]) == poly_parse("2*x", context("x"), QQ)


def test_rename_to_none_sends_the_variable_to_zero():
    x = context("x")
    assert qq("x^2*y + 3*x - y^2 + 1").rename(XY, [0, None]) == qq("3*x + 1")
    # what survives the dropped variable may still merge
    assert qq("x*z + x + y + z", XYZ).rename(x, [0, 0, None]) == qq("2*x", x)
    merged = poly_parse("2*x + 3*y + z", XYZ, F5).rename(x, [0, 0, None])
    assert merged.is_zero() and not merged.terms
    nn = poly_parse("x*y + 2*x + y^2 + 4", XY, NN).rename(x, [None, 0])
    assert nn == poly_parse("x^2 + 4", x, NN)


def test_scale_by_zero_p_and_fractions():
    p = poly_parse("x + 2*y", XY, F5)
    assert p.scale(0).is_zero() and p.scale(5).is_zero()
    assert p.scale(7) == poly_parse("2*x + 4*y", XY, F5)
    assert qq("x + 2*y").scale(Fraction(1, 2)) == qq("1/2*x + y")
    with pytest.raises(DomainMismatch):
        p.scale(Fraction(1, 2))


def test_constant_of_zero_and_of_p():
    assert not Polynomial.constant(XY, F5, 0).terms
    assert not Polynomial.constant(XY, F5, 5).terms
    assert not Polynomial.constant(XY, QQ, Fraction(0)).terms
    assert Polynomial.constant(XY, F5, 7) == Polynomial.constant(XY, F5, 2)


def test_negation_over_nn_only_of_zero():
    zero = Polynomial.zero(XY, NN)
    assert -zero == zero
    with pytest.raises(UnsupportedDomain, match="negation is not available over N"):
        _ = -Polynomial.variable(XY, NN, 0)


def test_a_power_above_the_cap_is_refused_before_it_is_expanded():
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="degree 3000 exceeds the degree cap 64"):
        qq("(x + 1)^3000")
    with pytest.raises(ResourceLimit, match="degree 66 exceeds the degree cap 64"):
        poly_parse("(x*y - 2)^33", XY, F5)
    assert time.perf_counter() - start < 1.0
    assert qq("(x + 1)^64").degree() == 64
    # a power of one term with coefficient 1 or -1 costs nothing to expand
    assert qq("x^3000 + (-y)^3000").degree() == 3000
    token = degree_cap.set(2)
    try:
        assert poly_parse("(4*x)^3", XY, F5).degree() == 3  # 4 is -1 in F5
        with pytest.raises(ResourceLimit, match="degree 3 exceeds the degree cap 2"):
            qq("(2*x)^3")
    finally:
        degree_cap.reset(token)


def test_a_power_of_a_constant_past_the_bit_budget_is_refused_before_it_is_computed():
    start = time.perf_counter()
    for dom in (QQ, ZZ, NN):
        with pytest.raises(ResourceLimit, match=f"exceeds the budget of {MAX_COEFFICIENT_BITS} bits"):
            poly_parse("x + 3^30000000", XY, dom)
    with pytest.raises(ResourceLimit, match="about 158496 bits"):
        qq("(2/3)^100000")  # the larger of numerator and denominator counts
    with pytest.raises(ResourceLimit):
        qq("(2^40000)^2")
    # over F_p the power reduces mod p: 3^30000000 = (3^4)^7500000 = 1 in F_5
    assert poly_parse("x - 3^30000000", XY, F5) == poly_parse("x - 1", XY, F5)
    assert time.perf_counter() - start < 1.0
    assert qq("2^64") == Polynomial.constant(XY, QQ, 2**64)
    assert qq("2^65536").terms == {(0, 0): 2**65536}  # 65536 bits: at the budget


def test_an_integer_literal_past_the_digit_limit_is_refused_before_it_is_read():
    big = "9" * (MAX_DIGITS + 1)
    for text in (f"x - {big}", f"x^{big}", f"x - 1/{big}", f"x - {big}/2"):
        with pytest.raises(ResourceLimit, match=f"{MAX_DIGITS + 1} digits exceeds the limit of {MAX_DIGITS}"):
            qq(text)
    at_limit = "9" * MAX_DIGITS
    assert qq(f"x - {at_limit}") == qq("x") - Polynomial.constant(XY, QQ, 10**MAX_DIGITS - 1)


def test_parentheses_nest_up_to_the_limit():
    assert qq("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == qq("x")
    with pytest.raises(ParseError, match="nested deeper than"):
        qq("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1))


def test_evaluate_mod_p_uses_modular_powers():
    p = poly_parse("x^1000 + 3*y", XY, F5)
    assert evaluate(p, (2, 4)) == (pow(2, 1000, 5) + 12) % 5
    assert evaluate(p, (0, 0)) == 0


def test_substitute_reaches_high_powers_without_recursion():
    x, y = (Polynomial.variable(XY, F5, i) for i in range(2))
    p = x ** 1500
    assert p.substitute((y, x)) == y ** 1500
    assert qq("x^1500").substitute((qq("2*y"), qq("x"))) == qq("y^1500").scale(2**1500)


@pytest.mark.parametrize("dom", [QQ, F5, ZZ, NN], ids=str)
@pytest.mark.parametrize("seed", range(5))
def test_term_level_operations_are_clean(dom, seed):
    """Negation, scaling, partials, renaming and the constructors skip normalization."""
    rng = random.Random(seed)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        c = rng.randint(0 if dom == NN else -6, 6)
        terms[(rng.randint(0, 6), rng.randint(0, 6))] = Fraction(c, rng.randint(1, 2)) if dom == QQ else c
    a = Polynomial(XY, dom, terms)
    results = [a.scale(rng.randint(0, 6)), a.partial(0), a.partial(1),
               a.rename(context("x"), [0, 0]), a.rename(XYZ, [2, 0]),
               Polynomial.zero(XY, dom), Polynomial.one(XY, dom),
               Polynomial.variable(XY, dom, 1), Polynomial.constant(XY, dom, rng.randint(0, 6))]
    if dom.has_negation:
        results.append(-a)
    for r in results:
        for c in r.terms.values():
            if dom == QQ:
                assert canonical_rational(c) and c != 0
            else:
                assert type(c) is int and c != 0
                assert dom != F5 or 0 < c < 5
                assert dom != NN or c > 0
        assert r == Polynomial(r.context, dom, r.terms)

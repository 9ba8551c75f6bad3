"""Exact multivariate polynomial arithmetic over Q, F_p, Z, and N.

Polynomials are immutable sparse dictionaries mapping exponent vectors to
nonzero coefficients.  Every coefficient is canonical, a plain Python
number: over Q an int when it is integral and otherwise a
:class:`fractions.Fraction` with denominator above 1, an int in ``0..p-1``
over F_p, and an int over Z and N.  Integral rationals stay ints, because
int arithmetic runs in C while Fraction arithmetic runs in Python code, and
nearly every coefficient met in practice is integral.  Every operation
follows one rule: on canonical inputs it computes with the numbers
directly, reduces mod p only over F_p, turns integral Fractions back into
ints only over Q, drops zero coefficients, and builds its result through
the trusted ``Polynomial._clean``.  ``CoefficientDomain.normalize`` runs
only where coefficients enter from outside: the validating
``Polynomial(...)`` constructor, ``constant`` and ``scale``.

The degree budget ``degree_cap`` lives here too: the parser refuses a power
whose degree exceeds it before expanding the power, and every Groebner
basis run checks its elements against it.  A power of a constant has degree
0, so over Q, Z and N the parser also refuses one whose value would need
more than ``MAX_COEFFICIENT_BITS`` bits; over F_p it reduces mod p.  An
integer literal longer than ``MAX_DIGITS`` digits is refused before it is read.
"""

from __future__ import annotations

from contextvars import ContextVar
from math import log2
from dataclasses import dataclass
from fractions import Fraction
from operator import add, neg, sub

from .errors import (
    ContextMismatch,
    DomainMismatch,
    ParseError,
    ResourceLimit,
    ShapeMismatch,
    UnsupportedDomain,
)

# The degree budget: every power the parser expands and every basis element
# entering a Buchberger run must stay at or below it.  Callers set it for a
# scope with ``token = degree_cap.set(n)`` and restore it with
# ``degree_cap.reset(token)``; the basis caches key on it, so a basis found
# under one budget is not handed out under a lower one.
degree_cap = ContextVar("degree_cap", default=64)


def within_cap(d):
    """Raise ResourceLimit when the degree ``d`` exceeds the current ``degree_cap``."""
    cap = degree_cap.get()
    if d > cap:
        raise ResourceLimit(f"polynomial degree {d} exceeds the degree cap {cap}", degree=d, cap=cap)


# Miller-Rabin with the first thirteen primes as bases is exact below the
# smallest strong pseudoprime to all of them (Sorenson & Webster 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; moduli past PRIME_TEST_LIMIT are unsupported."""
    if n >= PRIME_TEST_LIMIT:
        raise UnsupportedDomain(
            f"Fp moduli must be below {PRIME_TEST_LIMIT}, where primality is decided exactly"
        )
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_if_integral(c):
    """A rational in canonical form: a Fraction with denominator 1 becomes an int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def settle(dom, terms):
    """Over Q, turn the integral Fractions among fresh terms back into ints, in place."""
    if dom.kind == "Q":
        for m, c in terms.items():
            if type(c) is Fraction and c.denominator == 1:
                terms[m] = c.numerator
    return terms


@dataclass(frozen=True)
class CoefficientDomain:
    """One of the four supported coefficient domains: Q, F_p, Z, or N."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Q", "Fp", "Z", "N"):
            raise UnsupportedDomain(f"unknown coefficient domain {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise UnsupportedDomain(f"Fp needs a prime modulus, got {self.p!r}")
        elif self.p is not None:
            raise UnsupportedDomain(f"domain {self.kind} takes no modulus")

    @property
    def is_field(self):
        return self.kind in ("Q", "Fp")

    @property
    def has_negation(self):
        return self.kind != "N"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        """Coerce a Python int into this domain."""
        if self.kind == "Fp":
            return n % self.p
        if self.kind == "N" and n < 0:
            raise UnsupportedDomain("negative value has no image in N")
        return n

    def normalize(self, c):
        """Bring an element into canonical form, rejecting foreign types."""
        if self.kind == "Q" and isinstance(c, Fraction):
            return _int_if_integral(c)
        if not isinstance(c, int) or isinstance(c, bool):
            kind = "a rational" if self.kind == "Q" else "an integer"
            raise DomainMismatch(f"not {kind} coefficient: {c!r}")
        if self.kind == "Fp":
            return c % self.p
        if self.kind == "N" and c < 0:
            raise UnsupportedDomain("negative coefficient over N")
        return c

    def div(self, a, b):
        """Exact division; only fields support it."""
        if self.kind == "Q":
            if b == 0:
                raise ZeroDivisionError("division by zero in Q")
            return _int_if_integral(Fraction(a, b))
        if self.kind == "Fp":
            if b % self.p == 0:
                raise ZeroDivisionError("division by zero in Fp")
            return (a * pow(b, self.p - 2, self.p)) % self.p
        raise UnsupportedDomain(f"exact division is not available over {self.kind}")

    def __str__(self):
        return f"F{self.p}" if self.kind == "Fp" else self.kind


QQ = CoefficientDomain("Q")
ZZ = CoefficientDomain("Z")
NN = CoefficientDomain("N")


def prime_field(p):
    """Return the prime field F_p."""
    return CoefficientDomain("Fp", p)


@dataclass(frozen=True)
class VariableContext:
    """An ordered tuple of distinct variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ContextMismatch(f"duplicate variable names in {self.names}")

    def __len__(self):
        return len(self.names)


def context(*names):
    return VariableContext(tuple(names))


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples

def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_div(a, b):
    """Return a/b as an exponent vector, or None when b does not divide a."""
    q = tuple(map(sub, a, b))
    return q if min(q, default=0) >= 0 else None


def mono_deg(a):
    return sum(a)


@dataclass(frozen=True)
class TermOrder:
    """A monomial order: grevlex, lex, or a two-block elimination order.

    ``nblock`` is the number of leading variables forming the elimination
    block; monomials are compared grevlex-within-block, leading block first.
    """

    kind: str
    nblock: int = 0

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex", "block"):
            raise UnsupportedDomain(f"unknown term order {self.kind!r}")

    def key(self, mono):
        """Sort key; larger key means larger monomial."""
        if self.kind == "grevlex":
            return (mono_deg(mono), tuple(map(neg, reversed(mono))))
        if self.kind == "lex":
            return mono
        head, tail = mono[: self.nblock], mono[self.nblock :]
        return (
            mono_deg(head),
            tuple(map(neg, reversed(head))),
            mono_deg(tail),
            tuple(map(neg, reversed(tail))),
        )

    def eliminates(self, mono):
        """True when a monomial avoids the elimination block entirely."""
        return all(e == 0 for e in mono[: self.nblock])


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


def elimination_order(nblock):
    """Block order eliminating the first ``nblock`` variables."""
    return TermOrder("block", nblock)


class Polynomial:
    """Immutable sparse polynomial over a fixed context and domain."""

    __slots__ = ("context", "domain", "terms", "_hash")

    def __init__(self, context, domain, terms):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "domain", domain)
        n = len(context)
        zero = domain.zero()
        clean = {}
        for mono, coeff in terms.items():
            if len(mono) != n:
                raise ContextMismatch(
                    f"exponent vector {mono} does not fit a {n}-variable context"
                )
            c = domain.normalize(coeff)
            if c != zero:
                clean[mono] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _clean(cls, context, domain, terms):
        """Trusted constructor: ``terms`` must already be canonical and nonzero."""
        p = object.__new__(cls)
        object.__setattr__(p, "context", context)
        object.__setattr__(p, "domain", domain)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(context, domain):
        return Polynomial._clean(context, domain, {})

    @staticmethod
    def constant(context, domain, c):
        c = domain.normalize(c)
        return Polynomial._clean(context, domain, {(0,) * len(context): c} if c else {})

    @staticmethod
    def one(context, domain):
        return Polynomial._clean(context, domain, {(0,) * len(context): domain.one()})

    @staticmethod
    def variable(context, domain, i):
        if not 0 <= i < len(context):
            raise ShapeMismatch(f"variable index {i} out of range")
        mono = (0,) * i + (1,) + (0,) * (len(context) - 1 - i)
        return Polynomial._clean(context, domain, {mono: domain.one()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_value(self):
        return self.terms.get((0,) * len(self.context), self.domain.zero())

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def variables_used(self):
        used = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.context != other.context:
            raise ContextMismatch("polynomials live over different contexts")
        if self.domain != other.domain:
            raise DomainMismatch("polynomials live over different domains")

    def _combine(self, other, op):
        """Add or subtract (``op``) term by term: canonical terms need only mod p,
        or over Q an integral Fraction turned back into an int."""
        self._check(other)
        dom = self.domain
        if op is sub and other.terms and not dom.has_negation:
            raise UnsupportedDomain("subtraction is not available over N")
        terms = dict(self.terms)
        zero, p = dom.zero(), dom.p
        for m, c in other.terms.items():
            s = op(terms.get(m, zero), c)
            if p:
                s %= p
            elif type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Polynomial._clean(self.context, dom, terms)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        dom, p = self.domain, self.domain.p
        if self.terms and not dom.has_negation:
            raise UnsupportedDomain("negation is not available over N")
        terms = {m: (-c % p if p else -c) for m, c in self.terms.items()}
        return Polynomial._clean(self.context, dom, terms)

    def __mul__(self, other):
        self._check(other)
        dom = self.domain
        zero, p = dom.zero(), dom.p
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, zero) + c1 * c2
                if p:
                    s %= p
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return Polynomial._clean(self.context, dom, settle(dom, terms))

    def __pow__(self, e):
        if e < 0:
            raise UnsupportedDomain("negative polynomial powers are not defined")
        result = Polynomial.one(self.context, self.domain)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c):
        dom, p = self.domain, self.domain.p
        c = dom.normalize(c)
        # a product of nonzero canonical coefficients is nonzero, even mod p
        terms = {m: (v * c % p if p else v * c) for m, v in self.terms.items()} if c else {}
        return Polynomial._clean(self.context, dom, settle(dom, terms))

    # -- calculus and substitution ----------------------------------------

    def partial(self, i):
        """Formal partial derivative with respect to variable ``i``."""
        if not 0 <= i < len(self.context):
            raise ShapeMismatch(f"variable index {i} out of range")
        p = self.domain.p
        terms = {}  # distinct monomials keep distinct derivatives: no collisions
        for m, c in self.terms.items():
            e = m[i]
            if e:
                c2 = c * e % p if p else c * e
                if c2:
                    terms[m[:i] + (e - 1,) + m[i + 1 :]] = c2
        return Polynomial._clean(self.context, self.domain, settle(self.domain, terms))

    def substitute(self, images):
        """Compose with polynomial images, one per variable of this context."""
        if len(images) != len(self.context):
            raise ShapeMismatch(
                f"expected {len(self.context)} images, got {len(images)}"
            )
        if not images:
            raise ShapeMismatch("cannot substitute into an empty context")
        ctx, dom = images[0].context, images[0].domain
        for q in images:
            if q.context != ctx:
                raise ContextMismatch("substitution images disagree on context")
            if q.domain != dom:
                raise DomainMismatch("substitution images disagree on domain")
        if dom != self.domain:
            raise DomainMismatch("substitution across domains is not defined")
        return substitute_all((self,), images, ctx, dom)[0]

    def rename(self, new_context, index_map):
        """Transport into ``new_context``, sending old variable i to index_map[i].

        An index of None sends the variable to 0, which drops every term
        that contains it.
        """
        if len(index_map) != len(self.context):
            raise ShapeMismatch("index map does not cover the context")
        n = len(new_context)
        dom = self.domain
        zero, p = dom.zero(), dom.p
        terms = {}
        for m, c in self.terms.items():
            e2 = [0] * n
            for i, e in enumerate(m):
                if e:
                    j = index_map[i]
                    if j is None:
                        break
                    if not 0 <= j < n:
                        raise ShapeMismatch(f"index {j} outside target context")
                    e2[j] += e
            else:
                m2 = tuple(e2)
                s = terms.get(m2, zero) + c
                terms[m2] = s % p if p else s
        # merged terms may cancel, or over Q sum to an integer; settle them
        # once, keeping first-seen order
        terms = {m: c for m, c in terms.items() if c}
        return Polynomial._clean(new_context, dom, settle(dom, terms))

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.context == other.context
            and self.domain == other.domain
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            h = hash((self.context, self.domain, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def _mono_str(self, mono):
        parts = []
        for name, e in zip(self.context.names, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def to_str(self):
        """Canonical text form: terms descending in grevlex order."""
        if not self.terms:
            return "0"
        dom = self.domain
        monos = sorted(self.terms, key=GREVLEX.key, reverse=True)
        out = []
        for k, m in enumerate(monos):
            c = self.terms[m]
            negative = dom.kind in ("Q", "Z") and c < 0
            mag = -c if negative else c
            body = self._mono_str(m)
            cs = str(mag)
            if body and cs == "1":
                piece = body
            elif body:
                piece = f"{cs}*{body}"
            else:
                piece = cs
            if k == 0:
                out.append(f"-{piece}" if negative else piece)
            else:
                out.append(f" - {piece}" if negative else f" + {piece}")
        return "".join(out)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Polynomial({self.to_str()!r})"


def substitute_all(polys, images, context, domain):
    """Compose each of ``polys`` with ``images``, one image per variable.

    The images must all live over ``context`` and ``domain``; the callers
    check that once.  The powers of each image are built on first use and
    shared by every polynomial, and a lone term with coefficient 1 (a unit
    variable, say) comes back as its product of powers itself.
    """
    one = Polynomial.one(context, domain)
    zero, p = domain.zero(), domain.p
    powers = [None] * len(images)

    def image_of(m):
        acc = one
        for i, e in enumerate(m):
            if e:
                cache = powers[i]
                if cache is None:
                    cache = powers[i] = [one, images[i]]
                while len(cache) <= e:
                    cache.append(cache[-1] * images[i])
                acc = cache[e] if acc is one else acc * cache[e]
        return acc

    out = []
    for poly in polys:
        terms = poly.terms
        if len(terms) == 1 and 1 in terms.values():
            out.append(image_of(next(iter(terms))))
            continue
        total = {}
        for m, c in terms.items():
            for m2, c2 in image_of(m).terms.items():
                s = total.get(m2, zero) + c * c2
                if p:
                    s %= p
                if s:
                    total[m2] = s
                else:
                    del total[m2]
        out.append(Polynomial._clean(context, domain, settle(domain, total)))
    return out


# ---------------------------------------------------------------------------
# parsing

MAX_NESTING = 100  # parentheses deeper than this are refused, well inside the recursion limit
MAX_COEFFICIENT_BITS = 65536  # a power of a constant past this size is refused before it is computed
MAX_DIGITS = 4300  # Python's own default limit on reading a decimal string as an int


def read_int(digits):
    """The int a run of decimal digits spells; ResourceLimit past MAX_DIGITS digits."""
    if len(digits) > MAX_DIGITS:
        raise ResourceLimit(f"an integer literal of {len(digits)} digits exceeds the limit of {MAX_DIGITS} digits")
    return int(digits)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif ch in "+-*^()/":
            tokens.append(("OP", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", column=i + 1)
    tokens.append(("END", "", len(text)))
    return tokens


def _unit_monomial(p):
    """True for one term with coefficient 1 or -1 (p - 1 over F_p): its powers
    cost no expansion.  The degree cap meets them later, where a morphism's
    relation images are checked, where a basis takes them in and where
    ``kahler.cotangent_map`` takes their derivatives before reducing them."""
    if len(p.terms) != 1:
        return False
    (c,) = p.terms.values()
    return c in (1, -1) or c + 1 == p.domain.p


class _PolyParser:
    def __init__(self, tokens, ctx, domain):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.ctx = ctx
        self.domain = domain

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, col = self.peek()
        got = "end of input" if kind == "END" else repr(value)
        raise ParseError(f"expected {expected}, got {got}", column=col + 1)

    def parse(self):
        p = self.expr()
        if self.peek()[0] != "END":
            self.fail("end of polynomial")
        return p

    def expr(self):
        """Terms joined by signs, with an optional sign before the first."""
        p = None
        while True:
            kind, value, col = self.peek()
            minus = kind == "OP" and value == "-"
            if kind == "OP" and value in "+-":
                self.take()
                if minus and not self.domain.has_negation:
                    raise ParseError("'-' is not available over N", column=col + 1)
            elif p is not None:
                return p
            q = self.term()
            if p is None:
                p = -q if minus else q
            else:
                p = p - q if minus else p + q

    def term(self):
        p = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "OP" and value == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.atom()
        kind, value, _ = self.peek()
        if kind == "OP" and value == "^":
            self.take()
            ekind, evalue, ecol = self.peek()
            if ekind != "INT":
                self.fail("an integer exponent")
            self.take()
            e = read_int(evalue)
            if not _unit_monomial(p):
                # deg(p^e) = deg(p)*e exactly: no coefficient ring here has zero divisors
                within_cap(p.degree() * e)
                if p.degree() == 0 and not self.domain.p:
                    (c,) = p.terms.values()
                    bits = e * log2(max(abs(c.numerator), c.denominator))
                    if bits > MAX_COEFFICIENT_BITS:
                        raise ResourceLimit(f"a power of a constant of about {bits:.0f} bits "
                                            f"exceeds the budget of {MAX_COEFFICIENT_BITS} bits")
            p = p ** e
        return p

    def atom(self):
        kind, value, col = self.peek()
        if kind == "NAME":
            self.take()
            i = None
            if value in self.ctx.names:
                i = self.ctx.names.index(value)
            if i is None:
                raise ParseError(f"unknown variable {value!r}", column=col + 1)
            return Polynomial.variable(self.ctx, self.domain, i)
        if kind == "INT":
            self.take()
            num = read_int(value)
            nkind, nvalue, _ = self.peek()
            if nkind == "OP" and nvalue == "/":
                if self.domain.kind != "Q":
                    raise ParseError(
                        f"rational literals are not available over {self.domain}",
                        column=self.peek()[2] + 1,
                    )
                self.take()
                dkind, dvalue, dcol = self.peek()
                if dkind != "INT":
                    self.fail("a denominator")
                self.take()
                den = read_int(dvalue)
                if den == 0:
                    raise ParseError("zero denominator", column=dcol + 1)
                return Polynomial.constant(self.ctx, self.domain, Fraction(num, den))
            return Polynomial.constant(self.ctx, self.domain, num)
        if kind == "OP" and value == "(":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", column=col + 1)
            p = self.expr()
            self.depth -= 1
            ckind, cvalue, _ = self.peek()
            if ckind != "OP" or cvalue != ")":
                self.fail("')'")
            self.take()
            return p
        self.fail("a variable, number, or '('")


def poly_parse(text, ctx, domain):
    """Parse polynomial text over the given context and domain.

    A power whose degree exceeds ``degree_cap`` raises ResourceLimit before
    it is expanded, unless its base is a single term with coefficient 1 or
    -1; so does a power of a constant over Q, Z or N whose value would
    exceed ``MAX_COEFFICIENT_BITS`` bits.
    """
    tokens = _tokenize(text)
    return _PolyParser(tokens, ctx, domain).parse()

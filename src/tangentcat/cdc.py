"""Polynomial maps as a Cartesian differential category.

A map n -> m is a tuple of m polynomials in x1..xn.  The differential
D[f]: 2n -> m is the directional derivative, the tangent of f pairs f with
D[f], and the bundle map theta(f) = <base projection, D[f]> : 2n -> n+m is
what the classification predicates are about.  The structure maps
(projection, zero section, vertical lift, canonical flip) only reindex
coordinates and are index lists; fibre addition is a polynomial map.  Every
axiom and naturality law here is checked by exact polynomial identity -- no
subtraction is needed to compare two sides, which keeps the checks valid over N.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .classify import (
    PREDICATES,
    and3,
    build_report,
    fails,
    from_bool,
    holds,
    undetermined,
)
from .errors import (
    ContextMismatch,
    DomainMismatch,
    InconsistentClassification,
    NotASection,
    ShapeMismatch,
    UnsupportedDomain,
)
from .modlin import echelon, smith_form, smith_right_inverse
from .polycore import QQ, Polynomial, VariableContext, settle, substitute_all


MAX_ARITY = 1000  # cdc_context(n) names every variable and each monomial is an n-tuple


@lru_cache(maxsize=None)
def cdc_context(n):
    """The standard context x1..xn."""
    return VariableContext(tuple(f"x{i + 1}" for i in range(n)))


@lru_cache(maxsize=None)
def section_context(n, m):
    """Base-then-fibre names x1..xn, w1..wm for sections of a bundle map."""
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"w{j + 1}" for j in range(m))
    return VariableContext(names)


@dataclass(frozen=True)
class CdcMap:
    """A polynomial map, one component per output coordinate."""

    domain: object
    context: VariableContext
    components: tuple

    @property
    def arity_in(self):
        return len(self.context)

    @property
    def arity_out(self):
        return len(self.components)

    def describe(self):
        body = ", ".join(str(c) for c in self.components)
        return f"({body})"


def cdc_map(domain, arity_in, components, context=None):
    ctx = context if context is not None else cdc_context(arity_in)
    if len(ctx) != arity_in:
        raise ShapeMismatch("context does not match the declared input arity")
    comps = tuple(components)
    for c in comps:
        if c.context != ctx:
            raise ContextMismatch("component outside the declared context")
        if c.domain != domain:
            raise DomainMismatch("component over the wrong domain")
    return CdcMap(domain, ctx, comps)


def projection_map(domain, n, indices, context=None):
    """The map x -> (x_i for i in indices); an index None is a zero component."""
    ctx = context if context is not None else cdc_context(n)
    comps = tuple(
        Polynomial.zero(ctx, domain) if i is None else Polynomial.variable(ctx, domain, i)
        for i in indices
    )
    return CdcMap(domain, ctx, comps)


def identity_map(domain, n, context=None):
    return projection_map(domain, n, range(n), context)


def zero_map(domain, n, m):
    return projection_map(domain, n, [None] * m)


def compose(g, f):
    """g after f: all of g's components in one substitution pass."""
    if g.arity_in != f.arity_out:
        raise ShapeMismatch(
            f"cannot compose {g.arity_in}-ary map after a map with {f.arity_out} outputs"
        )
    if g.domain != f.domain:
        raise DomainMismatch("composition across domains")
    comps = substitute_all(g.components, f.components, f.context, f.domain)
    return CdcMap(f.domain, f.context, tuple(comps))


def pair(f, g):
    """The map <f, g> into the product."""
    if f.context != g.context:
        raise ContextMismatch("paired maps must share a context")
    if f.domain != g.domain:
        raise DomainMismatch("pairing across domains")
    return CdcMap(f.domain, f.context, f.components + g.components)


def add_maps(f, g):
    if f.context != g.context or f.arity_out != g.arity_out:
        raise ShapeMismatch("can only add maps with equal shape")
    comps = tuple(a + b for a, b in zip(f.components, g.components))
    return CdcMap(f.domain, f.context, comps)


def differential(f):
    """D[f]: 2n -> m, the derivative at x in the direction u.

    One term map: c*x^m goes to the sum over i of (m_i*c)*x^(m-e_i)*u_i.
    Distinct pairs (m, i) give distinct monomials, so terms never collide
    and only those with m_i*c = 0 mod p are dropped.
    """
    n, dom, p = f.arity_in, f.domain, f.domain.p
    ctx2 = cdc_context(2 * n)
    units = [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]
    comps = []
    for c in f.components:
        terms = {}
        for i in range(n):
            for m, a in c.terms.items():
                e = m[i]
                if e:
                    b = a * e % p if p else a * e
                    if b:
                        terms[m[:i] + (e - 1,) + m[i + 1 :] + units[i]] = b
        comps.append(Polynomial._clean(ctx2, dom, settle(dom, terms)))
    return CdcMap(dom, ctx2, tuple(comps))


def tangent(f):
    """T(f) = <f p, D[f]> : 2n -> 2m."""
    n = f.arity_in
    return pair(reindex(f, proj_p(n), 2 * n), differential(f))


def theta(f):
    """The bundle map <p, D[f]> : 2n -> n + m over the source."""
    return pair(projection_map(f.domain, 2 * f.arity_in, range(f.arity_in)), differential(f))


# ---------------------------------------------------------------------------
# tangent-structure maps at arity n
#
# Apart from fibre addition they only reindex coordinates, so each is an
# index list: output j is input indices[j], and None is a zero component.

def pick(indices, f):
    """The structure map ``indices`` after f: the listed components of f."""
    zero = Polynomial.zero(f.context, f.domain)
    return CdcMap(f.domain, f.context, tuple(zero if i is None else f.components[i] for i in indices))


def reindex(f, indices, n):
    """f after the structure map ``indices`` out of n inputs: rename f's variables."""
    ctx = cdc_context(n)
    return CdcMap(f.domain, ctx, tuple(c.rename(ctx, indices) for c in f.components))


def proj_p(n):
    """p: 2n -> n, forget the direction."""
    return [*range(n)]


def zero_section(n):
    """0: n -> 2n, the zero direction."""
    return [*range(n)] + [None] * n


def bundle_add(domain, n):
    """add: 3n -> 2n, fibrewise sum (x, u, v) -> (x, u + v)."""
    x, u, v = (projection_map(domain, 3 * n, range(k * n, (k + 1) * n)) for k in range(3))
    return pair(x, add_maps(u, v))


def fibres(n):
    """3n -> 2n: the two tangent vectors (x, u) and (x, v) of (x, u, v)."""
    return [*range(2 * n)], [*range(n), *range(2 * n, 3 * n)]


def vertical_lift(n):
    """l: 2n -> 4n, (x, u) -> (x, 0, 0, u)."""
    return [*range(n)] + [None] * (2 * n) + [*range(n, 2 * n)]


def canonical_flip(n):
    """c: 4n -> 4n, (x, u, v, w) -> (x, v, u, w)."""
    return [*range(n), *range(2 * n, 3 * n), *range(n, 2 * n), *range(3 * n, 4 * n)]


# ---------------------------------------------------------------------------
# axiom and naturality checking

@dataclass(frozen=True)
class LawCheck:
    name: str
    holds: bool
    detail: str = ""


def _expect_equal(name, lhs, rhs):
    if lhs.arity_out != rhs.arity_out:
        return LawCheck(name, False, "the two sides have different output arity")
    for i, (a, b) in enumerate(zip(lhs.components, rhs.components)):
        if a != b:
            return LawCheck(name, False, f"component {i}: {a} != {b}")
    return LawCheck(name, True)


def verify_cdc_axioms(f, g=None):
    """Check the differential-category axioms instantiated at f (and g).

    g doubles as the addition partner when its shape matches f and as the
    composition partner when it is composable after f; otherwise f itself
    (or an identity) stands in.
    """
    dom, n, m = f.domain, f.arity_in, f.arity_out
    addable = g if g is not None and (g.context, g.arity_out) == (f.context, m) else f
    pairable = g if g is not None and g.context == f.context else f
    after = g if g is not None and g.arity_in == m else identity_map(dom, m)

    checks = []
    checks.append(
        _expect_equal(
            "CD1_additive_in_maps",
            differential(add_maps(f, addable)),
            add_maps(differential(f), differential(addable)),
        )
    )
    checks.append(
        _expect_equal(
            "CD1_zero_map", differential(zero_map(dom, n, m)), zero_map(dom, 2 * n, m)
        )
    )
    df = differential(f)
    restrict_u, restrict_v = fibres(n)
    checks.append(
        _expect_equal(
            "CD2_additive_in_direction",
            compose(df, bundle_add(dom, n)),
            add_maps(reindex(df, restrict_u, 3 * n), reindex(df, restrict_v, 3 * n)),
        )
    )
    checks.append(
        _expect_equal(
            "CD2_zero_direction", reindex(df, zero_section(n), n), zero_map(dom, n, m)
        )
    )
    checks.append(
        _expect_equal(
            "CD3_identity_and_projections",
            differential(identity_map(dom, n)),
            projection_map(dom, 2 * n, range(n, 2 * n)),
        )
    )
    checks.append(
        _expect_equal(
            "CD4_pairing",
            differential(pair(f, pairable)),
            pair(differential(f), differential(pairable)),
        )
    )
    checks.append(
        _expect_equal(
            "CD5_chain_rule",
            differential(compose(after, f)),
            compose(differential(after), tangent(f)),
        )
    )
    ddf = differential(df)
    checks.append(
        _expect_equal("CD6_lift", reindex(ddf, vertical_lift(n), 2 * n), df)
    )
    checks.append(
        _expect_equal("CD7_symmetry", reindex(ddf, canonical_flip(n), 4 * n), ddf)
    )
    return checks


def verify_tangent_identities(f, g=None):
    """Naturality of the structure maps plus the bundle-map laws.

    The composition law needs g with g composable after f; it and the
    pairing-sensitive checks are skipped when no such partner is given.
    """
    dom, n, m = f.domain, f.arity_in, f.arity_out
    tf = tangent(f)
    ttf = tangent(tf)
    checks = [
        _expect_equal("p_naturality", pick(proj_p(m), tf), reindex(f, proj_p(n), 2 * n)),
        _expect_equal(
            "zero_naturality", reindex(tf, zero_section(n), n), pick(zero_section(m), f)
        ),
    ]
    restrict_u, restrict_v = fibres(n)
    df = differential(f)
    triple = pair(reindex(tf, restrict_u, 3 * n), reindex(df, restrict_v, 3 * n))
    checks.append(
        _expect_equal(
            "add_naturality", compose(tf, bundle_add(dom, n)), compose(bundle_add(dom, m), triple)
        )
    )
    lift, flip = vertical_lift(n), canonical_flip(n)
    checks.append(
        _expect_equal(
            "lift_naturality", reindex(ttf, lift, 2 * n), pick(vertical_lift(m), tf)
        )
    )
    checks.append(
        _expect_equal(
            "flip_naturality", reindex(ttf, flip, 4 * n), pick(canonical_flip(m), ttf)
        )
    )
    # index lists compose by indexing: b after a is [a[i] for i in b]
    checks.append(LawCheck("flip_involution", [flip[i] for i in flip] == [*range(4 * n)]))
    checks.append(LawCheck("lift_flip", [lift[i] for i in flip] == lift))
    return checks + theta_laws(f, g)


def theta_laws(f, g):
    """The bundle-map laws: composition when g is composable after f, and flip."""
    checks = []
    if g is not None and g.arity_in == f.arity_out:
        checks.append(_expect_equal("theta_composition", *theta_composition_sides(f, g)))
    checks.append(_expect_equal("theta_flip", *theta_flip_sides(f)))
    return checks


def theta_composition_sides(f, g):
    """Both sides of the bundle-map composition law for g after f.

    Feeding theta(f) into theta(g) over the image and projecting away the
    middle fibre must reproduce the bundle map of the composite.
    """
    dom, n, m, l = f.domain, f.arity_in, f.arity_out, g.arity_out
    if g.arity_in != m:
        raise ShapeMismatch("the second map must be composable after the first")
    feed = pair(reindex(f, range(n), n + m), projection_map(dom, n + m, range(n, n + m)))
    mid = pair(projection_map(dom, n + m, range(n)), compose(theta(g), feed))
    gamma = [*range(n), *range(n + m, n + m + l)]
    return pick(gamma, compose(mid, theta(f))), theta(compose(g, f))


def theta_flip_sides(f):
    """Both sides of the flip compatibility for the bundle map of f."""
    n, m = f.arity_in, f.arity_out
    shuffle = [*range(n), *range(n + m, 2 * n + m), *range(n, n + m), *range(2 * n + m, 2 * (n + m))]
    lhs = reindex(theta(tangent(f)), canonical_flip(n), 4 * n)
    rhs = pick(shuffle, tangent(theta(f)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# sections of the bundle map and their linearization

def full_section(f, s):
    """Normalize a section to the full form (x, w) -> (x, s2(x, w))."""
    n, m = f.arity_in, f.arity_out
    if s.arity_in != n + m:
        raise ShapeMismatch(f"a section must take {n + m} inputs, got {s.arity_in}")
    base = projection_map(s.domain, n + m, range(n), s.context).components
    if s.arity_out == 2 * n:
        for got, expected in zip(s.components, base):
            if got != expected:
                raise NotASection(
                    "the base block of the section must be the base projection",
                    discrepancy=str(got),
                )
        return s
    if s.arity_out == n:
        return CdcMap(s.domain, s.context, base + s.components)
    raise ShapeMismatch(
        f"a section must have {n} fibre outputs or {2 * n} full outputs, got {s.arity_out}"
    )


def is_section_of(f, s):
    """Does theta(f) compose with s to the identity?"""
    s = full_section(f, s)
    n, m = f.arity_in, f.arity_out
    composite = compose(theta(f), s)
    ident = identity_map(f.domain, n + m, context=s.context)
    check = _expect_equal("section", composite, ident)
    return check.holds, check.detail


def linearize_section(f, s):
    """Replace a section of theta(f) by one linear in the fibre variable.

    Subtract the value at w = 0 and then take the fibre-directional
    derivative at w = 0; the result is again a section, now fibrewise
    linear.  Needs negation in the coefficient domain.
    """
    if not f.domain.has_negation:
        raise UnsupportedDomain("linearization subtracts the basepoint value")
    s = full_section(f, s)
    ok, detail = is_section_of(f, s)
    if not ok:
        raise NotASection("theta(f) composed with s is not the identity", discrepancy=detail)
    n, m = f.arity_in, f.arity_out
    ctx, dom = s.context, s.domain
    at_zero = [*range(n)] + [None] * m
    linear = []
    for c in s.components[n:]:
        centred = c - c.rename(ctx, at_zero)
        total = Polynomial.zero(ctx, dom)
        for j in range(m):
            slope = centred.partial(n + j).rename(ctx, at_zero)
            total = total + slope * Polynomial.variable(ctx, dom, n + j)
        linear.append(total)
    result = CdcMap(dom, ctx, s.components[:n] + tuple(linear))
    ok, detail = is_section_of(f, result)
    if not ok:
        raise InconsistentClassification(f"linearization broke the section property: {detail}")
    return result


def fibre_linear(s, n):
    """True when every fibre component is homogeneous of degree 1 in w."""
    for c in s.components[n:]:
        for mono in c.terms:
            if sum(mono[n:]) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# classification of the linear fragment

def linear_matrix(f):
    """The coefficient matrix of an (affine-)linear map, or None."""
    n = f.arity_in
    rows = []
    for c in f.components:
        row = [f.domain.zero()] * n
        for mono, coeff in c.terms.items():
            deg = sum(mono)
            if deg == 0:
                continue  # constant offsets do not affect the differential
            if deg > 1:
                return None
            row[mono.index(1)] = coeff
        rows.append(row)
    return rows


def _kernel_vector(ech, n, integral):
    """The kernel vector at the first free column among the first n of an
    echelon, its denominators cleared when ``integral``."""
    x = ech.solution(n, next(j for j in range(n) if j not in ech.pivots))
    if integral:
        scale = math.lcm(*(v.denominator for v in x))
        x = [int(v * scale) for v in x]
    return [str(v) for v in x]


def _linear_annotations(rows, domain):
    out = {"matrix": [[str(x) for x in row] for row in rows], "domain": domain.kind}
    if domain.kind == "Fp":
        out["p"] = domain.p
    return out


def classify_linear(rows, domain, name="f", arity_in=None):
    """Classify a linear map given by its matrix (one row per output).

    One echelon of [A | -I] (over Q for Z and N) decides injectivity, and
    over a field every predicate.  Over Z the splitting is an integer right
    inverse from the Smith form, which alone certifies a submersion.  Over
    N a zero column decides T_unramified, and the epimorphism-flavoured
    predicates stay undetermined.
    """
    t0 = time.perf_counter()
    m = len(rows)
    n = arity_in if arity_in is not None else (len(rows[0]) if rows else 0)
    for row in rows:
        if len(row) != n:
            raise ShapeMismatch("ragged matrix")
    rows = [[domain.normalize(x) for x in row] for row in rows]

    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    # one echelon of [A | -I]: its pivots left of column n give the rank
    # and the kernel, and over a surjective A, x with A·x = e_j is the
    # solution at the free column n + j (free columns of x at zero)
    dom = domain if domain.is_field else QQ  # over Z the kernel vector is scaled back into Z
    minus_one = dom.from_int(-1)
    ech = echelon([{**row, n + i: minus_one} for i, row in enumerate(sparse)], dom)
    r = sum(col < n for col in ech.pivots)
    inj = r == n
    inj_ev = {"rank" if domain.is_field else "rational_rank": r, "columns": n}
    if not inj and domain.has_negation:
        inj_ev["kernel_vector"] = _kernel_vector(ech, n, not domain.is_field)
    inj_status = from_bool(inj, inj_ev)
    unram_status = inj_status
    if domain.is_field:
        surj = r == m
        surj_ev = {"rank": r, "rows": m}
        surj_status = from_bool(surj, surj_ev)
        if surj:
            columns = [ech.solution(n + m, n + j) for j in range(m)]
            right_inv = [[str(columns[j][i]) for j in range(m)] for i in range(n)]
            split_status = holds({"right_inverse": right_inv})
        else:
            split_status = fails(surj_ev)
        submersion_status = surj_status
        etale_status = and3(inj_status, surj_status)
    elif domain.kind == "Z":
        smith = smith_form(rows, n)
        diag = smith[0]
        invariants = [diag[i][i] for i in range(min(m, n)) if diag[i][i] != 0]
        right = smith_right_inverse(rows, smith)
        if right is not None:
            right = [[str(x) for x in row] for row in right]
            split_status = holds({"right_inverse": right, "smith_invariants": invariants})
            submersion_status = holds({"route": "splitting", "smith_invariants": invariants})
        else:
            split_ev = {"smith_invariants": invariants, "rows": m}
            split_status = fails(split_ev)
            submersion_status = undetermined(
                "over Z a submersion is only certified through a splitting", split_ev
            )
        if n == m:
            det = 1
            for i in range(n):
                det *= diag[i][i]
            etale_status = from_bool(det in (1, -1), {"determinant": det})
        else:
            etale_status = fails({"rows": m, "columns": n, "note": "shape is not square"})
    else:
        zero_cols = [j for j in range(n) if all(row[j] == 0 for row in rows)]
        unram_ev = {"zero_columns": zero_cols}
        unram_status = from_bool(not zero_cols, unram_ev)
        reason = "epimorphism-flavoured predicates over N need negation"
        submersion_status = undetermined(reason)
        split_status = undetermined(reason)
        etale_status = undetermined(reason)

    predicates = {
        "T_monic": inj_status,
        "T_immersion": inj_status,
        "T_unramified": unram_status,
        "T_submersion": submersion_status,
        "split_T_submersion": split_status,
        "T_etale": etale_status,
    }
    return build_report("cdc-linear", name, None, predicates, t0,
                        _linear_annotations(rows, domain), domain.has_negation)


def classify_cdc_map(f, name="f"):
    """Classify a polynomial map; only the (affine-)linear fragment decides."""
    t0 = time.perf_counter()
    rows = linear_matrix(f)
    if rows is None:
        reason = "only the linear fragment is classified; this map is nonlinear"
        predicates = {key: undetermined(reason) for key in PREDICATES}
        degree = max(c.degree() for c in f.components) if f.components else 0
        return build_report("cdc-linear", name, None, predicates, t0,
                            {"degree": degree}, f.domain.has_negation)
    return classify_linear(rows, f.domain, name, arity_in=f.arity_in)


# ---------------------------------------------------------------------------
# deterministic random maps for the verification suites

def random_polynomial(rng, ctx, domain, max_degree=2, max_terms=3):
    """Up to ``max_terms`` random terms summed in draw order; equal monomials merge."""
    nvars, p = len(ctx), domain.p
    lo = -3 if domain.has_negation else 0
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nvars)] += 1
        mono = tuple(mono)
        s = terms.get(mono, 0) + rng.randint(lo, 3)
        terms[mono] = s % p if p else s
        if not terms[mono]:  # a cancelled term leaves; the others keep their places
            del terms[mono]
    return Polynomial._clean(ctx, domain, terms)


def random_cdc_map(rng, domain, arity_in, arity_out, max_degree=2):
    ctx = cdc_context(arity_in)
    comps = tuple(random_polynomial(rng, ctx, domain, max_degree) for _ in range(arity_out))
    return CdcMap(domain, ctx, comps)


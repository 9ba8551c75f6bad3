"""Polynomial maps as a Cartesian differential category.

A map n -> m is a tuple of m polynomials in x1..xn.  The differential
D[f]: 2n -> m is the directional derivative, the tangent of f pairs f with
D[f], and the bundle map theta(f) = <base projection, D[f]> : 2n -> n+m is
what the classification predicates are about.  The structure maps
(projection, zero section, fibre addition, vertical lift, canonical flip)
are themselves polynomial maps, so every axiom and naturality law here is
checked by exact polynomial identity -- no subtraction is needed to compare
two sides, which keeps the checks valid over N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .classify import (
    ClassificationReport,
    and3,
    coherence_check,
    fails,
    from_bool,
    holds,
    undetermined,
)
from .errors import (
    ArityMismatch,
    ContextMismatch,
    DomainMismatch,
    InconsistentClassification,
    NotASection,
    ShapeMismatch,
    UnsupportedDomain,
)
from .modlin import (
    integer_right_inverse,
    kernel_basis,
    matrix_rank,
    rational_rank,
    smith_form,
    solve_linear,
)
from .polycore import QQ, Polynomial, VariableContext


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

    def apply(self, point):
        """Evaluate at a tuple of domain elements."""
        return tuple(c.evaluate(point) for c in self.components)

    def describe(self):
        body = ", ".join(str(c) for c in self.components)
        return f"({body})"


def cdc_map(domain, arity_in, components, context=None):
    ctx = context if context is not None else cdc_context(arity_in)
    if len(ctx) != arity_in:
        raise ArityMismatch("context does not match the declared input arity")
    comps = tuple(components)
    for c in comps:
        if c.context != ctx:
            raise ContextMismatch("component outside the declared context")
        if c.domain != domain:
            raise DomainMismatch("component over the wrong domain")
    return CdcMap(domain, ctx, comps)


def identity_map(domain, n, context=None):
    ctx = context if context is not None else cdc_context(n)
    comps = tuple(Polynomial.variable(ctx, domain, i) for i in range(n))
    return CdcMap(domain, ctx, comps)


def projection_map(domain, n, indices, context=None):
    ctx = context if context is not None else cdc_context(n)
    comps = tuple(Polynomial.variable(ctx, domain, i) for i in indices)
    return CdcMap(domain, ctx, comps)


def zero_map(domain, n, m, context=None):
    ctx = context if context is not None else cdc_context(n)
    comps = tuple(Polynomial.zero(ctx, domain) for _ in range(m))
    return CdcMap(domain, ctx, comps)


def compose(g, f):
    """g after f."""
    if g.arity_in != f.arity_out:
        raise ArityMismatch(
            f"cannot compose {g.arity_in}-ary map after a map with {f.arity_out} outputs"
        )
    if g.domain != f.domain:
        raise DomainMismatch("composition across domains")
    if g.arity_in == 0:
        comps = tuple(
            Polynomial.constant(f.context, f.domain, c.constant_value())
            for c in g.components
        )
    else:
        comps = tuple(c.substitute(f.components) for c in g.components)
    return CdcMap(f.domain, f.context, comps)


def pair(f, g):
    """The map <f, g> into the product."""
    if f.context != g.context:
        raise ContextMismatch("paired maps must share a context")
    return CdcMap(f.domain, f.context, f.components + g.components)


def add_maps(f, g):
    if f.context != g.context or f.arity_out != g.arity_out:
        raise ArityMismatch("can only add maps with equal shape")
    comps = tuple(a + b for a, b in zip(f.components, g.components))
    return CdcMap(f.domain, f.context, comps)


def differential(f):
    """D[f]: 2n -> m, the derivative at x in the direction u."""
    n = f.arity_in
    ctx2 = cdc_context(2 * n)
    embed = list(range(n))
    comps = []
    for c in f.components:
        total = Polynomial.zero(ctx2, f.domain)
        for i in range(n):
            d = c.partial(i)
            if d.is_zero():
                continue
            total = total + d.rename(ctx2, embed) * Polynomial.variable(ctx2, f.domain, n + i)
        comps.append(total)
    return CdcMap(f.domain, ctx2, tuple(comps))


def tangent(f):
    """T(f) = <f p, D[f]> : 2n -> 2m."""
    n = f.arity_in
    ctx2 = cdc_context(2 * n)
    embed = list(range(n))
    base = tuple(c.rename(ctx2, embed) for c in f.components)
    return CdcMap(f.domain, ctx2, base + differential(f).components)


def theta(f):
    """The bundle map <p, D[f]> : 2n -> n + m over the source."""
    n = f.arity_in
    ctx2 = cdc_context(2 * n)
    base = tuple(Polynomial.variable(ctx2, f.domain, i) for i in range(n))
    return CdcMap(f.domain, ctx2, base + differential(f).components)


# ---------------------------------------------------------------------------
# tangent-structure maps at arity n

def proj_p(domain, n):
    """p: 2n -> n, forget the direction."""
    return projection_map(domain, 2 * n, range(n))


def zero_section(domain, n):
    """0: n -> 2n, the zero direction."""
    ctx = cdc_context(n)
    comps = tuple(Polynomial.variable(ctx, domain, i) for i in range(n))
    comps += tuple(Polynomial.zero(ctx, domain) for _ in range(n))
    return CdcMap(domain, ctx, comps)


def bundle_add(domain, n):
    """add: 3n -> 2n, fibrewise sum (x, u, v) -> (x, u + v)."""
    ctx = cdc_context(3 * n)
    comps = [Polynomial.variable(ctx, domain, i) for i in range(n)]
    for i in range(n):
        comps.append(
            Polynomial.variable(ctx, domain, n + i)
            + Polynomial.variable(ctx, domain, 2 * n + i)
        )
    return CdcMap(domain, ctx, tuple(comps))


def vertical_lift(domain, n):
    """l: 2n -> 4n, (x, u) -> (x, 0, 0, u)."""
    ctx = cdc_context(2 * n)
    zero = Polynomial.zero(ctx, domain)
    comps = [Polynomial.variable(ctx, domain, i) for i in range(n)]
    comps += [zero] * (2 * n)
    comps += [Polynomial.variable(ctx, domain, n + i) for i in range(n)]
    return CdcMap(domain, ctx, tuple(comps))


def canonical_flip(domain, n):
    """c: 4n -> 4n, (x, u, v, w) -> (x, v, u, w)."""
    indices = (
        list(range(n))
        + list(range(2 * n, 3 * n))
        + list(range(n, 2 * n))
        + list(range(3 * n, 4 * n))
    )
    return projection_map(domain, 4 * n, indices)


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
    restrict_u = projection_map(dom, 3 * n, list(range(n)) + list(range(n, 2 * n)))
    restrict_v = projection_map(dom, 3 * n, list(range(n)) + list(range(2 * n, 3 * n)))
    checks.append(
        _expect_equal(
            "CD2_additive_in_direction",
            compose(df, bundle_add(dom, n)),
            add_maps(compose(df, restrict_u), compose(df, restrict_v)),
        )
    )
    checks.append(
        _expect_equal(
            "CD2_zero_direction", compose(df, zero_section(dom, n)), zero_map(dom, n, m)
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
        _expect_equal("CD6_lift", compose(ddf, vertical_lift(dom, n)), df)
    )
    checks.append(
        _expect_equal("CD7_symmetry", compose(ddf, canonical_flip(dom, n)), ddf)
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
        _expect_equal("p_naturality", compose(proj_p(dom, m), tf), compose(f, proj_p(dom, n))),
        _expect_equal(
            "zero_naturality", compose(tf, zero_section(dom, n)), compose(zero_section(dom, m), f)
        ),
    ]
    proj_base = projection_map(dom, 3 * n, range(n))
    restrict_u = projection_map(dom, 3 * n, list(range(n)) + list(range(n, 2 * n)))
    restrict_v = projection_map(dom, 3 * n, list(range(n)) + list(range(2 * n, 3 * n)))
    df = differential(f)
    triple = pair(pair(compose(f, proj_base), compose(df, restrict_u)), compose(df, restrict_v))
    checks.append(
        _expect_equal(
            "add_naturality", compose(tf, bundle_add(dom, n)), compose(bundle_add(dom, m), triple)
        )
    )
    checks.append(
        _expect_equal(
            "lift_naturality", compose(ttf, vertical_lift(dom, n)), compose(vertical_lift(dom, m), tf)
        )
    )
    checks.append(
        _expect_equal(
            "flip_naturality", compose(ttf, canonical_flip(dom, n)), compose(canonical_flip(dom, m), ttf)
        )
    )
    c = canonical_flip(dom, n)
    checks.append(_expect_equal("flip_involution", compose(c, c), identity_map(dom, 4 * n)))
    checks.append(
        _expect_equal(
            "lift_flip", compose(canonical_flip(dom, n), vertical_lift(dom, n)), vertical_lift(dom, n)
        )
    )

    if g is not None and g.arity_in == m:
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
        raise ArityMismatch("the second map must be composable after the first")
    ctx_nm = cdc_context(n + m)
    feed = pair(
        CdcMap(dom, ctx_nm, tuple(c.rename(ctx_nm, list(range(n))) for c in f.components)),
        projection_map(dom, n + m, range(n, n + m)),
    )
    mid = pair(projection_map(dom, n + m, range(n)), compose(theta(g), feed))
    gamma = projection_map(dom, n + m + l, list(range(n)) + list(range(n + m, n + m + l)))
    return compose(gamma, compose(mid, theta(f))), theta(compose(g, f))


def theta_flip_sides(f):
    """Both sides of the flip compatibility for the bundle map of f."""
    dom, n, m = f.domain, f.arity_in, f.arity_out
    shuffle = projection_map(
        dom,
        2 * (n + m),
        list(range(n))
        + list(range(n + m, 2 * n + m))
        + list(range(n, n + m))
        + list(range(2 * n + m, 2 * (n + m))),
    )
    lhs = compose(theta(tangent(f)), canonical_flip(dom, n))
    rhs = compose(shuffle, tangent(theta(f)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# sections of the bundle map and their linearization

def full_section(f, s):
    """Normalize a section to the full form (x, w) -> (x, s2(x, w))."""
    n, m = f.arity_in, f.arity_out
    if s.arity_in != n + m:
        raise ArityMismatch(f"a section must take {n + m} inputs, got {s.arity_in}")
    if s.arity_out == 2 * n:
        for i in range(n):
            expected = Polynomial.variable(s.context, s.domain, i)
            if s.components[i] != expected:
                raise NotASection(
                    "the base block of the section must be the base projection",
                    discrepancy=str(s.components[i]),
                )
        return s
    if s.arity_out == n:
        base = tuple(Polynomial.variable(s.context, s.domain, i) for i in range(n))
        return CdcMap(s.domain, s.context, base + s.components)
    raise ArityMismatch(
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
    n = f.arity_in
    m = f.arity_out
    ctx = s.context
    dom = s.domain
    at_zero = [Polynomial.variable(ctx, dom, i) for i in range(n)]
    at_zero += [Polynomial.zero(ctx, dom) for _ in range(m)]
    linear = []
    for c in s.components[n:]:
        centred = c - c.substitute(at_zero)
        total = Polynomial.zero(ctx, dom)
        for j in range(m):
            slope = centred.partial(n + j).substitute(at_zero)
            total = total + slope * Polynomial.variable(ctx, dom, n + j)
        linear.append(total)
    base = tuple(Polynomial.variable(ctx, dom, i) for i in range(n))
    result = CdcMap(dom, ctx, base + tuple(linear))
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


def _first_kernel_vector(rows, dom, ncols):
    if not dom.is_field:
        # solve over Q, then clear denominators to land back in Z
        basis = kernel_basis(rows, QQ, ncols=ncols)
        if not basis:
            return None
        scale = math.lcm(*(x.denominator for x in basis[0]))
        return [str(int(x * scale)) for x in basis[0]]
    basis = kernel_basis(rows, dom, ncols=ncols)
    if not basis:
        return None
    return [str(x) for x in basis[0]]


def _linear_annotations(rows, domain):
    out = {"matrix": [[str(x) for x in row] for row in rows], "domain": domain.kind}
    if domain.kind == "Fp":
        out["p"] = domain.p
    return out


def classify_linear(rows, domain, name="f", arity_in=None):
    """Classify a linear map given by its matrix (one row per output).

    Over a field every predicate reduces to a rank condition.  Over Z the
    splitting is an integer right inverse found through the Smith form, and
    the submersion verdict is only certified through that splitting.  Over
    N the kernel and injectivity are decided combinatorially and the
    epimorphism-flavoured predicates stay undetermined.
    """
    m = len(rows)
    n = arity_in if arity_in is not None else (len(rows[0]) if rows else 0)
    for row in rows:
        if len(row) != n:
            raise ShapeMismatch("ragged matrix")
    rows = [[domain.normalize(x) for x in row] for row in rows]

    if domain.is_field:
        r = matrix_rank(rows, domain)
        inj = r == n
        surj = r == m
        inj_ev = {"rank": r, "columns": n}
        if not inj:
            inj_ev["kernel_vector"] = _first_kernel_vector(rows, domain, n)
        inj_status = from_bool(inj, inj_ev, inj_ev)
        surj_ev = {"rank": r, "rows": m}
        surj_status = from_bool(surj, surj_ev, surj_ev)
        if surj:
            columns = [solve_linear(rows, [domain.one() if i == j else domain.zero() for i in range(m)], domain) for j in range(m)]
            right_inv = [[str(columns[j][i]) for j in range(m)] for i in range(n)]
            split_status = holds({"right_inverse": right_inv})
        else:
            split_status = fails(surj_ev)
        submersion_status = surj_status
        etale_status = and3(inj_status, surj_status)
        unram_status = inj_status
    elif domain.kind == "Z":
        rr = rational_rank(rows)
        inj = rr == n
        inj_ev = {"rational_rank": rr, "columns": n}
        if not inj:
            inj_ev["kernel_vector"] = _first_kernel_vector(rows, domain, n)
        inj_status = from_bool(inj, inj_ev, inj_ev)
        diag, _, _ = smith_form(rows)
        invariants = [diag[i][i] for i in range(min(m, n)) if i < len(diag) and diag[i][i] != 0]
        right = integer_right_inverse(rows)
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
            etale_status = from_bool(det in (1, -1), {"determinant": det}, {"determinant": det})
        else:
            etale_status = fails({"rows": m, "columns": n, "note": "shape is not square"})
        unram_status = inj_status
    elif domain.kind == "N":
        zero_cols = [j for j in range(n) if all(row[j] == 0 for row in rows)]
        unram_ev = {"zero_columns": zero_cols}
        unram_status = from_bool(not zero_cols, unram_ev, unram_ev)
        rr = rational_rank(rows)
        inj_ev = {"rational_rank": rr, "columns": n}
        inj_status = from_bool(rr == n, inj_ev, inj_ev)
        reason = "epimorphism-flavoured predicates over N need negation"
        submersion_status = undetermined(reason)
        split_status = undetermined(reason)
        etale_status = undetermined(reason)
    else:
        raise UnsupportedDomain(f"no linear classification over {domain.kind}")

    predicates = {
        "T_monic": inj_status,
        "T_immersion": inj_status,
        "T_unramified": unram_status,
        "T_submersion": submersion_status,
        "split_T_submersion": split_status,
        "T_etale": etale_status,
    }
    predicates["monic_T_etale"] = and3(inj_status, split_status)
    coherence = coherence_check(predicates, has_negation=domain.has_negation)
    return ClassificationReport(
        instance="cdc-linear",
        morphism=name,
        base=None,
        predicates=predicates,
        coherence=coherence,
        annotations=_linear_annotations(rows, domain),
        timings_ms={},
    )


def classify_cdc_map(f, name="f"):
    """Classify a polynomial map; only the (affine-)linear fragment decides."""
    rows = linear_matrix(f)
    if rows is None:
        reason = "only the linear fragment is classified; this map is nonlinear"
        predicates = {key: undetermined(reason) for key in (
            "T_monic", "T_immersion", "T_unramified", "T_submersion",
            "split_T_submersion", "T_etale", "monic_T_etale",
        )}
        degree = max(c.degree() for c in f.components) if f.components else 0
        return ClassificationReport(
            instance="cdc-linear",
            morphism=name,
            base=None,
            predicates=predicates,
            coherence=coherence_check(predicates, has_negation=f.domain.has_negation),
            annotations={"degree": degree},
            timings_ms={},
        )
    return classify_linear(rows, f.domain, name, arity_in=f.arity_in)


# ---------------------------------------------------------------------------
# deterministic random maps for the verification suites

def random_polynomial(rng, ctx, domain, max_degree=2, max_terms=3):
    p = Polynomial.zero(ctx, domain)
    nvars = len(ctx)
    for _ in range(rng.randint(1, max_terms)):
        mono = Polynomial.one(ctx, domain)
        for _ in range(rng.randint(0, max_degree)):
            mono = mono * Polynomial.variable(ctx, domain, rng.randrange(nvars))
        lo = -3 if domain.has_negation else 0
        coeff = domain.from_int(rng.randint(lo, 3))
        p = p + mono.scale(coeff)
    return p


def random_cdc_map(rng, domain, arity_in, arity_out, max_degree=2, max_terms=3):
    ctx = cdc_context(arity_in)
    comps = tuple(
        random_polynomial(rng, ctx, domain, max_degree, max_terms) for _ in range(arity_out)
    )
    return CdcMap(domain, ctx, comps)


def random_theta_section(rng, domain, n, m, max_degree=2):
    """A map f: n -> m together with an exact, generally nonlinear section.

    f sends the first m coordinates to themselves plus polynomials in the
    remaining ones, so its differential is unipotent in the fibre block;
    choosing the tail directions freely and solving for the leading ones
    gives an exact section of theta(f), nonlinear when the tail choices are.
    """
    if m > n:
        raise ArityMismatch("this family needs at least as many inputs as outputs")
    ctx = cdc_context(n)
    sctx = section_context(n, m)
    tail = list(range(m, n))
    comps = []
    for i in range(m):
        c = Polynomial.variable(ctx, domain, i)
        if tail:
            extra = random_polynomial(rng, ctx, domain, max_degree, 2)
            keep = extra.substitute(
                [
                    Polynomial.zero(ctx, domain) if j < m else Polynomial.variable(ctx, domain, j)
                    for j in range(n)
                ]
            )
            c = c + keep
        comps.append(c)
    f = CdcMap(domain, ctx, tuple(comps))

    tail_choices = [
        random_polynomial(rng, sctx, domain, max_degree, 2) for _ in tail
    ]
    into_section = [Polynomial.variable(sctx, domain, i) for i in range(n)]
    fibre = [None] * n
    for k, j in enumerate(tail):
        fibre[j] = tail_choices[k]
    for i in range(m):
        lead = Polynomial.variable(sctx, domain, n + i)
        for k, j in enumerate(tail):
            slope = f.components[i].partial(j).rename(sctx, list(range(n)))
            lead = lead - slope * tail_choices[k]
        fibre[i] = lead
    section = CdcMap(domain, sctx, tuple(into_section) + tuple(fibre))
    return f, section

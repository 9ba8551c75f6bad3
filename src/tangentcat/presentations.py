"""Finitely presented commutative algebras and their morphisms.

An algebra is a quotient k[x_1..x_n]/(relations), optionally presented over
a named base algebra whose variables form a prefix of the context.  A
morphism stores one image polynomial per (relative) source variable and is
only constructed once every source relation reduces to zero in the target.

The tangent construction here is the dual-numbers functor A -> A[e]/(e^2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import (
    ContextMismatch,
    DomainMismatch,
    IllDefinedMorphism,
    InconsistentClassification,
    NotSurjective,
    ShapeMismatch,
    UnsupportedDomain,
)
from .groebner import (
    GREVLEX,
    ideal_basis,
    module_buchberger,
    morphism_graph,
    ring_map_kernel,
    unit,
    vec_is_zero,
)
from .modlin import fd_basis
from .polycore import Polynomial, VariableContext, poly_parse, within_cap


@dataclass(frozen=True)
class AlgebraPresentation:
    """A quotient of a polynomial ring, flattened over an optional base.

    ``context`` lists every variable (base variables first) and ``ideal``
    every relation (base relations first), so the presentation is usable
    directly even when ``base`` is set.
    """

    domain: object
    context: VariableContext
    ideal: tuple
    base: object = None

    def __post_init__(self):
        if not self.domain.is_field:
            raise UnsupportedDomain("algebra presentations require a field domain")
        for g in self.ideal:
            if g.context != self.context:
                raise ContextMismatch("relation outside the presentation context")
            if g.domain != self.domain:
                raise DomainMismatch("relation over the wrong domain")
        if self.base is not None:
            nb = len(self.base.context)
            if self.context.names[:nb] != self.base.context.names:
                raise ContextMismatch("base variables must prefix the context")

    @property
    def n_base(self):
        return len(self.base.context) if self.base is not None else 0

    @property
    def relative_names(self):
        return self.context.names[self.n_base :]

    def covered(self, over_base):
        """The indices of the variables a morphism out of this algebra gives
        images for: the relative ones when it is declared over the base, and
        every one otherwise."""
        return range(self.n_base if over_base else 0, len(self.context))

    @property
    def relative_ideal(self):
        nb = len(self.base.ideal) if self.base is not None else 0
        return self.ideal[nb:]

    def gb(self):
        return ideal_basis(self.ideal, self.context, self.domain, GREVLEX)

    def reduce(self, p):
        if p.context != self.context:
            raise ContextMismatch("element outside the presentation context")
        return self.gb().normal_form(p)

    def zero(self):
        return Polynomial.zero(self.context, self.domain)

    def one(self):
        return Polynomial.one(self.context, self.domain)

    def var(self, i):
        return Polynomial.variable(self.context, self.domain, i)

    def parse(self, text):
        return poly_parse(text, self.context, self.domain)

    def finite_basis(self):
        """Standard monomials when finite-dimensional over k, else None."""
        return fd_basis(self.gb(), len(self.context))


def present(domain, names, relations, base=None):
    """Build a presentation from relative names and relation polynomials.

    ``relations`` are polynomials over the full flattened context (base
    names followed by ``names``); base relations are embedded automatically.
    A relation over another context or domain is refused by the presentation.
    """
    if base is not None:
        full = VariableContext(base.context.names + tuple(names))
        embed = list(range(len(base.context)))
        ideal = [g.rename(full, embed) for g in base.ideal]
    else:
        full = VariableContext(tuple(names))
        ideal = []
    return AlgebraPresentation(domain, full, tuple(ideal) + tuple(relations), base)


def free_algebra(domain, names):
    return present(domain, tuple(names), ())


def fresh_names(taken, wanted):
    """Deterministically rename ``wanted`` away from ``taken``."""
    taken = set(taken)
    out = []
    for name in wanted:
        candidate = name
        k = 0
        while candidate in taken:
            k += 1
            candidate = f"{name}_{k}"
        taken.add(candidate)
        out.append(candidate)
    return tuple(out)


@dataclass(frozen=True)
class AlgebraMorphism:
    """An algebra morphism given by images of the (relative) source variables.

    With ``over_base`` set, both sides share a base that the morphism fixes
    pointwise and ``images`` covers only the relative variables; otherwise
    ``images`` covers every source variable.
    """

    source: AlgebraPresentation
    target: AlgebraPresentation
    images: tuple
    over_base: bool = False

    @cached_property
    def var_images(self):
        """One target polynomial per source context variable; the base
        variables a morphism over the base fixes come first."""
        fixed = range(self.source.covered(self.over_base).start)
        return tuple(self.target.var(i) for i in fixed) + self.images

    def apply_raw(self, p):
        """Push a source element forward without reducing."""
        if p.context != self.source.context:
            raise ContextMismatch("element outside the source context")
        if len(self.source.context) == 0:
            return Polynomial.constant(
                self.target.context, self.target.domain, p.constant_value()
            )
        return p.substitute(self.var_images)

    def apply(self, p):
        return self.target.reduce(self.apply_raw(p))


def morphism(source, target, images, over_base=False, check=True):
    """Construct a morphism, certifying that relations map to relations."""
    if source.domain != target.domain:
        raise DomainMismatch("source and target domains differ")
    if over_base and (source.base is None or source.base != target.base):
        raise ContextMismatch("a morphism over a base needs both sides over that base")
    expected = len(source.covered(over_base))
    if len(images) != expected:
        raise ShapeMismatch(f"expected {expected} images, got {len(images)}")
    for img in images:
        if img.context != target.context:
            raise ContextMismatch("image outside the target context")
        if img.domain != target.domain:
            raise DomainMismatch("image over the wrong domain")
    f = AlgebraMorphism(source, target, tuple(images), over_base)
    if check:
        for g in source.ideal:
            # the image meets the cap before it is reduced; the target's
            # basis comes first, so a target relation above the cap is the
            # one reported
            image = f.apply_raw(g)
            target.gb()
            within_cap(image.degree())
            residue = target.reduce(image)
            if not residue.is_zero():
                raise IllDefinedMorphism(
                    f"relation {g} maps to nonzero residue {residue}",
                    relation=g,
                    residue=residue,
                )
    return f


def absolute(f):
    """f between its algebras presented without their bases, unless f fixes
    a base (``over_base``) or neither side has one.

    A morphism not declared over a base need not fix it, and its images
    cover every source variable; differentials relative to each side's own
    base would read them as relative images.
    """
    if f.over_base or (f.source.base is None and f.target.base is None):
        return f
    return morphism(replace(f.source, base=None), replace(f.target, base=None), f.images, check=False)


def _variable_map(A, P, positions, over_base):
    """The morphism A -> P sending each variable i that it covers to the
    variable ``positions[i]`` of P; unchecked."""
    images = tuple(P.var(positions[i]) for i in A.covered(over_base))
    return morphism(A, P, images, over_base=over_base, check=False)


def identity_morphism(A):
    """id_A, over A's base when it has one."""
    return _variable_map(A, A, range(len(A.context)), A.base is not None)


def compose(g, f):
    """g after f; both morphisms must chain and agree on any shared base."""
    if f.target != g.source:
        raise ContextMismatch("morphisms do not chain")
    over = f.over_base and g.over_base
    images = tuple(g.apply(f.var_images[i]) for i in f.source.covered(over))
    return morphism(f.source, g.target, images, over_base=over, check=False)


# ---------------------------------------------------------------------------
# surjectivity and preimages

def is_surjective(f):
    """(verdict, data): preimages per target variable, or the missing ones.

    On success the data maps each target variable name to a source
    polynomial hitting it; on failure it lists the unreachable variables.
    """
    names, pre = f.target.context.names, morphism_graph(f).variable_preimages
    free = f.target.covered(f.over_base)
    missing = [names[j] for j in free if pre[j] is None]
    return (False, missing) if missing else (True, {names[j]: pre[j] for j in free})


# ---------------------------------------------------------------------------
# dual numbers

def _fresh_eps(names):
    k = 0
    while f"@e{k}" in names:
        k += 1
    return f"@e{k}"


def dual_numbers(A):
    """A[e]/(e^2) presented over the same base as A."""
    eps = _fresh_eps(A.context.names)
    ctx = VariableContext(A.context.names + (eps,))
    embed = list(range(len(A.context)))
    ideal = [g.rename(ctx, embed) for g in A.ideal]
    e = Polynomial.variable(ctx, A.domain, len(A.context))
    ideal.append(e * e)
    return AlgebraPresentation(A.domain, ctx, tuple(ideal), A.base)


# ---------------------------------------------------------------------------
# linear sections of the bundle map

@dataclass(frozen=True)
class SectionResult:
    """Outcome of the search for a with f(a) = 1 and Ker(f)·a = 0."""

    holds: bool
    witness: object
    reason: str
    route: str


def section_witness_fault(f, kernel, a):
    """Why ``a`` is not a witness, f(a) = 1 and k·a = 0 for each k in
    ``kernel``: "does not map to 1" or "does not annihilate k"; None when it is one."""
    if not f.target.reduce(f.apply(a) - f.target.one()).is_zero():
        return "does not map to 1"
    for k in kernel:
        if not f.source.reduce(k * a).is_zero():
            return f"does not annihilate {k}"
    return None


# One note per (route, verdict); reports pin these texts byte for byte.
_SECTION_NOTES = {
    ("finite", True): "a with f(a) = 1 and Ker(f)·a = 0 found by exact linear solve",
    ("finite", False): "no a with f(a) = 1 and Ker(f)·a = 0: the exact linear system is infeasible",
    ("general", True): "1 lies in the ideal generated by the image of (relations : kernel)",
    ("general", False): "1 is not in the ideal generated by the image of (relations : kernel)",
}


def linear_section_exists(f):
    """Decide whether the bundle map of f splits k-linearly.

    For surjective f this is equivalent to the existence of a in the source
    with f(a) = 1 and Ker(f)·a = 0, that is, to Ker(f) = eA for an
    idempotent e; then a = 1 - e, and a is unique (a - 1 in Ker(f) gives
    a^2 = a, and two witnesses give a = aa' = a').  With kernel generators
    κ = (κ_1..κ_r), work in rank r + 2: a κ block, one position for 1 and
    one tag column.  The rows (κ, 1, 1), κ_j·e_r and the relations in the
    first r + 1 positions span the vectors (q·κ, q + k, q), k in Ker(f), so
    (0, 1, q) lies in their span exactly when q·κ = 0 and f(q) = 1.  One
    module normal form of (0, 1, 0) decides this for every regime, and its
    tag column holds -q.  ``route`` names the regime: "finite" when both
    algebras are finite-dimensional, else "general".
    """
    surjective, data = is_surjective(f)
    if not surjective:
        raise NotSurjective(f"no preimage for target variables {data}")
    A, B = f.source, f.target
    kernel = ring_map_kernel(f)
    if not kernel:
        return SectionResult(
            True,
            A.reduce(A.one()),
            "the kernel is zero, so a = 1 already satisfies f(a) = 1 and Ker(f)·a = 0",
            "general",
        )
    # f is onto, so B is finite-dimensional whenever A is
    route = "finite" if A.finite_basis() is not None else "general"
    r, one = len(kernel), A.one()
    rows = [tuple(kernel) + (one, one)] + [unit(k, r, r + 2) for k in kernel]
    rows += [unit(g, i, r + 2) for g in A.ideal for i in range(r + 1)]
    gb = module_buchberger(rows, r + 2, A.context, A.domain)
    nf = gb.normal_form(unit(one, r, r + 2))
    if not vec_is_zero(nf[: r + 1]):
        note = _SECTION_NOTES[route, False]
        # the basis elements that vanish on the κ block carry generators of
        # the annihilator (relations : kernel) in their tag column
        if route == "general" and all(g.is_zero() for g in B.ideal) and all(
            f.apply(v[r + 1]).is_zero() for v in gb.generators if vec_is_zero(v[:r])
        ):
            note = "the transported annihilator ideal is zero"
        return SectionResult(False, None, note, route)
    witness = A.reduce(-nf[r + 1])
    if section_witness_fault(f, kernel, witness):
        raise InconsistentClassification("section witness failed verification")
    return SectionResult(True, witness, _SECTION_NOTES[route, True], route)


# ---------------------------------------------------------------------------
# pushouts

@dataclass(frozen=True)
class Pushout:
    """B ⊗_A C with its two coprojections."""

    algebra: AlgebraPresentation
    into_left: AlgebraMorphism
    into_right: AlgebraMorphism


def glued_algebra(f, g):
    """The algebra of the pushout of f : A -> B and g : A -> C, with the
    positions of C's variables in it: B's variables and relations, then C's
    relative ones under fresh names, then f(x) - g(x) for each variable x of
    A where the two differ.  Unchecked: ``pushout`` checks that f and g fit."""
    B, C = f.target, g.target
    ctx = VariableContext(B.context.names + fresh_names(B.context.names, C.relative_names))
    embed_b = range(len(B.context))
    embed_c = [*range(B.n_base), *range(len(B.context), len(ctx))]
    ideal = [p.rename(ctx, embed_b) for p in B.ideal]
    ideal += [p.rename(ctx, embed_c) for p in C.relative_ideal]
    for img_f, img_g in zip(f.var_images, g.var_images):
        glue = img_f.rename(ctx, embed_b) - img_g.rename(ctx, embed_c)
        if not glue.is_zero():
            ideal.append(glue)
    return AlgebraPresentation(B.domain, ctx, tuple(ideal), B.base), embed_c


def pushout(f, g):
    """Pushout of B <- A -> C along f and g over their shared base."""
    if f.source != g.source:
        raise ContextMismatch("pushout needs a shared source")
    B, C = f.target, g.target
    if B.domain != C.domain:
        raise DomainMismatch("pushout targets over different domains")
    if B.base != C.base:
        raise ContextMismatch("pushout targets over different bases")
    P, embed_c = glued_algebra(f, g)
    nB, over = len(B.context), B.base is not None
    return Pushout(P, _variable_map(B, P, range(nB), over), _variable_map(C, P, embed_c, over))


def codiagonal(push, f):
    """The fold map B ⊗_A B -> B collapsing a self-pushout of f."""
    B = f.target
    P = push.algebra
    if push.into_left.target != P or push.into_left.source != B:
        raise ContextMismatch("codiagonal needs a self-pushout of the morphism's target")
    over = B.base is not None
    return _variable_map(P, B, [*range(len(B.context)), *B.covered(over)], over)

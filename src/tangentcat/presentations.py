"""Finitely presented commutative algebras and their morphisms.

An algebra is a quotient k[x_1..x_n]/(relations), optionally presented over
a named base algebra whose variables form a prefix of the context.  A
morphism stores one image polynomial per (relative) source variable and is
only constructed after its well-definedness certificate checks out: every
source relation must reduce to zero in the target.

The tangent construction here is the dual-numbers functor A -> A[e]/(e^2);
its bundle map over a morphism f factors through the semidirect product
A x B with multiplication (a, b)(x, y) = (ax, f(a)y + bf(x)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    BaseMismatch,
    ContextMismatch,
    DomainMismatch,
    IllDefinedMorphism,
    InconsistentClassification,
    NotSurjective,
    UnsupportedDomain,
)
from .groebner import (
    GREVLEX,
    buchberger_extended,
    division,
    ideal_basis,
    ideal_intersection,
    ideal_quotient,
    morphism_graph,
    ring_map_kernel,
)
from .modlin import fd_basis, matrix_on_basis, solve_linear
from .polycore import Polynomial, VariableContext


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
                raise BaseMismatch("base variables must prefix the context")

    @property
    def n_base(self):
        return len(self.base.context) if self.base is not None else 0

    @property
    def relative_names(self):
        return self.context.names[self.n_base :]

    @property
    def relative_ideal(self):
        nb = len(self.base.ideal) if self.base is not None else 0
        return self.ideal[nb:]

    def gb(self, order=GREVLEX):
        return ideal_basis(self.ideal, self.context, self.domain, order)

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
        from .polycore import poly_parse

        return poly_parse(text, self.context, self.domain)

    def is_zero_ring(self):
        return self.reduce(self.one()).is_zero()

    def finite_basis(self):
        """Standard monomials when finite-dimensional over k, else None."""
        return fd_basis(self.gb(), len(self.context))

    def dimension(self):
        basis = self.finite_basis()
        return None if basis is None else len(basis)


def present(domain, names, relations, base=None):
    """Build a presentation from relative names and relation polynomials.

    ``relations`` are polynomials over the full flattened context (base
    names followed by ``names``); base relations are embedded automatically.
    """
    if base is not None:
        full = VariableContext(base.context.names + tuple(names))
        embed = list(range(len(base.context)))
        ideal = [g.rename(full, embed) for g in base.ideal]
    else:
        full = VariableContext(tuple(names))
        ideal = []
    for r in relations:
        if r.context != full:
            raise ContextMismatch("relation context does not match the flattened context")
        ideal.append(r)
    return AlgebraPresentation(domain, full, tuple(ideal), base)


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

    @property
    def var_images(self):
        """One target polynomial per source context variable."""
        if not self.over_base:
            return self.images
        nb = self.source.n_base
        prefix = tuple(self.target.var(i) for i in range(nb))
        return prefix + self.images

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

    def describe(self):
        names = self.source.relative_names if self.over_base else self.source.context.names
        return {n: str(img) for n, img in zip(names, self.images)}


def morphism(source, target, images, over_base=False, check=True):
    """Construct a morphism, certifying that relations map to relations."""
    if source.domain != target.domain:
        raise DomainMismatch("source and target domains differ")
    if over_base:
        if source.base is None or source.base != target.base:
            raise BaseMismatch("a morphism over a base needs both sides over that base")
        expected = len(source.relative_names)
    else:
        expected = len(source.context)
    if len(images) != expected:
        raise ArityMismatch(f"expected {expected} images, got {len(images)}")
    for img in images:
        if img.context != target.context:
            raise ContextMismatch("image outside the target context")
        if img.domain != target.domain:
            raise DomainMismatch("image over the wrong domain")
    f = AlgebraMorphism(source, target, tuple(images), over_base)
    if check:
        for g in source.ideal:
            residue = f.apply(g)
            if not residue.is_zero():
                raise IllDefinedMorphism(
                    f"relation {g} maps to nonzero residue {residue}",
                    relation=g,
                    residue=residue,
                )
    return f


def well_definedness_certificate(f):
    """Reductions of every source relation's image; all must be zero."""
    return tuple((g, f.apply(g)) for g in f.source.ideal)


def identity_morphism(A):
    if A.base is not None:
        images = tuple(A.var(A.n_base + i) for i in range(len(A.relative_names)))
        return morphism(A, A, images, over_base=True, check=False)
    return morphism(A, A, tuple(A.var(i) for i in range(len(A.context))), check=False)


def compose(g, f):
    """g after f; both morphisms must chain and agree on any shared base."""
    if f.target != g.source:
        raise ContextMismatch("morphisms do not chain")
    over = f.over_base and g.over_base
    if over:
        images = tuple(g.apply(img) for img in f.images)
    else:
        images = tuple(g.apply(img) for img in f.var_images)
    return morphism(f.source, g.target, images, over_base=over, check=False)


# ---------------------------------------------------------------------------
# injectivity, surjectivity, preimages

def is_injective(f):
    """(verdict, kernel generators reduced modulo the source ideal)."""
    kernel = ring_map_kernel(f)
    return (len(kernel) == 0, kernel)


def is_surjective(f):
    """(verdict, data): preimages per target variable, or the missing ones.

    On success the data maps each target variable name to a source
    polynomial hitting it; on failure it lists the unreachable variables.
    """
    graph = morphism_graph(f)
    B = f.target
    start = B.n_base if f.over_base else 0
    preimages = {}
    missing = []
    for j in range(start, len(B.context)):
        pre = graph.preimage(B.var(j))
        if pre is None:
            missing.append(B.context.names[j])
        else:
            preimages[B.context.names[j]] = pre
    if missing:
        return (False, missing)
    return (True, preimages)


def preimage(f, b):
    """A source element mapping to ``b``, or None."""
    return morphism_graph(f).preimage(b)


# ---------------------------------------------------------------------------
# dual numbers and the semidirect bundle target

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


def dual_numbers_map(f):
    """The induced map A[e]/(e^2) -> B[e]/(e^2), sending e to e."""
    TA, TB = dual_numbers(f.source), dual_numbers(f.target)
    embed = list(range(len(f.target.context)))
    images = tuple(img.rename(TB.context, embed) for img in f.images)
    eps_image = Polynomial.variable(TB.context, TB.domain, len(f.target.context))
    return morphism(TA, TB, images + (eps_image,), over_base=f.over_base, check=False)


def dual_parts(TA, p):
    """Split an element of A[e]/(e^2) as (constant part, e-coefficient)."""
    n = len(TA.context) - 1
    ctx = VariableContext(TA.context.names[:n])
    lower = {}
    upper = {}
    for mono, c in p.terms.items():
        if mono[n] == 0:
            lower[mono[:n]] = c
        elif mono[n] == 1:
            upper[mono[:n]] = c
        else:
            raise ContextMismatch("element is not reduced modulo e^2")
    return (
        Polynomial(ctx, p.domain, lower),
        Polynomial(ctx, p.domain, upper),
    )


@dataclass(frozen=True)
class SemidirectElement:
    """An element (a, b) of the bundle target A x B of a morphism."""

    first: Polynomial
    second: Polynomial

    def __str__(self):
        return f"({self.first}, {self.second})"


def theta_calg_eval(f, a, a_prime):
    """Descend a tangent element a + a'e along f: the result is (a, f(a'))."""
    return SemidirectElement(f.source.reduce(a), f.apply(a_prime))


def semidirect_mul(f, u, v):
    """Multiply in A x B twisted by f: (a,b)(x,y) = (ax, f(a)y + bf(x))."""
    A, B = f.source, f.target
    first = A.reduce(u.first * v.first)
    second = B.reduce(f.apply(u.first) * v.second + u.second * f.apply(v.first))
    return SemidirectElement(first, second)


def relative_tangent_calg(f):
    """Kernel generators of f; the morphism is unramified iff this is empty."""
    return ring_map_kernel(f)


# ---------------------------------------------------------------------------
# linear sections of the bundle map

@dataclass(frozen=True)
class SectionResult:
    """Outcome of the search for a with f(a) = 1 and Ker(f)·a = 0."""

    holds: bool
    witness: object
    reason: str
    route: str


def _verify_section_witness(f, kernel, witness):
    A = f.source
    ok_image = (f.apply(witness) - f.target.reduce(f.target.one())).is_zero()
    ok_kernel = all(A.reduce(k * witness).is_zero() for k in kernel)
    if not (ok_image and ok_kernel):
        raise InconsistentClassification("section witness failed verification")


def linear_section_exists(f):
    """Decide whether the bundle map of f splits k-linearly.

    For surjective f this is equivalent to the existence of a in the source
    with f(a) = 1 and Ker(f)·a = 0.  Finite-dimensional presentations go
    through one exact linear solve; the general route transports the
    annihilator (ideal quotient) through f and tests 1 for membership.
    """
    surjective, data = is_surjective(f)
    if not surjective:
        raise NotSurjective(
            f"no preimage for target variables {data}", missing=data
        )
    A, B = f.source, f.target
    dom = A.domain
    kernel = ring_map_kernel(f)
    if not kernel:
        return SectionResult(
            True,
            A.reduce(A.one()),
            "the kernel is zero, so a = 1 already satisfies f(a) = 1 and Ker(f)·a = 0",
            "general",
        )

    basis_a = A.finite_basis()
    basis_b = B.finite_basis()
    if basis_a is not None and basis_b is not None:
        std_a = [(0, m) for m in basis_a]
        monos = [Polynomial(A.context, dom, {m: dom.one()}) for m in basis_a]
        # [matrix of f | coordinates of 1]: solve f(a) = 1 for a on basis_a
        aug = matrix_on_basis(
            [(f.apply(p),) for p in monos] + [(B.reduce(B.one()),)],
            [(0, m) for m in basis_b],
            dom,
        )
        rows = [row[:-1] for row in aug]
        rhs = [row[-1] for row in aug]
        # ... subject to kappa·a = 0 for each generator kappa of the ideal
        # Ker(f): the same solutions as for every kappa in a k-basis of it
        for kappa in kernel:
            rows += matrix_on_basis([(A.reduce(kappa * p),) for p in monos], std_a, dom)
            rhs += [dom.zero()] * len(basis_a)
        sol = solve_linear(rows, rhs, dom)
        if sol is None:
            return SectionResult(
                False,
                None,
                "no a with f(a) = 1 and Ker(f)·a = 0: the exact linear system is infeasible",
                "finite",
            )
        witness = A.reduce(Polynomial(A.context, dom, dict(zip(basis_a, sol))))
        _verify_section_witness(f, kernel, witness)
        return SectionResult(
            True,
            witness,
            "a with f(a) = 1 and Ker(f)·a = 0 found by exact linear solve",
            "finite",
        )

    # general route: 1 must lie in the ideal generated by f(J_A : Ker(f))
    transporter = None
    for kappa in kernel:
        # with no relations the source is a polynomial ring, so (0 : kappa) = 0
        quot = ideal_quotient(list(A.ideal), kappa) if A.ideal else []
        transporter = quot if transporter is None else ideal_intersection(transporter, quot)
        if not transporter:
            break
    transporter = transporter or []
    tagged = []  # (transporter index or None for target relations, generator)
    for i, l in enumerate(transporter):
        img = f.apply(l)
        if not img.is_zero():
            tagged.append((i, img))
    for g in B.ideal:
        if not g.is_zero():
            tagged.append((None, g))
    gens = [p for _, p in tagged]
    if not gens:
        reachable = B.is_zero_ring()
        return SectionResult(
            reachable,
            B.zero() if reachable else None,
            "the transported annihilator ideal is zero",
            "general",
        )
    gb, rows = buchberger_extended(gens, GREVLEX)
    quotients, rem = division(B.one(), list(gb.generators), gb.order)
    if not rem.is_zero():
        return SectionResult(
            False,
            None,
            "1 is not in the ideal generated by the image of (relations : kernel)",
            "general",
        )
    coeffs = [B.zero() for _ in gens]
    for q, row in zip(quotients, rows):
        if q.is_zero():
            continue
        for i in range(len(gens)):
            coeffs[i] = coeffs[i] + q * row[i]
    witness = A.zero()
    for k, (idx, _) in enumerate(tagged):
        if idx is None:
            continue
        b_coeff = B.reduce(coeffs[k])
        if b_coeff.is_zero():
            continue
        a_coeff = preimage(f, b_coeff)
        if a_coeff is None:
            raise InconsistentClassification("surjective morphism lost a preimage")
        witness = witness + a_coeff * transporter[idx]
    witness = A.reduce(witness)
    _verify_section_witness(f, kernel, witness)
    return SectionResult(
        True,
        witness,
        "1 lies in the ideal generated by the image of (relations : kernel)",
        "general",
    )


# ---------------------------------------------------------------------------
# pushouts

@dataclass(frozen=True)
class Pushout:
    """B ⊗_A C with its two coprojections and the names given to C's variables."""

    algebra: AlgebraPresentation
    into_left: AlgebraMorphism
    into_right: AlgebraMorphism
    right_names: tuple


def pushout(f, g):
    """Pushout of B <- A -> C along f and g over their shared base."""
    if f.source != g.source:
        raise BaseMismatch("pushout needs a shared source")
    B, C = f.target, g.target
    if B.domain != C.domain:
        raise DomainMismatch("pushout targets over different domains")
    if B.base != C.base:
        raise BaseMismatch("pushout targets over different bases")
    base = B.base
    nb = B.n_base
    right_rel = C.relative_names
    right_names = fresh_names(B.context.names, right_rel)
    names = B.context.names + right_names
    ctx = VariableContext(names)
    dom = B.domain

    embed_b = list(range(len(B.context)))
    embed_c = list(range(nb)) + [len(B.context) + i for i in range(len(right_rel))]

    ideal = [p.rename(ctx, embed_b) for p in B.ideal]
    ideal += [p.rename(ctx, embed_c) for p in C.relative_ideal]
    for img_f, img_g in zip(f.var_images, g.var_images):
        glue = img_f.rename(ctx, embed_b) - img_g.rename(ctx, embed_c)
        if not glue.is_zero():
            ideal.append(glue)
    P = AlgebraPresentation(dom, ctx, tuple(ideal), base)

    if base is not None:
        left_images = tuple(
            Polynomial.variable(ctx, dom, nb + i) for i in range(len(B.relative_names))
        )
        into_left = morphism(B, P, left_images, over_base=True, check=False)
        right_images = tuple(
            Polynomial.variable(ctx, dom, len(B.context) + i)
            for i in range(len(right_rel))
        )
        into_right = morphism(C, P, right_images, over_base=True, check=False)
    else:
        left_images = tuple(Polynomial.variable(ctx, dom, i) for i in range(len(B.context)))
        into_left = morphism(B, P, left_images, check=False)
        right_images = tuple(
            Polynomial.variable(ctx, dom, i)
            for i in embed_c
        )
        into_right = morphism(C, P, right_images, check=False)
    return Pushout(P, into_left, into_right, right_names)


def codiagonal(push, f):
    """The fold map B ⊗_A B -> B collapsing a self-pushout of f."""
    B = f.target
    P = push.algebra
    if push.into_left.target != P or push.into_left.source != B:
        raise BaseMismatch("codiagonal needs a self-pushout of the morphism's target")
    dom = B.domain
    if B.base is not None:
        rel = B.relative_names
        images = tuple(B.var(B.n_base + i) for i in range(len(rel)))
        images += tuple(B.var(B.n_base + i) for i in range(len(rel)))
        return morphism(P, B, images, over_base=True, check=False)
    images = tuple(B.var(i) for i in range(len(B.context)))
    images += tuple(B.var(i) for i in range(len(B.context)))
    return morphism(P, B, images, check=False)

"""Deterministic Buchberger engine for ideals and submodules of free modules.

One loop, ``module_buchberger``, computes every basis, and one loop,
``_reduce`` (public as ``module_normal_form``), reduces every element.
Both run on mutable ``{monomial: coefficient}`` dicts, one per position: a
basis stays in dicts from its first insert to its tail reduction, S-vectors
and each reducer's multiple are subtracted term by term in place, and
Polynomials are built once, for the result.  Free modules carry the
position-over-term order in which position 0 is greatest; an ideal is the
rank-1 case, and cofactor (extended) bases, syzygies and division with
quotients run on vectors extended by unit tag columns.

S-pairs wait in a heap keyed (lcm degree, lcm, position, i, j), and each
basis element's leading position and monomial is stored once, on insert.
Inserting an element applies the Gebauer-Moeller criteria M, F and B
(Gebauer & Moeller 1988) to the pairs in its position; the product
criterion for coprime leading monomials applies only at rank 1, where it
is sound.  Reducers are tried in basis order, and finished bases are
minimalized, tail-reduced, made monic, and sorted by leading term, so every
run over the same input produces the same, unique reduced basis.
"""

from __future__ import annotations

import heapq
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    ContextMismatch,
    ResourceLimit,
    ShapeMismatch,
    UnsupportedDomain,
)
from .polycore import (
    GREVLEX,
    Polynomial,
    VariableContext,
    elimination_order,
    mono_deg,
    mono_div,
    mono_lcm,
    mono_mul,
)

# The degree budget: every basis element entering a Buchberger run must stay
# at or below it.  Callers set it for a scope with ``token =
# degree_cap.set(n)`` and restore it with ``degree_cap.reset(token)``; the
# basis caches key on it, so a basis found under one budget is not handed
# out under a lower one.
degree_cap = ContextVar("degree_cap", default=64)


def division(p, divisors, order=GREVLEX):
    """Divide ``p`` by a list of polynomials; return (quotients, remainder).

    Complete reduction: no remainder term is divisible by any divisor's
    leading term, and p = sum(q_i * divisors_i) + remainder.  This is the
    module normal form of (p, 0, ..., 0) against the tagged rows (d_i, e_i):
    each step by row i subtracts its term from tag column i, so the tag
    columns end as the negated quotients.
    """
    zero = Polynomial.zero(p.context, p.domain)
    rows = _tagged([(d,) for d in divisors], p.context, p.domain)
    r = module_normal_form((p,) + (zero,) * len(divisors), rows, order)
    return [-q for q in r[1:]], r[0]


def normal_form(p, basis, order=GREVLEX):
    """Remainder of ``p`` on complete division by ``basis`` (rank 1)."""
    return module_normal_form((p,), [(b,) for b in basis], order)[0]


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis together with its order and ambient data."""

    generators: tuple
    order: object
    context: VariableContext
    domain: object

    def normal_form(self, p):
        return normal_form(p, self.generators, self.order)

    def contains(self, p):
        return self.normal_form(p).is_zero()

    def leading_monomials(self):
        return tuple(g.leading_term(self.order)[0] for g in self.generators)


def buchberger_extended(gens, order=GREVLEX):
    """Reduced basis plus, for each element, its cofactors over the inputs.

    Returns (gb, rows) with gb.generators[k] == sum(rows[k][i] * gens[i]);
    zero generators get zero cofactors.  The engine runs on the tagged
    vectors (g_i, e_i) of rank 1 + len(gens): the basis elements led in
    position 0 carry an ideal basis element followed by its cofactors.
    """
    gens = list(gens)
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        raise ShapeMismatch("cannot infer context for an empty generator list")
    ctx, dom = nonzero[0].context, nonzero[0].domain
    tagged = _tagged([(g,) for g in gens], ctx, dom)
    mgb = module_buchberger(tagged, 1 + len(gens), ctx, dom, order)
    led = [w for w in mgb.generators if not w[0].is_zero()]
    gb = GroebnerBasis(tuple(w[0] for w in led), order, ctx, dom)
    return gb, tuple(w[1:] for w in led)


@lru_cache(maxsize=None)
def _cached_gb(gens, order, budget):
    """``budget`` is the current degree cap; it only keys the cache."""
    ctx, dom = gens[0].context, gens[0].domain
    mgb = module_buchberger([(g,) for g in gens], 1, ctx, dom, order)
    return GroebnerBasis(tuple(v[0] for v in mgb.generators), order, ctx, dom)


def groebner_basis(gens, order=GREVLEX):
    """Cached reduced Groebner basis; the empty ideal yields an empty basis."""
    gens = tuple(g for g in gens if not g.is_zero())
    if not gens:
        raise ShapeMismatch("cannot infer context for an empty generator list")
    return _cached_gb(gens, order, degree_cap.get())


def empty_basis(ctx, domain, order=GREVLEX):
    return GroebnerBasis((), order, ctx, domain)


def ideal_basis(gens, ctx, domain, order=GREVLEX):
    """Like :func:`groebner_basis` but tolerates an empty generator list."""
    gens = tuple(g for g in gens if not g.is_zero())
    if not gens:
        return empty_basis(ctx, domain, order)
    return _cached_gb(gens, order, degree_cap.get())


def elimination_ideal(gens, neliminate, tail_context=None):
    """Generators of (ideal) ∩ k[trailing variables], in the tail context.

    The first ``neliminate`` variables of the shared context are eliminated.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ctx, dom = gens[0].context, gens[0].domain
    if tail_context is None:
        tail_context = VariableContext(ctx.names[neliminate:])
    order = elimination_order(neliminate)
    gb = groebner_basis(tuple(gens), order)
    index_map = [0] * len(ctx)
    for i in range(neliminate, len(ctx)):
        index_map[i] = i - neliminate
    out = []
    for g in gb.generators:
        if order.eliminates(g.leading_term(order)[0]):
            assert all(i >= neliminate for i in g.variables_used())
            out.append(g.rename(tail_context, index_map))
    return out


def ideal_intersection(gens1, gens2):
    """Generators of the intersection of two ideals over the same context."""
    if not gens1 or not gens2:
        return []
    ctx, dom = gens1[0].context, gens1[0].domain
    n = len(ctx)
    tname = "@t0"
    k = 0
    while tname in ctx.names:
        k += 1
        tname = f"@t{k}"
    ext = VariableContext((tname,) + ctx.names)
    shift = [i + 1 for i in range(n)]
    t = Polynomial.variable(ext, dom, 0)
    one = Polynomial.one(ext, dom)
    mixed = [t * g.rename(ext, shift) for g in gens1]
    mixed += [(one - t) * g.rename(ext, shift) for g in gens2]
    return elimination_ideal(mixed, 1, tail_context=ctx)


def exact_quotient(p, h, order=GREVLEX):
    """Return p/h when h divides p exactly; raise otherwise."""
    quotients, r = division(p, [h], order)
    if not r.is_zero():
        raise ShapeMismatch("inexact polynomial division")
    return quotients[0]


def ideal_quotient(gens, h):
    """Generators of the colon ideal (gens) : (h)."""
    if h.is_zero():
        raise ShapeMismatch("colon by the zero element")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    meet = ideal_intersection(gens, [h])
    return [exact_quotient(g, h) for g in meet]


# ---------------------------------------------------------------------------
# morphism graphs: kernel, surjectivity, preimages

class MorphismGraph:
    """Graph ideal of an algebra morphism under a target-eliminating order.

    The combined context lists the target variables first, then one fresh
    ``@g<i>`` copy per source variable; the Groebner basis eliminates the
    target block, so normal forms expose kernels and preimages.
    """

    def __init__(self, f):
        A, B = f.source, f.target
        dom = A.domain
        nA, nB = len(A.context), len(B.context)
        names = B.context.names + tuple(f"@g{i}" for i in range(nA))
        ctx = VariableContext(names)
        self.ctx = ctx
        self.nA, self.nB = nA, nB
        self.source, self.target = A, B
        self._embed_b = list(range(nB))
        embed_a = [nB + i for i in range(nA)]
        gens = [g.rename(ctx, self._embed_b) for g in B.ideal]
        for i in range(nA):
            lhs = Polynomial.variable(ctx, dom, nB + i)
            rhs = f.var_images[i].rename(ctx, self._embed_b)
            gens.append(lhs - rhs)
        gens += [g.rename(ctx, embed_a) for g in A.ideal]
        order = elimination_order(nB)
        self.gb = ideal_basis(tuple(gens), ctx, dom, order)
        self.order = order

    def embed_target(self, p):
        return p.rename(self.ctx, self._embed_b)

    def to_source(self, p):
        """Transport a source-block-only polynomial back to the source context."""
        assert all(i >= self.nB for i in p.variables_used())
        index_map = [0] * len(self.ctx)
        for i in range(self.nA):
            index_map[self.nB + i] = i
        return p.rename(self.source.context, index_map)

    def preimage(self, p):
        """A source element mapping to ``p``, or None when none exists."""
        nf = self.gb.normal_form(self.embed_target(p))
        if any(i < self.nB for i in nf.variables_used()):
            return None
        return self.to_source(nf)


@lru_cache(maxsize=None)
def _cached_graph(f, budget):
    """``budget`` is the current degree cap; it only keys the cache."""
    return MorphismGraph(f)


def morphism_graph(f):
    return _cached_graph(f, degree_cap.get())


def ring_map_kernel(f):
    """Generators of the kernel ideal of an algebra morphism.

    The result is reduced modulo the source ideal; an empty list means the
    morphism is injective.
    """
    graph = morphism_graph(f)
    A = f.source
    raw = []
    for g in graph.gb.generators:
        if graph.order.eliminates(g.leading_term(graph.order)[0]):
            raw.append(graph.to_source(g))
    source_gb = ideal_basis(A.ideal, A.context, A.domain, GREVLEX)
    out = []
    for g in raw:
        r = source_gb.normal_form(g)
        if not r.is_zero() and r not in out:
            out.append(r)
    out.sort(key=lambda p: (p.degree(), p.to_str()))
    return out


# ---------------------------------------------------------------------------
# free modules with the position-over-term order (position 0 greatest)

def vec_is_zero(v):
    return all(c.is_zero() for c in v)


def module_lt(v, order):
    """Leading (position, monomial, coefficient) of a vector, or None."""
    for i, c in enumerate(v):
        if not c.is_zero():
            m, coeff = c.leading_term(order)
            return i, m, coeff
    return None


def _vec_check(vectors):
    ranks = {len(v) for v in vectors}
    if len(ranks) != 1:
        raise ShapeMismatch(f"vectors of mixed ranks {sorted(ranks)}")
    ctx = vectors[0][0].context
    dom = vectors[0][0].domain
    for v in vectors:
        for c in v:
            if c.context != ctx or c.domain != dom:
                raise ContextMismatch("vector entries disagree on context or domain")
    return ranks.pop(), ctx, dom


def _reduce(work, reducers, key, dom, monic=False):
    """Reduce term dicts completely, in place; return the remainder dicts.

    ``reducers[pos]`` lists (leading monomial, leading coefficient, term
    dicts) of the elements led in position ``pos``, in the order tried.
    ``monic`` promises monic reducers over a field: no division per step.
    """
    zero, p = dom.zero(), dom.p
    rem = [{} for _ in work]
    # the leading position never moves back: reducers vanish before theirs
    for pos, w in enumerate(work):
        while w:
            m = max(w, key=key)
            c = w[m]
            for bm, bc, bterms in reducers[pos]:
                q = mono_div(m, bm)
                if q is not None:
                    t = c if monic else dom.div(c, bc)
                    for k in range(pos, len(work)):
                        wk = work[k]
                        for bm2, bc2 in bterms[k].items():
                            mq = mono_mul(bm2, q)
                            s = wk.get(mq, zero) - bc2 * t
                            if p:
                                s %= p
                            if s:
                                wk[mq] = s
                            else:
                                del wk[mq]
                    break
            else:
                rem[pos][m] = c
                del w[m]
    return rem


def module_normal_form(v, basis, order=GREVLEX):
    """Complete normal form of a vector against module generators."""
    if not basis:
        return v
    ctx, dom = basis[0][0].context, basis[0][0].domain
    reducers = [[] for _ in v]
    for b in basis:
        lt = module_lt(b, order)
        if lt is not None:
            reducers[lt[0]].append((lt[1], lt[2], [c.terms for c in b]))
    key = lru_cache(maxsize=None)(order.key)  # each monomial's key once per call
    rem = _reduce([dict(c.terms) for c in v], reducers, key, dom)
    return tuple(Polynomial._clean(ctx, dom, r) for r in rem)


@dataclass(frozen=True)
class ModuleGroebnerBasis:
    """Reduced Groebner basis of a submodule of a free module."""

    generators: tuple
    rank: int
    order: object
    context: VariableContext
    domain: object

    def normal_form(self, v):
        if len(v) != self.rank:
            raise ShapeMismatch(f"vector rank {len(v)} != module rank {self.rank}")
        return module_normal_form(v, self.generators, self.order)

    def contains(self, v):
        return vec_is_zero(self.normal_form(v))

    def leading_positions(self):
        return tuple(module_lt(v, self.order)[:2] for v in self.generators)


def module_buchberger(vectors, rank, ctx, dom, order=GREVLEX):
    """Reduced module Groebner basis under position-over-term order.

    Raises ResourceLimit when an element's degree exceeds ``degree_cap``.
    """
    cap = degree_cap.get()
    vectors = [tuple(v) for v in vectors if not vec_is_zero(v)]
    if not vectors:
        return ModuleGroebnerBasis((), rank, order, ctx, dom)
    vrank, vctx, vdom = _vec_check(vectors)
    if vrank != rank or vctx != ctx or vdom != dom:
        raise ShapeMismatch("vectors do not match the declared module shape")
    if not dom.is_field:
        raise UnsupportedDomain("Groebner bases require a field domain")

    key = lru_cache(maxsize=None)(order.key)  # each monomial's key once per run
    one, zero, p = dom.one(), dom.zero(), dom.p
    basis, leads = [], []  # monic term-dict vectors and their (position, monomial)
    reducers = [[] for _ in range(rank)]  # (monomial, 1, terms) per position, in basis order
    live = []  # elements whose leading term no later element's divides
    pairs = []  # heap of (deg lcm, lcm, position, i, j)

    def insert(v):
        nonlocal pairs
        for comp in v:
            d = max(map(mono_deg, comp), default=-1)
            if d > cap:
                raise ResourceLimit(f"polynomial degree {d} exceeds the degree cap {cap}", degree=d, cap=cap)
        pos = next(k for k, comp in enumerate(v) if comp)
        m = max(v[pos], key=key)
        c = v[pos][m]
        if c != one:
            inv = dom.div(one, c)
            v = [{mono: dom.mul(a, inv) for mono, a in comp.items()} for comp in v]
        new = len(basis)
        basis.append(v)
        leads.append((pos, m))
        reducers[pos].append((m, one, v))
        # criterion B: drop (i, j) when m divides their lcm and the lcms of
        # (i, new) and (j, new) both differ from it; those two pairs cover it
        kept = [
            pair for pair in pairs
            if pair[2] != pos
            or mono_div(pair[1], m) is None
            or mono_lcm(leads[pair[3]][1], m) == pair[1]
            or mono_lcm(leads[pair[4]][1], m) == pair[1]
        ]
        if len(kept) != len(pairs):
            heapq.heapify(kept)
            pairs = kept
        # criteria M and F: of the new pairs, keep one per minimal lcm; the
        # product criterion (coprime leading monomials) holds for rank 1 only
        todo = []
        for i in live:
            ipos, mi = leads[i]
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
        insert([comp.terms for comp in v])
    while pairs:
        _, lcm, _, i, j = heapq.heappop(pairs)
        # the S-vector x^a*b_i - x^b*b_j of two monic elements
        qi, qj = mono_div(lcm, leads[i][1]), mono_div(lcm, leads[j][1])
        s = [{mono_mul(mono, qi): a for mono, a in comp.items()} for comp in basis[i]]
        for d, comp in zip(s, basis[j]):
            for mono, a in comp.items():
                mono = mono_mul(mono, qj)
                a = d.get(mono, zero) - a
                if p:
                    a %= p
                if a:
                    d[mono] = a
                else:
                    del d[mono]
        # superseded elements still reduce: their short tails keep
        # coefficients small, where reducing by survivors alone swells them
        r = _reduce(s, reducers, key, dom, monic=True)
        if any(r):
            insert(r)

    # minimalize, then tail-reduce each element once against the others:
    # the leading terms of a minimal basis stay fixed, so one pass suffices
    minimal = [
        i for i in live
        if not any(
            j != i and leads[j][0] == leads[i][0] and mono_div(leads[i][1], leads[j][1]) is not None
            for j in live
        )
    ]
    minimal.sort(key=lambda i: (leads[i][0], key(leads[i][1])))
    reduced = []
    for i in minimal:
        r = basis[i]
        if len(minimal) > 1:
            others = [[(leads[k][1], one, basis[k]) for k in minimal if k != i and leads[k][0] == pos]
                      for pos in range(rank)]
            r = _reduce([dict(comp) for comp in r], others, key, dom, monic=True)
        reduced.append(tuple(Polynomial._clean(ctx, dom, comp) for comp in r))
    return ModuleGroebnerBasis(tuple(reduced), rank, order, ctx, dom)


def _tagged(vectors, ctx, dom):
    """Each vector followed by a unit tag e_i, one tag column per vector."""
    zero, one = Polynomial.zero(ctx, dom), Polynomial.one(ctx, dom)
    s = len(vectors)
    return [tuple(v) + tuple(one if k == i else zero for k in range(s)) for i, v in enumerate(vectors)]


def syzygy_basis(vectors, rank, ctx, dom, order=GREVLEX):
    """Generators of the syzygy module of a list of vectors.

    Returns coefficient vectors c with sum(c_i * vectors_i) == 0, computed
    by eliminating the leading block of an extended free module.
    """
    if not vectors:
        return []
    mgb = module_buchberger(_tagged(vectors, ctx, dom), rank + len(vectors), ctx, dom, order)
    return [w[rank:] for w in mgb.generators if vec_is_zero(w[:rank])]

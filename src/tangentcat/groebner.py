"""Deterministic Buchberger engine for ideals and submodules of free modules.

One loop, ``module_buchberger``, computes every basis, and one loop,
``_reduce``, reduces every element, on ``{monomial: coefficient}`` dicts,
one per position.  Free modules carry the position-over-term order in which
position 0 is greatest; an ideal basis is the rank-1 view of a module basis,
and cofactor (extended) bases, syzygies and division with quotients run on
vectors extended by unit tag columns.

A basis is kept once, as the reducer table ``_reduce`` consumes: per
position, the leading monomial, the leading coefficient and the term dicts of
each element led there, primitive integers over Q (every step is
fraction-free) and monic over F_p.  Its monomials are ints (``_Packing``;
Bachmann & Schoenemann 1998): n fields of ``width`` bits, field i holding
M - e_i (M = 2^(width-1) - 1, x_{n-1} highest), the degree above them, so int
order is grevlex; lex and block orders compare ``order.key`` of the tuple.  A
product is a + b - P(1), b | a iff a - b + P(1) sets no field's top (guard)
bit, and an lcm selects fields by guard bits.  An exponent past M sets a guard
bit, and the call reruns twice as wide.  Polynomials are built on first use.

S-pairs wait in a heap keyed (lcm degree, lcm tuple, position, i, j), and each
basis element's leading position and monomial is stored once, on insert.
Inserting an element applies the Gebauer-Moeller criteria M, F and B
(Gebauer & Moeller 1988) to the pairs in its position; the product
criterion for coprime leading monomials applies only at rank 1, where it
is sound.  A run may start from a seed, the reduced basis of a submodule,
whose elements form no pairs among themselves (Gebauer & Moeller 1988).  Reducers are tried in basis order, and finished bases are
minimalized, tail-reduced, made monic, and sorted by leading term, so every
run over the same input produces the same, unique reduced basis.

Kernels and preimages of algebra morphisms come from a graph basis under an
elimination order or, into a finite-dimensional target, from the same
polynomials found by a walk over the source staircase (``FiniteGraph``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import (
    ContextMismatch,
    ShapeMismatch,
    UnsupportedDomain,
)
from .modlin import Echelon, fd_basis
from .polycore import (
    GREVLEX,
    Polynomial,
    VariableContext,
    degree_cap,
    elimination_order,
    mono_deg,
    mono_div,
    within_cap,
)


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
    """A reduced Groebner basis of an ideal: the rank-1 view of a module basis."""

    module: ModuleGroebnerBasis
    order = property(lambda self: self.module.order)

    @cached_property
    def generators(self):
        return tuple(v[0] for v in self.module.generators)

    def normal_form(self, p):
        return self.module._normal_form((p,))[0]

    def leading_monomials(self):
        return tuple(m for _, m in self.module.leading_positions())


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
    ideal = [_entry(v[:1], 0, m, dom.p) for m, _, v in mgb.table[0]]
    cofactors = tuple(w[1:] for w in mgb.generators[: len(ideal)])
    return GroebnerBasis(ModuleGroebnerBasis([ideal], 1, order, ctx, dom, mgb.packing)), cofactors


@lru_cache(maxsize=None)
def _cached_gb(gens, ctx, dom, order, budget):
    """``budget`` is the current degree cap; it only keys the cache."""
    return GroebnerBasis(module_buchberger([(g,) for g in gens], 1, ctx, dom, order))


def groebner_basis(gens, order=GREVLEX):
    """Cached reduced Groebner basis; an empty ideal raises ShapeMismatch (see ``ideal_basis``)."""
    gens = tuple(g for g in gens if not g.is_zero())
    if not gens:
        raise ShapeMismatch("cannot infer context for an empty generator list")
    return _cached_gb(gens, gens[0].context, gens[0].domain, order, degree_cap.get())


def ideal_basis(gens, ctx, domain, order=GREVLEX):
    """Like :func:`groebner_basis` but tolerates an empty generator list."""
    return _cached_gb(tuple(g for g in gens if not g.is_zero()), ctx, domain, order, degree_cap.get())


# ---------------------------------------------------------------------------
# morphism graphs: kernel, surjectivity, preimages

class _Graph:
    """The kernel and the target-variable preimages, each found once per graph."""

    @cached_property
    def kernel(self):
        """Generators of the kernel ideal, reduced modulo the source ideal."""
        out = {r for r in map(self.source.reduce, self.kernel_basis) if not r.is_zero()}
        return tuple(sorted(out, key=lambda p: (p.degree(), p.to_str())))

    @cached_property
    def variable_preimages(self):
        """``preimage`` of each target variable, None where there is none."""
        return tuple(self.preimage(self.target.var(j)) for j in range(len(self.target.context)))


class MorphismGraph(_Graph):
    """Graph ideal of an algebra morphism under a target-eliminating order.

    The combined context lists the target variables first, then one fresh
    ``@g<i>`` copy per source variable; the Groebner basis eliminates the
    target block, so normal forms expose kernels and preimages.
    """

    def __init__(self, f):
        A, B = self.source, self.target = f.source, f.target
        dom, nA, nB = A.domain, len(A.context), len(B.context)
        ctx = self.ctx = VariableContext(B.context.names + tuple(f"@g{i}" for i in range(nA)))
        self.nB, self._embed_b, self.order = nB, list(range(nB)), elimination_order(nB)
        gens = [g.rename(ctx, self._embed_b) for g in B.ideal]
        gens += [Polynomial.variable(ctx, dom, nB + i) - f.var_images[i].rename(ctx, self._embed_b)
                 for i in range(nA)]
        gens += [g.rename(ctx, [nB + i for i in range(nA)]) for g in A.ideal]
        self.gb = ideal_basis(tuple(gens), ctx, dom, self.order)

    def embed_target(self, p):
        return p.rename(self.ctx, self._embed_b)

    @property
    def kernel_basis(self):
        gb = self.gb
        return [self.to_source(g) for g, m in zip(gb.generators, gb.leading_monomials())
                if self.order.eliminates(m)]

    def to_source(self, p):
        """Transport a source-block-only polynomial back to the source context."""
        if any(i < self.nB for i in p.variables_used()):
            raise ShapeMismatch("only source-block polynomials transport to the source")
        return p.rename(self.source.context, [max(i - self.nB, 0) for i in range(len(self.ctx))])

    def preimage(self, p):
        """A source element mapping to ``p``, or None when none exists."""
        nf = self.gb.normal_form(self.embed_target(p))
        return None if any(i < self.nB for i in nf.variables_used()) else self.to_source(nf)


class FiniteGraph(_Graph):
    """Kernel and preimages into a finite-dimensional target by linear algebra
    on staircases (Buchberger & Moeller 1982; Faugere, Gianni, Lazard & Mora
    1993).  Source monomials m come in grevlex order from 1, less multiples
    of kernel leads; the coordinates of f(m) = f(m/x_i)·f(x_i) on the
    target's d standard monomials, with a unit in m's own column, go into
    modlin's echelon.  Its columns put the staircase first, then a preimage
    tag column d, then one column per source monomial, so a reduced row whose
    staircase part vanishes is a multiple of the kernel element
    m - sum c_s·s, the graph basis's element led by m; else m is a pivot and
    its x_i·m are queued.
    """

    def __init__(self, f, gb, staircase):
        A, B = self.source, self.target = f.source, f.target
        self._index, self._nf = {m: j for j, m in enumerate(staircase)}, gb.normal_form
        self._span, self._monos = Echelon(A.domain), []  # rows of the images so far; _monos[k] owns column d + 1 + k
        d, n = len(staircase), len(A.context)
        self.kernel_basis, leads, images = [], [], {}  # images: pivot -> reduced f(pivot)
        queue = [(GREVLEX.key((0,) * n), (0,) * n, -1)]  # (key, m, i): m = x_i·pivot, or 1
        while queue:
            _, m, i = heapq.heappop(queue)
            if m in images or any(mono_div(m, t) is not None for t in leads):
                continue
            img = self._nf(B.one() if i < 0 else images[m[:i] + (m[i] - 1,) + m[i + 1:]] * f.var_images[i])
            col = d + 1 + len(self._monos)
            self._monos.append(m)
            row = self._row(img, col)
            if min(row) > d:  # a kernel element led by m
                within_cap(mono_deg(m))
                leads.append(m)
                self.kernel_basis.append(self._combination(row, col))
                continue
            self._span.keep(row)
            images[m] = img
            for k in range(n):
                xm = m[:k] + (m[k] + 1,) + m[k + 1:]
                heapq.heappush(queue, (GREVLEX.key(xm), xm, k))

    def _row(self, q, col):
        """The coordinates of a reduced target element q with a 1 in ``col``,
        reduced against the images so far."""
        row = {self._index[t]: c for t, c in q.terms.items()}
        row[col] = 1
        return self._span.reduce(row)

    def _combination(self, row, col):
        """The source polynomial on a row's monomial columns over its entry at ``col``."""
        A, d, c = self.source, len(self._index), row[col]
        dom = A.domain
        return Polynomial._clean(A.context, dom, {
            self._monos[k - d - 1]: a if c == 1 else dom.div(a, c) for k, a in row.items() if k > d})

    def preimage(self, q):
        """A source element mapping to ``q``, or None when none exists."""
        d = len(self._index)
        row = self._row(self._nf(q), d)
        if min(row) >= d:
            return -self._combination(row, d)


@lru_cache(maxsize=None)
def _cached_graph(f, budget):
    """``budget`` is the current degree cap; it only keys the cache.  Both routes
    first check the graph basis's input generators, in its order, against the cap."""
    A, B = f.source, f.target
    for d in chain((g.degree() for g in B.ideal), (max(1, g.degree()) for g in f.var_images),
                   (g.degree() for g in A.ideal)):
        within_cap(d)
    gb = B.gb()
    staircase = fd_basis(gb, len(B.context))
    return MorphismGraph(f) if staircase is None else FiniteGraph(f, gb, staircase)


def morphism_graph(f):
    return _cached_graph(f, degree_cap.get())


def ring_map_kernel(f):
    """Generators of Ker(f), reduced modulo the source ideal; an empty list
    means that f is injective."""
    return list(morphism_graph(f).kernel)


# ---------------------------------------------------------------------------
# free modules with the position-over-term order (position 0 greatest)

def vec_is_zero(v):
    return all(c.is_zero() for c in v)


def unit(p, i, rank):
    """The vector of length ``rank`` with ``p`` at position ``i`` and zeros elsewhere."""
    zero = Polynomial.zero(p.context, p.domain)
    return tuple(p if k == i else zero for k in range(rank))


class _Overflow(Exception):
    """A packed exponent left its field."""


def _widening(run, n):
    """``run(packing)``, first with M at least twice the degree cap, then twice as wide after each overflow."""
    width = (2 * max(degree_cap.get(), 1)).bit_length() + 1
    while True:
        try:
            return run(_Packing(n, width))
        except _Overflow:
            width *= 2


@lru_cache(maxsize=16)
class _Packing:
    """Monomials in ``n`` variables as ints of ``width``-bit fields, one instance
    per layout, with bounded memos from tuples (``codes``) and back (``monos``)."""

    def __init__(self, n, width):
        self.top, self.limit, self._shifts = n * width, (1 << width - 1) - 1, range(0, n * width, width)
        self._weights = [(1 << self.top) - (1 << s) for s in self._shifts]
        self.one = sum(self.limit << s for s in self._shifts)  # P(1)
        self.guards, self.low = sum(1 << s + width - 1 for s in self._shifts), (1 << self.top) - 1
        self.codes, self.monos = lru_cache(maxsize=4096)(self._pack), lru_cache(maxsize=4096)(self._unpack)

    def _pack(self, m):
        if max(m, default=0) > self.limit:
            raise _Overflow
        return self.one + sum(map(mul, m, self._weights))

    def _unpack(self, x):
        return tuple([self.limit - (x >> s & self.limit) for s in self._shifts])

    def lcm(self, a, b):
        """The fields of lcm(a, b), degree left out: per field the smaller value."""
        g = ((a | self.guards) - b) & self.guards  # where a's value is not smaller
        return (a ^ (a ^ b) & (g - (g >> self._shifts.step - 1))) & self.low

    def key(self, order):
        """Sort key of packed monomials under ``order``: None, the int itself, for grevlex."""
        return None if order.kind == "grevlex" else lru_cache(maxsize=4096)(lambda m: order.key(self.monos(m)))


def _entry(v, pos, m, p):
    """The reducer entry of term dicts led by ``m`` in position ``pos``, scaled
    to lead with 1 over F_p, and over Q (canonical entries) to coprime
    integers leading with a positive one."""
    lc = v[pos][m]
    if p:
        inv = pow(lc, -1, p)
        v = v if inv == 1 else [{t: a * inv % p for t, a in comp.items()} for comp in v]
    else:
        den = lcm(*(a.denominator for comp in v for a in comp.values()))  # 1: all ints
        if den != 1:
            v = [{t: a.numerator * (den // a.denominator) for t, a in comp.items()} for comp in v]
        g = gcd(*(a for comp in v for a in comp.values())) * (1 if lc > 0 else -1)
        v = v if g == 1 else [{t: a // g for t, a in comp.items()} for comp in v]
    return m, v[pos][m], v


def _reduce(work, reducers, key, dom, pk):
    """Reduce packed term dicts completely, in place; return (remainder, scale).

    ``reducers[pos]`` lists (leading monomial, leading coefficient, term
    dicts) of the elements led in position ``pos``, monic over F_p, primitive
    over Q, in the order tried.  A step over Q multiplies the whole vector,
    remainder included, and the scale by bc/g, g = gcd(c, bc), then subtracts
    (c/g)*x^q*b: the remainder is the returned one over the scale.
    """
    p, field, one, guards = dom.p, dom.is_field, pk.one, pk.guards
    rem = [{} for _ in work]
    scale = 1
    # the leading position never moves back: reducers vanish before theirs
    for pos, w in enumerate(work):
        while w:
            m = max(w, key=key)
            c = w[m]
            mo = m + one
            for bm, bc, bterms in reducers[pos]:
                if (mo - bm) & guards:
                    continue
                if not field:
                    raise UnsupportedDomain(f"exact division is not available over {dom}")
                if not p:
                    g = gcd(c, bc)
                    a, c = bc // g, c // g
                    if a != 1:
                        scale *= a
                        for d in chain(rem, work):
                            for mk in d:
                                d[mk] *= a
                q, made = m - bm, 0  # x^q*t packs as t + q
                for k in range(pos, len(work)):
                    wk = work[k]
                    for t, a in bterms[k].items():
                        t += q
                        made |= t
                        s = wk.get(t, 0) - a * c
                        if p:
                            s %= p
                        if s:
                            wk[t] = s
                        else:
                            del wk[t]
                if made & guards:
                    raise _Overflow
                break
            else:
                rem[pos][m] = c
                del w[m]
    return rem, scale


def _normal_form(v, table, pk, order, ctx, dom):
    """Complete normal form of a vector against a reducer table packed by ``pk``.  Over
    Q the input's denominators are cleared once and divided out, with the scale, at the end."""
    if not any(table):
        return tuple(v)
    den = lcm(*(a.denominator for c in v for a in c.terms.values()))  # 1 unless a Fraction is met
    work = [{pk.codes(m): a.numerator * (den // a.denominator) if den != 1 else a for m, a in c.terms.items()}
            for c in v]
    rem, scale = _reduce(work, table, pk.key(order), dom, pk)
    d = den * scale  # 1 over F_p
    return tuple(Polynomial._clean(ctx, dom, {pk.monos(m): a if d == 1 else dom.div(a, d) for m, a in r.items()})
                 for r in rem)


def module_normal_form(v, basis, order=GREVLEX):
    """Complete normal form of a vector against module generators, in order."""
    def run(pk):
        table, key = [[] for _ in v], pk.key(order)
        for b in basis:
            vec = [{pk.codes(m): a for m, a in c.terms.items()} for c in b]
            pos = next((k for k, comp in enumerate(vec) if comp), None)
            if pos is not None:
                table[pos].append(_entry(vec, pos, max(vec[pos], key=key), b[0].domain.p))
        return _normal_form(v, table, pk, order, v[0].context, v[0].domain)
    return _widening(run, len(v[0].context))


@dataclass(frozen=True, eq=False)
class ModuleGroebnerBasis:
    """Reduced Groebner basis of a submodule of a free module; ``table[pos]``
    lists its elements led in position ``pos`` as ``_reduce`` takes them, packed by ``packing``."""

    table: list
    rank: int
    order: object
    context: VariableContext
    domain: object
    packing: _Packing = None

    @cached_property
    def generators(self):
        """The basis as monic vectors, in position order, built on first use."""
        ctx, dom, monos = self.context, self.domain, getattr(self.packing, "monos", None)
        return tuple(
            tuple(Polynomial._clean(ctx, dom, {monos(m): a if c == 1 else dom.div(a, c) for m, a in comp.items()})
                  for comp in v)
            for entries in self.table for _, c, v in entries
        )

    def normal_form(self, v):
        if len(v) != self.rank:
            raise ShapeMismatch(f"vector rank {len(v)} != module rank {self.rank}")
        return self._normal_form(v)

    def _normal_form(self, v):
        try:
            return _normal_form(v, self.table, self.packing, self.order, self.context, self.domain)
        except _Overflow:  # the same reducers, packed wider
            return module_normal_form(v, self.generators, self.order)

    def leading_positions(self):
        return tuple((pos, self.packing.monos(m)) for pos, entries in enumerate(self.table) for m, *_ in entries)


def module_buchberger(vectors, rank, ctx, dom, order=GREVLEX, seed=None):
    """Reduced module Groebner basis under position-over-term order.

    ``seed``, a reduced basis of a submodule of the one spanned, enters the
    run as it stands: its elements form no S-pairs among themselves, since
    each of those has a standard representation over the seed already
    (Buchberger 1965), so only pairs with the ``vectors`` run.  A seed of
    another rank, context, domain or order is refused, as is a vector of
    another rank (ShapeMismatch) or with an entry over another context or
    domain (ContextMismatch).  Raises ResourceLimit when an element's degree
    exceeds ``degree_cap``.
    """
    if seed is not None and (seed.rank, seed.context, seed.domain, seed.order) != (rank, ctx, dom, order):
        raise ShapeMismatch("the seed basis does not match the declared module shape")
    vectors = [tuple(v) for v in vectors if not vec_is_zero(v)]
    if not vectors:
        return seed or ModuleGroebnerBasis([[] for _ in range(rank)], rank, order, ctx, dom)
    for v in vectors:
        if len(v) != rank:
            raise ShapeMismatch(f"a vector of rank {len(v)} in a module of rank {rank}")
        if any(c.context != ctx or c.domain != dom for c in v):
            raise ContextMismatch("a vector entry is not over the module's context and domain")
    if not dom.is_field:
        raise UnsupportedDomain("Groebner bases require a field domain")
    return _widening(lambda pk: _buchberger(vectors, rank, ctx, dom, order, pk, seed), len(ctx))


def free_module_basis(ring, rank):
    """The reduced basis of the free module of ``rank`` over a quotient ring
    modulo its ideal: the ring's reduced ideal basis ``ring`` (rank 1) in
    every position, with no Buchberger run."""
    table = [[(m, c, [v[0] if k == pos else {} for k in range(rank)]) for m, c, v in ring.table[0]]
             for pos in range(rank)]
    return ModuleGroebnerBasis(table, rank, ring.order, ring.context, ring.domain, ring.packing)


def _buchberger(vectors, rank, ctx, dom, order, pk, seed):
    """The body of ``module_buchberger``, on monomials packed by ``pk``."""
    key, p, top, one, guards, low = pk.key(order), dom.p, pk.top, pk.one, pk.guards, pk.low
    basis, leads = [], []  # reducer entries (see _reduce) and their (position, monomial)
    reducers = [[] for _ in range(rank)]  # basis entries per position, in basis order
    live = []  # elements whose leading term no later element's divides
    pairs = []  # heap of (deg lcm, lcm tuple, position, i, j, lcm)

    def enter(entry, pos):
        for comp in entry[2]:
            within_cap(max(comp) >> top if comp else -1)
        basis.append(entry)
        leads.append((pos, entry[0]))
        reducers[pos].append(entry)
        return len(basis) - 1

    def insert(v):
        nonlocal pairs
        pos = next(k for k, comp in enumerate(v) if comp)
        m = max(v[pos], key=key)
        new = enter(_entry(v, pos, m, p), pos)
        # criterion B: drop (i, j) when m divides their lcm and the lcms of
        # (i, new) and (j, new) both differ from it; those two pairs cover it
        kept = [
            pair for pair in pairs
            if pair[2] != pos
            or (pair[5] + one - m) & guards
            or pk.lcm(leads[pair[3]][1], m) == pair[5] & low
            or pk.lcm(leads[pair[4]][1], m) == pair[5] & low
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
                lcm = pk.lcm(mi, m)
                coprime = rank == 1 and lcm == (mi + m - one) & low
                todo.append((lcm, i, coprime))
        done = []
        while todo:
            lcm, i, coprime = cand = todo.pop(0)
            if coprime or all((lcm + one - other[0]) & guards for other in todo + done):
                done.append(cand)
        for lcm, i, coprime in done:
            if not coprime:
                t = pk.monos(lcm)
                heapq.heappush(pairs, (sum(t), t, pos, i, new, lcm + (sum(t) << top)))
        live[:] = [i for i in live if leads[i][0] != pos or (leads[i][1] + one - m) & guards]
        live.append(new)

    if seed is not None:  # a reduced basis: no element's leading term divides another's
        repack = None if seed.packing is pk else lambda m: pk.codes(seed.packing.monos(m))
        for pos, entries in enumerate(seed.table):
            for entry in entries:
                if repack:
                    m, c, v = entry
                    entry = repack(m), c, [{repack(t): a for t, a in comp.items()} for comp in v]
                live.append(enter(entry, pos))
    for v in vectors:
        insert([{pk.codes(m): a for m, a in c.terms.items()} for c in v])
    while pairs:
        *_, i, j, lcm = heapq.heappop(pairs)
        # the S-vector (c_j/g)*x^a*b_i - (c_i/g)*x^b*b_j, g = gcd(c_i, c_j); basis
        # exponents are at most the cap, so its own, at most twice that, fit
        _, ci, bi = basis[i]
        _, cj, bj = basis[j]
        g = gcd(ci, cj)
        ci, cj = ci // g, cj // g
        qi, qj = lcm - leads[i][1], lcm - leads[j][1]
        s = [{t + qi: a * cj for t, a in comp.items()} for comp in bi]
        for d, comp in zip(s, bj):
            for t, a in comp.items():
                t += qj
                a = d.get(t, 0) - a * ci
                if p:
                    a %= p
                if a:
                    d[t] = a
                else:
                    del d[t]
        # superseded elements still reduce: their short tails keep
        # coefficients small, where reducing by survivors alone swells them
        r, _ = _reduce(s, reducers, key, dom, pk)
        if any(r):
            insert(r)

    # minimalize, then tail-reduce each element once against the others:
    # the leading terms of a minimal basis stay fixed, so one pass suffices
    minimal = [
        i for i in live
        if not any(
            j != i and leads[j][0] == leads[i][0] and not (leads[i][1] + one - leads[j][1]) & guards
            for j in live
        )
    ]
    minimal.sort(key=lambda i: (leads[i][0], leads[i][1] if key is None else key(leads[i][1])))
    table = [[] for _ in range(rank)]
    for i in minimal:
        pos, m = leads[i]
        entry = basis[i]
        if len(minimal) > 1:  # the leading term is never reduced
            others = [[basis[k] for k in minimal if k != i and leads[k][0] == q] for q in range(rank)]
            r, _ = _reduce([dict(comp) for comp in entry[2]], others, key, dom, pk)
            entry = _entry(r, pos, m, p)
        table[pos].append(entry)
    return ModuleGroebnerBasis(table, rank, order, ctx, dom, pk)


def _tagged(vectors, ctx, dom):
    """Each vector followed by a unit tag e_i, one tag column per vector."""
    one = Polynomial.one(ctx, dom)
    return [tuple(v) + unit(one, i, len(vectors)) for i, v in enumerate(vectors)]


def syzygy_basis(vectors, rank, ctx, dom, order=GREVLEX):
    """Generators of the syzygy module of a list of vectors.

    Returns coefficient vectors c with sum(c_i * vectors_i) == 0, computed
    by eliminating the leading block of an extended free module.
    """
    mgb = module_buchberger(_tagged(vectors, ctx, dom), rank + len(vectors), ctx, dom, order)
    return [w[rank:] for w in mgb.generators if vec_is_zero(w[:rank])]

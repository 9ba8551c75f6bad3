"""Differential modules of presented algebras and the cotangent sequence.

The module of differentials of B = k[y]/(relations) over its base is
presented on generators d<y_j> with one Jacobian row per relative relation.
A morphism f : A -> B induces the comparison map v sending d<x_i> to
d(f(x_i)); its kernel, cokernel, and splitting behaviour drive the
classification of f on the geometric side.

Modules are always modules over the presenting algebra: the algebra's
ideal is folded into every Groebner-basis computation, so relation lists
stay small and readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    AlgebraMismatch,
    NotFiniteDimensional,
    ShapeMismatch,
)
from .groebner import (
    GREVLEX,
    degree_cap,
    module_buchberger,
    syzygy_basis,
    vec_is_zero,
)
from .modlin import (
    matrix_on_basis,
    matrix_rank,
    module_fd_basis,
    retraction_solve_matrices,
)
from .polycore import Polynomial, VariableContext


@dataclass(frozen=True)
class ModulePresentation:
    """A finitely presented module over an algebra presentation.

    ``relations`` are vectors of length ``rank`` over the algebra's full
    context; multiples of the algebra's ideal are implicit and folded in
    when Groebner bases are computed.
    """

    algebra: object
    labels: tuple
    relations: tuple

    def __post_init__(self):
        for rel in self.relations:
            if len(rel) != len(self.labels):
                raise ShapeMismatch("relation length differs from the generator count")
            for c in rel:
                if c.context != self.algebra.context:
                    raise ShapeMismatch("relation entry outside the algebra context")

    @property
    def rank(self):
        return len(self.labels)

    def zero_vector(self):
        z = self.algebra.zero()
        return tuple(z for _ in range(self.rank))

    def unit_vector(self, i):
        z = self.algebra.zero()
        return tuple(self.algebra.one() if j == i else z for j in range(self.rank))

    def gb(self):
        return _module_gb(self, degree_cap.get())

    def reduce(self, v):
        if len(v) != self.rank:
            raise ShapeMismatch(f"vector rank {len(v)} != module rank {self.rank}")
        if self.rank == 0:
            return ()
        return self.gb().normal_form(tuple(v))

    def finite(self):
        """The module on its staircase basis, or None when that basis is infinite."""
        if self.rank == 0:
            return FiniteModule(self, ())
        basis = module_fd_basis(self.gb(), len(self.algebra.context))
        return None if basis is None else FiniteModule(self, tuple(basis))

    def dimension(self):
        fin = self.finite()
        return None if fin is None else len(fin.basis)


@dataclass(frozen=True)
class FiniteModule:
    """A finite-dimensional module with its standard (position, monomial) basis.

    Every staircase matrix of the module is built here: the coordinates of
    normal forms, and the multiplication action of each variable.
    """

    module: ModulePresentation
    basis: tuple

    def vector(self, pos, mono):
        """The vector with the monomial ``mono`` at ``pos`` and zeros elsewhere."""
        A = self.module.algebra
        m = Polynomial(A.context, A.domain, {mono: A.domain.one()})
        return tuple(m if j == pos else A.zero() for j in range(self.module.rank))

    def matrix(self, vectors):
        """Field matrix whose column j holds the coordinates of ``vectors[j]``."""
        M = self.module
        return matrix_on_basis([M.reduce(v) for v in vectors], self.basis, M.algebra.domain)

    def actions(self):
        """Matrices of multiplication by each variable, one per variable."""
        return [
            self.matrix([
                self.vector(pos, mono[:v] + (mono[v] + 1,) + mono[v + 1 :])
                for pos, mono in self.basis
            ])
            for v in range(len(self.module.algebra.context))
        ]


def _ideal_multiples(A, rank):
    """The vectors g·e_i for each generator g of A's ideal and position i."""
    zero = A.zero()
    return [tuple(g if j == i else zero for j in range(rank)) for g in A.ideal for i in range(rank)]


@lru_cache(maxsize=None)
def _module_gb(M, budget):
    """``budget`` is the current degree cap; it only keys the cache."""
    A = M.algebra
    vectors = [tuple(rel) for rel in M.relations] + _ideal_multiples(A, M.rank)
    return module_buchberger(vectors, M.rank, A.context, A.domain, GREVLEX)


def free_module(A, labels):
    return ModulePresentation(A, tuple(labels), ())


@dataclass(frozen=True)
class ModuleMap:
    """A module map phi: source -> target over one algebra.

    ``matrix`` has target.rank rows and source.rank columns, so the j-th
    source generator maps to the j-th column.
    """

    source: ModulePresentation
    target: ModulePresentation
    matrix: tuple

    def __post_init__(self):
        if self.source.algebra != self.target.algebra:
            raise AlgebraMismatch("module map across different algebras")
        if len(self.matrix) != self.target.rank:
            raise ShapeMismatch("matrix row count differs from the target rank")
        for row in self.matrix:
            if len(row) != self.source.rank:
                raise ShapeMismatch("matrix column count differs from the source rank")

    def apply(self, v):
        if len(v) != self.source.rank:
            raise ShapeMismatch("vector does not match the source rank")
        A = self.source.algebra
        out = []
        for i in range(self.target.rank):
            acc = A.zero()
            for j in range(self.source.rank):
                acc = acc + self.matrix[i][j] * v[j]
            out.append(acc)
        return tuple(out)

    def column(self, j):
        return tuple(self.matrix[i][j] for i in range(self.target.rank))


def module_map(source, target, matrix, check=True):
    phi = ModuleMap(source, target, tuple(tuple(row) for row in matrix))
    if check:
        tgb = target.gb() if target.rank else None
        for rel in source.relations:
            image = phi.apply(rel)
            if target.rank and not vec_is_zero(tgb.normal_form(image)):
                raise ShapeMismatch(
                    "matrix does not send source relations into target relations"
                )
    return phi


def module_map_kernel(phi):
    """Generating vectors of Ker(phi), reduced modulo the source relations.

    An empty result certifies injectivity.  Computed from a syzygy basis
    of the matrix columns together with the target relations and the
    folded ideal multiples.
    """
    S, T = phi.source, phi.target
    A = S.algebra
    if S.rank == 0:
        return []
    cols = [phi.column(j) for j in range(S.rank)]
    if T.rank == 0:
        # target is the zero module: the kernel is everything
        raw = [S.unit_vector(j) for j in range(S.rank)]
    else:
        others = [tuple(rel) for rel in T.relations] + _ideal_multiples(A, T.rank)
        syz = syzygy_basis(cols + others, T.rank, A.context, A.domain, GREVLEX)
        raw = [c[: S.rank] for c in syz]
    out = []
    for v in raw:
        r = S.reduce(v)
        if not vec_is_zero(r) and r not in out:
            out.append(r)
    out.sort(key=lambda v: tuple(c.to_str() for c in v))
    return out


# ---------------------------------------------------------------------------
# differentials

def _relative_range(A):
    return range(A.n_base, len(A.context))


def kahler_module(B):
    """The module of differentials of B over its base, on generators d<y_j>."""
    labels = tuple("d" + n for n in B.relative_names)
    rel_vars = list(_relative_range(B))
    relations = []
    for g in B.relative_ideal:
        row = tuple(B.reduce(g.partial(j)) for j in rel_vars)
        relations.append(row)
    return ModulePresentation(B, labels, tuple(relations))


@dataclass(frozen=True)
class CotangentSequence:
    """The three-term comparison for a morphism f : A -> B.

    ``pullback`` presents the A-differentials extended to B, ``middle`` the
    B-differentials, ``v`` the comparison map d<x_i> -> d(f(x_i)), and
    ``cokernel`` the middle module with the image columns added, i.e. the
    differentials of B relative to A.
    """

    morphism: object
    pullback: ModulePresentation
    middle: ModulePresentation
    v: ModuleMap
    cokernel: ModulePresentation


def cotangent_map(f):
    """Build the cotangent sequence of an algebra morphism."""
    A, B = f.source, f.target
    src_rel = list(_relative_range(A))
    tgt_rel = list(_relative_range(B))
    pull_labels = tuple("d" + n for n in A.relative_names)
    pull_rels = []
    for g in A.relative_ideal:
        row = tuple(f.apply(g.partial(i)) for i in src_rel)
        pull_rels.append(row)
    pullback = ModulePresentation(B, pull_labels, tuple(pull_rels))
    middle = kahler_module(B)
    images = f.images
    matrix = [
        [B.reduce(images[i].partial(j)) for i in range(len(src_rel))]
        for j in tgt_rel
    ]
    v = module_map(pullback, middle, matrix, check=True)
    coker_rels = list(middle.relations)
    for i in range(len(src_rel)):
        coker_rels.append(v.column(i))
    cokernel = ModulePresentation(B, middle.labels, tuple(coker_rels))
    return CotangentSequence(f, pullback, middle, v, cokernel)


def relative_kahler(f):
    """Differentials of the target relative to the source of f.

    The target is re-presented over the source (fresh names where needed,
    with one gluing relation per source variable), and the differentials
    of that presentation come back.  The morphism is unramified exactly
    when this module is zero.
    """
    from .presentations import AlgebraPresentation, fresh_names

    A, B = f.source, f.target
    rel_names = fresh_names(A.context.names, B.relative_names)
    names = A.context.names + rel_names
    ctx = VariableContext(names)
    dom = A.domain
    nA = len(A.context)
    embed_a = list(range(nA))
    embed_b = list(range(B.n_base)) + [nA + i for i in range(len(B.relative_names))]
    ideal = [g.rename(ctx, embed_a) for g in A.ideal]
    for g in B.relative_ideal:
        ideal.append(g.rename(ctx, embed_b))
    for i, img in enumerate(f.images):
        x = Polynomial.variable(ctx, dom, A.n_base + i)
        ideal.append(x - img.rename(ctx, embed_b))
    represented = AlgebraPresentation(dom, ctx, tuple(ideal), A)
    return kahler_module(represented)


# ---------------------------------------------------------------------------
# finite-dimensional machinery

@dataclass(frozen=True)
class RetractionResult:
    """``rank`` is the rank of phi's matrix V on the staircase bases."""

    exists: bool
    matrix: object
    rank: int
    source: FiniteModule
    target: FiniteModule


def retraction_solve(phi):
    """Exact search for r with r∘phi = id on finite-dimensional modules.

    The unknown retraction is solved for as a k-linear map constrained to
    commute with every variable's multiplication action, which makes it a
    module map.  Raises NotFiniteDimensional outside the finite regime.
    """
    S, T = phi.source.finite(), phi.target.finite()
    if S is None or T is None:
        raise NotFiniteDimensional("retraction solving needs finite-dimensional modules")
    if not S.basis:
        return RetractionResult(True, [], 0, S, T)
    dom = S.module.algebra.domain
    vmat = T.matrix([phi.apply(S.vector(*pm)) for pm in S.basis])
    rank = matrix_rank(vmat, dom)
    if rank < len(S.basis):
        # R·V = I needs an injective V (so a nonzero module cannot retract
        # through the zero module), and the system would have no solution
        return RetractionResult(False, None, rank, S, T)
    r = retraction_solve_matrices(vmat, S.actions(), T.actions(), dom)
    return RetractionResult(r is not None, r, rank, S, T)


# ---------------------------------------------------------------------------
# verdicts on the comparison map

def _and3(a, b):
    if a is False or b is False:
        return False
    if a is True and b is True:
        return True
    return None


def zero_module_evidence(M):
    """(is_zero, evidence): the first generator that survives, if any."""
    if M.rank == 0:
        return True, {"generators": 0}
    for i in range(M.rank):
        nf = M.reduce(M.unit_vector(i))
        if not vec_is_zero(nf):
            return False, {
                "surviving_generator": M.labels[i],
                "normal_form": [str(c) for c in nf],
            }
    return True, {"generators": M.rank, "all_reduce_to_zero": True}


@dataclass(frozen=True)
class CotangentVerdicts:
    """Three-valued verdicts about the comparison map of a cotangent sequence."""

    monic: tuple
    cokernel_zero: tuple
    split_monic: tuple
    iso: tuple
    regime: str


def classify_cotangent(seq):
    """Decide injectivity, surjectivity-onto, and splitting of v.

    When both modules are finite-dimensional every verdict is exact linear
    algebra on staircase bases; otherwise the kernel comes from syzygies
    and splitting may stay undetermined.
    """
    dom = seq.pullback.algebra.domain
    try:
        ret = retraction_solve(seq.v)
    except NotFiniteDimensional:
        ret = None
    finite = ret is not None
    source = ret.source if finite else seq.pullback.finite()

    coker_zero, coker_ev = zero_module_evidence(seq.cokernel)
    coker_ev = dict(coker_ev)
    coker_ev["module"] = "cokernel"

    if finite:
        monic = ret.rank == len(source.basis)
        monic_ev = {
            "route": "finite",
            "source_dimension": len(source.basis),
            "matrix_rank": ret.rank,
        }
    else:
        kernel = module_map_kernel(seq.v)
        monic = len(kernel) == 0
        monic_ev = {"route": "general", "kernel_generators": [
            [str(c) for c in v] for v in kernel
        ]}

    if source is not None and not source.basis:
        split = True
        split_ev = {"route": "trivial", "reason": "the pulled-back module is zero"}
    elif finite:
        split = ret.exists
        if split:
            split_ev = {
                "route": "finite",
                "retraction": [[dom.coeff_str(dom.normalize(x)) for x in row] for row in ret.matrix],
                "source_basis": [[pos, list(mono)] for pos, mono in ret.source.basis],
                "target_basis": [[pos, list(mono)] for pos, mono in ret.target.basis],
            }
        else:
            split_ev = {"route": "finite", "reason": "the retraction system is infeasible"}
    elif monic is True and coker_zero is True:
        # bijective comparison map: the inverse is a retraction
        split = True
        split_ev = {"route": "iso", "note": "the comparison map is invertible"}
    else:
        split = None
        split_ev = {
            "route": "general",
            "reason": "splitting needs the finite-dimensional regime",
        }

    iso = _and3(monic, coker_zero)
    iso_ev = {"monic": monic, "cokernel_zero": coker_zero}
    return CotangentVerdicts(
        (monic, monic_ev),
        (coker_zero, coker_ev),
        (split, split_ev),
        (iso, iso_ev),
        "finite" if finite else "general",
    )


# ---------------------------------------------------------------------------
# base change

@dataclass(frozen=True)
class BaseChangeResult:
    isomorphic: object
    left_dimension: object
    right_dimension: object
    detail: str


def base_change_check(f, g):
    """Compare differentials after pushout against pushed-forward differentials.

    Forms P = B ⊗_A C, then checks that the differentials of P over C agree
    with the C-extension of the differentials of B over A, via dimension
    count plus an invertible change-of-basis matrix on staircase bases.
    """
    from .presentations import pushout

    po = pushout(f, g)
    P = po.algebra
    seq_right = cotangent_map(po.into_right)
    side1 = seq_right.cokernel

    seq_f = cotangent_map(f)
    relations = []
    for rel in seq_f.cokernel.relations:
        relations.append(tuple(po.into_left.apply(c) for c in rel))
    side2 = ModulePresentation(P, seq_f.cokernel.labels, tuple(relations))

    fin1, fin2 = side1.finite(), side2.finite()
    d1 = None if fin1 is None else len(fin1.basis)
    d2 = None if fin2 is None else len(fin2.basis)
    if fin1 is None or fin2 is None:
        return BaseChangeResult(
            None, d1, d2, "comparison needs finite-dimensional differentials on both sides"
        )
    if d1 != d2:
        return BaseChangeResult(False, d1, d2, "differential dimensions disagree")
    if not d1:
        return BaseChangeResult(True, 0, 0, "both differential modules vanish")
    # canonical map: generator d<y_j> of the pushed-forward side to the same
    # generator of the pushout side (B's relative variables prefix P's), so
    # each standard vector of side2 is read as a vector of side1
    rank = matrix_rank(fin1.matrix([fin1.vector(*pm) for pm in fin2.basis]), P.domain)
    ok = rank == d1
    return BaseChangeResult(
        ok,
        d1,
        d2,
        "canonical map has full rank" if ok else "canonical map drops rank",
    )


# ---------------------------------------------------------------------------
# conormal sequence and the Jacobian splitting test

@dataclass(frozen=True)
class ConormalSequence:
    conormal: ModulePresentation
    delta: ModuleMap


def conormal_sequence(B):
    """Conormal module K/K² with its differential into the free module.

    K is the relative ideal of B inside the polynomial ring over the base;
    delta sends the class of a relation to its differential row.
    """
    gens = list(B.relative_ideal)
    s = len(gens)
    rel_vars = list(_relative_range(B))
    labels = tuple(f"[{g}]" for g in gens)
    if s == 0:
        conormal = ModulePresentation(B, (), ())
    else:
        vectors = [(g,) for g in gens]
        extra = []
        if B.base is not None:
            embed = list(range(len(B.base.context)))
            extra = [(g.rename(B.context, embed),) for g in B.base.ideal]
        syz = syzygy_basis(vectors + extra, 1, B.context, B.domain, GREVLEX)
        relations = [tuple(B.reduce(c) for c in row[:s]) for row in syz]
        relations = [r for r in relations if not vec_is_zero(r)]
        conormal = ModulePresentation(B, labels, tuple(relations))
    target = free_module(B, tuple("d" + n for n in B.relative_names))
    matrix = [
        [B.reduce(g.partial(j)) for g in gens]
        for j in rel_vars
    ]
    delta = module_map(conormal, target, matrix, check=True)
    return ConormalSequence(conormal, delta)


def jacobian_split_verdict(B):
    """(verdict, evidence) for splitting of the conormal differential.

    True means the presentation passes the Jacobian splitting criterion
    over its base; None means the finite-dimensional regime was
    unavailable.
    """
    seq = conormal_sequence(B)
    if seq.conormal.rank == 0:
        return True, {"reason": "no relations: the conormal module is zero"}
    try:
        ret = retraction_solve(seq.delta)
    except NotFiniteDimensional:
        return None, {"reason": "conormal splitting needs finite-dimensional modules"}
    if ret.exists:
        dom = B.domain
        return True, {
            "retraction": [[dom.coeff_str(dom.normalize(x)) for x in row] for row in ret.matrix],
        }
    return False, {"reason": "no module retraction of the conormal differential exists"}

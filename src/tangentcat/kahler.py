"""Differential modules of presented algebras and the cotangent sequence.

The module of differentials of B = k[y]/(relations) over its base is
presented on generators d<y_j> with one Jacobian row per relative relation.
A morphism f : A -> B induces the comparison map v sending d<x_i> to
d(f(x_i)); its kernel, cokernel, and splitting behaviour drive the
classification of f on the geometric side.

Modules are always modules over the presenting algebra: the algebra's
ideal is folded into every Groebner-basis computation, so relations need
not be reduced by it: differential modules keep raw Jacobian rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .errors import ShapeMismatch
from .groebner import (
    GREVLEX,
    free_module_basis,
    module_buchberger,
    syzygy_basis,
    unit,
    vec_is_zero,
)
from .modlin import echelon, module_fd_basis, retraction_solve_matrices
from .polycore import Polynomial, degree_cap, within_cap
from .presentations import absolute, glued_algebra, identity_morphism, pushout


@dataclass(frozen=True)
class ModulePresentation:
    """A finitely presented module over an algebra presentation.

    ``relations`` are vectors of length ``rank`` over the algebra's full
    context; multiples of the algebra's ideal are implicit and folded in
    when Groebner bases are computed.  ``extends`` may name a presentation
    with the same algebra and labels whose relations are a prefix of these:
    the Groebner basis is then that presentation's basis with only the
    further relations run on it.  It changes no result, so ``==`` and
    ``hash`` leave it out.
    """

    algebra: object
    labels: tuple
    relations: tuple
    extends: ModulePresentation = field(default=None, compare=False)

    def __post_init__(self):
        for rel in self.relations:
            if len(rel) != len(self.labels):
                raise ShapeMismatch("relation length differs from the generator count")
            for c in rel:
                if c.context != self.algebra.context:
                    raise ShapeMismatch("relation entry outside the algebra context")
        ext = self.extends
        if ext is not None and (
            (ext.algebra, ext.labels) != (self.algebra, self.labels)
            or self.relations[: len(ext.relations)] != ext.relations
        ):
            raise ShapeMismatch("the extended presentation is not a prefix of this one")

    @property
    def rank(self):
        return len(self.labels)

    def gb(self):
        return _module_gb(self, degree_cap.get())

    def reduce(self, v):
        return self.gb().normal_form(tuple(v))

    def finite(self):
        """The module on its staircase basis, or None when that basis is infinite."""
        basis = module_fd_basis(self.gb(), len(self.algebra.context))
        return None if basis is None else FiniteModule(self, tuple(basis))

    def dimension(self):
        fin = self.finite()
        return None if fin is None else len(fin.basis)


@dataclass(frozen=True)
class FiniteModule:
    """A finite-dimensional module with its standard (position, monomial) basis.

    Its matrices are lists of sparse columns {basis index: coefficient},
    read straight from the terms of normal forms, as modlin's echelon takes
    them: the coordinates of vectors, and the action of each variable.
    """

    module: ModulePresentation
    basis: tuple

    def vector(self, pos, mono):
        """The vector with the monomial ``mono`` at ``pos`` and zeros elsewhere."""
        A = self.module.algebra
        return unit(Polynomial._clean(A.context, A.domain, {mono: A.domain.one()}), pos, self.module.rank)

    def columns(self, vectors):
        """The coordinates of each vector's normal form, as a sparse column."""
        index = {pm: i for i, pm in enumerate(self.basis)}
        return [
            {index[pos, m]: c for pos, comp in enumerate(self.module.reduce(v)) for m, c in comp.terms.items()}
            for v in vectors
        ]

    def actions(self):
        """The sparse columns of multiplication by each variable, one list per variable."""
        return [
            self.columns([
                self.vector(pos, mono[:v] + (mono[v] + 1,) + mono[v + 1 :])
                for pos, mono in self.basis
            ])
            for v in range(len(self.module.algebra.context))
        ]


def _ideal_multiples(A, rank):
    """The vectors g·e_i for each generator g of A's ideal and position i."""
    return [unit(g, i, rank) for g in A.ideal for i in range(rank)]


@lru_cache(maxsize=None)
def _module_gb(M, budget):
    """``budget`` is the current degree cap; it only keys the cache.  A free
    module of positive rank takes the algebra's ring basis in every position,
    and a module that extends another runs its further relations on that
    one's basis."""
    A = M.algebra
    if M.extends is not None:
        extra = M.relations[len(M.extends.relations) :]
        return module_buchberger(extra, M.rank, A.context, A.domain, GREVLEX, seed=M.extends.gb())
    if not M.relations and M.rank:
        return free_module_basis(A.gb().module, M.rank)
    vectors = [tuple(rel) for rel in M.relations] + _ideal_multiples(A, M.rank)
    return module_buchberger(vectors, M.rank, A.context, A.domain, GREVLEX)


def free_module(A, labels):
    return ModulePresentation(A, tuple(labels), ())


def extend_scalars(M, f):
    """M ⊗_A B for f : A -> B, presented over B on M's generators: each
    relation entry is mapped by f."""
    relations = tuple(tuple(f.apply(c) for c in rel) for rel in M.relations)
    return ModulePresentation(f.target, M.labels, relations)


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
            raise ShapeMismatch("module map across different algebras")
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


def module_map(source, target, matrix):
    phi = ModuleMap(source, target, tuple(tuple(row) for row in matrix))
    for rel in source.relations:
        if not vec_is_zero(target.reduce(phi.apply(rel))):
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
    cols = [phi.column(j) for j in range(S.rank)]
    others = [tuple(rel) for rel in T.relations] + _ideal_multiples(A, T.rank)
    syz = syzygy_basis(cols + others, T.rank, A.context, A.domain, GREVLEX)
    out = []
    for c in syz:
        r = S.reduce(c[: S.rank])
        if not vec_is_zero(r) and r not in out:
            out.append(r)
    out.sort(key=lambda v: tuple(c.to_str() for c in v))
    return out


# ---------------------------------------------------------------------------
# differentials

def kahler_module(B):
    """The module of differentials of B over its base, on generators d<y_j>,
    with one raw Jacobian row (dg/dy_j) per relative relation g; reducing a
    row by B's ideal leaves the module as it is.  ``tgc kahler`` prints them reduced."""
    rel_vars = B.covered(over_base=True)
    relations = tuple(tuple(g.partial(j) for j in rel_vars) for g in B.relative_ideal)
    return ModulePresentation(B, tuple("d" + n for n in B.relative_names), relations)


@dataclass(frozen=True)
class CotangentSequence:
    """The three-term comparison for a morphism f : A -> B.

    ``pullback`` presents the A-differentials extended to B, ``middle`` the
    B-differentials, ``v`` the comparison map d<x_i> -> d(f(x_i)), and
    ``cokernel`` the middle module with the image columns added, i.e. the
    differentials of B relative to A.
    """

    pullback: ModulePresentation
    middle: ModulePresentation
    v: ModuleMap
    cokernel: ModulePresentation


def cotangent_map(f):
    """Build the cotangent sequence of an algebra morphism."""
    f = absolute(f)
    B = f.target
    pullback = extend_scalars(kahler_module(f.source), f)
    pullback = replace(pullback, extends=free_module(B, pullback.labels))
    middle = kahler_module(B)
    middle = replace(middle, extends=free_module(B, middle.labels))

    def reduced(p):
        within_cap(p.degree())  # B.reduce would take a unit monomial's power down one degree a step
        return B.reduce(p)

    matrix = [[reduced(img.partial(j)) for img in f.images] for j in B.covered(over_base=True)]
    v = module_map(pullback, middle, matrix)
    coker_rels = middle.relations + tuple(v.column(i) for i in range(pullback.rank))
    cokernel = ModulePresentation(B, middle.labels, coker_rels, middle)
    return CotangentSequence(pullback, middle, v, cokernel)


def relative_kahler(f):
    """Differentials of the target relative to the source of f.

    The algebra of the pushout of id_A and f (built without the pushout's
    legs, which nothing here reads) presents the target over the source A: A's
    variables and relations come first, then the target's relative ones
    under fresh names, glued by x - f(x) for each variable x that f covers.
    Its differentials over A come back.  The morphism is unramified exactly
    when this module is zero.
    """
    f = absolute(f)
    glued, _ = glued_algebra(identity_morphism(f.source), f)
    return kahler_module(replace(glued, base=f.source))


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
    module map.  None outside the finite regime.
    """
    S, T = phi.source.finite(), phi.target.finite()
    if S is None or T is None:
        return None
    if not S.basis:
        return RetractionResult(True, [], 0, S, T)
    dom = S.module.algebra.domain
    v_cols = T.columns([phi.apply(S.vector(*pm)) for pm in S.basis])
    rank = len(echelon(v_cols, dom).pivots)
    if rank < len(S.basis):
        # R·V = I needs an injective V (so a nonzero module cannot retract
        # through the zero module), and the system would have no solution
        return RetractionResult(False, None, rank, S, T)
    r = retraction_solve_matrices(v_cols, len(T.basis), S.actions(), T.actions(), dom)
    return RetractionResult(r is not None, r, rank, S, T)


# ---------------------------------------------------------------------------
# verdicts on the comparison map

def zero_module_evidence(M):
    """(is_zero, evidence): the first generator that survives, if any."""
    if M.rank == 0:
        return True, {"generators": 0}
    for i in range(M.rank):
        nf = M.reduce(unit(M.algebra.one(), i, M.rank))
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
    ret = retraction_solve(seq.v)
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
                "retraction": [[str(x) for x in row] for row in ret.matrix],
                "source_basis": [[pos, list(mono)] for pos, mono in ret.source.basis],
                "target_basis": [[pos, list(mono)] for pos, mono in ret.target.basis],
            }
        else:
            split_ev = {"route": "finite", "reason": "the retraction system is infeasible"}
    elif monic and coker_zero:
        # bijective comparison map: the inverse is a retraction
        split = True
        split_ev = {"route": "iso", "note": "the comparison map is invertible"}
    else:
        split = None
        split_ev = {
            "route": "general",
            "reason": "splitting needs the finite-dimensional regime",
        }

    iso = monic and coker_zero
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
    po = pushout(f, g)
    P = po.algebra
    seq_right = cotangent_map(po.into_right)
    side1 = seq_right.cokernel

    side2 = extend_scalars(cotangent_map(f).cokernel, po.into_left)

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
    rank = len(echelon(fin1.columns([fin1.vector(*pm) for pm in fin2.basis]), P.domain).pivots)
    ok = rank == d1
    return BaseChangeResult(
        ok,
        d1,
        d2,
        "canonical map has full rank" if ok else "canonical map drops rank",
    )


# ---------------------------------------------------------------------------
# conormal sequence and the Jacobian splitting test

def conormal_sequence(B):
    """The differential δ from the conormal module K/K², its source, into the
    free module on the d<y_j>.

    K is the relative ideal of B inside the polynomial ring over the base;
    δ sends the class of a relation to its differential row.
    """
    gens = list(B.relative_ideal)
    s = len(gens)
    labels = tuple(f"[{g}]" for g in gens)
    # B's ideal is the base relations followed by gens
    base_rows = [(g,) for g in B.ideal[: len(B.ideal) - s]]
    syz = syzygy_basis([(g,) for g in gens] + base_rows, 1, B.context, B.domain, GREVLEX)
    relations = [tuple(B.reduce(c) for c in row[:s]) for row in syz]
    relations = [r for r in relations if not vec_is_zero(r)]
    conormal = ModulePresentation(B, labels, tuple(relations))
    omega = kahler_module(B)
    # δ's matrix is the transpose of Ω_B's Jacobian rows, reduced
    matrix = [[B.reduce(rel[j]) for rel in omega.relations] for j in range(omega.rank)]
    return module_map(conormal, free_module(B, omega.labels), matrix)


def jacobian_split_verdict(B):
    """(verdict, evidence) for splitting of the conormal differential.

    True means the presentation passes the Jacobian splitting criterion
    over its base; None means the finite-dimensional regime was
    unavailable.
    """
    delta = conormal_sequence(B)
    if delta.source.rank == 0:
        return True, {"reason": "no relations: the conormal module is zero"}
    ret = retraction_solve(delta)
    if ret is None:
        return None, {"reason": "conormal splitting needs finite-dimensional modules"}
    if ret.exists:
        return True, {
            "retraction": [[str(x) for x in row] for row in ret.matrix],
        }
    return False, {"reason": "no module retraction of the conormal differential exists"}

"""Randomized corroboration of symbolic results.

Two independent cross-checks live here.  ``identity_check`` compares
polynomials by sampling modulo a large prime (Schwartz-Zippel): a single
differing sample refutes equality exactly, while agreement on every sample
only corroborates it.  ``replay_evidence`` re-verifies the certificates a
classification report carries -- witnesses, preimages, kernel generators,
right inverses -- by direct substitution, which is far weaker machinery
than the searches that produced them.  Neither check ever decides a
verdict; they only confirm or contradict one.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (
    ContextMismatch,
    DomainMismatch,
    EmbeddingFailure,
    EvidenceMismatch,
    IllDefinedMorphism,
)
from .presentations import (
    AlgebraPresentation,
    absolute,
    codiagonal,
    compose,
    morphism,
    pushout,
    section_witness_fault,
)

MERSENNE_61 = 2**61 - 1
SAMPLES = 32
SEED = 0


def _residues(poly, p):
    """The terms of a polynomial with coefficients embedded in F_p."""
    out = []
    for mono, coeff in poly.terms.items():
        den = coeff.denominator % p  # 1 for the integer domains
        if den == 0:
            raise EmbeddingFailure(f"denominator {coeff.denominator} vanishes modulo {p}")
        out.append((mono, coeff.numerator % p * pow(den, -1, p) % p))
    return out


def _eval_mod(residues, point, p):
    """Evaluate terms from ``_residues`` at a point of F_p."""
    total = 0
    for mono, c in residues:
        for v, e in zip(point, mono):
            if e:
                c = c * pow(v, e, p) % p
        total = (total + c) % p
    return total


def identity_check(p, q):
    """Sample two polynomials at SAMPLES random points drawn from seed SEED.

    Returns "definitely_unequal" on the first differing sample and
    "probably_equal" when all samples agree.  Polynomials over F_p are
    sampled modulo their own prime, everything else modulo MERSENNE_61.
    Once the degree reaches the modulus, sampling proves nothing (x^p - x
    vanishes on all of F_p), so the coefficients are compared instead.
    """
    if p.context != q.context:
        raise ContextMismatch("cannot compare across contexts")
    if p.domain != q.domain:
        raise DomainMismatch("cannot compare across domains")
    modulus = p.domain.p if p.domain.kind == "Fp" else MERSENNE_61
    if max(p.degree(), q.degree()) >= modulus:
        return "probably_equal" if p == q else "definitely_unequal"
    rng = random.Random(SEED)
    nvars = len(p.context)
    rp, rq = _residues(p, modulus), _residues(q, modulus)
    for _ in range(SAMPLES):
        point = [rng.randrange(modulus) for _ in range(nvars)]
        if _eval_mod(rp, point, modulus) != _eval_mod(rq, point, modulus):
            return "definitely_unequal"
    return "probably_equal"


def maps_probably_equal(f, g):
    """Componentwise identity check for two polynomial maps."""
    if f.arity_out != g.arity_out:
        return "definitely_unequal"
    for a, b in zip(f.components, g.components):
        if identity_check(a, b) == "definitely_unequal":
            return "definitely_unequal"
    return "probably_equal"


# ---------------------------------------------------------------------------
# certificate replay

def _fail(predicate, claim, detail):
    raise EvidenceMismatch(
        f"evidence for {predicate} ({claim}) failed to replay: {detail}"
    )


def _replay_kernel_generators(predicate, f, texts, claim="kernel_generators"):
    for text in texts:
        gen = f.source.parse(text)
        if f.source.reduce(gen).is_zero():
            _fail(predicate, claim, f"{text} is zero in the source")
        if not f.apply(gen).is_zero():
            _fail(predicate, claim, f"{text} does not map to zero")


def _replay_preimages(predicate, f, preimages):
    names = list(f.target.context.names)
    for var_name, text in preimages.items():
        pre = f.source.parse(text)
        target_var = f.target.var(names.index(var_name))
        if not f.target.reduce(f.apply(pre) - target_var).is_zero():
            _fail(predicate, "preimages", f"{text} does not hit {var_name}")


def _replay_witness(predicate, f, text, kernel):
    fault = section_witness_fault(f, kernel, f.source.parse(text))
    if fault:
        _fail(predicate, "witness", f"{text} {fault}")


def _stored_kernel(report, f, predicate):
    """The report's kernel generators, checked to generate Ker(f) without a
    kernel search: the stored preimages give a well-defined g from B to
    C = A/(relations, generators) with g∘f = id_C, so f is injective on C."""
    monic = report.predicates["T_monic"].evidence
    preimages = report.predicates["T_submersion"].evidence.get("preimages")
    if preimages is None or (monic.get("kernel") != "zero" and "kernel_generators" not in monic):
        _fail(predicate, "witness", "the report stores no kernel generators or preimages")
    A, B = f.source, f.target
    kernel = [A.parse(t) for t in monic.get("kernel_generators", ())]
    C = AlgebraPresentation(A.domain, A.context, A.ideal + tuple(kernel), A.base)
    names = B.context.names
    try:
        images = tuple(A.parse(preimages[names[i]]) for i in B.covered(f.over_base))
        g = morphism(B, C, images, over_base=f.over_base)
    except (KeyError, IllDefinedMorphism):
        _fail(predicate, "witness", "the stored preimages do not define a map back to the source")
    for i, img in enumerate(compose(g, f).var_images):
        if not C.reduce(img - C.var(i)).is_zero():
            _fail(predicate, "witness", "the stored kernel generators do not generate the kernel")
    return kernel


def _parse_matrix(rows, p):
    if p is None:
        return [[Fraction(x) for x in row] for row in rows]
    return [[int(x) % p for x in row] for row in rows]


def _replay_right_inverse(predicate, matrix, right, p):
    mat = _parse_matrix(matrix, p)
    inv = _parse_matrix(right, p)
    m = len(mat)
    for i in range(m):
        for j in range(m):
            acc = sum(mat[i][k] * inv[k][j] for k in range(len(inv)))
            if p is not None:
                acc %= p
            want = 1 if i == j else 0
            if acc != want:
                _fail(predicate, "right_inverse", f"entry ({i}, {j}) is {acc}, not {want}")


def _replay_kernel_vector(predicate, matrix, vec, p):
    mat = _parse_matrix(matrix, p)
    v = _parse_matrix([vec], p)[0]
    if all(x == 0 for x in v):
        _fail(predicate, "kernel_vector", "the claimed kernel vector is zero")
    for i, row in enumerate(mat):
        acc = sum(a * b for a, b in zip(row, v))
        if p is not None:
            acc %= p
        if acc != 0:
            _fail(predicate, "kernel_vector", f"row {i} does not annihilate the vector")


def replay_evidence(report, morphism=None):
    """Re-check every replayable certificate in a classification report.

    For the algebra-side instances the morphism object must be supplied;
    linear-fragment reports replay against the matrix stored in their own
    annotations.  Contradicted evidence raises EvidenceMismatch; the return
    value lists what was corroborated.
    """
    results = []

    def record(predicate, claim, status="corroborated"):
        results.append({"predicate": predicate, "claim": claim, "status": status})

    if report.instance in ("calg", "affine"):
        if morphism is None:
            return [{"status": "not_replayable",
                     "note": "algebra-side replay needs the morphism object"}]
        f = absolute(morphism) if report.instance == "affine" else morphism
        mu = None
        for predicate, status in report.predicates.items():
            ev = status.evidence
            # an affine report's kernel generators are module vectors, not polynomials
            if report.instance == "affine" and ev.get("kernel_generators"):
                record(predicate, "kernel_generators", "not_replayable")
            elif "kernel_generators" in ev:
                _replay_kernel_generators(predicate, f, ev["kernel_generators"])
                record(predicate, "kernel_generators")
            if "codiagonal_kernel_generators" in ev:
                if mu is None:
                    mu = codiagonal(pushout(f, f), f)
                _replay_kernel_generators(predicate, mu, ev["codiagonal_kernel_generators"],
                                          claim="codiagonal_kernel_generators")
                record(predicate, "codiagonal_kernel_generators")
            if "preimages" in ev:
                _replay_preimages(predicate, f, ev["preimages"])
                record(predicate, "preimages")
            if "witness" in ev:
                _replay_witness(predicate, f, ev["witness"], _stored_kernel(report, f, predicate))
                record(predicate, "witness")
            if "missing_preimages" in ev and status.status == "fails":
                record(predicate, "missing_preimages", "not_replayable")
    elif report.instance == "cdc-linear":
        matrix = report.annotations.get("matrix")
        if matrix is None:
            return [{"status": "not_replayable",
                     "note": "no matrix annotation on this report"}]
        p = report.annotations.get("p") if report.annotations.get("domain") == "Fp" else None
        for predicate, status in report.predicates.items():
            ev = status.evidence
            if "right_inverse" in ev:
                _replay_right_inverse(predicate, matrix, ev["right_inverse"], p)
                record(predicate, "right_inverse")
            if ev.get("kernel_vector"):
                _replay_kernel_vector(predicate, matrix, ev["kernel_vector"], p)
                record(predicate, "kernel_vector")
    if not results:
        results.append({"status": "nothing_to_replay"})
    return results

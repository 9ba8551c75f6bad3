"""Reference helpers on polynomials and morphisms that only the tests read:
leading terms, monic scaling, evaluation at a point, and a morphism's
images keyed by variable name."""

from __future__ import annotations

from tangentcat.errors import ShapeMismatch
from tangentcat.polycore import GREVLEX


def leading_term(p, order=GREVLEX):
    """(monomial, coefficient) of the largest term of ``p``, or None if zero."""
    if not p.terms:
        return None
    m = max(p.terms, key=order.key)
    return m, p.terms[m]


def monic(p, order=GREVLEX):
    """``p`` divided by its leading coefficient (fields only)."""
    lt = leading_term(p, order)
    if lt is None:
        return p
    dom = p.domain
    return p.scale(dom.div(dom.one(), lt[1]))


def evaluate(p, values):
    """``p`` at a point given as one domain element per variable."""
    if len(values) != len(p.context):
        raise ShapeMismatch(f"expected {len(p.context)} values, got {len(values)}")
    dom, q = p.domain, p.domain.p
    vals = [dom.normalize(v) for v in values]
    total = dom.zero()
    for m, c in p.terms.items():
        acc = c
        for v, e in zip(vals, m):
            if e:
                acc = acc * pow(v, e, q) % q if q else acc * v**e
        total = (total + acc) % q if q else total + acc
    return dom.normalize(total)


def describe(f):
    """The images of an algebra morphism, keyed by the source variable each covers."""
    names = f.source.context.names
    return {names[i]: str(img) for i, img in zip(f.source.covered(f.over_base), f.images)}

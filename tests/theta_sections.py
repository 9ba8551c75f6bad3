"""A family of polynomial maps with exact sections of their theta bundle
maps, shared by the cdc unit tests and the acceptance suite."""

from __future__ import annotations

from tangentcat.cdc import CdcMap, cdc_context, projection_map, random_polynomial, section_context
from tangentcat.errors import ShapeMismatch
from tangentcat.polycore import Polynomial


def random_theta_section(rng, domain, n, m, max_degree=2):
    """A map f: n -> m together with an exact, generally nonlinear section.

    f sends the first m coordinates to themselves plus polynomials in the
    remaining ones, so its differential is unipotent in the fibre block;
    choosing the tail directions freely and solving for the leading ones
    gives an exact section of theta(f), nonlinear when the tail choices are.
    """
    if m > n:
        raise ShapeMismatch("this family needs at least as many inputs as outputs")
    ctx = cdc_context(n)
    sctx = section_context(n, m)
    tail = list(range(m, n))
    comps = []
    for i in range(m):
        c = Polynomial.variable(ctx, domain, i)
        if tail:
            extra = random_polynomial(rng, ctx, domain, max_degree, 2)
            c = c + extra.rename(ctx, [None] * m + tail)
        comps.append(c)
    f = CdcMap(domain, ctx, tuple(comps))

    tail_choices = [
        random_polynomial(rng, sctx, domain, max_degree, 2) for _ in tail
    ]
    fibre = [None] * n
    for k, j in enumerate(tail):
        fibre[j] = tail_choices[k]
    for i in range(m):
        lead = Polynomial.variable(sctx, domain, n + i)
        for k, j in enumerate(tail):
            slope = f.components[i].partial(j).rename(sctx, list(range(n)))
            lead = lead - slope * tail_choices[k]
        fibre[i] = lead
    base = projection_map(domain, n + m, range(n), sctx).components
    return f, CdcMap(domain, sctx, base + tuple(fibre))

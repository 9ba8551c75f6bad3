"""Line-oriented workspace files and the ``tgc`` command.

A workspace declares coefficient fields, presented algebras (optionally
over a base), algebra morphisms, polynomial maps, and sections:

    field Q
    base R = vars(t)
    algebra B over R = vars() / (t^2)
    morphism q : A -> B over R = { }
    cdcmap fold : 2 -> 1 over N = (x1 + x2)
    section s for f = (w1, w1^2 + x1*w1)

Exit codes: 0 success, 2 parse error, 3 any other engine error, 4 undetermined
verdict under --strict, 5 resource limit, 6 inconsistent results.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from dataclasses import dataclass, field

from .classify import (
    PREDICATES,
    classify_affine,
    classify_calg,
)
from .cdc import (
    MAX_ARITY,
    CdcMap,
    cdc_context,
    cdc_map,
    classify_cdc_map,
    fibre_linear,
    full_section,
    linearize_section,
    random_cdc_map,
    random_polynomial,
    section_context,
    theta_laws,
    verify_cdc_axioms,
    verify_tangent_identities,
)
from .errors import (
    EvidenceMismatch,
    IllDefinedMorphism,
    InconsistentClassification,
    ParseError,
    ResourceLimit,
    TangentError,
)
from .kahler import (
    base_change_check,
    classify_cotangent,
    cotangent_map,
    kahler_module,
    zero_module_evidence,
)
from .oracle import replay_evidence
from .polycore import (
    NN,
    PRIME_TEST_LIMIT,
    QQ,
    ZZ,
    degree_cap,
    poly_parse,
    prime_field,
    read_int,
    within_cap,
)
from .presentations import free_algebra, morphism, present


# ---------------------------------------------------------------------------
# workspace model

@dataclass
class Workspace:
    algebras: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    morphism_decls: dict = field(default_factory=dict)
    cdcmaps: dict = field(default_factory=dict)
    sections: dict = field(default_factory=dict)


_NAME = r"[A-Za-z_]\w*"
ALG_RE = re.compile(
    rf"(base|algebra)\s+({_NAME})(?:\s+over\s+({_NAME}))?"
    rf"\s*=\s*vars\(([^)]*)\)\s*(?:/\s*\((.*)\))?\s*$"
)
MOR_RE = re.compile(
    rf"morphism\s+({_NAME})\s*:\s*({_NAME})\s*->\s*({_NAME})"
    rf"(?:\s+over\s+({_NAME}))?\s*=\s*\{{(.*)\}}\s*$"
)
CDC_RE = re.compile(
    rf"cdcmap\s+({_NAME})\s*:\s*(\d+)\s*->\s*(\d+)\s+over\s+"
    rf"(Q|Z|N|Fp\s+\d+)\s*=\s*\((.*)\)\s*$"
)
SEC_RE = re.compile(rf"section\s+({_NAME})\s+for\s+({_NAME})\s*=\s*\((.*)\)\s*$")
FIELD_RE = re.compile(r"field\s+(Q|Z|N|Fp(?:\s+\d+)?)\s*$")


def _split_top(text, ln):
    """Split on commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced parentheses", line=ln)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ParseError("unbalanced parentheses", line=ln)
    parts.append("".join(cur))
    return parts


def _domain_from_spec(spec, ln):
    """The domain of a spec ``FIELD_RE`` or ``CDC_RE`` admitted: Q, Z, N or Fp."""
    if not spec.startswith("Fp"):
        return {"Q": QQ, "Z": ZZ, "N": NN}[spec]
    rest = spec[2:].strip()
    if not rest:
        raise ParseError("Fp needs a prime, e.g. `Fp 5`", line=ln)
    p = read_int(rest)
    if p >= PRIME_TEST_LIMIT:
        return prime_field(p)  # UnsupportedDomain: a semantic error, exit 3
    try:
        return prime_field(p)
    except TangentError as e:
        raise ParseError(str(e), line=ln)


def _require_new(ws, name, ln):
    for table in (ws.algebras, ws.morphisms, ws.cdcmaps, ws.sections):
        if name in table:
            raise ParseError(f"the name {name!r} is already bound", line=ln)


def _lookup(table, kind, name, line=None):
    """``table[name]``, or a parse error naming the unknown ``kind``."""
    if name not in table:
        raise ParseError(f"unknown {kind} {name!r}", line=line)
    return table[name]


def _parse_poly(text, ctx, dom, ln):
    try:
        return poly_parse(text.strip(), ctx, dom)
    except ParseError as e:
        raise ParseError(f"in {text.strip()!r}: {e}", line=ln, column=e.column)


def _identifiers(text, ln):
    names = [t.strip() for t in text.split(",")] if text.strip() else []
    for n in names:
        if not re.fullmatch(_NAME, n):
            raise ParseError(f"bad variable name {n!r}", line=ln)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name", line=ln)
    return tuple(names)


def parse_workspace(text):
    ws = Workspace()
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "field":
            m = FIELD_RE.fullmatch(line)
            if not m:
                raise ParseError("expected `field Q` or `field Fp <prime>`", line=ln)
            spec = m.group(1)
            if spec in ("Z", "N"):
                raise ParseError(
                    "algebra coefficients must form a field; use Q or Fp "
                    "(Z and N are for cdcmap declarations)",
                    line=ln,
                )
            current = _domain_from_spec(spec, ln)
        elif head in ("base", "algebra"):
            m = ALG_RE.fullmatch(line)
            if not m:
                raise ParseError(f"malformed {head} declaration", line=ln)
            kind, name, over, vars_txt, rels_txt = m.groups()
            if kind == "base" and over:
                raise ParseError("a base algebra cannot itself sit over a base", line=ln)
            _require_new(ws, name, ln)
            names = _identifiers(vars_txt, ln)
            base = None
            if over:
                base = _lookup(ws.algebras, "base", over, ln)
                dom = base.domain
                clash = set(names) & set(base.context.names)
                if clash:
                    raise ParseError(
                        f"variable {sorted(clash)[0]!r} already names a base variable",
                        line=ln,
                    )
            else:
                if current is None:
                    raise ParseError("declare a field before any algebra", line=ln)
                dom = current
            full = present(dom, names, (), base=base).context
            rels = []
            if rels_txt is not None:
                for part in _split_top(rels_txt, ln):
                    if part.strip():
                        rels.append(_parse_poly(part, full, dom, ln))
            ws.algebras[name] = present(dom, names, rels, base=base)
        elif head == "morphism":
            m = MOR_RE.fullmatch(line)
            if not m:
                raise ParseError("malformed morphism declaration", line=ln)
            name, src_name, tgt_name, over, pairs_txt = m.groups()
            _require_new(ws, name, ln)
            src = _lookup(ws.algebras, "algebra", src_name, ln)
            tgt = _lookup(ws.algebras, "algebra", tgt_name, ln)
            if over:
                base = _lookup(ws.algebras, "base", over, ln)
                if src.base != base or tgt.base != base:
                    raise ParseError(
                        f"both sides must be algebras over {over!r}", line=ln
                    )
            expected = [src.context.names[i] for i in src.covered(bool(over))]
            given = {}
            for part in _split_top(pairs_txt, ln):
                if not part.strip():
                    continue
                if "->" not in part:
                    raise ParseError(f"expected `var -> polynomial` in {part!r}", line=ln)
                lhs, rhs = part.split("->", 1)
                var = lhs.strip()
                if var not in expected:
                    raise ParseError(
                        f"{var!r} is not a variable the morphism must cover", line=ln
                    )
                if var in given:
                    raise ParseError(f"duplicate image for {var!r}", line=ln)
                given[var] = _parse_poly(rhs, tgt.context, tgt.domain, ln)
            missing = [v for v in expected if v not in given]
            if missing:
                raise ParseError(f"missing image for {missing[0]!r}", line=ln)
            try:
                f = morphism(
                    src, tgt, tuple(given[v] for v in expected), over_base=bool(over)
                )
            except IllDefinedMorphism as e:
                raise IllDefinedMorphism(
                    f"line {ln}: {e}", relation=e.relation, residue=e.residue
                )
            except ResourceLimit:
                raise
            except TangentError as e:
                raise ParseError(str(e), line=ln)
            ws.morphisms[name] = f
            ws.morphism_decls[name] = (src_name, tgt_name, over)
        elif head == "cdcmap":
            m = CDC_RE.fullmatch(line)
            if not m:
                raise ParseError("malformed cdcmap declaration", line=ln)
            name, n_txt, m_txt, dom_spec, comps_txt = m.groups()
            _require_new(ws, name, ln)
            n, m_out = read_int(n_txt), read_int(m_txt)
            if n > MAX_ARITY:
                raise ResourceLimit(f"input arity {n} exceeds the limit of {MAX_ARITY}")
            dom = _domain_from_spec(dom_spec, ln)
            ctx = cdc_context(n)
            if comps_txt.strip():
                comps = [
                    _parse_poly(part, ctx, dom, ln)
                    for part in _split_top(comps_txt, ln)
                ]
            else:
                comps = []
            if len(comps) != m_out:
                raise ParseError(
                    f"declared {m_out} components but found {len(comps)}", line=ln
                )
            ws.cdcmaps[name] = cdc_map(dom, n, comps, context=ctx)
        elif head == "section":
            m = SEC_RE.fullmatch(line)
            if not m:
                raise ParseError("malformed section declaration", line=ln)
            name, map_name, comps_txt = m.groups()
            _require_new(ws, name, ln)
            fmap = _lookup(ws.cdcmaps, "cdcmap", map_name, ln)
            ctx = section_context(fmap.arity_in, fmap.arity_out)
            comps = [
                _parse_poly(part, ctx, fmap.domain, ln)
                for part in _split_top(comps_txt, ln)
            ]
            s = CdcMap(fmap.domain, ctx, tuple(comps))
            try:
                s = full_section(fmap, s)
            except TangentError as e:
                raise ParseError(str(e), line=ln)
            ws.sections[name] = (map_name, s)
        else:
            raise ParseError(f"unknown declaration {head!r}", line=ln)
    return ws


def load_workspace(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read workspace {path!r}: {e}")
    return parse_workspace(text)


# ---------------------------------------------------------------------------
# output helpers

_SUMMARY_KEYS = (
    "witness", "kernel_generators", "codiagonal_kernel_generators",
    "kernel", "codiagonal_kernel", "kernel_vector", "right_inverse",
    "rank", "rational_rank", "determinant", "smith_invariants",
    "zero_columns", "preimages", "missing_preimages", "route",
    "surviving_generator", "reason", "note",
)


def _evidence_summary(status):
    if status.reason:
        return status.reason
    ev = status.evidence
    for key in _SUMMARY_KEYS:
        if key in ev:
            val = ev[key]
            if isinstance(val, dict):
                val = ", ".join(f"{k}={v}" for k, v in val.items())
            elif isinstance(val, (list, tuple)):
                val = ", ".join(str(x) for x in val)
            text = f"{key}: {val}"
            return text if len(text) <= 44 else text[:41] + "..."
    return ""


def human_report(report):
    lines = [
        f"morphism : {report.morphism}",
        f"instance : {report.instance}",
        f"base     : {report.base or '-'}",
        "-" * 78,
        f"{'predicate':<22}{'verdict':<14}evidence",
        "-" * 78,
    ]
    for name in PREDICATES:
        st = report.predicates[name]
        shown = name.replace("T_", "T-").replace("_", " ")  # split_T_submersion: split T-submersion
        lines.append(f"{shown:<22}{st.status:<14}{_evidence_summary(st)}")
    lines.append("-" * 78)
    checked = sum(1 for c in report.coherence if c["status"] == "checked")
    skipped = sum(1 for c in report.coherence if c["status"] == "skipped")
    lines.append(f"coherence: {checked} laws checked, {skipped} skipped")
    jac = report.annotations.get("jacobian_criterion")
    if jac:
        lines.append(f"jacobian criterion: {jac['verdict']}")
    note = report.annotations.get("note")
    if note:
        lines.append(f"note: {note}")
    replay = report.annotations.get("oracle_replay")
    if replay:
        good = sum(1 for r in replay if r["status"] == "corroborated")
        lines.append(f"oracle: {good} certificates corroborated")
    return "\n".join(lines)


class _Unwritable(Exception):
    """The ``--json`` path cannot be written: a usage error, exit 2."""


def _write_output(doc, human, args):
    """Write the JSON report to ``--json PATH`` first, so that nothing reaches
    stdout when PATH cannot be written, then the human table to stdout; with
    ``--json -`` the JSON goes to stdout instead of the table."""
    path = getattr(args, "json", None)
    rendered = json.dumps(doc, indent=2) + "\n"
    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            raise _Unwritable(f"cannot write the JSON report to {path!r}: {e.strerror}")
    sys.stdout.write(rendered if path == "-" else human + "\n")


def _write_command(args, command, lines, **fields):
    """Write a command's report: the JSON header, then ``fields`` in order."""
    _write_output({"schema_version": "1", "command": command, **fields}, "\n".join(lines), args)


def _verdict_value(pair):
    value, evidence = pair
    return {"value": value, "evidence": evidence}


# ---------------------------------------------------------------------------
# commands

def _cmd_classify(args):
    ws = load_workspace(args.workspace)
    if args.instance in ("calg", "affine"):
        f = _lookup(ws.morphisms, "morphism", args.morphism)
        base_name = ws.morphism_decls[args.morphism][2]
        if args.instance == "calg":
            report = classify_calg(f, args.morphism, base_name)
        else:
            report = classify_affine(f, args.morphism, base_name)
        oracle_target = f
    else:
        report = classify_cdc_map(_cdcmap(ws, args.morphism), args.morphism)
        oracle_target = None
    if args.oracle:
        report.annotations["oracle_replay"] = replay_evidence(report, oracle_target)
    _write_output(report.to_json(), human_report(report), args)
    if args.strict and any(
        report.predicates[p].status == "undetermined" for p in PREDICATES
    ):
        return 4
    return 0


def _cmd_kahler(args):
    ws = load_workspace(args.workspace)
    alg = _lookup(ws.algebras, "algebra", args.algebra)
    module = kahler_module(alg)
    is_zero, zero_ev = zero_module_evidence(module)
    dim = module.dimension()
    lines = [
        f"differentials of {args.algebra}",
        f"generators : {', '.join(module.labels) or '(none)'}",
        f"relations  : {len(module.relations)}",
        f"zero module: {'yes' if is_zero else 'no'}",
        f"dimension  : {dim if dim is not None else 'not finite-dimensional'}",
    ]
    _write_command(
        args, "kahler", lines,
        algebra=args.algebra,
        generators=list(module.labels),
        relations=[[str(alg.reduce(c)) for c in row] for row in module.relations],
        is_zero=is_zero,
        dimension=dim,
    )
    return 0


def _cmd_cotangent(args):
    ws = load_workspace(args.workspace)
    f = _lookup(ws.morphisms, "morphism", args.morphism)
    seq = cotangent_map(f)
    verdicts = classify_cotangent(seq)
    show = lambda pair: {True: "yes", False: "no", None: "undetermined"}[pair[0]]
    lines = [
        f"comparison map of differentials for {args.morphism}",
        f"matrix rows ({len(seq.v.matrix)}): "
        + "; ".join("[" + ", ".join(str(c) for c in row) + "]" for row in seq.v.matrix),
        f"monic       : {show(verdicts.monic)}",
        f"cokernel 0  : {show(verdicts.cokernel_zero)}",
        f"split monic : {show(verdicts.split_monic)}",
        f"isomorphism : {show(verdicts.iso)}",
        f"regime      : {verdicts.regime}",
    ]
    _write_command(
        args, "cotangent", lines,
        morphism=args.morphism,
        pullback_generators=list(seq.pullback.labels),
        target_generators=list(seq.middle.labels),
        matrix=[[str(c) for c in row] for row in seq.v.matrix],
        verdicts={name: _verdict_value(getattr(verdicts, name))
                  for name in ("monic", "cokernel_zero", "split_monic", "iso")},
        regime=verdicts.regime,
    )
    return 0


def _within_degree_cap(components):
    """Refuse polynomials above the degree cap with the Groebner engine's
    message: cdc composition and differentiation would expand them in full."""
    for c in components:
        within_cap(c.degree())


def _map_degree(fmap):
    """The largest component degree, at least 0: a zero component has degree -1."""
    return max([0] + [c.degree() for c in fmap.components])


def _cdcmap(ws, name):
    """A declared cdcmap whose components stay within the degree cap."""
    fmap = _lookup(ws.cdcmaps, "cdcmap", name)
    _within_degree_cap(fmap.components)
    return fmap


def _all_laws(f, g):
    """The differential axioms, then naturality and the bundle-map laws."""
    return verify_cdc_axioms(f, g) + verify_tangent_identities(f, g)


def _cmd_cdc_axioms(args):
    ws = load_workspace(args.workspace)
    f = _cdcmap(ws, args.map)
    g = _cdcmap(ws, args.partner) if args.partner else None
    if g is not None and g.arity_in == f.arity_out:
        within_cap(_map_degree(f) * _map_degree(g))  # the laws build g after f
    checks = _all_laws(f, g)
    lines = [f"axioms and naturality for {args.map}"]
    for c in checks:
        mark = "ok  " if c.holds else "FAIL"
        lines.append(f"{mark} {c.name}" + (f"  ({c.detail})" if c.detail else ""))
    _write_command(
        args, "cdc-axioms", lines,
        map=args.map,
        partner=args.partner,
        laws=[{"name": c.name, "holds": c.holds, "detail": c.detail} for c in checks],
    )
    return 0 if all(c.holds for c in checks) else 6


def _cmd_cdc_linearize(args):
    ws = load_workspace(args.workspace)
    f = _cdcmap(ws, args.map)
    for_name, s = _lookup(ws.sections, "section", args.section)
    if for_name != args.map:
        raise ParseError(f"section {args.section!r} was declared for {for_name!r}")
    _within_degree_cap(s.components)
    result = linearize_section(f, s)
    linear = fibre_linear(result, f.arity_in)
    lines = [
        f"linearized section of theta({args.map})",
        f"components  : {result.describe()}",
        f"fibre-linear: {'yes' if linear else 'no'}",
        "section     : yes",
    ]
    _write_command(
        args, "cdc-linearize", lines,
        map=args.map,
        section=args.section,
        components=[str(c) for c in result.components],
        fibre_linear=linear,
        is_section=True,
    )
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _law_suite(domains, max_arity, laws, count, seed):
    """Draw a domain, arities n, m, l up to ``max_arity`` and random maps
    f : n -> m and g : m -> l per case; collect the laws that fail."""
    rng = random.Random(seed)
    failures = []
    for case in range(count):
        dom = domains[rng.randrange(len(domains))]
        n, m, l = (rng.randint(1, max_arity) for _ in range(3))
        f = random_cdc_map(rng, dom, n, m)
        g = random_cdc_map(rng, dom, m, l)
        failures += [{"case": case, "law": chk.name, "detail": chk.detail}
                     for chk in laws(f, g) if not chk.holds]
    return failures


def _suite_theta_laws(count, seed):
    return _law_suite((QQ, QQ, prime_field(5), ZZ, NN), 3, theta_laws, count, seed)


def _suite_tangent_identities(count, seed):
    return _law_suite((QQ, prime_field(5), ZZ, NN), 2, _all_laws, count, seed)


def _parabola_case():
    a = free_algebra(QQ, ("t",))
    b = free_algebra(QQ, ("x",))
    c = present(QQ, ("y",), (free_algebra(QQ, ("y",)).var(0),))
    return morphism(a, b, (b.var(0) ** 2,)), morphism(a, c, (c.zero(),))


def _suite_base_change(count, seed):
    rng = random.Random(seed)
    failures = []
    cases = [("parabola", _parabola_case())]
    a = free_algebra(QQ, ("t",))
    x = free_algebra(QQ, ("x",)).var(0)
    y = free_algebra(QQ, ("y",)).var(0)
    for case in range(count):
        k, j = rng.randint(1, 3), rng.randint(1, 3)
        b = present(QQ, ("x",), (x ** k,))
        c = present(QQ, ("y",), (y ** j,))
        u = random_polynomial(rng, x.context, QQ, max_degree=max(k - 1, 1), max_terms=2)
        v = random_polynomial(rng, y.context, QQ, max_degree=max(j - 1, 1), max_terms=2)
        f = morphism(a, b, (u,))
        g = morphism(a, c, (v,))
        cases.append((f"random_{case}", (f, g)))
    for label, (f, g) in cases:
        res = base_change_check(f, g)
        if res.isomorphic is not True:
            failures.append(
                {"case": label, "law": "base_change", "detail": res.detail}
            )
    return failures


SUITES = {
    "theta-laws": (_suite_theta_laws, 100),
    "tangent-identities": (_suite_tangent_identities, 50),
    "base-change": (_suite_base_change, 20),
}


def _cmd_verify(args):
    runner, default_count = SUITES[args.suite]
    count = args.count if args.count is not None else default_count
    failures = runner(count, args.seed)
    lines = [f"suite {args.suite}: {count} cases, {len(failures)} failures (seed {args.seed})"]
    for item in failures:
        lines.append(f"FAIL case {item['case']}: {item['law']} {item['detail']}")
    _write_command(
        args, "verify", lines,
        suite=args.suite,
        count=count,
        seed=args.seed,
        oracle=bool(args.oracle),
        failures=failures,
    )
    return 0 if not failures else 6


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.cache
def build_parser():
    """The ``tgc`` argument parser, built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write a JSON report (- for stdout)")
    common.add_argument("--degree-cap", type=int, metavar="N", help="abort once any degree exceeds N")
    workspace = argparse.ArgumentParser(add_help=False, parents=[common])
    workspace.add_argument("--workspace", required=True)

    parser = argparse.ArgumentParser(
        prog="tgc", description="classify morphisms by their tangent-bundle behaviour"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[workspace], help="run the seven predicates")
    p.add_argument("--instance", required=True, choices=("calg", "affine", "cdc-linear"))
    p.add_argument("--morphism", required=True)
    p.add_argument("--oracle", action="store_true", help="replay evidence certificates")
    p.add_argument("--strict", action="store_true", help="exit 4 on undetermined verdicts")
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("kahler", parents=[workspace], help="differentials of one algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(run=_cmd_kahler)

    p = sub.add_parser("cotangent", parents=[workspace], help="comparison map of a morphism")
    p.add_argument("--morphism", required=True)
    p.set_defaults(run=_cmd_cotangent)

    p = sub.add_parser("cdc", help="polynomial-map commands")
    cdx = p.add_subparsers(dest="cdc_command", required=True)
    q = cdx.add_parser("axioms", parents=[workspace], help="check the differential axioms")
    q.add_argument("--map", required=True)
    q.add_argument("--with", dest="partner", default=None)
    q.set_defaults(run=_cmd_cdc_axioms)
    q = cdx.add_parser("linearize", parents=[workspace], help="linearize a bundle section")
    q.add_argument("--map", required=True)
    q.add_argument("--section", required=True)
    q.set_defaults(run=_cmd_cdc_linearize)

    p = sub.add_parser("verify", parents=[common], help="randomized law suites")
    p.add_argument("--suite", required=True, choices=tuple(SUITES))
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    p.add_argument("--oracle", action="store_true", help="recorded in the report; no suite reads it")
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "count", None) is not None and args.count < 0:
        parser.error(f"--count must be 0 or more, got {args.count}")
    cap = args.degree_cap
    if cap is not None and cap < 0:
        parser.error(f"--degree-cap must be 0 or more, got {cap}")
    token = degree_cap.set(degree_cap.get() if cap is None else cap)
    try:
        return _dispatch(args)
    finally:
        degree_cap.reset(token)


def _dispatch(args):
    try:
        return args.run(args)
    except ParseError as e:
        where = ""
        if e.line is not None:
            where = f" at line {e.line}"
            if e.column is not None:
                where += f", column {e.column}"
        print(f"tgc: parse error{where}: {e}", file=sys.stderr)
        return 2
    except _Unwritable as e:
        print(f"tgc: {e}", file=sys.stderr)
        return 2
    except ResourceLimit as e:
        print(f"tgc: resource limit: {e}", file=sys.stderr)
        return 5
    except (InconsistentClassification, EvidenceMismatch) as e:
        print(f"tgc: inconsistency: {e}", file=sys.stderr)
        return 6
    except TangentError as e:
        print(f"tgc: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

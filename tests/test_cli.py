"""Unit tests for the tgc command line interface.

Tests for CLI functionality including:
- Workspace parsing: locations in errors, duplicate names, bad references
- Golden JSON reports for every subcommand
- Human-readable output format
- Exit codes: 0 ok, 2 parse, 3 semantic, 4 strict, 5 resource, 6 inconsistency
- Determinism of serialized reports
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from tangentcat import cdc
from tangentcat.cdc import cdc_context, random_polynomial, section_context
from tangentcat.cli import _dispatch, main, parse_workspace
from tangentcat.errors import InconsistentClassification, ShapeMismatch
from tangentcat.groebner import degree_cap
from tangentcat.polycore import NN, QQ, ZZ, VariableContext, prime_field

from conftest import DATA, run_cli, scrub_timings
from poly_reference import describe

ROOT = Path(__file__).resolve().parent.parent
WORKSPACE = str(DATA / "figure1.tgc")


def tgc(*argv: str) -> tuple[int, str]:
    return run_cli(argv)


class TestWorkspaceParsing:
    """Test error reporting while loading a workspace file."""

    def test_expression_error_has_line_and_column(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A bad polynomial points at the offending token."""
        ws = tmp_path / "bad.tgc"
        ws.write_text(
            "field Q\nalgebra A = vars(x)\n"
            "morphism f : A -> A = { x -> x + * y }\n"
        )
        code = main(["classify", "--workspace", str(ws),
                     "--instance", "calg", "--morphism", "f"])
        assert code == 2
        err = capsys.readouterr().err
        assert "parse error at line 3, column 5" in err
        assert "expected a variable, number, or '(', got '*'" in err

    def test_duplicate_names_are_rejected(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """Rebinding a name is a parse error at the second binding."""
        ws = tmp_path / "dup.tgc"
        ws.write_text("field Q\nalgebra A = vars(x)\nalgebra A = vars(y)\n")
        code = main(["kahler", "--workspace", str(ws), "--algebra", "A"])
        assert code == 2
        assert "line 3: the name 'A' is already bound" in capsys.readouterr().err

    def test_unknown_morphism_reference(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """Classifying an undeclared morphism is caught before any math."""
        code = main(["classify", "--workspace", WORKSPACE,
                     "--instance", "calg", "--morphism", "nosuch"])
        assert code == 2
        assert "unknown morphism 'nosuch'" in capsys.readouterr().err

    def test_algebras_must_live_over_a_field(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """Z and N coefficients are for cdcmap declarations only."""
        ws = tmp_path / "zfield.tgc"
        ws.write_text("field Z\n")
        code = main(["kahler", "--workspace", str(ws), "--algebra", "A"])
        assert code == 2
        err = capsys.readouterr().err
        assert "algebra coefficients must form a field" in err

    @pytest.mark.parametrize(
        "modulus,code",
        [
            ("2305843009213693951", 0),  # 2^61 - 1, the oracle's prime
            ("2305843009213693953", 2),  # 2^61 + 1 = 3 * 768614336404564651
            ("561", 2),  # a Carmichael number
            ("3317044064679887385961981", 3),  # past the exact prime test
            pytest.param("7" * 5000, 5, id="5000-digits"),  # refused before int() reads it
        ],
    )
    def test_field_modulus_exit_codes(
        self, tmp_path: Path, modulus: str, code: int
    ) -> None:
        """Composite moduli are parse errors; unsupported ones exit 3, and
        ones past 4,300 digits exit 5."""
        ws = tmp_path / "field.tgc"
        ws.write_text(f"field Fp {modulus}\nalgebra A = vars(x) / (x^2)\n")
        assert main(["kahler", "--workspace", str(ws), "--algebra", "A"]) == code

    def test_ill_defined_morphism_reports_the_residue(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """Images that break a relation name the nonzero residue."""
        ws = tmp_path / "illdef.tgc"
        ws.write_text(
            "field Q\nalgebra A = vars(t) / (t^2)\nalgebra B = vars(x)\n"
            "morphism f : A -> B = { t -> x }\n"
        )
        code = main(["classify", "--workspace", str(ws),
                     "--instance", "calg", "--morphism", "f"])
        assert code == 3
        assert "relation t^2 maps to nonzero residue x^2" in capsys.readouterr().err

    def test_axiom_partner_over_another_domain(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A --with partner over Z for a map over Q is a semantic error."""
        ws = tmp_path / "mixed.tgc"
        ws.write_text(
            "cdcmap f : 1 -> 1 over Q = (x1^2)\n"
            "cdcmap g : 1 -> 1 over Z = (2*x1)\n"
        )
        code = main(["cdc", "axioms", "--workspace", str(ws),
                     "--map", "f", "--with", "g"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == "tgc: polynomials live over different domains\n"

    @pytest.mark.parametrize("f, g", [("fold", "shear"), ("shear", "fold")])
    def test_a_partner_over_n_against_q_is_refused_by_the_pairing(
        self, workspace_path: str, f: str, g: str, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """fold is over N and shear over Q: CD4 pairs the two maps before CD5
        composes them, and must refuse rather than compare sums that print
        alike over two domains as a failed law (exit 6)."""
        code = main(["cdc", "axioms", "--workspace", workspace_path, "--map", f, "--with", g])
        assert code == 3
        assert capsys.readouterr().err == "tgc: pairing across domains\n"

    @pytest.mark.parametrize("text, message", [
        ("field Q\nalgebra A = vars(x, x)\n", "line 2: duplicate variable name"),
        ("field Q\nbase R = vars(t)\nbase S over R = vars(u)\n",
         "line 3: a base algebra cannot itself sit over a base"),
        ("algebra A = vars(x)\n", "line 1: declare a field before any algebra"),
        ("field Q\nalgebra A = vars(x)\nmorphism f : A -> A = { x -> x, x -> 1 }\n",
         "line 3: duplicate image for 'x'"),
        ("field Q\nalgebra A = vars(x)\nmorphism f : A -> A = { }\n",
         "line 3: missing image for 'x'"),
        ("field Q\nalgebra A = vars(x)\nfield Fp 5\nalgebra B = vars(y)\n"
         "morphism f : A -> B = { x -> y }\n", "line 5: source and target domains differ"),
        # three outputs fit a section of a 1 -> 3 map, not of f : 1 -> 1
        ("cdcmap f : 1 -> 1 over Q = (x1^2)\nsection s for f = (w1, w1, w1)\n",
         "line 2: a section must have 1 fibre outputs or 2 full outputs, got 3"),
        ("field Q\nalgebra A = vars(x) / ((x+1)\n", "line 2: unbalanced parentheses"),
        (None, "cannot read workspace"),
        (b"field Q\nalgebra A = vars(x)\n\xff\n", "cannot read workspace"),
    ], ids=["duplicate-variable", "base-over-a-base", "algebra-before-field", "duplicate-image",
            "missing-image", "across-fields", "section-of-another-map", "unbalanced-parentheses",
            "missing-file", "not-utf-8"])
    def test_parse_errors_exit_2_with_their_message(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str], text: str | None, message: str
    ) -> None:
        ws = tmp_path / "ws.tgc"
        if isinstance(text, bytes):
            ws.write_bytes(text)
        elif text is not None:
            ws.write_text(text)
        assert main(["kahler", "--workspace", str(ws), "--algebra", "A"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tgc: parse error") and message in err

    def test_a_digit_int_cannot_read_is_a_parse_error_at_its_column(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """'²' passes str.isdigit but not int(): it is an unexpected character."""
        ws = tmp_path / "ws.tgc"
        ws.write_text("field Q\nalgebra A = vars(x) / (x^²)\n", encoding="utf-8")
        assert main(["kahler", "--workspace", str(ws), "--algebra", "A"]) == 2
        assert capsys.readouterr().err == (
            "tgc: parse error at line 2, column 3: in 'x^²': unexpected character '²'\n"
        )

    def test_linearize_refuses_a_section_declared_for_another_map(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        code = main(["cdc", "linearize", "--workspace", WORKSPACE,
                     "--map", "cube", "--section", "s"])
        assert code == 2
        assert capsys.readouterr().err == "tgc: parse error: section 's' was declared for 'tap'\n"


GOLDEN = [
    ("calg_point.json",
     ["classify", "--instance", "calg", "--morphism", "point", "--oracle"]),
    ("calg_trunc.json",
     ["classify", "--instance", "calg", "--morphism", "trunc"]),
    ("affine_qrel.json",
     ["classify", "--instance", "affine", "--morphism", "qrel"]),
    ("affine_trunc.json",
     ["classify", "--instance", "affine", "--morphism", "trunc"]),
    ("affine_structure.json",
     ["classify", "--instance", "affine", "--morphism", "structure", "--oracle"]),
    ("cdc_fold.json",
     ["classify", "--instance", "cdc-linear", "--morphism", "fold"]),
    ("cdc_crush.json",
     ["classify", "--instance", "cdc-linear", "--morphism", "crush", "--oracle"]),
    ("kahler_D2.json", ["kahler", "--algebra", "D2"]),
    ("cotangent_trunc.json", ["cotangent", "--morphism", "trunc"]),
    ("linearize_tap.json", ["cdc", "linearize", "--map", "tap", "--section", "s"]),
]


def domain_label(dom):
    """A coefficient domain as a workspace spells it."""
    return f"Fp {dom.p}" if dom.kind == "Fp" else dom.kind


def emit_workspace(ws):
    """Workspace text that parses back to ``ws``: the algebras in declaration
    order, then the morphisms, cdcmaps and sections.  An algebra over a base
    names the declared algebra that is its base object."""
    lines, current_label = [], None
    for name, alg in ws.algebras.items():
        head = f"algebra {name}"
        if alg.base is None:
            label = domain_label(alg.domain)
            if label != current_label:
                lines.append(f"field {label}")
                current_label = label
        else:
            head += " over " + next(b for b, base in ws.algebras.items() if base is alg.base)
        body = f"vars({', '.join(alg.relative_names)})"
        if alg.relative_ideal:
            body += " / (" + ", ".join(str(r) for r in alg.relative_ideal) + ")"
        lines.append(f"{head} = {body}")
    for name, f in ws.morphisms.items():
        src, tgt, over = ws.morphism_decls[name]
        head = f"morphism {name} : {src} -> {tgt}" + (f" over {over}" if over else "")
        pairs = ", ".join(f"{v} -> {img}" for v, img in describe(f).items())
        lines.append(f"{head} = {{ {pairs} }}" if pairs else f"{head} = {{}}")
    for name, fmap in ws.cdcmaps.items():
        comps = ", ".join(str(c) for c in fmap.components)
        lines.append(
            f"cdcmap {name} : {fmap.arity_in} -> {fmap.arity_out} "
            f"over {domain_label(fmap.domain)} = ({comps})"
        )
    for name, (map_name, s) in ws.sections.items():
        comps = ", ".join(str(c) for c in s.components)
        lines.append(f"section {name} for {map_name} = ({comps})")
    return "\n".join(lines) + "\n"


def _random_poly(rng, names, dom):
    """Polynomial text over ``names``, with proper fractions over Q."""
    p = random_polynomial(rng, VariableContext(tuple(names)), dom, max_degree=2)
    if dom == QQ:
        p = p.scale(Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3, 7))))
    return str(p)


def _random_workspace(seed):
    """Workspace text with every declaration kind, drawn from ``seed``."""
    rng = random.Random(seed)
    lines = []
    for k in range(rng.randint(1, 3)):
        dom = rng.choice((QQ, prime_field(2), prime_field(5), prime_field(7)))
        rels = ", ".join(_random_poly(rng, "ab", dom) for _ in range(rng.randint(1, 2)))
        images = ", ".join(f"{v} -> {_random_poly(rng, 'ab', dom)}" for v in "ab")
        lines += [
            f"field {domain_label(dom)}",
            f"algebra F{k} = vars(a, b)",
            f"algebra Q{k} = vars(a, b) / ({rels})",
            f"morphism q{k} : F{k} -> Q{k} = {{ {images} }}",
            f"algebra P{k} = vars()",
            f"morphism e{k} : P{k} -> F{k} = {{}}",
            f"base R{k} = vars(t)" + rng.choice(("", " / (t^3)")),
            f"algebra AR{k} over R{k} = vars(s)",
            f"algebra BR{k} over R{k} = vars(s) / ({_random_poly(rng, 'ts', dom)})",
            f"morphism m{k} : AR{k} -> BR{k} over R{k} = {{ s -> {_random_poly(rng, 'ts', dom)} }}",
        ]
    for k in range(rng.randint(1, 3)):
        dom = rng.choice((QQ, ZZ, NN, prime_field(3)))
        n, m = rng.randint(1, 3), rng.randint(0, 2)
        comps = [_random_poly(rng, cdc_context(n).names, dom) for _ in range(m)]
        fibre = [_random_poly(rng, section_context(n, m).names, dom) for _ in range(n)]
        lines += [
            f"cdcmap c{k} : {n} -> {m} over {domain_label(dom)} = ({', '.join(comps)})",
            f"section s{k} for c{k} = ({', '.join(fibre)})",
        ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text",
    [(DATA / "figure1.tgc").read_text()] + [_random_workspace(seed) for seed in range(12)],
    ids=["figure1"] + [f"seed{seed}" for seed in range(12)],
)
def test_emit_workspace_round_trips(text: str) -> None:
    """parse -> emit -> parse -> emit is a fixed point on text and objects."""
    first = parse_workspace(text)
    emitted = emit_workspace(first)
    second = parse_workspace(emitted)
    assert emit_workspace(second) == emitted
    for table in ("algebras", "morphisms", "cdcmaps", "sections"):
        assert getattr(second, table) == getattr(first, table), table


class TestGoldenReports:
    """Byte-compare JSON output against the stored expectation files."""

    @pytest.mark.parametrize("expected,argv", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_matches_stored_report(self, expected: str, argv: list[str]) -> None:
        """Each command reproduces its golden file after scrubbing timings."""
        if argv[0] == "cdc":
            full = argv[:2] + ["--workspace", WORKSPACE] + argv[2:] + ["--json", "-"]
        else:
            full = argv[:1] + ["--workspace", WORKSPACE] + argv[1:] + ["--json", "-"]
        code, out = tgc(*full)
        assert code == 0
        stored = (DATA / "expected" / expected).read_text()
        assert scrub_timings(out) == stored

    def test_json_flag_writes_a_file_and_keeps_stdout_human(
        self, tmp_path: Path
    ) -> None:
        """--json PATH writes the document beside the human report."""
        target = tmp_path / "out.json"
        code, out = tgc("kahler", "--workspace", WORKSPACE,
                        "--algebra", "D2", "--json", str(target))
        assert code == 0
        assert out.startswith("differentials of D2")
        doc = json.loads(target.read_text())
        assert doc["generators"] == ["dx"]
        assert doc["dimension"] == 2

    @pytest.mark.parametrize("where", ["missing/out.json", "."], ids=["missing-directory", "a-directory"])
    def test_an_unwritable_json_path_is_a_usage_error(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str], where: str
    ) -> None:
        """The file is written before the table, so a path that cannot be
        written prints nothing to stdout and one line to stderr."""
        target = str(tmp_path / where)
        code = main(["kahler", "--workspace", WORKSPACE, "--algebra", "D2", "--json", target])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("tgc: cannot write the JSON report to ")
        assert repr(target) in captured.err and captured.err.count("\n") == 1


UNFIXED_BASE = """\
field Q
base R = vars(t)
algebra AR over R = vars()
algebra B = vars(x)
algebra C = vars(t)
morphism m : AR -> B = { t -> x^2 }
morphism n : AR -> C = { t -> t }
"""


def test_a_morphism_that_does_not_fix_the_base_is_classified_absolutely(tmp_path: Path) -> None:
    """Without ``over`` the images cover every source variable and the base
    is not fixed: m is Q[t] -> Q[x], t -> x^2, and n is the identity of Q[t]."""
    ws = tmp_path / "unfixed.tgc"
    ws.write_text(UNFIXED_BASE)

    def affine(name: str) -> dict:
        code, out = tgc("classify", "--workspace", str(ws), "--instance", "affine",
                        "--morphism", name, "--oracle", "--json", "-")
        assert code == 0, out
        doc = json.loads(out)
        replay = doc["annotations"]["oracle_replay"]
        assert replay and all(r["status"] == "corroborated" for r in replay)
        return {k: v["status"] for k, v in doc["predicates"].items()}

    assert set(affine("n").values()) == {"holds"}
    assert affine("m") == {
        "T_monic": "fails",  # x - x_1 is in the kernel of the codiagonal
        "T_immersion": "fails",  # dx survives in Q[x]/(2x) dx
        "T_unramified": "fails",
        "T_submersion": "holds",  # dt -> 2x dx is injective
        "split_T_submersion": "undetermined",
        "T_etale": "fails",
        "monic_T_etale": "fails",
    }
    code, out = tgc("cotangent", "--workspace", str(ws), "--morphism", "n")
    assert code == 0
    assert "matrix rows (1): [1]" in out and "isomorphism : yes" in out


def test_affine_module_kernel_generators_are_not_replayed(tmp_path: Path) -> None:
    """The affine T_submersion kernel is a list of module vectors, which the
    oracle records as not replayable instead of parsing them as polynomials."""
    ws = tmp_path / "z.tgc"
    ws.write_text("field Q\nalgebra A = vars(t)\nalgebra B = vars(x)\n"
                  "morphism z : A -> B = { t -> 0 }\n")
    code, out = tgc("classify", "--workspace", str(ws), "--instance", "affine",
                    "--morphism", "z", "--oracle", "--json", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicates"]["T_submersion"]["evidence"]["kernel_generators"] == [["1"]]
    assert {"predicate": "T_submersion", "claim": "kernel_generators",
            "status": "not_replayable"} in doc["annotations"]["oracle_replay"]


def test_a_map_to_no_outputs_has_the_same_right_inverse_over_z_and_q(tmp_path: Path) -> None:
    """The 0 x 3 matrix of a map 3 -> 0 has three empty rows as its right
    inverse, over Z through the Smith form as over Q through the echelon."""
    ws = tmp_path / "empty.tgc"
    ws.write_text("cdcmap z : 3 -> 0 over Z = ()\ncdcmap q : 3 -> 0 over Q = ()\n")
    inverses = []
    for name in ("z", "q"):
        code, out = tgc("classify", "--workspace", str(ws), "--instance", "cdc-linear",
                        "--morphism", name, "--oracle", "--json", "-")
        assert code == 0, out
        evidence = json.loads(out)["predicates"]["split_T_submersion"]["evidence"]
        inverses.append(evidence["right_inverse"])
    assert inverses == [[[], [], []]] * 2


class TestHumanOutput:
    """Test the fixed-width terminal rendering."""

    def test_classify_table(self) -> None:
        """The report shows one row per predicate plus a coherence line."""
        code, out = tgc("classify", "--workspace", WORKSPACE,
                        "--instance", "calg", "--morphism", "point")
        assert code == 0
        assert out.splitlines()[0] == "morphism : point"
        assert "T-monic               fails         kernel_generators: x" in out
        assert "split T-submersion    holds         witness: -x + 1" in out
        assert "coherence: 5 laws checked, 0 skipped" in out

    def test_axiom_listing(self) -> None:
        """Each axiom and naturality law prints an ok line."""
        code, out = tgc("cdc", "axioms", "--workspace", WORKSPACE,
                        "--map", "cube", "--with", "fold")
        assert code == 0
        for name in ("CD5_chain_rule", "CD7_symmetry", "flip_involution"):
            assert f"ok   {name}" in out

    def test_linearize_summary(self) -> None:
        """Linearization prints components and the section verdict."""
        code, out = tgc("cdc", "linearize", "--workspace", WORKSPACE,
                        "--map", "tap", "--section", "s")
        assert code == 0
        assert "components  : (x1, x2, w1, x1*w1)" in out
        assert "fibre-linear: yes" in out

    def test_verify_suite_summary(self) -> None:
        """The verify command reports cases, failures, and the seed."""
        code, out = tgc("verify", "--suite", "theta-laws",
                        "--count", "5", "--seed", "3")
        assert code == 0
        assert out.strip() == "suite theta-laws: 5 cases, 0 failures (seed 3)"


def test_law_suites_pin_their_failures_under_a_doubled_differential(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """With D[f] doubled, each randomized law suite at seed 0 fails exactly
    these (case, law) pairs: the suites draw their domains, arities and maps
    in a fixed order and check a fixed list of laws per case."""
    true_d = cdc.differential
    monkeypatch.setattr(cdc, "differential", lambda f: cdc.add_maps(true_d(f), true_d(f)))
    every = ("CD3_identity_and_projections", "CD5_chain_rule", "CD6_lift",
             "lift_naturality", "theta_composition", "theta_flip")
    lift = ("CD3_identity_and_projections", "CD6_lift", "lift_naturality", "theta_flip")
    bare = ("CD3_identity_and_projections", "theta_flip")
    identities = {3: bare, 5: bare, 14: bare, 15: bare, 17: bare,
                  4: lift, 12: lift, 13: lift, 16: lift, 18: lift}
    theta = {7: ("theta_flip",), 13: ("theta_flip",)}
    expected = {
        "theta-laws": [(case, law) for case in range(20)
                       for law in theta.get(case, ("theta_composition", "theta_flip"))],
        "tangent-identities": [(case, law) for case in range(20)
                               for law in identities.get(case, every)],
    }
    for suite, pairs in expected.items():
        code, out = tgc("verify", "--suite", suite, "--count", "20", "--seed", "0", "--json", "-")
        assert code == 6
        assert [(f["case"], f["law"]) for f in json.loads(out)["failures"]] == pairs


class TestExitCodes:
    """Test the documented exit code contract."""

    def test_strict_flags_undetermined_verdicts(self) -> None:
        """--strict exits 4 when any predicate stays undetermined."""
        code, _ = tgc("classify", "--workspace", WORKSPACE,
                      "--instance", "cdc-linear", "--morphism", "fold",
                      "--strict")
        assert code == 4

    def test_strict_passes_on_decided_reports(self) -> None:
        """--strict exits 0 when every predicate is decided."""
        code, _ = tgc("classify", "--workspace", WORKSPACE,
                      "--instance", "cdc-linear", "--morphism", "shear",
                      "--strict")
        assert code == 0

    def test_degree_cap_stops_the_computation(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A low cap aborts with the resource-limit exit code."""
        code = main(["classify", "--workspace", WORKSPACE,
                     "--instance", "calg", "--morphism", "point",
                     "--degree-cap", "1"])
        assert code == 5
        err = capsys.readouterr().err
        assert "resource limit: polynomial degree 2 exceeds the degree cap 1" in err

    def test_deep_powers_in_a_relation_hit_the_degree_cap(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """Checking x^1200 under a morphism builds its powers without recursing."""
        ws = tmp_path / "deep.tgc"
        ws.write_text(
            "field Q\nalgebra A = vars(x) / (x^1200)\nalgebra B = vars(y) / (y)\n"
            "morphism f : A -> B = { x -> y }\n"
        )
        code, _ = run_cli(["classify", "--workspace", str(ws),
                           "--instance", "calg", "--morphism", "f"])
        assert code == 5
        assert "degree 1200 exceeds the degree cap 64" in capsys.readouterr().err

    def test_a_power_above_the_cap_exits_before_it_is_expanded(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """(x+1)^3000 would expand to 3001 terms; parsing refuses it first."""
        ws = tmp_path / "power.tgc"
        ws.write_text(
            "field Q\nalgebra A = vars(x) / ((x+1)^3000)\nalgebra B = vars(y) / (y)\n"
            "morphism f : A -> B = { x -> y }\n"
        )
        start = time.perf_counter()
        code, _ = run_cli(["classify", "--workspace", str(ws),
                           "--instance", "calg", "--morphism", "f"])
        assert time.perf_counter() - start < 2.0
        assert code == 5
        assert "degree 3000 exceeds the degree cap 64" in capsys.readouterr().err

    def test_a_huge_power_of_a_constant_exits_before_it_is_computed(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """3^30000000 has degree 0 but 47.5 million bits; parsing refuses it first."""
        ws = tmp_path / "constant.tgc"
        ws.write_text(
            "field Q\nalgebra A = vars(x) / (x - 3^30000000)\nalgebra B = vars(y) / (y)\n"
            "morphism f : A -> B = { x -> 0 }\n"
        )
        start = time.perf_counter()
        code, _ = run_cli(["classify", "--workspace", str(ws),
                           "--instance", "calg", "--morphism", "f"])
        assert time.perf_counter() - start < 2.0
        assert code == 5
        assert "about 47548875 bits exceeds the budget of 65536 bits" in capsys.readouterr().err

    def test_a_unit_monomial_power_above_the_cap_exits_while_a_morphism_is_checked(
        self, tmp_path: Path
    ) -> None:
        """The parser lets y^100000000000 through, since a unit monomial's power
        costs nothing to build; checking the morphism meets the cap before it
        reduces the image y^200000000000 one degree at a time.  Bound: 5 s."""
        ws = tmp_path / "unit_power.tgc"
        ws.write_text(
            "field Q\nalgebra A = vars(x) / (x^2)\nalgebra B = vars(y) / (y^2 - y - 1)\n"
            "morphism q : A -> B = { x -> y^100000000000 }\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "tangentcat.cli", "classify", "--workspace", str(ws),
             "--instance", "calg", "--morphism", "q"],
            env=env, capture_output=True, text=True, timeout=5,
        )
        assert (done.returncode, done.stdout) == (5, "")
        assert "polynomial degree 200000000000 exceeds the degree cap 64" in done.stderr

    @pytest.mark.parametrize(("target", "image", "degree"), [
        ("vars(y) / (y^2 - y - 1)", "y^100000000000", 99999999999),
        ("vars(y) / (y^2)", "y^100", 99),
    ], ids=("hang", "cheap-reduction"))
    def test_a_unit_monomial_image_above_the_cap_exits_before_its_derivative_is_reduced(
        self, tmp_path: Path, target: str, image: str, degree: int
    ) -> None:
        """With no source relation to check, a unit-monomial image first meets
        the cap where ``cotangent`` takes its derivative, before reducing it
        one degree at a time.  The check refuses every derivative above the
        cap, also one that would reduce to 0 in a step.  Bound: 5 s."""
        ws = tmp_path / "unit_image.tgc"
        ws.write_text(
            f"field Q\nalgebra A = vars(x)\nalgebra B = {target}\n"
            f"morphism q : A -> B = {{ x -> {image} }}\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "tangentcat.cli", "cotangent", "--workspace", str(ws),
             "--morphism", "q"],
            env=env, capture_output=True, text=True, timeout=5,
        )
        assert (done.returncode, done.stdout) == (5, "")
        assert f"polynomial degree {degree} exceeds the degree cap 64" in done.stderr

    def test_cdc_axioms_refuse_a_composite_above_the_cap_before_any_law_runs(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """Each component of f is within the cap, but the laws would build f after f,
        of degree 20 * 20 = 400; the command exits 5 at once instead."""
        ws = tmp_path / "composite.tgc"
        ws.write_text("cdcmap f : 3 -> 3 over Q = ((x1+x2+x3)^20, x2, x3)\n")
        start = time.perf_counter()
        code, out = run_cli(["cdc", "axioms", "--workspace", str(ws), "--map", "f", "--with", "f"])
        assert time.perf_counter() - start < 3.0
        assert (code, out) == (5, "")
        assert "polynomial degree 400 exceeds the degree cap 64" in capsys.readouterr().err

    def test_cdc_linearize_accepts_a_section_whose_factors_fit_the_cap(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """theta(f) is linear in its fibre, so theta(f) after s has degree at most
        deg f - 1 + deg s; two degree-20 factors linearize under the default cap."""
        ws = tmp_path / "section.tgc"
        ws.write_text(
            "cdcmap f : 2 -> 2 over Q = (x1 + x2^20, x2)\n"
            "section s for f = (w1 - 20*x2^19*w2, w2)\n"
        )
        code, out = run_cli(["cdc", "linearize", "--workspace", str(ws), "--map", "f",
                             "--section", "s"])
        assert code == 0
        assert "fibre-linear: yes" in out

    def test_a_long_integer_literal_exits_5_without_a_traceback(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A 5,000-digit coefficient, or cdcmap arity, is refused before int() reads it."""
        big = "9" * 5000
        ws = tmp_path / "long.tgc"
        ws.write_text(
            f"field Q\nalgebra A = vars(x) / (x - {big})\nalgebra B = vars(y) / (y)\n"
            "morphism f : A -> B = { x -> 0 }\n"
        )
        code, out = run_cli(["classify", "--workspace", str(ws),
                             "--instance", "calg", "--morphism", "f"])
        assert (code, out) == (5, "")
        assert "an integer literal of 5000 digits exceeds the limit of 4300 digits" in capsys.readouterr().err
        for decl in (f"{big} -> 1", f"1 -> {big}"):
            ws.write_text(f"cdcmap f : {decl} over Q = (x1)\n")
            code, out = run_cli(["classify", "--workspace", str(ws),
                                 "--instance", "cdc-linear", "--morphism", "f"])
            assert (code, out) == (5, "")
            assert "5000 digits exceeds the limit" in capsys.readouterr().err

    def test_a_huge_cdcmap_arity_exits_before_any_context_is_built(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """An input arity of 10^6 would name a million variables (about 10 s and
        1 GB); it exits 5 at once.  The limit itself, 1,000, still classifies."""
        ws = tmp_path / "wide.tgc"
        ws.write_text("cdcmap f : 1000000 -> 1 over Q = (x1)\n")
        start = time.perf_counter()
        code, out = run_cli(["classify", "--workspace", str(ws),
                             "--instance", "cdc-linear", "--morphism", "f"])
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (5, "")
        assert "input arity 1000000 exceeds the limit of 1000" in capsys.readouterr().err
        ws.write_text("cdcmap f : 1000 -> 1 over Q = (x1)\n")
        code, _ = run_cli(["classify", "--workspace", str(ws),
                           "--instance", "cdc-linear", "--morphism", "f"])
        assert code == 0

    def test_cdc_commands_honour_the_degree_cap(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A cdcmap or section above --degree-cap exits 5 before any law runs."""
        ws = tmp_path / "high.tgc"
        ws.write_text(
            "cdcmap f : 1 -> 1 over Q = (x1^1200)\n"
            "cdcmap tap : 2 -> 1 over Q = (x1)\n"
            "section s for tap = (w1, w1^3 + x1*w1)\n"
        )
        code, out = run_cli(["cdc", "axioms", "--workspace", str(ws), "--map", "f",
                             "--degree-cap", "1"])
        assert (code, out) == (5, "")
        assert "resource limit: polynomial degree 1200 exceeds the degree cap 1" in capsys.readouterr().err
        code, _ = run_cli(["cdc", "axioms", "--workspace", str(ws), "--map", "tap",
                           "--with", "f", "--degree-cap", "1"])
        assert code == 5
        code, _ = run_cli(["cdc", "linearize", "--workspace", str(ws), "--map", "tap",
                           "--section", "s", "--degree-cap", "2"])
        assert code == 5
        assert "polynomial degree 3 exceeds the degree cap 2" in capsys.readouterr().err
        code, _ = run_cli(["cdc", "linearize", "--workspace", str(ws), "--map", "tap",
                           "--section", "s", "--degree-cap", "3"])
        assert code == 0

    def test_deeply_nested_parentheses_are_a_parse_error(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """300 nested parentheses are refused before the parser recurses too far."""
        ws = tmp_path / "nested.tgc"
        ws.write_text("field Q\nalgebra A = vars(x) / (" + "(" * 300 + "x" + ")" * 300 + ")\n")
        code, _ = run_cli(["kahler", "--workspace", str(ws), "--algebra", "A"])
        assert code == 2
        assert "parentheses nested deeper than 100" in capsys.readouterr().err

    def test_degree_cap_zero_is_honoured(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A cap of 0 is a cap, not the default."""
        code = main(["classify", "--workspace", WORKSPACE,
                     "--instance", "calg", "--morphism", "point",
                     "--degree-cap", "0"])
        assert code == 5
        err = capsys.readouterr().err
        assert "resource limit: polynomial degree 1 exceeds the degree cap 0" in err

    def test_negative_degree_cap_is_a_usage_error(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A negative cap is rejected before any computation."""
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--workspace", WORKSPACE,
                  "--instance", "calg", "--morphism", "point",
                  "--degree-cap", "-1"])
        assert exc.value.code == 2
        assert "--degree-cap must be 0 or more, got -1" in capsys.readouterr().err

    def test_degree_cap_does_not_leak_into_the_environment(self) -> None:
        """The cap is restored after the command finishes."""
        main(["classify", "--workspace", WORKSPACE,
              "--instance", "calg", "--morphism", "point",
              "--degree-cap", "1"])
        assert degree_cap.get() == 64

    def test_inconsistency_exit_code(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A coherence violation maps to exit 6 in dispatch."""

        def boom(_args: argparse.Namespace) -> int:
            raise InconsistentClassification("fabricated violation")

        code = _dispatch(argparse.Namespace(run=boom))
        assert code == 6
        assert "inconsistency: fabricated violation" in capsys.readouterr().err

    def test_any_other_engine_error_exits_3(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """An engine error without a code of its own leaves dispatch as exit 3."""

        def boom(_args: argparse.Namespace) -> int:
            raise ShapeMismatch("fabricated shape")

        code = _dispatch(argparse.Namespace(run=boom))
        assert code == 3
        assert capsys.readouterr().err == "tgc: fabricated shape\n"

    def test_a_degree_cap_hit_while_a_morphism_is_checked_exits_5(
        self, tmp_path: Path, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """Checking t^2 -> (x*y)^2 against B's degree-3 relations needs a basis
        above the cap; that is a resource limit, not a parse error."""
        ws = tmp_path / "capped.tgc"
        ws.write_text(
            "field Q\nalgebra A = vars(t) / (t^2)\n"
            "algebra B = vars(x,y) / (x*x*y, y*y*y*x)\n"
            "morphism f : A -> B = { t -> x*y }\n"
        )
        code, out = run_cli(["kahler", "--workspace", str(ws), "--algebra", "B",
                             "--degree-cap", "2"])
        assert (code, out) == (5, "")
        assert capsys.readouterr().err == (
            "tgc: resource limit: polynomial degree 3 exceeds the degree cap 2\n"
        )


class TestFlags:
    """Each command takes --json and --degree-cap, and only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ("classify", "--workspace", WORKSPACE, "--instance", "calg",
         "--morphism", "point", "--oracle", "--strict"),
        ("kahler", "--workspace", WORKSPACE, "--algebra", "D2"),
        ("cotangent", "--workspace", WORKSPACE, "--morphism", "trunc"),
        ("cdc", "axioms", "--workspace", WORKSPACE, "--map", "cube", "--with", "fold"),
        ("cdc", "linearize", "--workspace", WORKSPACE, "--map", "tap", "--section", "s"),
        ("verify", "--suite", "theta-laws", "--count", "2", "--seed", "3", "--oracle"),
    ], ids=("classify", "kahler", "cotangent", "cdc-axioms", "cdc-linearize", "verify"))
    def test_every_flag_a_command_reads_is_accepted(self, argv: tuple[str, ...]) -> None:
        code, out = tgc(*argv, "--json", "-", "--degree-cap", "64")
        assert code == 0
        assert json.loads(out)["schema_version"] == "1"

    @pytest.mark.parametrize("argv", [
        ("kahler", "--workspace", WORKSPACE, "--algebra", "D2", "--seed", "1"),
        ("cotangent", "--workspace", WORKSPACE, "--morphism", "trunc", "--strict"),
        ("cdc", "axioms", "--workspace", WORKSPACE, "--map", "cube", "--oracle"),
    ], ids=("kahler-seed", "cotangent-strict", "cdc-axioms-oracle"))
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
        self, argv: tuple[str, ...], capsys: pytest.CaptureFixture[str]
    ) -> None:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_count_is_a_usage_error(
        self, capsys: pytest.CaptureFixture[str]
    ) -> None:
        """A negative --count is rejected before any case runs."""
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "theta-laws", "--count", "-5"])
        assert exc.value.code == 2
        assert "--count must be 0 or more, got -5" in capsys.readouterr().err


class TestDeterminism:
    """Test that repeated runs serialize identically."""

    def test_same_command_twice_is_byte_identical(self) -> None:
        """Reports differ only in timings across runs."""
        argv = ("classify", "--workspace", WORKSPACE,
                "--instance", "affine", "--morphism", "qrel", "--json", "-")
        _, first = tgc(*argv)
        _, second = tgc(*argv)
        assert scrub_timings(first) == scrub_timings(second)

    def test_verify_suite_is_seeded(self) -> None:
        """The same seed yields the same serialized suite document."""
        argv = ("verify", "--suite", "base-change",
                "--count", "3", "--seed", "11", "--json", "-")
        _, first = tgc(*argv)
        _, second = tgc(*argv)
        assert first == second
        assert json.loads(first)["failures"] == []

    def test_one_parser_serves_every_call_in_a_process(self) -> None:
        """Repeated calls of main match a fresh process per command.

        The parser is built once per process, so options set by one call
        (a seed, a degree cap, --strict) must not carry over to the next.
        """
        commands = [
            ("verify", "--suite", "theta-laws", "--count", "2", "--seed", "3", "--json", "-"),
            ("classify", "--workspace", WORKSPACE, "--instance", "calg",
             "--morphism", "point", "--degree-cap", "1"),
            ("classify", "--workspace", WORKSPACE, "--instance", "cdc-linear",
             "--morphism", "fold", "--strict"),
            ("verify", "--suite", "theta-laws", "--count", "2", "--json", "-"),
            ("classify", "--workspace", WORKSPACE, "--instance", "calg", "--morphism", "point"),
            ("cotangent", "--workspace", WORKSPACE, "--morphism", "trunc", "--json", "-"),
            ("cdc", "axioms", "--workspace", WORKSPACE, "--map", "cube",
             "--with", "fold"),
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        fresh = []
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-m", "tangentcat.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            fresh.append((done.returncode, scrub_timings(done.stdout), done.stderr))
        for _ in range(2):
            for argv, expected in zip(commands, fresh):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(list(argv))
                assert (code, scrub_timings(out.getvalue()), err.getvalue()) == expected, argv

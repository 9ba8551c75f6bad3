"""Workspace fuzz: drawn and mutated workspaces must end in a clean exit code.

Two halves, both deterministic.

The cdc half draws workspaces from a small grammar (fields Q, Z, N and
F_2, F_3, F_5; input arities 0-3; up to three outputs of up to three terms
each, products of variables and powers of sums up to the cube) from a fixed
seed.  Each one goes through ``cli.main`` in-process three times: ``cdc
axioms`` alone and with a partner map, and ``classify --instance
cdc-linear``, all under ``--degree-cap 12``.  Every exit code must be 0, 2,
3 or 5 (4 needs ``--strict``, and 6 is an inconsistency, a bug) and no
exception may escape.  Budget: the 600 workspaces (1,800 calls) run in
about 4 s on a 2-vCPU Xeon VM with Python 3.11; the drawn sizes stay small
enough that no call can hang, and the test fails past 30 s.

The algebra half makes 3,000 single edits of ``figure1.tgc`` (one
character deleted, inserted or replaced outside the comments) from a fixed
seed.  Each edit goes through ``cli.main`` in-process once, on one of
``classify --instance calg --oracle``, ``classify --instance affine``,
``cotangent`` and ``kahler`` for a name the workspace declares, three in ten
of them under ``--degree-cap`` 0 to 3.  Every exit code must be 0, 2, 3 or
5, no exception may escape, and a run whose stderr says "exceeds the degree
cap" must exit 5.  Most edits are parse errors (exit 2); about one in
eight reaches a full report and a few hit the cap.  Budget: the 3,000 calls
run in about 3 s on the same VM, the slowest in under 10 ms, since a single
edit keeps that workspace tiny; the test fails past 30 s.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from collections import Counter

from conftest import DATA, run_cli

WORKSPACES = 600
BUDGET_S = 30.0
FIELDS = ("Q", "Z", "N", "Fp 2", "Fp 3", "Fp 5")


def _monomial(rng, n, exponents=(0, 0, 1, 1, 2, 3)):
    factors = []
    for i in range(n):
        e = rng.choice(exponents)
        if e:
            factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(factors)


def _term(rng, n):
    """A coefficient times a monomial, or a power of a sum of two of them."""
    if n and rng.random() < 0.25:
        inner = " + ".join(_monomial(rng, n, (0, 1, 1, 2)) or "1" for _ in range(2))
        return f"({inner})^{rng.randint(1, 3)}"
    mono = _monomial(rng, n)
    coeff = rng.choice((0, 1, 1, 2, 3, 4))
    if not mono:
        return str(coeff)
    return mono if coeff == 1 else f"{coeff}*{mono}"


def _polynomial(rng, n, signed):
    text = _term(rng, n)
    for _ in range(rng.randint(0, 2)):
        op = " - " if signed and rng.random() < 0.4 else " + "
        text += op + _term(rng, n)
    return text


def _cdcmap(rng, name, field, n, m):
    signed = field != "N" or rng.random() < 0.1  # a few N maps subtract
    body = ", ".join(_polynomial(rng, n, signed) for _ in range(m))
    return f"cdcmap {name} : {n} -> {m} over {field} = ({body})"


def draw_workspace(rng):
    field = rng.choice(FIELDS)
    n, m = rng.randint(0, 3), rng.randint(0, 3)
    # the partner is composable after f about half of the time
    k = m if rng.random() < 0.5 else rng.randint(0, 3)
    return "\n".join((
        "field Q",
        _cdcmap(rng, "f", field, n, m),
        _cdcmap(rng, "g", field, k, rng.randint(0, 3)),
    )) + "\n"


def test_cdcmap_workspaces_exit_cleanly(tmp_path):
    rng = random.Random(20241019)
    path = str(tmp_path / "ws.tgc")
    calls = (
        ["cdc", "axioms", "--workspace", path, "--map", "f"],
        ["cdc", "axioms", "--workspace", path, "--map", "f", "--with", "g"],
        ["classify", "--workspace", path, "--instance", "cdc-linear", "--morphism", "f"],
    )
    codes, bad = Counter(), []
    start = time.perf_counter()
    for _ in range(WORKSPACES):
        text = draw_workspace(rng)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in calls:
            try:
                code, _ = run_cli([*argv, "--degree-cap", "12"])
            except Exception as e:  # noqa: BLE001 - any escape is the failure sought
                bad.append((text, argv[:2], repr(e)))
                continue
            codes[code] += 1
            if code not in (0, 2, 3, 5):
                bad.append((text, argv[:2], code))
    elapsed = time.perf_counter() - start
    assert not bad, bad[:3]
    assert elapsed < BUDGET_S
    # the grammar reaches the law checks, the parser's refusals and the cap
    assert codes[0] and codes[2] and codes[5], codes


EDITS = 3000
EDIT_ALPHABET = "tuxyz0123^*+-/(),{}<>=: \n"
MORPHISMS = ("iso", "trunc", "point", "unit", "qrel", "structure")
ALGEBRAS = ("P1", "A1", "B1", "C1", "K1", "R", "AR", "BR", "k2", "D2")


def single_edit(rng, text, positions):
    """``text`` with one character deleted, inserted or replaced at one of
    ``positions``."""
    i = rng.choice(positions)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + 1:]
    c = rng.choice(EDIT_ALPHABET)
    return text[:i] + c + text[i + (kind == 2):]


def algebra_call(rng, path):
    """One of the four algebra commands on a name ``figure1.tgc`` declares,
    under ``--degree-cap`` 0 to 3 three times in ten."""
    kind = rng.randrange(4)
    if kind == 3:
        argv = ["kahler", "--workspace", path, "--algebra", rng.choice(ALGEBRAS)]
    elif kind == 2:
        argv = ["cotangent", "--workspace", path, "--morphism", rng.choice(MORPHISMS)]
    else:
        argv = ["classify", "--workspace", path, "--instance", ("calg", "affine")[kind],
                "--morphism", rng.choice(MORPHISMS)]
        if kind == 0:
            argv.append("--oracle")
    if rng.random() < 0.3:
        argv += ["--degree-cap", str(rng.randint(0, 3))]
    return argv


def test_single_edits_of_the_figure_workspace_exit_cleanly(tmp_path):
    rng = random.Random(20261019)
    original = (DATA / "figure1.tgc").read_text(encoding="utf-8")
    # every character of a declaration line, and the newline that ends it
    positions, offset = [], 0
    for line in original.splitlines(keepends=True):
        if line.strip() and not line.startswith("#"):
            positions += range(offset, offset + len(line))
        offset += len(line)
    path = str(tmp_path / "ws.tgc")
    codes, bad = Counter(), []
    start = time.perf_counter()
    for _ in range(EDITS):
        text = single_edit(rng, original, positions)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = algebra_call(rng, path)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code, _ = run_cli(argv)
        except Exception as e:  # noqa: BLE001 - any escape is the failure sought
            bad.append((text, argv, repr(e)))
            continue
        codes[code] += 1
        if code not in (0, 2, 3, 5) or "exceeds the degree cap" in err.getvalue() and code != 5:
            bad.append((text, argv, code, err.getvalue()))
    elapsed = time.perf_counter() - start
    assert not bad, bad[:3]
    assert elapsed < BUDGET_S, elapsed
    # the edits reach full reports, the parser's refusals and the cap
    assert codes[0] and codes[2] and codes[5], codes

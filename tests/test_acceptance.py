"""Acceptance gates for the classification engine.

One test per criterion, `pytest -v` prints one verdict line each:

  01  golden-workspace verdicts match the instance characterizations
  02  F2[x]/(x^2): split submersion without immersion, Jacobian fails
  03  the (t^2) quotient: etale over Q[t], immersion-not-submersion over Q
  04  [1 1] over N separates unramified from immersion
  05  immersion <=> unramified across 200 random fd morphisms
  06  theta composition/flip laws on 100 random pairs, oracle-backed
  07  50 random sections linearize to verified idempotent fixpoints
  08  cotangent composites vanish; coherence never raises
  09  base change preserves differentials on the parabola + 20 pullbacks
  10  the CLI suite is byte-deterministic modulo timings

Everything is seeded; the whole module stays well under a minute.
"""

import hashlib
import json
import random
import time
from dataclasses import asdict
from fractions import Fraction

import pytest

from conftest import DATA, run_cli, scrub_timings
from tangentcat.cdc import (
    cdc_context,
    classify_cdc_map,
    classify_linear,
    fibre_linear,
    is_section_of,
    linearize_section,
    random_cdc_map,
    random_theta_section,
    theta_composition_sides,
    theta_flip_sides,
)
from tangentcat.classify import classify_affine, classify_calg
from tangentcat import cli
from tangentcat.cli import _parabola_case, _suite_base_change, load_workspace
from tangentcat.groebner import ideal_basis
from tangentcat.kahler import (
    base_change_check,
    classify_cotangent,
    conormal_sequence,
    cotangent_map,
    jacobian_split_verdict,
    module_map_kernel,
    relative_kahler,
    zero_module_evidence,
)
from tangentcat.modlin import (
    coords,
    fd_basis,
    matrix_on_basis,
    matrix_rank,
    retraction_solve_matrices,
    solve_linear,
)
from tangentcat.oracle import maps_probably_equal
from tangentcat.polycore import QQ, NN, Polynomial, context, poly_parse
from tangentcat.presentations import (
    is_injective,
    is_surjective,
    linear_section_exists,
    morphism,
    present,
)

MODULE_T0 = time.perf_counter()

ORDER = (
    "T_monic",
    "T_immersion",
    "T_unramified",
    "T_submersion",
    "split_T_submersion",
    "T_etale",
    "monic_T_etale",
)

# verdict initials in ORDER: h(olds) / f(ails) / u(ndetermined)
FIGURE_TABLE = {
    ("calg", "iso"): "hhhhhhh",
    ("calg", "trunc"): "fffhfff",
    ("calg", "point"): "fffhhff",
    ("calg", "unit"): "hhhffff",
    ("affine", "iso"): "hhhhhhh",
    ("affine", "trunc"): "hhhffff",
    ("affine", "point"): "hhhhhhh",
    ("affine", "unit"): "fffhhff",
    ("affine", "qrel"): "hhhhhhh",
    ("affine", "structure"): "fffhhff",
    ("cdc", "fold"): "ffhuuuf",
    ("cdc", "shear"): "hhhhhhh",
    ("cdc", "double"): "hhhufff",
    ("cdc", "cube"): "uuuuuuu",
    ("cdc", "crush"): "fffhhff",
}


def row_of(report):
    return "".join(report.predicates[k].status[0] for k in ORDER)


@pytest.fixture(scope="module")
def workspace():
    return load_workspace(str(DATA / "figure1.tgc"))


# ---------------------------------------------------------------------------
# random finite-dimensional morphism generator (criteria 5 and 8)

def random_fd_target(rng):
    names = ("x", "y") if rng.random() < 0.7 else ("x",)
    ctx = context(*names)
    rels = [poly_parse(f"{n}^{rng.randint(2, 3)}", ctx, QQ) for n in names]
    if len(names) == 2 and rng.random() < 0.6:
        # homogeneous degree-2 noise keeps the ideal inside (x, y)^2
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        noise = (
            poly_parse("x^2", ctx, QQ).scale(QQ.from_int(a))
            + poly_parse("x*y", ctx, QQ).scale(QQ.from_int(b))
            + poly_parse("y^2", ctx, QQ).scale(QQ.from_int(c))
        )
        if not noise.is_zero():
            rels.append(noise)
    return present(QQ, names, tuple(rels))


def random_element(rng, B, max_degree=2):
    ctx = B.context
    monos = [(0,) * len(ctx)]
    for i in range(len(ctx)):
        m = [0] * len(ctx)
        m[i] = 1
        monos.append(tuple(m))
    if max_degree >= 2:
        for i in range(len(ctx)):
            for j in range(i, len(ctx)):
                m = [0] * len(ctx)
                m[i] += 1
                m[j] += 1
                monos.append(tuple(m))
    out = Polynomial.zero(ctx, QQ)
    for m in monos:
        c = rng.randint(-2, 2)
        if c and rng.random() < 0.7:
            out = out + Polynomial(ctx, QQ, {m: QQ.from_int(c)})
    return B.reduce(out)


def minimal_polynomial(B, b, index):
    """Coefficients c with b^len(c) = sum c_i b^i, by the first dependence."""
    powers = [B.one()]
    vecs = [coords(powers[0], index, QQ)]
    while True:
        nxt = B.reduce(powers[-1] * b)
        v = coords(nxt, index, QQ)
        rows = [[vecs[i][k] for i in range(len(vecs))] for k in range(len(index))]
        sol = solve_linear(rows, v, QQ)
        if sol is not None:
            return sol
        powers.append(nxt)
        vecs.append(v)


def random_fd_morphism(rng):
    """A well-defined morphism of finite-dimensional Q-algebras.

    The source is presented by the exact minimal polynomial of each image,
    so well-definedness holds by construction while kernels and cokernels
    still vary freely with the target.
    """
    B = random_fd_target(rng)
    gb = ideal_basis(B.ideal, B.context, B.domain)
    basis = fd_basis(gb, len(B.context))
    index = {m: i for i, m in enumerate(basis)}
    nsrc = rng.choice((1, 1, 2))
    src_names = ("u", "v")[:nsrc]
    sctx = context(*src_names)
    rels, images = [], []
    for i in range(nsrc):
        b = random_element(rng, B)
        sol = minimal_polynomial(B, b, index)
        u = Polynomial.variable(sctx, QQ, i)
        rel = u ** len(sol)
        for k, c in enumerate(sol):
            if c != QQ.zero():
                rel = rel - (u ** k).scale(c)
        rels.append(rel)
        images.append(b)
    A = present(QQ, src_names, tuple(rels))
    return morphism(A, B, tuple(images))


@pytest.fixture(scope="module")
def random_suite():
    """200 morphisms with both zero-module routes precomputed."""
    rng = random.Random(0)
    rows = []
    for _ in range(200):
        f = random_fd_morphism(rng)
        seq = cotangent_map(f)
        immersion = zero_module_evidence(seq.cokernel)[0]
        unramified = zero_module_evidence(relative_kahler(f))[0]
        rows.append((f, seq, immersion, unramified))
    return rows


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_figure_reproduction(workspace):
    """Every golden-workspace morphism matches its characterization row."""
    for (instance, name), expected in sorted(FIGURE_TABLE.items()):
        if instance == "calg":
            report = classify_calg(
                workspace.morphisms[name], name, workspace.morphism_decls[name][2]
            )
        elif instance == "affine":
            report = classify_affine(
                workspace.morphisms[name], name, workspace.morphism_decls[name][2]
            )
        else:
            report = classify_cdc_map(workspace.cdcmaps[name], name)
        assert row_of(report) == expected, (instance, name, row_of(report))

    # algebra instance, independently: kernel / surjectivity / section
    for name in ("iso", "trunc", "point", "unit"):
        f = workspace.morphisms[name]
        inj = is_injective(f)[0]
        surj = is_surjective(f)[0]
        sec = surj and linear_section_exists(f).holds
        derived = "".join(
            "h" if value else "f"
            for value in (inj, inj, inj, surj, sec, inj and surj, inj and sec)
        )
        assert derived == FIGURE_TABLE[("calg", name)], name

    # affine instance, independently: immersion/unramified <=> zero relative
    # differentials
    for name in ("iso", "trunc", "point", "unit", "qrel", "structure"):
        f = workspace.morphisms[name]
        omega_zero = zero_module_evidence(relative_kahler(f))[0]
        expected = "h" if omega_zero else "f"
        assert FIGURE_TABLE[("affine", name)][1] == expected, name
        assert FIGURE_TABLE[("affine", name)][2] == expected, name


def test_criterion_02_split_without_smoothness(workspace):
    """The F2 structure map splits but is not formally smooth."""
    report = classify_affine(workspace.morphisms["structure"], "structure")
    assert report.predicates["split_T_submersion"].status == "holds"
    assert report.predicates["T_immersion"].status == "fails"
    assert report.predicates["T_etale"].status == "fails"
    jac = report.annotations["jacobian_criterion"]
    assert jac["verdict"] == "fails"
    assert jac["reason"] == "no module retraction of the conormal differential exists"


def test_criterion_03_etale_depends_on_the_base(workspace):
    """R -> R/(t^2) is etale over R = Q[t] but only an immersion over Q."""
    over_base = classify_affine(workspace.morphisms["qrel"], "qrel", "R")
    assert over_base.predicates["T_etale"].status == "holds"
    assert over_base.annotations["note"] == (
        "tangent-etale but not formally etale: "
        "the Jacobian splitting criterion fails for the target presentation"
    )
    absolute = classify_affine(workspace.morphisms["trunc"], "trunc")
    assert absolute.predicates["T_immersion"].status == "holds"
    assert absolute.predicates["T_submersion"].status == "fails"
    assert absolute.predicates["T_etale"].status == "fails"


def test_criterion_04_unramified_without_immersion():
    """Over N the fold map is unramified yet not an immersion."""
    report = classify_linear([[1, 1]], NN, name="fold")
    assert report.predicates["T_unramified"].status == "holds"
    assert report.predicates["T_immersion"].status == "fails"


def test_criterion_05_immersion_iff_unramified(random_suite):
    """Two independent zero-module routes agree on all 200 morphisms."""
    assert len(random_suite) == 200
    for f, _seq, immersion, unramified in random_suite:
        assert immersion == unramified, f.var_images
    verdicts = {row[2] for row in random_suite}
    assert verdicts == {True, False}  # both outcomes are exercised


def test_finite_and_general_monic_routes_agree(random_suite):
    """The rank on staircase bases and the syzygy kernel agree on v."""
    verdicts = set()
    for f, seq, _imm, _unr in random_suite[::5]:
        S, T = seq.pullback.finite(), seq.middle.finite()
        rank = matrix_rank(T.matrix([seq.v.apply(S.vector(*pm)) for pm in S.basis]), QQ)
        monic = rank == len(S.basis)
        assert monic == (len(module_map_kernel(seq.v)) == 0), f.var_images
        verdicts.add(monic)
    assert verdicts == {True, False}  # both outcomes are exercised


def _monomial_vector(M, pos, mono):
    one = Polynomial(M.algebra.context, QQ, {mono: QQ.one()})
    return tuple(one if j == pos else M.algebra.zero() for j in range(M.rank))


def _action_matrices(M, basis):
    """Multiplication by each variable on a staircase basis of M."""
    def times(mono, v):
        return tuple(e + (i == v) for i, e in enumerate(mono))

    return [
        matrix_on_basis(
            [M.reduce(_monomial_vector(M, pos, times(mono, v))) for pos, mono in basis], basis, QQ
        )
        for v in range(len(M.algebra.context))
    ]


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _module_map_matrices(phi):
    """V and the actions of source and target, rebuilt on staircase bases."""
    S, T = phi.source, phi.target
    basis_s, basis_t = S.finite().basis, T.finite().basis
    images = [T.reduce(phi.apply(_monomial_vector(S, *pm))) for pm in basis_s]
    v = matrix_on_basis(images, basis_t, QQ)
    return v, _action_matrices(S, basis_s), _action_matrices(T, basis_t)


def _assert_module_retraction(evidence, phi):
    r = [[Fraction(x) for x in row] for row in evidence]
    v, acts_s, acts_t = _module_map_matrices(phi)
    assert _matmul(r, v) == _identity(len(r))
    for a_s, a_t in zip(acts_s, acts_t):
        assert _matmul(r, a_t) == _matmul(a_s, r)


def test_retraction_evidence_is_a_module_retraction(random_suite):
    """R·V = I and R commutes with every action, on matrices rebuilt here."""
    checked = 0
    for f, seq, _imm, _unr in random_suite[::5]:
        split, ev = classify_cotangent(seq).split_monic
        if split and ev["route"] == "finite":
            assert ev["source_basis"] == [[p, list(m)] for p, m in seq.pullback.finite().basis]
            assert ev["target_basis"] == [[p, list(m)] for p, m in seq.middle.finite().basis]
            _assert_module_retraction(ev["retraction"], seq.v)
            checked += 1
    assert checked >= 5

    ctx = context("x", "y")
    # six reduced points: the conormal differential has a retraction
    smooth = present(QQ, ("x", "y"), (poly_parse("x^2 - 1", ctx, QQ), poly_parse("y^3 - y", ctx, QQ)))
    ok, ev = jacobian_split_verdict(smooth)
    assert ok is True
    _assert_module_retraction(ev["retraction"], conormal_sequence(smooth).delta)

    # Q[x,y]/(x^3, y^3): the 972 x 324 system has no solution, because
    # x·[x^3] maps to 3x^3 dx = 0, so V has a kernel
    cubes = present(QQ, ("x", "y"), (poly_parse("x^3", ctx, QQ), poly_parse("y^3", ctx, QQ)))
    delta = conormal_sequence(cubes).delta
    v, acts_s, acts_t = _module_map_matrices(delta)
    assert (len(v), len(v[0]), len(acts_s)) == (18, 18, 2)
    column = delta.source.finite().basis.index((0, (1, 0)))
    assert all(row[column] == 0 for row in v)
    assert retraction_solve_matrices(v, acts_s, acts_t, QQ) is None
    assert jacobian_split_verdict(cubes)[0] is False


FINITE_DIGEST = DATA / "finite_digest.json"


def finite_digest(random_suite, base_change_seeds=range(10)):
    """SHA-256 over the JSON of the finite layer's outputs.

    Covers classify_cotangent (four verdicts with evidence, and the regime)
    and jacobian_split_verdict of the target on every fixture morphism, then
    every base_change_check made by the base-change suite on the given seeds.
    """
    docs = []
    for _f, seq, _imm, _unr in random_suite:
        docs.append(asdict(classify_cotangent(seq)))
    for f, *_ in random_suite:
        docs.append(jacobian_split_verdict(f.target))

    def recorded(f, g):
        res = base_change_check(f, g)
        docs.append(asdict(res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "base_change_check", recorded)
        for seed in base_change_seeds:
            _suite_base_change(20, seed=seed, oracle=False)
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    return len(docs), h.hexdigest()


def test_finite_layer_matches_the_recorded_digest(random_suite):
    # the verdicts and their evidence are byte-identical to the recording,
    # which was made before FiniteModule replaced the ad-hoc staircase matrices
    recorded = json.loads(FINITE_DIGEST.read_text())
    assert finite_digest(random_suite) == (recorded["outputs"], recorded["sha256"])


def test_finite_module_matrices_are_consistent(random_suite):
    """Standard vectors have unit coordinates, the actions commute, V intertwines them."""
    for f, seq, _imm, _unr in random_suite[::5]:
        S, T = seq.pullback.finite(), seq.middle.finite()
        for fin in (S, T):
            assert fin.matrix([fin.vector(*pm) for pm in fin.basis]) == _identity(len(fin.basis))
            acts = fin.actions()
            assert len(acts) == len(f.target.context)
            for a in acts:
                for b in acts:
                    assert _matmul(a, b) == _matmul(b, a), f.var_images
        v = T.matrix([seq.v.apply(S.vector(*pm)) for pm in S.basis])
        for a_s, a_t in zip(S.actions(), T.actions()):
            assert _matmul(v, a_s) == _matmul(a_t, v), f.var_images


def test_trivial_split_evidence_in_both_regimes(workspace):
    """A zero pulled-back module splits trivially, whether or not Ω_B is finite."""
    trivial = (True, {"route": "trivial", "reason": "the pulled-back module is zero"})
    for name, regime in (("unit", "general"), ("qrel", "finite")):
        verdicts = classify_cotangent(cotangent_map(workspace.morphisms[name]))
        assert verdicts.regime == regime
        assert verdicts.split_monic == trivial


def test_criterion_06_theta_laws():
    """Composition and flip laws vanish symbolically and under sampling."""
    rng = random.Random(0)
    for _ in range(100):
        n, k, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        f = random_cdc_map(rng, QQ, n, k, max_degree=4)
        g = random_cdc_map(rng, QQ, k, m, max_degree=4)
        for lhs, rhs in (theta_composition_sides(f, g), theta_flip_sides(f)):
            for a, b in zip(lhs.components, rhs.components):
                assert (a - b).is_zero()
            assert maps_probably_equal(lhs, rhs) == "probably_equal"


def test_criterion_07_section_linearization():
    """Linearization always lands on a verified linear section, idempotently."""
    rng = random.Random(1)
    shapes = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))
    for case in range(50):
        n, m = shapes[case % len(shapes)]
        f, s = random_theta_section(rng, QQ, n, m)
        ok, why = is_section_of(f, s)
        assert ok, why
        lin = linearize_section(f, s)
        assert is_section_of(f, lin)[0]
        assert fibre_linear(lin, n)
        again = linearize_section(f, lin)
        assert [str(c) for c in again.components] == [str(c) for c in lin.components]


def test_criterion_08_cotangent_exactness(workspace, random_suite):
    """v followed by the cokernel projection is zero; coherence never raises."""
    for _f, seq, _imm, _unr in random_suite:
        for j in range(seq.v.source.rank):
            reduced = seq.cokernel.reduce(seq.v.column(j))
            assert all(c.is_zero() for c in reduced)
    # full classification (with its internal coherence gate) on a sample
    reports = [
        classify_affine(f, name="random") for f, *_ in random_suite[::17]
    ]
    for name, f in workspace.morphisms.items():
        reports.append(
            classify_affine(f, name, workspace.morphism_decls[name][2])
        )
    for report in reports:
        assert not any(row["status"] == "violated" for row in report.coherence)


def test_criterion_09_base_change():
    """Differentials of the pullback match on the parabola and 20 randoms."""
    f, g = _parabola_case()
    res = base_change_check(f, g)
    assert res.isomorphic
    assert (res.left_dimension, res.right_dimension) == (1, 1)
    assert _suite_base_change(20, seed=0, oracle=False) == []


CLI_COMMANDS = (
    ("classify", "--instance", "calg", "--morphism", "point", "--oracle"),
    ("classify", "--instance", "calg", "--morphism", "trunc"),
    ("classify", "--instance", "affine", "--morphism", "qrel"),
    ("classify", "--instance", "affine", "--morphism", "trunc"),
    ("classify", "--instance", "affine", "--morphism", "structure", "--oracle"),
    ("classify", "--instance", "cdc-linear", "--morphism", "fold"),
    ("classify", "--instance", "cdc-linear", "--morphism", "crush", "--oracle"),
    ("kahler", "--algebra", "D2"),
    ("cotangent", "--morphism", "trunc"),
    ("cdc", "linearize", "--map", "tap", "--section", "s"),
    ("verify", "--suite", "theta-laws", "--seed", "0"),
    ("verify", "--suite", "tangent-identities", "--seed", "0"),
    ("verify", "--suite", "base-change", "--seed", "0"),
)


def run_cli_suite():
    ws = str(DATA / "figure1.tgc")
    chunks = []
    for argv in CLI_COMMANDS:
        head = 2 if argv[0] == "cdc" else 1
        if argv[0] == "verify":
            full = list(argv) + ["--json", "-"]
        else:
            full = list(argv[:head]) + ["--workspace", ws] + list(argv[head:]) + [
                "--json", "-",
            ]
        code, out = run_cli(full)
        assert code == 0, argv
        chunks.append(scrub_timings(out))
    return "".join(chunks)


def test_criterion_10_determinism():
    """The whole CLI suite serializes identically across two runs."""
    assert run_cli_suite() == run_cli_suite()


def test_runtime_budget():
    """The acceptance module finishes with ample headroom."""
    assert time.perf_counter() - MODULE_T0 < 55.0

"""Exact linear algebra and staircase bases for finite-dimensional quotients.

Every solve, kernel and rank over a field runs through one sparse Gaussian
elimination: rows are dicts {column: nonzero}, taken sparsest first, kept
as primitive integer rows over Q (fraction-free) and as integers mod p over
F_p.  Integer matrices get the Smith form instead.  Staircase enumeration turns a reduced
Groebner basis into an explicit monomial basis whenever the quotient is
finite-dimensional.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm

from .errors import InconsistentClassification, RankMismatch, ShapeMismatch, UnsupportedDomain
from .polycore import GREVLEX, QQ, mono_deg, mono_div


# ---------------------------------------------------------------------------
# exact elimination

def _sparse_rows(rows, dom):
    """Each dense row as a dict {column: nonzero}, entries normalized once."""
    normalized = ([dom.normalize(x) for x in row] for row in rows)
    return [{j: x for j, x in enumerate(row) if x} for row in normalized]


def _eliminate(rows, dom):
    """Echelon form of sparse rows over the field ``dom``: {pivot column: row}.

    Rows are taken sparsest first.  Each is reduced by the pivot row at its
    leading column until that column is new, and then becomes the pivot row
    there.  Over F_p a pivot row is scaled to a leading 1.  Over Q every row
    is kept as a primitive integer row (its entries have gcd 1): integer
    arithmetic is several times faster than Fraction arithmetic, and
    dividing out the content after each scaling keeps the entries small.
    The pivot columns of any echelon form of a row space are the same, so
    the order of the rows changes no result below.
    """
    if not dom.is_field:
        raise UnsupportedDomain(f"linear solving over {dom} needs a field")
    p = dom.p
    pivots = {}
    for row in sorted(rows, key=len):
        if p is None and row:
            den = lcm(*(x.denominator for x in row.values()))
            row = _primitive({j: x.numerator * (den // x.denominator) for j, x in row.items()})
        else:
            row = dict(row)
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                break
            c = row[col]
            if p is None:
                # lead·row - c·piv cancels the leading entry
                g = gcd(piv[col], c)
                lead, c = piv[col] // g, c // g
                if lead != 1:
                    row = {j: lead * x for j, x in row.items()}
            for j, y in piv.items():
                v = row.get(j, 0) - c * y
                if p is not None:
                    v %= p
                if v:
                    row[j] = v
                else:
                    row.pop(j, None)
            if p is None and lead != 1 and row:
                row = _primitive(row)  # the scaling is what makes entries grow
        if not row:
            continue
        if p is None:
            row = _primitive(row)
        else:
            inv = pow(row[col], p - 2, p)
            row = {j: x * inv % p for j, x in row.items()}
        pivots[col] = row
    return pivots


def _primitive(row):
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _back_substitute(pivots, n, free_col, dom):
    """The dense solution with ``free_col`` at 1 and other free columns at 0."""
    p = dom.p
    x = {free_col: dom.one()}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        acc = sum(y * x[j] for j, y in row.items() if j in x)
        if p is not None:
            acc %= p
        if acc:
            x[col] = -acc / row[col] if p is None else p - acc
    zero = dom.zero()
    return [x.get(j, zero) for j in range(n)]


def _solve(rows, n, dom):
    """x with rows·(x, 1) = 0 for sparse rows over n + 1 columns, or None."""
    pivots = _eliminate(rows, dom)
    if n in pivots:
        return None
    return _back_substitute(pivots, n + 1, n, dom)[:n]


def matrix_rank(rows, dom):
    """Rank of a matrix of domain elements (field domains only)."""
    return len(_eliminate(_sparse_rows(rows, dom), dom)) if rows else 0


def rational_rank(rows):
    """Rank of an integer (or rational) matrix over Q."""
    return matrix_rank(rows, QQ)


def kernel_basis(rows, dom, ncols=None):
    """Basis of the right null space, one vector per free column.

    ``ncols`` is only needed when ``rows`` is empty (no constraints), in
    which case the unit vectors come back.
    """
    if not rows and ncols is None:
        raise RankMismatch("empty system needs an explicit column count")
    n = len(rows[0]) if rows else ncols
    pivots = _eliminate(_sparse_rows(rows, dom), dom)
    return [
        _back_substitute(pivots, n, col, dom)
        for col in range(n)
        if col not in pivots
    ]


def solve_linear(rows, rhs, dom):
    """One solution x of rows·x = rhs, or None when the system is infeasible.

    The free columns of the solution are zero.
    """
    if len(rows) != len(rhs):
        raise RankMismatch(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if not rows:
        return []
    n = len(rows[0])
    return _solve(_sparse_rows([list(r) + [-b] for r, b in zip(rows, rhs)], dom), n, dom)


# ---------------------------------------------------------------------------
# staircase bases

def fd_basis_from_lms(lms, nvars):
    """Standard monomials below a staircase of leading monomials.

    Returns the sorted monomial list, or None when the staircase is
    infinite (some variable has no pure power among the leading terms).
    """
    lms = list(lms)
    if any(mono_deg(m) == 0 for m in lms):
        return []
    if nvars == 0:
        return [()]
    bounds = [None] * nvars
    for m in lms:
        support = [i for i, e in enumerate(m) if e]
        if len(support) == 1:
            v = support[0]
            if bounds[v] is None or m[v] < bounds[v]:
                bounds[v] = m[v]
    if any(b is None for b in bounds):
        return None
    out = []
    for mono in product(*(range(b) for b in bounds)):
        if all(mono_div(mono, m) is None for m in lms):
            out.append(mono)
    out.sort(key=GREVLEX.key)
    return out


def fd_basis(gb, nvars):
    """Monomial basis of a quotient ring from its reduced Groebner basis."""
    return fd_basis_from_lms(gb.leading_monomials(), nvars)


def module_fd_basis(mgb, nvars):
    """Standard (position, monomial) pairs of a free-module quotient.

    Returns None when some position has an infinite staircase.
    """
    per_pos = {i: [] for i in range(mgb.rank)}
    for pos, mono in mgb.leading_positions():
        per_pos[pos].append(mono)
    out = []
    for pos in range(mgb.rank):
        std = fd_basis_from_lms(per_pos[pos], nvars)
        if std is None:
            return None
        out.extend((pos, m) for m in std)
    out.sort(key=lambda pm: (pm[0], GREVLEX.key(pm[1])))
    return out


def coords(p, index, dom):
    """Coordinates of a normal-form polynomial on indexed standard monomials."""
    vec = [dom.zero()] * len(index)
    for mono, c in p.terms.items():
        if mono not in index:
            raise ShapeMismatch(f"monomial {mono} is not a standard monomial")
        vec[index[mono]] = c
    return vec


def matrix_on_basis(images, basis, dom):
    """Matrix whose column j holds the coordinates of ``images[j]``.

    Each image is a normal-form vector (an algebra element is a vector of
    length one) and ``basis`` lists the standard (position, monomial) pairs
    that index the rows.
    """
    index = {pm: i for i, pm in enumerate(basis)}
    mat = [[dom.zero()] * len(images) for _ in basis]
    for j, v in enumerate(images):
        for pos, comp in enumerate(v):
            for mono, c in comp.terms.items():
                if (pos, mono) not in index:
                    raise ShapeMismatch(f"{(pos, mono)} is not a standard module monomial")
                mat[index[pos, mono]][j] = c
    return mat


# ---------------------------------------------------------------------------
# constrained retraction solving

def retraction_solve_matrices(vmat, act_source, act_target, dom):
    """Solve R·V = I subject to R commuting with every listed action pair.

    ``vmat`` is the d_T x d_S matrix of a module map on coordinate bases;
    ``act_source``/``act_target`` pair up the multiplication actions of the
    algebra generators on either side.  Returns the d_S x d_T retraction
    matrix, or None when the exact linear system is infeasible.
    """
    d_t = len(vmat)
    if d_t:
        d_s = len(vmat[0])
    elif act_source:
        d_s = len(act_source[0])
    else:
        d_s = 0
    if len(act_source) != len(act_target):
        raise RankMismatch("action lists have different lengths")
    if d_t == 0 and d_s:
        # R has no columns, so R.V = I is unsatisfiable on a nonzero source
        return None
    nunk = d_s * d_t
    minus_one = dom.neg(dom.one())
    # unknown a * d_t + t is R[a][t] and column nunk holds minus the right-hand
    # side; rows come straight from the nonzeros of V and the action matrices
    v_cols = _sparse_rows(zip(*vmat), dom)
    rows = []
    for a in range(d_s):
        for b, col in enumerate(v_cols):
            row = {a * d_t + t: c for t, c in col.items()}
            if a == b:
                row[nunk] = minus_one
            rows.append(row)
    for acts, actt in zip(act_source, act_target):
        src_rows = _sparse_rows(acts, dom)
        tgt_cols = _sparse_rows(zip(*actt), dom)
        for a in range(d_s):
            for t in range(d_t):
                row = {a * d_t + u: c for u, c in tgt_cols[t].items()}
                for b, c in src_rows[a].items():
                    k = b * d_t + t
                    v = dom.sub(row.get(k, dom.zero()), c)
                    if v:
                        row[k] = v
                    else:
                        row.pop(k, None)
                rows.append(row)
    sol = _solve(rows, nunk, dom)
    if sol is None:
        return None
    return [sol[a * d_t : (a + 1) * d_t] for a in range(d_s)]


# ---------------------------------------------------------------------------
# integer matrices: Smith form and right inverses

def _ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul_int(a, b):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k, "inner dimensions disagree"
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def smith_form(mat):
    """Smith normal form of an integer matrix: returns (D, U, V) with U·M·V = D.

    The diagonal is canonical: entries are nonnegative and each divides
    the next.
    """
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _ident(m)
    v = _ident(n)

    def reduce_at(t):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
                u[t], u[bi] = u[bi], u[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
                for row in v:
                    row[t], row[bj] = row[bj], row[t]
            dirty = False
            for i in range(t + 1, m):
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
            if not dirty:
                return

    for t in range(min(m, n)):
        reduce_at(t)
    # enforce the divisibility chain; folding a later column in replaces
    # the pair (d_t, d_s) by (gcd, lcm) and may cascade backwards
    t = 0
    while t < min(m, n) - 1:
        dt, ds = a[t][t], a[t + 1][t + 1]
        if dt and ds % dt:
            for row in a:
                row[t] += row[t + 1]
            for row in v:
                row[t] += row[t + 1]
            reduce_at(t)
            reduce_at(t + 1)
            t = 0
            continue
        t += 1
    for t in range(min(m, n)):
        if a[t][t] < 0:
            for row in a:
                row[t] = -row[t]
            for row in v:
                row[t] = -row[t]
    return a, u, v


def integer_right_inverse(mat):
    """An integer matrix X with M·X = I, or None when none exists."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0:
        return [[] for _ in range(n)]
    if m > n:
        return None
    d, u, v = smith_form(mat)
    for i in range(m):
        if abs(d[i][i]) != 1:
            return None
    dplus = [[0] * m for _ in range(n)]
    for i in range(m):
        dplus[i][i] = d[i][i]  # inverse of ±1 is itself
    x = _mat_mul_int(v, _mat_mul_int(dplus, u))
    if _mat_mul_int(mat, x) != _ident(m):
        raise InconsistentClassification("Smith-form right inverse failed to verify")
    return x

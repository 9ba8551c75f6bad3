"""Exact linear algebra and staircase bases for finite-dimensional quotients.

Rational systems are eliminated fraction-free (denominators cleared per row,
then Bareiss pivoting over the integers); prime fields use modular Gaussian
elimination.  Staircase enumeration turns a reduced Groebner basis into an
explicit monomial basis whenever the quotient is finite-dimensional.
"""

from __future__ import annotations

from itertools import product
from math import gcd

from .errors import RankMismatch, ShapeMismatch, UnsupportedDomain
from .polycore import GREVLEX, QQ, mono_deg, mono_div


# ---------------------------------------------------------------------------
# exact elimination

def _clear_row(row):
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in row]


def _echelon_q(rows):
    """Fraction-free Bareiss echelon form; returns (integer rows, pivot cols)."""
    mat = [_clear_row(row) for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    r = 0
    prev = 1
    for col in range(n):
        sel = None
        for i in range(r, m):
            if mat[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            mat[r], mat[sel] = mat[sel], mat[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                mat[i][j] = (mat[r][col] * mat[i][j] - mat[i][col] * mat[r][j]) // prev
            mat[i][col] = 0
        prev = mat[r][col]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        for j in range(n):
            mat[i][j] = 0
    return mat, pivots


def _echelon_fp(rows, p):
    mat = [[x % p for x in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    pivots = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, m):
            if mat[i][col] % p != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            mat[r], mat[sel] = mat[sel], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(r + 1, m):
            c = mat[i][col]
            if c:
                mat[i] = [(a - c * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat, pivots


def _echelon(rows, dom):
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    if dom.kind == "Q":
        return _echelon_q(rows)
    if dom.kind == "Fp":
        return _echelon_fp(rows, dom.p)
    raise UnsupportedDomain(f"linear solving over {dom} needs a field")


def matrix_rank(rows, dom):
    """Rank of a matrix of domain elements (field domains only)."""
    return len(_echelon(rows, dom)[1])


def rational_rank(rows):
    """Rank of an integer (or rational) matrix over Q."""
    return len(_echelon(rows, QQ)[1])


def _back_substitute(mat, pivots, free_col, dom):
    n = len(mat[0])
    x = [dom.zero()] * n
    if free_col is not None:
        x[free_col] = dom.one()
    for i in reversed(range(len(pivots))):
        col = pivots[i]
        acc = dom.zero()
        for j in range(col + 1, n):
            if x[j] != dom.zero():
                acc = dom.add(acc, dom.mul(dom.normalize(mat[i][j]), x[j]))
        x[col] = dom.div(dom.neg(acc), dom.normalize(mat[i][col]))
    return x


def kernel_basis(rows, dom, ncols=None):
    """Basis of the right null space, one vector per free column.

    ``ncols`` is only needed when ``rows`` is empty (no constraints), in
    which case the unit vectors come back.
    """
    if not rows:
        if ncols is None:
            raise RankMismatch("empty system needs an explicit column count")
        return [
            [dom.one() if j == i else dom.zero() for j in range(ncols)]
            for i in range(ncols)
        ]
    n = len(rows[0])
    mat, pivots = _echelon(rows, dom)
    pivot_set = set(pivots)
    return [
        _back_substitute(mat, pivots, col, dom)
        for col in range(n)
        if col not in pivot_set
    ]


def solve_linear(rows, rhs, dom):
    """One solution x of rows·x = rhs, or None when the system is infeasible."""
    if len(rows) != len(rhs):
        raise RankMismatch(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    if not rows:
        return []
    n = len(rows[0])
    # [rows | -rhs] has the kernel vector (x, 1) exactly when rows·x = rhs
    mat, pivots = _echelon([list(r) + [-b] for r, b in zip(rows, rhs)], dom)
    if pivots and pivots[-1] == n:
        return None
    return _back_substitute(mat, pivots, n, dom)[:n]


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
    if d_s == 0:
        return []
    if d_t == 0:
        # R has no columns, so R.V = I is unsatisfiable on a nonzero source
        return None
    nunk = d_s * d_t

    def unk(a, t):
        return a * d_t + t

    rows, rhs = [], []
    for a in range(d_s):
        for b in range(d_s):
            row = [dom.zero()] * nunk
            for t in range(d_t):
                row[unk(a, t)] = dom.normalize(vmat[t][b])
            rows.append(row)
            rhs.append(dom.one() if a == b else dom.zero())
    for acts, actt in zip(act_source, act_target):
        for a in range(d_s):
            for t in range(d_t):
                row = [dom.zero()] * nunk
                for u in range(d_t):
                    row[unk(a, u)] = dom.add(row[unk(a, u)], dom.normalize(actt[u][t]))
                for b in range(d_s):
                    row[unk(b, t)] = dom.sub(row[unk(b, t)], dom.normalize(acts[a][b]))
                rows.append(row)
                rhs.append(dom.zero())
    sol = solve_linear(rows, rhs, dom)
    if sol is None:
        return None
    return [[sol[unk(a, t)] for t in range(d_t)] for a in range(d_s)]


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
    check = _mat_mul_int(mat, x)
    assert check == _ident(m), "Smith-form right inverse failed to verify"
    return x

"""Exact linear algebra and staircase bases for finite-dimensional quotients.

Every solve, kernel and rank over a field runs through one sparse Gaussian
elimination, an ``Echelon`` grown one row at a time: rows are dicts
{column: nonzero}, each reduced at its least column, kept as primitive
integer rows over Q (fraction-free) and as integers mod p over F_p.  The
batch solves below feed it their rows sparsest first; the staircase walk of
``groebner.FiniteGraph`` feeds it one image at a time, and the finite
modules of ``kahler`` hand it sparse columns read from normal forms.
Integer matrices get the Smith form instead.  Staircase enumeration turns a
reduced Groebner basis into an explicit monomial basis whenever the
quotient is finite-dimensional.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .errors import InconsistentClassification, ShapeMismatch, UnsupportedDomain
from .polycore import GREVLEX, QQ, mono_deg, mono_div


# ---------------------------------------------------------------------------
# exact elimination

def _sparse_rows(rows, dom):
    """Each dense row as a dict {column: nonzero}, entries normalized once."""
    normalized = ([dom.normalize(x) for x in row] for row in rows)
    return [{j: x for j, x in enumerate(row) if x} for row in normalized]


class Echelon:
    """An echelon form over the field ``dom``, grown one sparse row at a time.

    ``pivots`` maps each pivot column to its row, whose least column it is.
    ``reduce`` subtracts pivot rows from a row until its least column has
    none, and ``keep`` makes such a row the pivot row there.  Over F_p a
    pivot row is scaled to a leading 1.  Over Q every row is kept as a
    primitive integer row (its entries have gcd 1), so a reduced row is the
    exact reduction times a nonzero integer: integer arithmetic is several
    times faster than Fraction arithmetic, and dividing out the content
    after each scaling keeps the entries small.
    """

    def __init__(self, dom):
        if not dom.is_field:
            raise UnsupportedDomain(f"linear solving over {dom} needs a field")
        self.dom, self.pivots = dom, {}

    def reduce(self, row):
        """A new row: ``row`` less pivot rows until its least column has none."""
        p, pivots = self.dom.p, self.pivots
        row = dict(row)
        if p is None and row:
            den = lcm(*(x.denominator for x in row.values()))  # 1: all ints
            if den != 1:
                row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
            row = _primitive(row)
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
        return _primitive(row) if p is None and row else row

    def keep(self, row):
        """Make a nonzero reduced row the pivot row at its least column."""
        col, p = min(row), self.dom.p
        if p is not None and row[col] != 1:
            inv = pow(row[col], p - 2, p)
            row = {j: x * inv % p for j, x in row.items()}
        self.pivots[col] = row

    def solution(self, n, free_col):
        """The vector on n columns that every pivot row annihilates, with
        ``free_col`` at 1 and the other free columns at 0."""
        dom, p = self.dom, self.dom.p
        x = {free_col: dom.one()}
        for col in sorted(self.pivots, reverse=True):
            row = self.pivots[col]
            acc = sum(y * x[j] for j, y in row.items() if j in x)
            if p is not None:
                acc %= p
            if acc:
                x[col] = dom.div(-acc, row[col]) if p is None else p - acc
        zero = dom.zero()
        return [x.get(j, zero) for j in range(n)]


def echelon(rows, dom):
    """The echelon of sparse rows, taken sparsest first.  The pivot columns of
    any echelon form of a row space are the same, so the order of the rows
    changes no result below."""
    ech = Echelon(dom)
    for row in sorted(rows, key=len):
        row = ech.reduce(row)
        if row:
            ech.keep(row)
    return ech


def _primitive(row):
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _solve(rows, n, dom):
    """x with rows·(x, 1) = 0 for sparse rows over n + 1 columns, or None."""
    ech = echelon(rows, dom)
    if n in ech.pivots:
        return None
    return ech.solution(n + 1, n)[:n]


def matrix_rank(rows, dom):
    """Rank of a matrix of domain elements (field domains only)."""
    return len(echelon(_sparse_rows(rows, dom), dom).pivots) if rows else 0


def rational_rank(rows):
    """Rank of an integer (or rational) matrix over Q."""
    return matrix_rank(rows, QQ)


def kernel_basis(rows, dom, ncols=None):
    """Basis of the right null space, one vector per free column.

    ``ncols`` is only needed when ``rows`` is empty (no constraints), in
    which case the unit vectors come back.
    """
    if not rows and ncols is None:
        raise ShapeMismatch("empty system needs an explicit column count")
    n = len(rows[0]) if rows else ncols
    ech = echelon(_sparse_rows(rows, dom), dom)
    return [ech.solution(n, col) for col in range(n) if col not in ech.pivots]


def solve_linear(rows, rhs, dom):
    """One solution x of rows·x = rhs, or None when the system is infeasible.

    The free columns of the solution are zero.
    """
    if len(rows) != len(rhs):
        raise ShapeMismatch(f"{len(rows)} equations but {len(rhs)} right-hand sides")
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
    return out


def coords(p, index, dom):
    """Coordinates of a normal-form polynomial on indexed standard monomials."""
    vec = [dom.zero()] * len(index)
    for mono, c in p.terms.items():
        if mono not in index:
            raise ShapeMismatch(f"monomial {mono} is not a standard monomial")
        vec[index[mono]] = c
    return vec


# ---------------------------------------------------------------------------
# constrained retraction solving

def retraction_solve_matrices(v_cols, d_t, act_source, act_target, dom):
    """Solve R·V = I subject to R commuting with every listed action pair.

    ``v_cols`` holds the sparse columns {row: nonzero} of the d_T x d_S
    matrix V of a module map on coordinate bases, and ``act_source`` and
    ``act_target`` pair up the multiplication actions of the algebra
    generators on either side, each as the sparse columns of its matrix.
    Returns the d_S x d_T retraction matrix, or None when the exact linear
    system is infeasible.
    """
    d_s = len(v_cols)
    if len(act_source) != len(act_target):
        raise ShapeMismatch("action lists have different lengths")
    nunk = d_s * d_t
    minus_one, p = dom.from_int(-1), dom.p
    # unknown a * d_t + t is R[a][t] and column nunk holds minus the right-hand
    # side: (R·V)[a][b] reads column b of V, and (R·A_T - A_S·R)[a][t] reads
    # column t of A_T, then gets -A_S[a][b]·R[b][t] from each column b of A_S
    rows = []
    for a in range(d_s):
        for b, col in enumerate(v_cols):
            row = {a * d_t + t: c for t, c in col.items()}
            if a == b:
                row[nunk] = minus_one
            rows.append(row)
    for acts, actt in zip(act_source, act_target):
        eqs = [{a * d_t + u: c for u, c in actt[t].items()} for a in range(d_s) for t in range(d_t)]
        for b, col in enumerate(acts):
            for a, c in col.items():
                for t in range(d_t):
                    row, k = eqs[a * d_t + t], b * d_t + t
                    v = row.get(k, 0) - c
                    if p:
                        v %= p
                    elif type(v) is Fraction:
                        v = dom.normalize(v)  # 3/2 - 1/2 is the int 1
                    if v:
                        row[k] = v
                    else:
                        row.pop(k, None)
        rows += eqs
    sol = _solve(rows, nunk, dom)
    if sol is None:
        return None
    return [sol[a * d_t : (a + 1) * d_t] for a in range(d_s)]


# ---------------------------------------------------------------------------
# integer matrices: Smith form and right inverses

def _ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_form(mat, n):
    """Smith normal form of an integer matrix with n columns: returns
    (D, U, V) with U·M·V = D.

    The diagonal is canonical: entries are nonnegative and each divides
    the next.
    """
    a = [list(r) for r in mat]
    m = len(a)
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
    """An integer matrix X with M·X = I, or None when none exists; M has a
    row or no columns, as its width is read from its first row."""
    return smith_right_inverse(mat, smith_form(mat, len(mat[0]) if mat else 0))


def smith_right_inverse(mat, smith):
    """X with M·X = I read from a Smith form (D, U, V) of M, or None when none exists."""
    d, u, v = smith
    m, n = len(u), len(v)
    if m > n or any(abs(d[i][i]) != 1 for i in range(m)):
        return None
    # X = V·D⁺·U, where D⁺ is n x m with the units of D's diagonal (each its own inverse)
    x = [[sum(v[i][k] * d[k][k] * u[k][j] for k in range(m)) for j in range(m)] for i in range(n)]
    if [[sum(row[k] * x[k][j] for k in range(n)) for j in range(m)] for row in mat] != _ident(m):
        raise InconsistentClassification("Smith-form right inverse failed to verify")
    return x

"""Small exact linear algebra over the rationals.

Matrices are lists of row tuples of ints or `Fraction`s; no floats.  One
fraction-free elimination (Bareiss 1968), `_eliminate`, runs behind
`solve`, `solve_rect`, `nullspace` and `rank`, and its pivot step behind
`int_det`, `det` and `signature`: the rows are scaled to integers, every
division is exact, and `Fraction`s are made only for the results, which
`int_solve` and `int_nullspace` give as integers over one denominator.
Sizes are tiny (ambient dimensions 1-4), so first-nonzero pivoting does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact data: %r" % (x,))
    return Fraction(x)


def qvec(seq) -> tuple[Fraction, ...]:
    return tuple(frac(x) for x in seq)


def dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def mat_vec(rows, v):
    return tuple(dot(r, v) for r in rows)


def _reduce(m, r, c, d, rows):
    """One Bareiss step: with pivot p = m[r][c] and previous pivot d, each
    row i in `rows` becomes (p m[i] - m[i][c] m[r]) / d, exactly, as every
    entry is then a minor of the starting rows (Sylvester).  Returns p."""
    top = m[r]
    p = top[c]
    for i in rows:
        row = m[i]
        f = row[c]
        m[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
    return p


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of rational rows.

    Returns (m, pivots, d): integer rows m, the first len(pivots) of them
    d > 0 times the reduced row echelon form of `rows`, the rest zero, and
    the pivot columns.  Each step reduces all other rows, so every pivot
    ends up d.
    """
    m = clear_denominators(rows)[0]
    n = len(m)
    pivots, d = [], 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, n) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        d = _reduce(m, r, c, d, [i for i in range(n) if i != r])
        pivots.append(c)
        if r + 1 == n:
            break
    if d < 0:
        m, d = [[-x for x in row] for row in m], -d
    return m, pivots, d


def int_solve(rows):
    """(X, d) with A X = d B, for augmented rows (A | B) with A square and
    nonsingular: X as rows of integers, d > 0; None if A is singular."""
    n = len(rows)
    m, pivots, d = _eliminate(rows)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m], d


def solve(rows, rhs):
    """Solve the square system rows @ x = rhs; None if singular."""
    sol = int_solve([(*r, b) for r, b in zip(rows, rhs)])
    if sol is None:
        return None
    return tuple(Fraction(x, sol[1]) for (x,) in sol[0])


def solve_rect(rows, rhs):
    """Any solution of a consistent (possibly rectangular) system, else None."""
    if not rows:
        return ()
    ncols = len(rows[0])
    m, pivots, d = _eliminate([(*r, b) for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None  # inconsistent: pivot in the rhs column
    x = [0] * ncols
    for row, pc in zip(m, pivots):
        x[pc] = row[ncols]
    return tuple(Fraction(v, d) for v in x)


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def int_nullspace(rows):
    """(basis, d): an integer basis of {x : rows @ x = 0}, `nullspace`'s
    vectors times one d > 0."""
    if not rows:
        return [], 1
    ncols = len(rows[0])
    m, pivots, d = _eliminate(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = d
        for row, pc in zip(m, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis, d


def nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Basis of {x : rows @ x = 0}, one tuple per basis vector: for each
    non-pivot column, the solution that is 1 there and 0 on the others."""
    basis, d = int_nullspace(rows)
    return [tuple(Fraction(x, d) for x in v) for v in basis]


def det(rows) -> Fraction:
    ints, q = clear_denominators(rows)
    return Fraction(int_det(ints), q ** len(rows))


def int_det(rows) -> int:
    """Determinant of a square integer matrix by forward Bareiss steps."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, d = 1, 1
    for k in range(n):
        if not m[k][k]:
            pr = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        d = _reduce(m, k, k, d, range(k + 1, n))
    return sign * d


def primitive_int_vector(v):
    """Scale a nonzero rational vector to a primitive integer vector.

    Keeps direction (positive scaling only) so inequality senses survive.
    Returns (int tuple, multiplier) with multiplier > 0 rational such that
    multiplier * v = int tuple.
    """
    (ints,), q = clear_denominators([v])
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints), Fraction(q, g)


def clear_denominators(points):
    """(integer points, q) for rational points: q >= 1 is the least common
    denominator of all their coordinates, and each integer point is q
    times its rational point."""
    q = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (q // x.denominator) for x in p)
            for p in points], q


def signature(sym_rows) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) eigenvalue signs of a symmetric rational matrix.

    Computed exactly by congruence diagonalization (Sylvester's law of
    inertia), so no tolerance is involved: Bareiss steps on diagonal
    pivots leave d times the Schur complement below the pivot, d the
    pivot before it, so the pivot p of the diagonalization is p / d.  When
    every remaining diagonal entry is 0, adding row and column j to row
    and column i, a unimodular congruence, makes 2 m[i][j] one.
    """
    m = [list(r) for r in clear_denominators(sym_rows)[0]]
    n = len(m)
    pos = neg = k = 0
    d = 1
    while k < n:
        p = next((i for i in range(k, n) if m[i][i]), None)
        if p is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if m[i][j]), None)
            if off is None:
                break
            i, j = off
            m[i] = [a + b for a, b in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            continue
        if p != k:
            m[k], m[p] = m[p], m[k]
            for row in m:
                row[k], row[p] = row[p], row[k]
        if m[k][k] * d > 0:
            pos += 1
        else:
            neg += 1
        d = _reduce(m, k, k, d, range(k + 1, n))
        k += 1
    return pos, neg, n - pos - neg

"""Small exact linear algebra over the rationals.

Everything here works on lists/tuples of ``fractions.Fraction`` and stays
exact; no floats.  Matrices are lists of row tuples.  Sizes are tiny (the
ambient dimensions in this package are 1-4), so plain Gaussian elimination
with first-nonzero pivoting is all we need.
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


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mat_vec(rows, v):
    return tuple(dot(r, v) for r in rows)


def _eliminate(rows):
    """Row-reduce a copy of `rows`; returns (echelon rows, pivot columns)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(_eliminate(rows)[1])


def nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Basis of {x : rows @ x = 0}, one tuple per basis vector."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _eliminate(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """Solve the square system rows @ x = rhs; None if singular."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = _eliminate(aug)
    if pivots != list(range(n)):
        return None
    return tuple(m[i][n] for i in range(n))


def solve_rect(rows, rhs):
    """Any solution of a consistent (possibly rectangular) system, else None."""
    if not rows:
        return ()
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = _eliminate(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the rhs column
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = m[i][ncols]
    return tuple(x)


def det(rows) -> Fraction:
    n = len(rows)
    m = [list(r) for r in rows]
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def int_det(rows) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss
    elimination: every division is exact); 1 for the empty matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pr is None:
                return 0
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


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
    inertia), so no tolerance is involved.
    """
    n = len(sym_rows)
    m = [[frac(x) for x in row] for row in sym_rows]
    pos = neg = zero = 0
    k = 0
    while k < n:
        # find a nonzero diagonal pivot at or after k
        p = next((i for i in range(k, n) if m[i][i] != 0), None)
        if p is None:
            # all remaining diagonal entries vanish; look for off-diagonal
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if m[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                zero += n - k
                break
            i, j = off
            # row/col addition makes a nonzero diagonal entry at i
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            continue
        if p != k:
            m[k], m[p] = m[p], m[k]
            for r in range(n):
                m[r][k], m[r][p] = m[r][p], m[r][k]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / d
                for c in range(n):
                    m[i][c] -= f * m[k][c]
        for j in range(k + 1, n):
            if m[k][j] != 0:
                f = m[k][j] / d
                for r in range(n):
                    m[r][j] -= f * m[r][k]
        k += 1
    return pos, neg, zero

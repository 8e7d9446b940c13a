"""The linear algebra that `okbodies.linalg` ran before its one
fraction-free elimination, kept as an oracle for the tests: Gauss-Jordan
elimination on `Fraction` rows with first-nonzero pivoting, congruence
diagonalization for the signature, and the forward integer Bareiss
determinant.  Nothing in the package imports it, so a fault in the
package's elimination cannot hide in an oracle that shares it."""

from fractions import Fraction


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
    return len(_eliminate(rows)[1]) if rows else 0


def nullspace(rows):
    """Basis of {x : rows @ x = 0}, one tuple per basis vector."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = _eliminate(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """Solve the square system rows @ x = rhs; None if singular."""
    n = len(rows)
    m, pivots = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(m[i][n] for i in range(n))


def solve_rect(rows, rhs):
    """Any solution of a consistent (possibly rectangular) system, else None."""
    if not rows:
        return ()
    ncols = len(rows[0])
    m, pivots = _eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = m[i][ncols]
    return tuple(x)


def det(rows) -> Fraction:
    """Product of the pivots of a forward elimination, with the swaps' sign."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def int_det(rows) -> int:
    """Determinant of a square integer matrix by forward Bareiss
    elimination; 1 for the empty matrix."""
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


def signature(sym_rows) -> tuple[int, int, int]:
    """(n_pos, n_neg, n_zero) of a symmetric rational matrix, by
    congruence diagonalization on `Fraction`s."""
    n = len(sym_rows)
    m = [[Fraction(x) for x in row] for row in sym_rows]
    pos = neg = zero = 0
    k = 0
    while k < n:
        p = next((i for i in range(k, n) if m[i][i] != 0), None)
        if p is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                        if m[i][j] != 0), None)
            if off is None:
                zero += n - k
                break
            i, j = off
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

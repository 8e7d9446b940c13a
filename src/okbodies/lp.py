"""Exact rational linear programming (tiny dense simplex).

Cone membership tests and the one-parameter boundary searches in this
package must be exact, and no pre-installed solver does rational
arithmetic, so we carry a ~150 line simplex.  Bland's rule, so it
terminates; everything is Fractions.  Problem sizes here are a handful of
variables and constraints.

The boundedness test `recession_is_trivial` uses no simplex: a pointed cone
{x : Ax <= 0} is nonzero iff one of its extreme rays, each the kernel of
n-1 independent rows, lies in it; integer minors give those kernels.  It is
off the H -> V path, and is kept because perfbench's tracer binds it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import frac, int_det, primitive_int_vector

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _pivot(T, basis, r, col):
    piv = T[r][col]
    inv = Fraction(1) / piv
    T[r] = [x * inv for x in T[r]]
    for i in range(len(T)):
        if i != r and T[i][col] != 0:
            f = T[i][col]
            T[i] = [x - f * y for x, y in zip(T[i], T[r])]
    basis[r] = col


def _run(T, basis, ncols):
    """Pivot until the cost row (last row) has no positive reduced cost."""
    m = len(T) - 1
    while True:
        col = next((j for j in range(ncols) if T[m][j] > 0), None)
        if col is None:
            return OPTIMAL
        r_best = None
        best = None
        for i in range(m):
            if T[i][col] > 0:
                ratio = T[i][-1] / T[i][col]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[r_best]
                ):
                    best = ratio
                    r_best = i
        if r_best is None:
            return UNBOUNDED
        _pivot(T, basis, r_best, col)


def simplex_max(A, b, c):
    """max c.x subject to A x = b, x >= 0 (all entries rational).

    Returns (status, x, value); x and value are None unless optimal.
    """
    m = len(A)
    n = len(A[0]) if m else len(c)
    A = [[frac(x) for x in row] for row in A]
    b = [frac(x) for x in b]
    c = [frac(x) for x in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]

    # phase I: artificials, maximize -sum(artificials)
    T = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]]
         for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n):
            cost[j] += T[i][j]
        cost[-1] += T[i][-1]
    T.append(cost)
    basis = [n + i for i in range(m)]
    _run(T, basis, n + m)
    if T[m][-1] != 0:
        return INFEASIBLE, None, None

    # drive artificials out of the basis (or drop redundant rows)
    drop = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                _pivot(T, basis, i, col)
    for i in reversed(drop):
        del T[i]
        del basis[i]
    T = [row[:n] + [row[-1]] for row in T[:-1]]

    # phase II
    cost = list(c) + [Fraction(0)]
    for i, bi in enumerate(basis):
        if cost[bi] != 0:
            f = cost[bi]
            cost = [x - f * y for x, y in zip(cost, T[i])]
    T.append(cost)
    status = _run(T, basis, n)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = T[i][-1]
    return OPTIMAL, tuple(x), -T[-1][-1]


def nonneg_combination(generators, target):
    """Coefficients l >= 0 with sum(l_i * g_i) == target, or None.

    `generators` is a list of equal-length rational vectors.
    """
    if not generators:
        return () if all(frac(t) == 0 for t in target) else None
    dim = len(target)
    A = [[frac(g[r]) for g in generators] for r in range(dim)]
    status, x, _ = simplex_max(A, list(target), [Fraction(0)] * len(generators))
    return x if status == OPTIMAL else None


def max_cone_shift(generators, direction, target):
    """max t >= 0 with target - t*direction in cone(generators).

    Returns (status, t).  INFEASIBLE means target itself is outside the
    cone; UNBOUNDED means target - t*direction stays inside for all t.
    """
    dim = len(target)
    k = len(generators)
    A = [[frac(g[r]) for g in generators] + [frac(direction[r])] for r in range(dim)]
    c = [Fraction(0)] * k + [Fraction(1)]
    status, x, val = simplex_max(A, list(target), c)
    if status != OPTIMAL:
        return status, None
    return OPTIMAL, val


def max_over_ineqs(A, b, c):
    """max c.x subject to A x <= b with x free (sign-unrestricted).

    Split x = p - q and add slacks.  Returns (status, x, value).
    """
    m = len(A)
    n = len(c)
    rows = []
    for i in range(m):
        ai = [frac(x) for x in A[i]]
        rows.append(ai + [-x for x in ai]
                    + [Fraction(1) if j == i else Fraction(0) for j in range(m)])
    cc = [frac(x) for x in c] + [-frac(x) for x in c] + [Fraction(0)] * m
    status, x, val = simplex_max(rows, list(b), cc)
    if status != OPTIMAL:
        return status, None, None
    pt = tuple(x[j] - x[n + j] for j in range(n))
    return OPTIMAL, pt, val


def recession_is_trivial(A, dim):
    """True iff {x : A x <= 0} == {0} (A rows = inequality normals).

    Each (dim-1)-subset of rows gives the vector r of its signed maximal
    minors, which spans the subset's kernel when the rows are independent.
    If rank(A) == dim the cone is pointed, hence nonzero iff some such r or
    -r lies in it.  If rank(A) == dim-1 the first nonzero r spans the
    lineality line and is orthogonal to every row; if rank(A) < dim-1 every
    r vanishes.  Either way the cone is nonzero.
    """
    rows = list(dict.fromkeys(primitive_int_vector(row)[0]
                              for row in A if any(x != 0 for x in row)))
    cols = range(dim)
    found = False
    for sub in combinations(rows, dim - 1):
        r = [(-1) ** j * int_det([[a[k] for k in cols if k != j] for a in sub])
             for j in cols]
        if not any(r):
            continue
        found = True
        s = [sum(x * y for x, y in zip(a, r)) for a in rows]
        if all(v <= 0 for v in s) or all(v >= 0 for v in s):
            return False
    return found

"""Brute-force hull reference for the tests, independent of the package's
hull engine: facets from every d-subset of the points, extreme points by
the rank of their facet normals, and volume by pyramids over the facets,
each facet's volume taken recursively on its projection."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from okbodies.linalg import int_det, rank


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _candidates(pts):
    """The points that are not the midpoint of two others.  The rest are
    never extreme, so dropping them changes no facet."""
    pset = set(pts)
    return [p for p in pts
            if not any(tuple(2 * a - b for a, b in zip(p, r)) in pset
                       for r in pts if r != p)]


def brute_facets(pts):
    """{(primitive outward normal, offset): frozenset of the points on it}
    for distinct integer points spanning R^d.

    Every d-subset whose differences have a nonzero vector of signed
    maximal minors spans a hyperplane; it is a facet plane when no point
    lies strictly on both sides."""
    d = len(pts[0])
    cand = _candidates(pts)
    facets = {}
    for sub in combinations(cand, d):
        u = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        nrm = [(-1) ** k * int_det([r[:k] + r[k + 1:] for r in u])
               for k in range(d)]
        g = gcd(*nrm)
        if g == 0:
            continue
        nrm = tuple(x // g for x in nrm)
        c = _dot(nrm, sub[0])
        sides = [_dot(nrm, p) - c for p in cand]
        if max(sides) > 0:
            if min(sides) < 0:
                continue
            nrm, c = tuple(-x for x in nrm), -c
        facets[(nrm, c)] = frozenset(p for p, s in zip(cand, sides) if s == 0)
    return facets


def brute_hull(pts):
    """(sorted extreme indices, facets as in `brute_facets`): a point is
    extreme iff the normals of the facets through it have rank d."""
    d = len(pts[0])
    facets = brute_facets(pts)
    extreme = [i for i, p in enumerate(pts)
               if rank([tuple(map(Fraction, nrm))
                        for (nrm, _c), members in facets.items()
                        if p in members]) == d]
    return extreme, facets


def brute_volume(pts):
    """Exact volume of the hull of integer points spanning R^d.

    A facet a . x <= c adds the pyramid from pts[0] over it:
    (c - a . pts[0]) * mu / |a_k| / d, where a_k is the largest entry of a
    and mu the (d - 1)-volume of the facet projected along e_k, found by
    the same sum one dimension down."""
    d = len(pts[0])
    if d == 1:
        return Fraction(max(pts)[0] - min(pts)[0])
    x0 = pts[0]
    total = Fraction(0)
    for (a, c), members in brute_facets(pts).items():
        k = max(range(d), key=lambda i: abs(a[i]))
        face = [p[:k] + p[k + 1:] for p in members]
        total += (c - _dot(a, x0)) * brute_volume(face) / abs(a[k])
    return total / d

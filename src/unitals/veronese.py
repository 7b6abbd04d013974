"""The PG(5,q) side: Veronese surface, conic points P(C), and the
cone-intersection residuals.

A conic corresponds to the PG(5,q) point carrying its coefficient tuple
(a11,a22,a33,a12,a13,a23); rank-1 conics make up the Veronese surface V and
every conic C of rank > 1 spans the cone Gamma(C) projecting V from P(C).
No cone is built: the residual of the cones of C and D, their common
points off the line P(C)P(D) and off V, is read off the projection of V
from that line, the n^2+n+1 rows of V per pair of conics in numpy.  The
tests keep the direct build, about n^3 rows per cone, as the oracle.
"""

from itertools import combinations

import numpy as np

from .conic import Conic, quadratic_rows, rank1_rows
from .gf import GF
from .geom import point_array, projective_space, span


def sorted_unique(idx):
    """The distinct entries of an integer array, sorted; the array is
    sorted in place.  Sorting and comparing neighbours is much faster on
    large arrays than np.unique, which in numpy 2.4 also imports numpy.ma
    on its first call."""
    idx.sort()
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]
    return idx[keep]


def line_meets_veronese(F: GF, P, Q):
    """The points of the line PQ of PG(5,n) lying on V, canonical order.
    Every row of the span is indexed, so that a pair spanning no line,
    P = 0, Q = 0 or P ~ Q, is refused through its zero row."""
    space = projective_space(F, 5)
    rows = span(F, P, Q)
    idx = space.index_rows(rows)[rank1_rows(F, rows)]
    return [space.point(int(i)) for i in sorted_unique(idx)]


# -- cone residuals by projection from the apex line ---------------------------


def _apex_line_meets(F: GF, V, c, d):
    """Rows, repeats included, of the points cv1 & dv2 over every ordered
    pair of distinct rows v1, v2 of V that lie off the line cd and project
    from it to one point.

    Two columns i, j on which c and d are independent split each row as
    v = a*c + b*d + w with w zero at i and j; w = 0 on the line cd, and
    otherwise its normalised entries key the image.  For a pair with one
    key, w2 = g*w1 with g = lead(w2)/lead(w1), so v2 - g*v1 lies in <c, d>
    with d-coefficient b2 - g*b1, and the meet is v2 - (b2 - g*b1)*d."""

    def minor(k, l):
        return F.sub(F.mul(c[k], d[l]), F.mul(c[l], d[k]))

    i, j = next((i, j) for i, j in combinations(range(6), 2) if minor(i, j))
    e = F.inv(minor(i, j))
    # Cramer on columns i and j: b = e*(c_i v_j - c_j v_i), and
    # w_k = v_k - a*c_k - b*d_k = v_k + e*minor(j, k)*v_i + e*minor(k, i)*v_j
    ks = [k for k in range(6) if k not in (i, j)]
    s, t = np.array([F.mul(e, minor(j, k)) for k in ks]), np.array([F.mul(e, minor(k, i)) for k in ks])
    W = F.vadd(V[:, ks], F.vadd(F.vmul(s, V[:, [i]]), F.vmul(t, V[:, [j]])))
    off = np.flatnonzero(W.any(axis=1))
    V, W = V[off], W[off]
    lead = W[np.arange(len(W)), (W != 0).argmax(axis=1)]
    inv_lead = F.inv_table[lead]
    key = F.vmul(inv_lead[:, None], W) @ F.order ** np.arange(3, -1, -1, dtype=np.int64)
    order = np.argsort(key)
    key = key[order]
    repeated = np.zeros(len(key), dtype=bool)
    repeated[1:] = key[1:] == key[:-1]
    repeated[:-1] |= repeated[1:]
    rows, key = order[repeated], key[repeated]
    # the ordered pairs of rows sharing a key: equal keys are neighbours,
    # so once no key has a partner at offset o none has one further on
    v1, v2 = [rows[:0]], [rows[:0]]
    for o in range(1, len(key)):
        r = np.flatnonzero(key[o:] == key[:-o])
        if not len(r):
            break
        v1 += [rows[r], rows[r + o]]
        v2 += [rows[r + o], rows[r]]
    v1, v2 = np.concatenate(v1), np.concatenate(v2)
    g = F.vmul(lead[v2], inv_lead[v1])
    ci, cj = F.mul(e, c[i]), F.neg(F.mul(e, c[j]))
    b1, b2 = (F.vadd(F.vmul(ci, V[v, j]), F.vmul(cj, V[v, i])) for v in (v1, v2))
    b = F.vadd(b2, F.neg_table[F.vmul(g, b1)])
    return F.vadd(V[v2], F.vmul(b[:, None], F.neg_table[list(d)]))


def cone_residual_intersection(C: Conic, partners):
    """For each conic D of ``partners``, all points of (Gamma(C) & Gamma(D))
    minus the line P(C)P(D) minus V, in canonical index order, as coordinate
    tuples: one list per partner.

    A point X of the residual lies on lines cv1 and dv2, c = P(C), d = P(D),
    with v1 != v2 points of V off the line cd; both lie in the plane
    <cd, X>, so they project from cd to one point.  Conversely two such
    points of V give coplanar lines cv1 and dv2 meeting in one point off
    cd.  So the residual is the set of those meets, minus V: exact at every
    order, from the n^2+n+1 rows of V per partner."""
    F = C.field
    partners = list(partners)
    for D in partners:
        if F != D.field:
            raise ValueError("conics live over different fields")
        if C == D:
            raise ValueError("cones of a single conic")
    if F.p != 2 and any(E.rank() != 3 for E in [C, *partners]):
        raise ValueError("residual intersection needs irreducible conics")
    space = projective_space(F, 5)
    V = quadratic_rows(F, point_array(F, 2))
    out = []
    for D in partners:
        X = _apex_line_meets(F, V, C.coeffs, D.coeffs)
        found = sorted_unique(space.index_rows(X[~rank1_rows(F, X)]))
        out.append([space.point(int(i)) for i in found])
    return out

"""The PG(5,q) side: Veronese surface, conic points P(C), cones, and the
cone-intersection residuals.

A conic corresponds to the PG(5,q) point carrying its coefficient tuple
(a11,a22,a33,a12,a13,a23); rank-1 conics make up the Veronese surface V and
every conic C of rank > 1 spans the cone Gamma(C) projecting V from P(C).
A point Q other than P(C) lies on Gamma(C) exactly when the line P(C)Q meets
V away from P(C), so the cone is built directly: P(C), every point of V, and
every point P(C) + lambda*v for v on V, about n^3 rows normalised in numpy.
The residuals of one conic C against several partners build Gamma(C) once.
"""

from functools import lru_cache

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


@lru_cache(maxsize=None)
def veronese_indices(F: GF):
    """Sorted, read-only int64 array of the PG(5,n) indices of the Veronese
    surface (one per plane point)."""
    rows = quadratic_rows(F, point_array(F.order, 2))
    idx = np.sort(projective_space(F, 5).index_rows(rows))
    idx.flags.writeable = False
    return idx


def line_meets_veronese(F: GF, P, Q):
    """The points of the line PQ of PG(5,n) lying on V, canonical order.
    Every row of the span is indexed, so that a pair spanning no line,
    P = 0, Q = 0 or P ~ Q, is refused through its zero row."""
    space = projective_space(F, 5)
    rows = span(F, P, Q)
    idx = space.index_rows(rows)[rank1_rows(F, rows)]
    return [space.point(int(i)) for i in sorted_unique(idx)]


# -- cones in numpy ------------------------------------------------------------


def cone_point_indices(C: Conic):
    """Sorted PG(5,n) indices of the full cone of C, built directly: the
    lines from the apex to every Veronese point v, that is the apex and
    every point v + lambda*apex (v itself at lambda = 0), so that the
    lambda-multiples are taken of the apex alone.  Such a row vanishes
    only when v is the apex's own point, so zero rows occur, and are
    dropped, only for a rank-1 apex, a point of V; the rows of an apex of
    higher rank are never scanned for them."""
    F = C.field
    V = quadratic_rows(F, point_array(F.order, 2))
    rows = span(F, V, C.coeffs).reshape(-1, 6)
    if rank1_rows(F, np.array(C.coeffs)):
        rows = rows[rows.any(axis=1)]
    # drop repeats: the apex, and points on lines meeting V twice
    return sorted_unique(projective_space(F, 5).index_rows(rows))


def cone_residual_intersection(C: Conic, partners):
    """For each conic D of ``partners``, all points of (Gamma(C) & Gamma(D))
    minus the line P(C)P(D) minus V, in canonical index order, as coordinate
    tuples: one list per partner.  Both cones are built directly, which is
    exact at every order; the cone of C is built once."""
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
    cone_c = cone_point_indices(C)
    out = []
    for D in partners:
        found = np.intersect1d(cone_c, cone_point_indices(D), assume_unique=True)
        found = np.setdiff1d(found, space.index_rows(span(F, C.coeffs, D.coeffs)), assume_unique=True)
        found = np.setdiff1d(found, veronese_indices(F), assume_unique=True)
        out.append([space.point(int(i)) for i in found])
    return out

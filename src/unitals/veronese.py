"""The PG(5,q) side: Veronese surface, conic points P(C), cones, and the
cone-intersection residuals.

A conic corresponds to the PG(5,q) point carrying its coefficient tuple
(a11,a22,a33,a12,a13,a23); rank-1 conics make up the Veronese surface V and
every conic C of rank > 1 spans the cone Gamma(C) projecting V from P(C).
A point Q other than P(C) lies on Gamma(C) exactly when the line P(C)Q meets
V away from P(C), so the cone is built directly: P(C), every point of V, and
every point P(C) + lambda*v for v on V, about n^3 rows normalised in numpy.
The residuals of one conic C against several partners build Gamma(C) once.
The exhaustive PG(5,n) sweep, which line-scans every point for a rank-1
symmetric matrix, and the plain per-point scans (``line_meets_veronese``,
``cone_contains``) stay as the oracles the numpy paths are tested against.
"""

from functools import lru_cache

import numpy as np

from .conic import Conic, quadratic_rows, rank1_rows, symmetric_rank_leq1
from .gf import GF
from .geom import point_array, projective_space, span


def sorted_unique(idx):
    """The distinct entries of an integer array, sorted; the array is
    sorted in place.  Sorting and comparing neighbours is much faster on
    large arrays than np.unique, which in numpy 2.4 also imports numpy.ma
    on its first call."""
    idx.sort()
    return idx[np.concatenate(([True], idx[1:] != idx[:-1]))]


def veronese_point(F: GF, a: int, b: int, c: int):
    """Normalised image (a^2,b^2,c^2,ab,ac,bc) of a nonzero triple."""
    if a == 0 and b == 0 and c == 0:
        raise ValueError("the zero triple has no Veronese image")
    mul = F.mul
    v = (mul(a, a), mul(b, b), mul(c, c), mul(a, b), mul(a, c), mul(b, c))
    return projective_space(F, 5).normalize(v)


@lru_cache(maxsize=None)
def veronese_indices(F: GF):
    """Sorted, read-only int64 array of the PG(5,n) indices of the Veronese
    surface (one per plane point)."""
    rows = quadratic_rows(F, point_array(F.order, 2))
    idx = np.sort(projective_space(F, 5).index_rows(rows))
    idx.flags.writeable = False
    return idx


def line_meets_veronese(F: GF, P, Q):
    """The points of the line PQ of PG(5,n) lying on V, canonical order."""
    space = projective_space(F, 5)
    found = {}
    for R in span(F, P, Q).tolist():
        Rn = space.normalize(R)
        if symmetric_rank_leq1(F, Rn):
            found[space.index(Rn)] = Rn
    return [found[i] for i in sorted(found)]


def cone_contains(C: Conic, Q) -> bool:
    """Whether Q lies on the cone projecting V from P(C): Q = P(C) or the
    line P(C)Q meets V (line-scan, n+1 rank tests)."""
    F = C.field
    if F.p != 2 and C.rank() <= 1:
        raise ValueError("rank-1 conics are points of V, not cone apices")
    space = projective_space(F, 5)
    apex = space.normalize(C.coeffs)
    Qn = space.normalize(tuple(Q))
    if Qn == apex:
        return True
    return bool(line_meets_veronese(F, apex, Qn))


# -- cones in numpy ------------------------------------------------------------


def _cone_hits_block(F: GF, coeffs, coords):
    """Boolean array marking rows of ``coords`` lying on the cone of the
    conic with the given coefficients (apex excluded): the line from each
    row to the apex meets V away from the apex.  Rows go in chunks, to
    bound the (chunk, n+1, 6) span."""
    chunk = 1 << 16
    hits = np.empty(len(coords), dtype=bool)
    for lo in range(0, len(coords), chunk):
        # span row 0 is the apex itself; rows 1.. are row + lambda*apex
        lines = span(F, coords[lo : lo + chunk], coeffs)
        hits[lo : lo + chunk] = rank1_rows(F, lines)[:, 1:].any(axis=1)
    return hits


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
    if symmetric_rank_leq1(F, C.coeffs):
        rows = rows[rows.any(axis=1)]
    # drop repeats: the apex, and points on lines meeting V twice
    return sorted_unique(projective_space(F, 5).index_rows(rows))


@lru_cache(maxsize=4)
def swept_cone_indices(C: Conic):
    """Oracle for ``cone_point_indices``: every point of PG(5,n) is
    line-scanned against the cone.  Read-only and cached, since the tests
    sweep each case's apex for the residual scan and again against
    ``cone_point_indices``."""
    F = C.field
    space = projective_space(F, 5)
    idx = np.flatnonzero(_cone_hits_block(F, C.coeffs, space.coords_array()))
    idx = sorted_unique(np.append(idx, space.index(C.coeffs)))
    idx.flags.writeable = False
    return idx


def cone_residual_intersection(C: Conic, partners, method: str = "direct"):
    """For each conic D of ``partners``, all points of (Gamma(C) & Gamma(D))
    minus the line P(C)P(D) minus V, in canonical index order, as coordinate
    tuples: one list per partner.  The work on C is done once.

    method "direct" intersects the two directly built cones and is exact at
    every order; "scan" sweeps the whole of PG(5,n) for the cone of C and
    line-scans its points against D (the oracle, affordable up to n=25);
    "scalar" is the plain per-point reference implementation for small n.
    """
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

    if method == "direct":
        cone_c = cone_point_indices(C)

        def on_both(D):
            return np.intersect1d(cone_c, cone_point_indices(D), assume_unique=True)

    elif method == "scan":
        cand = swept_cone_indices(C)
        cand_coords = space.coords_array()[cand]

        def on_both(D):
            return cand[_cone_hits_block(F, D.coeffs, cand_coords) | (cand == space.index(D.coeffs))]

    elif method == "scalar":
        cand = [i for i, P in enumerate(space.points()) if cone_contains(C, P)]

        def on_both(D):
            return [i for i in cand if cone_contains(D, space.point(i))]

    else:
        raise ValueError(f"unknown method {method!r}")
    out = []
    for D in partners:
        apex_line = space.index_rows(span(F, C.coeffs, D.coeffs))
        found = np.setdiff1d(on_both(D), apex_line, assume_unique=True)
        found = np.setdiff1d(found, veronese_indices(F), assume_unique=True)
        out.append([space.point(int(i)) for i in found])
    return out

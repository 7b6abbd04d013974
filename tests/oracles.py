"""Slow, plain reference implementations that the tests check the library's
fast paths against.  No claim runs them, so they live with the tests.

- ``nullspace``: Gaussian elimination over F, the reference for the
  closed-form pencils and pencil parameters of the conic search;
- ``point_index``, ``symmetric_rank_leq1`` and ``scalar_line_meets_veronese``:
  one point at a time, the references for ``index_rows``, ``rank1_rows``
  and ``line_meets_veronese``;
- ``apply_collineation``, ``transform_points`` and ``line_through``: one
  point at a time in PG(2,n), so that the inputs of the tests on the
  pencil search are not built by the search's own line-value code;
- ``PointClass`` and ``classify_point``: the per-point classifier behind
  ``Conic.classify_array``, over the plane or at given point indices, and
  ``analysis.no_external_points``, which classifies one conic's points
  alone;
- ``is_oval``: a conic's point set read against the line table, the
  reference for ``Conic.is_irreducible`` in characteristic 2, and
  ``veronese_indices``: V as the indexed image of the whole plane, the
  reference for the rank-1 test that drops V from the residuals;
- ``cone_point_indices`` and ``direct_residuals``: each cone built
  directly, about n^3 rows, and the residual as the intersection of two
  such cones, the reference for ``cone_residual_intersection``, which
  projects V from the apex line instead;
- ``cone_contains``, ``swept_cone_indices``, ``scan_residuals`` and
  ``scalar_residuals``: the PG(5,n) sweeps behind ``cone_point_indices``
  and the residuals, point by point or over all of PG(5,n).
"""

import enum
from functools import lru_cache
from itertools import combinations

import numpy as np

from unitals.conic import Conic, quadratic_rows, rank1_rows
from unitals.geom import PointSet, det3, line_counts, matvec3, point_array, projective_space, span
from unitals.gf import GF
from unitals.veronese import sorted_unique


def nullspace(F: GF, rows) -> list:
    """Basis of the right null space of a matrix given as an iterable of
    equal-length coefficient rows over F."""
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][fc])
        basis.append(tuple(v))
    return basis


# -- points, one at a time ------------------------------------------------------


def point_index(space, coords) -> int:
    """Canonical index of a normalised point of PG(d,n): the points whose
    leading one sits at position i form the block at offset
    (n^(d-i) - 1)/(n - 1), which counts the later coordinates in base n."""
    m, d = space.field.order, space.dim
    i = next(t for t, c in enumerate(coords) if c)
    idx = (m ** (d - i) - 1) // (m - 1)
    for t in range(i + 1, d + 1):
        # int(): a numpy row's fixed-width coordinates would overflow
        idx += int(coords[t]) * m ** (d - t)
    return idx


def symmetric_rank_leq1(F: GF, q) -> bool:
    """True when the symmetric 3x3 matrix built from the 6-tuple is nonzero
    of rank 1: every one of its nine 2x2 minors vanishes."""
    M = ((q[0], q[3], q[4]), (q[3], q[1], q[5]), (q[4], q[5], q[2]))
    pairs = list(combinations(range(3), 2))
    return any(q) and all(
        F.mul(M[i][k], M[j][l]) == F.mul(M[i][l], M[j][k]) for i, j in pairs for k, l in pairs
    )


def scalar_line_meets_veronese(F: GF, P, Q):
    """The points of the line PQ of PG(5,n) lying on V, canonical order:
    each point of the span normalised and rank-tested alone."""
    space = projective_space(F, 5)
    found = {}
    for R in span(F, P, Q).tolist():
        Rn = space.normalize(R)
        if symmetric_rank_leq1(F, Rn):
            found[point_index(space, Rn)] = Rn
    return [found[i] for i in sorted(found)]


# -- PG(2,n), one point at a time ----------------------------------------------


def apply_collineation(space, M, P):
    """Image of a point of PG(2,n) under an invertible 3x3 matrix."""
    F = space.field
    if det3(F, M) == 0:
        raise ValueError("collineation matrix is singular")
    return space.normalize(matvec3(F, M, P))


def transform_points(plane, M, pts: PointSet) -> PointSet:
    """The image of a point set of PG(2,n) under x -> Mx."""
    if det3(plane.field, M) == 0:
        raise ValueError("transform needs an invertible matrix")
    return PointSet.from_indices(plane, [point_index(plane, apply_collineation(plane, M, plane.point(i))) for i in pts.indices()])


def line_through(plane, P, Q):
    """The normalised dual vector of the unique line through two distinct
    points of PG(2,n)."""
    if plane.dim != 2:
        raise ValueError("lines are only built in PG(2,n)")
    P, Q = tuple(P), tuple(Q)
    if plane.normalize(P) == plane.normalize(Q):
        raise ValueError(f"{P} and {Q} coincide")
    F = plane.field
    u = F.sub(F.mul(P[1], Q[2]), F.mul(P[2], Q[1]))
    v = F.sub(F.mul(P[2], Q[0]), F.mul(P[0], Q[2]))
    w = F.sub(F.mul(P[0], Q[1]), F.mul(P[1], Q[0]))
    return plane.normalize((u, v, w))


class PointClass(enum.Enum):
    ON_CONIC = "on"
    EXTERNAL = "external"
    INTERNAL = "internal"


def classify_point(C: Conic, P) -> PointClass:
    """External iff -det(A) * f(P) is a nonzero square; on the conic iff
    f(P) = 0; internal otherwise."""
    if C.field.p == 2:
        raise ValueError("matrix form needs odd characteristic")
    if C.rank() != 3:
        raise ValueError("point classification needs an irreducible conic")
    F = C.field
    v = C.evaluate(P)
    if v == 0:
        return PointClass.ON_CONIC
    if F.is_square(F.mul(F.neg(C.det()), v)):
        return PointClass.EXTERNAL
    return PointClass.INTERNAL


# -- conics and the Veronese surface, point set by point set --------------------


def is_oval(C: Conic) -> bool:
    """Whether the conic's point set is an oval: n+1 points, no line
    meeting it more than twice."""
    pts = C.points()
    return pts.card == C.field.order + 1 and bool((line_counts(pts) <= 2).all())


@lru_cache(maxsize=None)
def veronese_indices(F: GF):
    """Sorted, read-only int64 array of the PG(5,n) indices of the Veronese
    surface (one per plane point)."""
    rows = quadratic_rows(F, point_array(F, 2))
    idx = np.sort(projective_space(F, 5).index_rows(rows))
    idx.flags.writeable = False
    return idx


# -- cones over the Veronese surface, built directly ---------------------------


def cone_point_indices(C: Conic):
    """Sorted PG(5,n) indices of the full cone of C, built directly: the
    lines from the apex to every Veronese point v, that is the apex and
    every point v + lambda*apex (v itself at lambda = 0), so that the
    lambda-multiples are taken of the apex alone.  Such a row vanishes
    only when v is the apex's own point, so zero rows occur, and are
    dropped, only for a rank-1 apex, a point of V."""
    F = C.field
    V = quadratic_rows(F, point_array(F, 2))
    rows = span(F, V, C.coeffs).reshape(-1, 6)
    if rank1_rows(F, np.array(C.coeffs)):
        rows = rows[rows.any(axis=1)]
    # drop repeats: the apex, and points on lines meeting V twice
    return sorted_unique(projective_space(F, 5).index_rows(rows))


def direct_residuals(C: Conic, partners):
    """``cone_residual_intersection`` as the intersection of the two
    directly built cones, minus the points of the line P(C)P(D) and of V;
    the cone of C is built once."""
    F = C.field
    space = projective_space(F, 5)
    cone_c = cone_point_indices(C)
    out = []
    for D in partners:
        found = np.intersect1d(cone_c, cone_point_indices(D), assume_unique=True)
        found = np.setdiff1d(found, space.index_rows(span(F, C.coeffs, D.coeffs)), assume_unique=True)
        found = np.setdiff1d(found, veronese_indices(F), assume_unique=True)
        out.append([space.point(int(i)) for i in found])
    return out


# -- cones over the Veronese surface, by sweeping PG(5,n) ----------------------


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
    return bool(scalar_line_meets_veronese(F, apex, Qn))


def cone_hits(F: GF, coeffs, coords):
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


@lru_cache(maxsize=4)
def swept_cone_indices(C: Conic):
    """Sorted PG(5,n) indices of the cone of C: every point of PG(5,n) is
    line-scanned against it.  Read-only and cached, since the tests sweep
    each case's apex for the residual scan and again against
    ``cone_point_indices``."""
    F = C.field
    space = projective_space(F, 5)
    idx = np.flatnonzero(cone_hits(F, C.coeffs, space.coords_array()))
    idx = sorted_unique(np.append(idx, point_index(space, C.coeffs)))
    idx.flags.writeable = False
    return idx


def scan_residuals(C: Conic, partners):
    """``cone_residual_intersection`` by sweeping the whole of PG(5,n) for
    the cone of C and line-scanning its points against each partner D
    (affordable up to n=25), then dropping the points on the line
    P(C)P(D) and on V."""
    F = C.field
    space = projective_space(F, 5)
    cand = swept_cone_indices(C)
    cand_coords = space.coords_array()[cand]
    out = []
    for D in partners:
        found = cand[cone_hits(F, D.coeffs, cand_coords) | (cand == point_index(space, D.coeffs))]
        found = np.setdiff1d(found, space.index_rows(span(F, C.coeffs, D.coeffs)), assume_unique=True)
        found = found[~rank1_rows(F, space.coords_array()[found])]
        out.append([space.point(int(i)) for i in found])
    return out


def scalar_residuals(C: Conic, partners):
    """``cone_residual_intersection`` point by point, for small n: each
    point of PG(5,n) on both cones, off the line P(C)P(D) and off V."""
    F = C.field
    space = projective_space(F, 5)
    cand = [P for P in map(space.point, range(space.npoints)) if cone_contains(C, P)]
    out = []
    for D in partners:
        apex_line = {space.normalize(R) for R in span(F, C.coeffs, D.coeffs).tolist()}
        out.append(
            [P for P in cand if cone_contains(D, P) and P not in apex_line and not symmetric_rank_leq1(F, P)]
        )
    return out

"""Conic algebra over PG(2,n).

A conic is stored as the 6-tuple (a11,a22,a33,a12,a13,a23), normalised so
the first nonzero entry is 1.  In odd characteristic the quadratic form is
a11 x^2 + a22 y^2 + a33 z^2 + 2 a12 xy + 2 a13 xz + 2 a23 yz and the usual
symmetric-matrix machinery (rank, determinant, polarity) applies.  In even
characteristic the stored cross coefficients are the literal polynomial
coefficients and only point-set operations, the transform and the nucleus
are offered.
"""

import enum
from functools import lru_cache

import numpy as np

from .gf import GF
from .geom import PointSet, det3, inv3, line_counts, matvec3, projective_plane, projective_space, tangent_counts


class PencilKind(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"


# symmetric matrix from a 6-tuple q: rows ((q0,q3,q4),(q3,q1,q5),(q4,q5,q2));
# 2x2 minors as index quadruples (i,j,k,l) meaning q_i*q_j == q_k*q_l.  These
# four imply q1*q4 == q3*q5 and q2*q3 == q4*q5 in every characteristic: q0 != 0
# gives q1, q2, q5 = q3^2/q0, q4^2/q0, q3*q4/q0; q0 == 0 forces q3 = q4 = 0
_MINOR_PAIRS = (
    (0, 1, 3, 3),
    (0, 2, 4, 4),
    (1, 2, 5, 5),
    (0, 5, 3, 4),
)


def rank1_rows(F: GF, rows):
    """Whether the symmetric 3x3 matrix built from each 6-tuple along the
    last axis of a (..., 6) array of field elements is nonzero of rank 1:
    a boolean array of shape rows.shape[:-1].  Each minor after the
    first, and the nonzero test, run only on the rows still alive (a zero
    row makes every minor vanish)."""
    flat = rows.reshape(-1, 6)

    def minor_vanishes(s, i, j, k, l):
        return F.vmul(s[:, i], s[:, j]) == F.vmul(s[:, k], s[:, l])

    alive = np.flatnonzero(minor_vanishes(flat, *_MINOR_PAIRS[0]))
    for pair in _MINOR_PAIRS[1:]:
        alive = alive[minor_vanishes(flat[alive], *pair)]
    alive = alive[flat[alive].any(axis=1)]
    out = np.zeros(len(flat), dtype=bool)
    out[alive] = True
    return out.reshape(rows.shape[:-1])


def quadratic_rows(F: GF, pts):
    """(m, 6) array of the images (x^2, y^2, z^2, xy, xz, yz) of the rows
    (x, y, z) of ``pts``: the Veronese map, not normalised."""
    pts = np.asarray(pts)
    return F.vmul(pts[:, [0, 1, 2, 0, 0, 1]], pts[:, [0, 1, 2, 1, 2, 2]])


@lru_cache(maxsize=None)
def _monomials(plane):
    """(npoints, 6) array, in the field's dtype, of monomial values per
    point: the Veronese map with the cross columns doubled in odd
    characteristic, so that a conic evaluates as ``eval_many`` with its
    coefficient tuple."""
    F = plane.field
    mon = quadratic_rows(F, plane.coords_array())
    if F.p != 2:
        mon[:, 3:] = F.vmul(F.add(1, 1), mon[:, 3:])
    return mon


def eval_many(F: GF, coeffs, rows):
    """Array, in the field's dtype, of the sums coeffs[0]*r[0] + ... +
    coeffs[5]*r[5] over F, one per row r of the (m, 6) array ``rows``.
    With a conic's coefficients and monomial rows these are the form's
    values; the pairing is symmetric, so one point's monomials against
    coefficient rows works too.  Each product is read from the row of its
    coefficient, and a zero coefficient adds nothing."""
    acc = F.vmul(coeffs[0], rows[:, 0])
    for j in range(1, 6):
        if coeffs[j]:
            acc = F.vadd(acc, F.vmul(coeffs[j], rows[:, j]))
    return acc


class Conic:
    """A conic of PG(2,n), identified with its normalised coefficient tuple.
    Its point set is kept as the sorted indices of its points alone, n+1
    of them when it is irreducible, never as a plane-sized array."""

    __slots__ = ("field", "coeffs", "_points", "_rank", "_det")

    def __init__(self, F: GF, coeffs):
        coeffs = tuple(F.require_element(c, "coefficient") for c in coeffs)
        if len(coeffs) != 6:
            raise ValueError("a conic needs 6 coefficients")
        if not any(coeffs):
            raise ValueError("all-zero coefficient tuple")
        self.field = F
        self.coeffs = projective_space(F, 5).normalize(coeffs)
        self._points = None
        self._rank = None
        self._det = None

    def __eq__(self, other):
        return isinstance(other, Conic) and self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Conic{self.coeffs}"

    @property
    def plane(self):
        return projective_plane(self.field)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, P) -> int:
        F = self.field
        a11, a22, a33, a12, a13, a23 = self.coeffs
        x, y, z = P
        v = F.mul(a11, F.mul(x, x))
        v = F.add(v, F.mul(a22, F.mul(y, y)))
        v = F.add(v, F.mul(a33, F.mul(z, z)))
        cross = F.add(F.add(F.mul(a12, F.mul(x, y)), F.mul(a13, F.mul(x, z))), F.mul(a23, F.mul(y, z)))
        if F.p != 2:
            cross = F.mul(F.add(1, 1), cross)
        return F.add(v, cross)

    def point_indices(self):
        """Sorted, read-only int64 array of the indices of the conic's
        points, from one ``eval_many`` over the plane, kept."""
        if self._points is None:
            self._points = np.flatnonzero(eval_many(self.field, self.coeffs, _monomials(self.plane)) == 0)
            self._points.flags.writeable = False
        return self._points

    def points(self) -> PointSet:
        return PointSet.from_indices(self.plane, self.point_indices())

    # -- matrix machinery (odd characteristic) ------------------------------

    def _require_odd(self):
        if self.field.p == 2:
            raise ValueError("matrix form needs odd characteristic")

    def matrix(self):
        self._require_odd()
        a11, a22, a33, a12, a13, a23 = self.coeffs
        return ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))

    def det(self) -> int:
        if self._det is None:
            self._det = det3(self.field, self.matrix())
        return self._det

    def rank(self) -> int:
        if self._rank is None:
            if self.det() != 0:
                self._rank = 3
            else:
                self._rank = 1 if rank1_rows(self.field, np.array(self.coeffs)) else 2
        return self._rank

    @property
    def is_irreducible(self) -> bool:
        """Rank 3 in odd characteristic.  In characteristic 2 the polar
        form's radical is spanned by N = (a23, a13, a12); N = 0 leaves a
        square of a line, and otherwise N is the only candidate singular
        point, so the conic is irreducible exactly when N is off it."""
        if self.field.p != 2:
            return self.rank() == 3
        N = self.coeffs[:2:-1]
        return any(N) and self.evaluate(N) != 0

    # -- classification ------------------------------------------------------

    def classify_array(self, at=slice(None)):
        """int8 per plane point, or per index of ``at``: 0 on the conic, 1
        external, -1 internal.  Not kept: each call evaluates the form."""
        self._require_odd()
        if self.rank() != 3:
            raise ValueError("point classification needs an irreducible conic")
        # the character is multiplicative: chi(-det*f(P)) = chi(-det)*chi(f(P))
        F = self.field
        values = eval_many(F, self.coeffs, _monomials(self.plane)[at])
        return F.character_table[values] * F.character_table[F.neg(self.det())]

    def tangent_at(self, P):
        """Dual vector of the tangent line at a point of the conic (A.P)."""
        self._require_odd()
        if self.rank() != 3:
            raise ValueError("tangents need an irreducible conic")
        if self.evaluate(P) != 0:
            raise ValueError(f"{P} is not on the conic")
        return self.plane.normalize(matvec3(self.field, self.matrix(), P))

    def nucleus(self):
        """Common point of all tangents of an irreducible conic, q even."""
        F = self.field
        if F.p != 2:
            raise ValueError("the nucleus exists only in even characteristic")
        pts = self.points()
        if pts.card != F.order + 1 or (line_counts(pts) > 2).any():
            raise ValueError("point set is not an oval")
        # an oval has one tangent at each of its n+1 points
        (common,) = np.flatnonzero(tangent_counts(pts) == F.order + 1).tolist()
        return self.plane.point(common)

    def transform(self, M):
        """The conic whose point set is the image of this one under x -> Mx,
        in any characteristic: the form f(M^-1 y) by substitution.  With c_i
        the columns of M^-1, y_i^2 has coefficient f(c_i) and y_i*y_j has
        f(c_i + c_j) - f(c_i) - f(c_j), stored halved when p is odd."""
        F = self.field
        cols = list(zip(*inv3(F, M)))
        diag = [self.evaluate(c) for c in cols]
        half = F.inv(F.add(1, 1)) if F.p != 2 else 1
        cross = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            both = self.evaluate([F.add(a, b) for a, b in zip(cols[i], cols[j])])
            cross.append(F.mul(half, F.sub(F.sub(both, diag[i]), diag[j])))
        return Conic(F, (*diag, *cross))


def canonical_pencil(F: GF, kind: PencilKind, k: int) -> Conic:
    """Member with parameter k of one of the three canonical pencils:
    hyperbolic 2xy = kz^2, elliptic x^2 - alpha y^2 = kz^2 (alpha the least
    non-square), parabolic 2yz = x^2 + kz^2."""
    if F.p == 2:
        raise ValueError("canonical pencils use the factor-2 form")
    F.require_element(k, "k")
    kind = PencilKind(kind)
    if kind == PencilKind.HYPERBOLIC:
        if k == 0:
            raise ValueError("k = 0 gives the singular member 2xy = 0")
        return Conic(F, (0, 0, F.neg(k), 1, 0, 0))
    if kind == PencilKind.ELLIPTIC:
        if k == 0:
            raise ValueError("k = 0 gives a singular member")
        return Conic(F, (1, F.neg(min(F.nonsquares())), F.neg(k), 0, 0, 0))
    return Conic(F, (1, 0, k, 0, 0, F.neg(1)))


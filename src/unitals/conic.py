"""Conic algebra over PG(2,n).

A conic is stored as the 6-tuple (a11,a22,a33,a12,a13,a23), normalised so
the first nonzero entry is 1.  In odd characteristic the quadratic form is
a11 x^2 + a22 y^2 + a33 z^2 + 2 a12 xy + 2 a13 xz + 2 a23 yz and the usual
symmetric-matrix machinery (rank, determinant, polarity) applies.  In even
characteristic the stored cross coefficients are the literal polynomial
coefficients and only point-set operations plus the nucleus are offered.
"""

import enum
from functools import lru_cache

import numpy as np

from .gf import GF, QuadraticCharacter
from .geom import PointSet, det3, inv3, line_counts, matmul3, matvec3, projective_plane, tangent_counts, transpose3


class EvenCharacteristicUnsupported(ValueError):
    pass


class SingularConic(ValueError):
    pass


class PointNotOnConic(ValueError):
    pass


class OddCharacteristic(ValueError):
    pass


class NotIrreducible(ValueError):
    pass


class PointClass(enum.Enum):
    ON_CONIC = "on"
    EXTERNAL = "external"
    INTERNAL = "internal"


class PencilKind(enum.Enum):
    HYPERBOLIC = "hyperbolic"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"


# symmetric matrix from a 6-tuple q: rows ((q0,q3,q4),(q3,q1,q5),(q4,q5,q2));
# the six distinct 2x2 minors as index quadruples (i,j,k,l) meaning
# q_i*q_j == q_k*q_l
_MINOR_PAIRS = (
    (0, 1, 3, 3),
    (0, 2, 4, 4),
    (1, 2, 5, 5),
    (0, 5, 3, 4),
    (1, 4, 3, 5),
    (2, 3, 4, 5),
)


def symmetric_rank_leq1(F: GF, q) -> bool:
    """True when the symmetric 3x3 matrix built from the 6-tuple is nonzero
    of rank 1."""
    if not any(q):
        return False
    mul = F.mul
    return all(mul(q[i], q[j]) == mul(q[k], q[l]) for i, j, k, l in _MINOR_PAIRS)


def rank1_rows(F: GF, rows):
    """``symmetric_rank_leq1`` over the last axis of a (..., 6) array of
    field elements: a boolean array of shape rows.shape[:-1].  Each minor
    after the first, and the nonzero test, run only on the rows still
    alive (a zero row makes every minor vanish)."""
    m = F.order
    mulf = F.mul_table.ravel()
    wide = np.uint16 if m <= 256 else np.uint32
    flat = rows.reshape(-1, 6)

    def minor_vanishes(s, i, j, k, l):
        return mulf[s[:, i].astype(wide) * m + s[:, j]] == mulf[s[:, k].astype(wide) * m + s[:, l]]

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
    x, y, z = np.asarray(pts).T
    mul = F.mul_table
    return np.stack([mul[x, x], mul[y, y], mul[z, z], mul[x, y], mul[x, z], mul[y, z]], axis=1)


@lru_cache(maxsize=None)
def _monomials(plane):
    """(npoints, 6) array, in the field's dtype, of monomial values per
    point: the Veronese map with the cross columns doubled in odd
    characteristic, so that a conic evaluates as ``eval_many`` with its
    coefficient tuple."""
    F = plane.field
    mon = quadratic_rows(F, plane.coords_array())
    if F.p != 2:
        mon[:, 3:] = F.mul_table[F.add(1, 1)][mon[:, 3:]]
    return mon


def eval_many(F: GF, coeffs, rows):
    """Array, in the field's dtype, of the sums coeffs[0]*r[0] + ... +
    coeffs[5]*r[5] over F, one per row r of the (m, 6) array ``rows``.
    With a conic's coefficients and monomial rows these are the form's
    values; the pairing is symmetric, so one point's monomials against
    coefficient rows works too.  Each product gathers from one row of the
    multiplication table, each sum from the flat addition table."""
    m = F.order
    mul, add = F.mul_table, F.add_table.ravel()
    wide = np.uint16 if m <= 256 else np.uint32
    acc = mul[coeffs[0]][rows[:, 0]]
    for j in range(1, 6):
        if coeffs[j]:
            acc = add[acc.astype(wide) * m + mul[coeffs[j]][rows[:, j]]]
    return acc


class Conic:
    """A conic of PG(2,n), identified with its normalised coefficient tuple."""

    __slots__ = ("field", "coeffs", "_points", "_rank", "_det")

    def __init__(self, F: GF, coeffs):
        coeffs = tuple(F.require_element(c, "coefficient") for c in coeffs)
        if len(coeffs) != 6:
            raise ValueError("a conic needs 6 coefficients")
        lead = next((c for c in coeffs if c), None)
        if lead is None:
            raise ValueError("all-zero coefficient tuple")
        if lead != 1:
            inv = F.inv(lead)
            coeffs = tuple(F.mul(inv, c) for c in coeffs)
        self.field = F
        self.coeffs = coeffs
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

    def contains(self, P) -> bool:
        return self.evaluate(P) == 0

    def points(self) -> PointSet:
        if self._points is None:
            vals = eval_many(self.field, self.coeffs, _monomials(self.plane))
            self._points = PointSet(self.plane, vals == 0)
        return self._points

    # -- matrix machinery (odd characteristic) ------------------------------

    def _require_odd(self):
        if self.field.p == 2:
            raise EvenCharacteristicUnsupported("matrix form needs odd characteristic")

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
            F = self.field
            if det3(F, self.matrix()) != 0:
                self._rank = 3
            else:
                self._rank = 1 if symmetric_rank_leq1(F, self.coeffs) else 2
        return self._rank

    @property
    def is_irreducible(self) -> bool:
        if self.field.p != 2:
            return self.rank() == 3
        return self._is_oval()

    def _is_oval(self) -> bool:
        pts = self.points()
        return pts.card == self.field.order + 1 and bool((line_counts(pts) <= 2).all())

    # -- classification ------------------------------------------------------

    def classify_point(self, P) -> PointClass:
        """External iff -det(A) * f(P) is a nonzero square; on the conic iff
        f(P) = 0; internal otherwise."""
        self._require_odd()
        if self.rank() != 3:
            raise SingularConic("point classification needs an irreducible conic")
        F = self.field
        v = self.evaluate(P)
        if v == 0:
            return PointClass.ON_CONIC
        w = F.mul(F.neg(self.det()), v)
        if F.quadratic_character(w) == QuadraticCharacter.NONZERO_SQUARE:
            return PointClass.EXTERNAL
        return PointClass.INTERNAL

    def classify_array(self):
        """int8 per plane point: 0 on the conic, 1 external, -1 internal."""
        self._require_odd()
        if self.rank() != 3:
            raise SingularConic("point classification needs an irreducible conic")
        F = self.field
        vals = eval_many(F, self.coeffs, _monomials(self.plane))
        w = F.mul_table[F.neg(self.det()), vals]
        return F.character_table[w]

    def tangent_at(self, P):
        """Dual vector of the tangent line at a point of the conic (A.P)."""
        self._require_odd()
        if self.rank() != 3:
            raise SingularConic("tangents need an irreducible conic")
        if self.evaluate(P) != 0:
            raise PointNotOnConic(f"{P} is not on the conic")
        return self.plane.normalize(matvec3(self.field, self.matrix(), P))

    def nucleus(self):
        """Common point of all tangents of an irreducible conic, q even."""
        F = self.field
        if F.p != 2:
            raise OddCharacteristic("the nucleus exists only in even characteristic")
        if not self._is_oval():
            raise NotIrreducible("point set is not an oval")
        # an oval has one tangent at each of its n+1 points
        (common,) = np.flatnonzero(tangent_counts(self.points()) == F.order + 1).tolist()
        return self.plane.point(common)

    def transform(self, M):
        """The conic whose point set is the image of this one under x -> Mx."""
        F = self.field
        Mi = inv3(F, M)
        A2 = matmul3(F, transpose3(Mi), matmul3(F, self.matrix(), Mi))
        return Conic(F, (A2[0][0], A2[1][1], A2[2][2], A2[0][1], A2[0][2], A2[1][2]))


def canonical_pencil(F: GF, kind: PencilKind, k: int) -> Conic:
    """Member with parameter k of one of the three canonical pencils:
    hyperbolic 2xy = kz^2, elliptic x^2 - alpha y^2 = kz^2 (alpha the least
    non-square), parabolic 2yz = x^2 + kz^2."""
    if F.p == 2:
        raise EvenCharacteristicUnsupported("canonical pencils use the factor-2 form")
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


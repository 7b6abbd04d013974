"""Unitals of PG(2,q^2): Hermitian and BEHS constructions and the axioms
every unital must satisfy.

A unital is a set of q^3+1 points meeting every line in 1 or q+1 points.
The verifier reports the full line-intersection profile rather than a bare
boolean; the profile doubles as the two-intersection-set witness.  The
line counts read the line-table rows of the set's own points, and the
tangent structure those of its tangent lines too, so each check makes
its own counts.
"""

from collections import Counter
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .conic import PencilKind, canonical_pencil
from .geom import PointSet, line_counts, projective_plane, tangent_counts
from .gf import GF


def unital_q(F: GF) -> int:
    """q such that the plane order is q^2."""
    q = isqrt(F.order)
    if q * q != F.order:
        raise ValueError(f"plane order {F.order} is not a square")
    return q


def hermitian_unital(F: GF) -> PointSet:
    """Absolute points of the diagonal unitary form: the q^3+1 points with
    x^(q+1) + y^(q+1) + z^(q+1) = 0."""
    q = unital_q(F)
    plane = projective_plane(F)
    norm = np.array([F.pow(e, q + 1) for e in F.elements()], dtype=F.dtype)
    x, y, z = norm[plane.coords_array().T]
    return PointSet(plane, F.vadd(F.vadd(x, y), z) == 0)


def behs_unital(F: GF, t: int | None = None):
    """Union of the q conics 2yz - x^2 + a z^2 = 0 with a running over
    t*GF(q), t a fixed non-square.  Returns (point set, conic list)."""
    q = unital_q(F)
    if q % 2 == 0:
        raise ValueError("the conic-union construction needs q odd")
    if t is None:
        t = min(F.nonsquares())
    if F.is_square(F.require_element(t, "t")):
        raise ValueError(f"t = {t} is a square")
    params = sorted(F.mul(t, u) for u in F.subfield_elements(q))
    conics = [canonical_pencil(F, PencilKind.PARABOLIC, F.neg(a)) for a in params]
    return PointSet.from_indices(projective_plane(F), np.concatenate([C.point_indices() for C in conics])), conics


def _profile(values) -> dict:
    """Value -> multiplicity over an integer array, in increasing value order."""
    return dict(sorted(Counter(values.tolist()).items()))


@dataclass
class UnitalReport:
    is_unital: bool
    q: int
    cardinality: int
    profile: dict
    failures: list


def is_unital(S: PointSet) -> UnitalReport:
    """Full line-intersection profile of a point set; a unital meets every
    line in 1 or q+1 points and has q^3+1 points."""
    sizes = line_counts(S)
    q = unital_q(S.space.field)
    failures = np.flatnonzero((sizes != 1) & (sizes != q + 1)).tolist()
    ok = S.card == q**3 + 1 and not failures
    return UnitalReport(ok, q, S.card, _profile(sizes), failures)


@dataclass
class TangentReport:
    ok: bool
    q: int
    on_profile: dict
    off_profile: dict
    violations: list


def tangent_structure(S: PointSet) -> TangentReport:
    """Per-point tangent counts of a verified unital: 1 tangent and q^2
    secants on the unital, q+1 tangents and q^2-q secants off it."""
    report = is_unital(S)
    if not report.is_unital:
        raise ValueError("tangent structure is only defined for unitals")
    q = report.q
    per_point = tangent_counts(S)
    on = S.member
    on_profile = _profile(per_point[on])
    off_profile = _profile(per_point[~on])
    violations = np.flatnonzero(np.where(on, per_point != 1, per_point != q + 1)).tolist()
    return TangentReport(not violations, q, on_profile, off_profile, violations)

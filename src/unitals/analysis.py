"""The theorem engine: conic enumeration inside point sets, pencil
classification of conic pairs, difference-set searches over quadratic
classes, and the structural certificate for unitals that are unions of
conics.

All searches are exact and deterministic; sampling operations take an
explicit seed.

Conic enumeration rests on one identity.  Let P, Q be points of a set S
with unique tangent lines L_P, L_Q (so Q is not on L_P, nor P on L_Q), and
let M = P x Q be the line PQ.  The conics through P and Q that touch L_P
at P and L_Q at Q are exactly the pencil M^2 + lam*L_P*L_Q.  Proof: take
coordinates with P = (0,0,1), L_P: x = 0, Q = (1,0,0), L_Q: z = 0 (the
corner L_P . L_Q is off the line PQ, since Q is not on L_P); the four
tangency conditions leave a22*y^2 + 2*a13*xz, and M = y, L_P*L_Q = xz.
Every member with lam != 0 is irreducible.  A point X other than P and Q
lies on no member if it is on L_P or L_Q (M(X) != 0 there), and otherwise
on the member lam = -M(X)^2 / (L_P(X)*L_Q(X)) alone, which is 0 when X is
on the line PQ.

The search counts with the set's own points.  Let C be a conic inside S
with lowest point P.  Tangent lines of S meet S once, so C touches L_P at
P and L_Q at each of its points Q; it is a member C_lam, lam != 0, of the
pencil of P and Q.  Any line through P other than L_P meets C in one more
point, a point of S after P, so Q need only run over the later points of S
on one secant of P: its anchor secant, the one with the fewest.  A point R
of S other than P, Q is off L_P and L_Q, so it lies on C_lam exactly when
M(R) != 0 and lam = -M(R)^2/(L_P(R)*L_Q(R)).  So C_lam lies inside S with
lowest point P exactly when n-1 points R > P of S hit lam, and each conic
inside S is found once, from its lowest point and its point on the anchor
secant.

Neither the identity nor the anchor argument divides by 2, so the search
runs in every characteristic.  Two things differ in characteristic 2: the
coefficient of x_i*x_j (i != j) is not halved, and log -1 is 0.
"""

import enum
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .conic import (
    Conic,
    EvenCharacteristicUnsupported,
    PencilKind,
    SingularConic,
    _monomials,
    canonical_pencil,
    eval_many,
    rank1_rows,
)
from .geom import PointSet, det3, line_counts, projective_plane, projective_space, span, tangent_lines
from .gf import GF, QuadraticCharacter, _isqrt_exact, nullspace
from .unital import NotAUnital, is_unital
from .veronese import veronese_point


class CoincidentConics(ValueError):
    pass


class FieldTooSmall(ValueError):
    pass


class PencilType(enum.Enum):
    BITANGENT_REAL = "bitangent_real"
    BITANGENT_CONJUGATE = "bitangent_conjugate"
    HYPEROSCULATING = "hyperosculating"
    OTHER = "other"


@dataclass
class PencilReport:
    conics: tuple
    common_points: list
    ptype: PencilType
    rank1_member: Conic | None
    hypothesis_holds: bool


def no_external_points(C: Conic, pts_d: PointSet) -> bool:
    """Whether every point of D minus C avoids the external points of C.
    An external point of C is off C, so this is D against them all."""
    return not (C.classify_array()[pts_d.member] == 1).any()


def classify_pair(C: Conic, D: Conic, pts_c: PointSet | None = None, pts_d: PointSet | None = None) -> PencilReport:
    """Intersection pattern, pencil type and rank-1 member of a pair of
    distinct irreducible conics, plus whether D\\C avoids the external
    points of C."""
    F = C.field
    if F != D.field:
        raise ValueError("conics live over different fields")
    if C == D:
        raise CoincidentConics("the two conics coincide")
    if C.rank() != 3 or D.rank() != 3:
        raise SingularConic("pencil classification needs irreducible conics")
    plane = C.plane
    if pts_c is None:
        pts_c = C.points()
    if pts_d is None:
        pts_d = D.points()
    common = [plane.point(i) for i in (pts_c & pts_d).indices()]
    # the pencil's n+1 members, in span order; the first of rank 1 is reported
    members = span(F, C.coeffs, D.coeffs)
    hits = np.flatnonzero(rank1_rows(F, members))
    rank1 = Conic(F, members[hits[0]]) if len(hits) else None
    if rank1 is None:
        ptype = PencilType.OTHER
    elif len(common) == 2:
        ptype = PencilType.BITANGENT_REAL
    elif len(common) == 0:
        ptype = PencilType.BITANGENT_CONJUGATE
    elif len(common) == 1:
        ptype = PencilType.HYPEROSCULATING
    else:
        ptype = PencilType.OTHER
    hyp = no_external_points(C, pts_d)
    return PencilReport((C, D), common, ptype, rank1, hyp)


# -- canonical pencil cases -----------------------------------------------------


def admissible_ks(F: GF, case: int):
    """Parameters k for which the canonical pair of the given case satisfies
    the internal-points hypothesis in both directions.

    Case 1 (bitangent, real): k a nonzero square, k-1 and k(k-1) non-squares.
    Case 2 (bitangent, conjugate): k a nonzero square != 1, k-1 a nonzero square.
    Case 3 (hyperosculating): k a non-square.
    """
    if case == 1:
        return [
            k
            for k in F.squares()
            if k != 1
            and not F.is_square(F.sub(k, 1))
            and not F.is_square(F.mul(k, F.sub(k, 1)))
        ]
    if case == 2:
        return [k for k in F.squares() if k != 1 and F.sub(k, 1) != 0 and F.is_square(F.sub(k, 1))]
    if case == 3:
        return F.nonsquares()
    raise ValueError(f"unknown case {case}")


def canonical_case_pair(F: GF, case: int, k: int):
    """The canonical conic pair of a case: (2xy=z^2, 2xy=kz^2) or
    (x^2-ay^2=z^2, x^2-ay^2=kz^2), a the least non-square, or
    (2yz=x^2, 2yz=x^2+kz^2)."""
    if case not in (1, 2, 3):
        raise ValueError(f"unknown case {case}")
    kind, k0 = {1: (PencilKind.HYPERBOLIC, 1), 2: (PencilKind.ELLIPTIC, 1), 3: (PencilKind.PARABOLIC, 0)}[case]
    return canonical_pencil(F, kind, k0), canonical_pencil(F, kind, k)


def case_residual_formula(F: GF, case: int, k: int):
    """Closed-form list of the cone-intersection residual of a case pair,
    in canonical index order (alpha, in case 2, is the least non-square).
    Case 3 has an empty residual."""
    mul, add = F.mul_table, F.add_table
    b = np.arange(1, F.order)
    b2 = mul[b, b]
    rows = np.zeros((len(b), 6), dtype=mul.dtype)
    if case == 1:
        omk = F.sub(1, k)
        rows[:, 0] = omk
        rows[:, 1] = mul[omk, b2]
        rows[:, 2] = mul[F.add(k, k), b]
        rows[:, 3] = mul[F.neg(F.add(k, 1)), b]
    elif case == 2:
        alpha = min(F.nonsquares())
        rows[:, 0] = add[alpha, mul[F.neg(k), b2]]
        rows[:, 1] = mul[alpha, add[b2, F.neg(F.mul(alpha, k))]]
        rows[:, 2] = mul[k, add[b2, F.neg(alpha)]]
        rows[:, 3] = mul[F.mul(alpha, F.sub(1, k)), b]
        extra = [(k, F.neg(alpha), F.neg(k), 0, 0, 0), (1, F.neg(F.mul(alpha, k)), F.neg(k), 0, 0, 0)]
        rows = np.concatenate([rows, np.array(extra, dtype=rows.dtype)])
    elif case == 3:
        return []
    else:
        raise ValueError(f"unknown case {case}")
    space = projective_space(F, 5)
    return [space.point(int(i)) for i in np.unique(space.index_rows(rows))]


def case1_exceptional_vpoints(F: GF, k: int, beta: int):
    """The pair of PG(5,q) points spanning the line that decides whether two
    case-1 exceptional conics can share a unital."""
    omk = F.sub(1, k)
    two_k = F.add(k, k)
    kp1 = F.add(k, 1)
    p1 = (omk, omk, two_k, F.neg(kp1), 0, 0)
    pb = (omk, F.mul(omk, F.mul(beta, beta)), F.mul(two_k, beta), F.neg(F.mul(beta, kp1)), 0, 0)
    return p1, pb


# -- conic enumeration inside a point set ----------------------------------------

_CHUNK = 1 << 16  # (row, R) entries per gather of the pencil search


def _unique_tangents(S: PointSet):
    """(|S|, 3) array whose row i is the dual vector of the unique 1-point
    line through the i-th point of S, or None when some point lacks one."""
    plane = S.space
    tangents = tangent_lines(S)
    rows = plane.lines[tangents]
    # a tangent line's row holds exactly one point of S, so every point has
    # one tangent exactly when the touched points are S, each once
    touch = rows[S.member[rows]]
    order = np.argsort(touch)
    if not np.array_equal(touch[order], np.flatnonzero(S.member)):
        return None
    return plane.coords_array()[tangents[order]]


def _dot(F: GF, U, V):
    """u0*v0 + u1*v1 + u2*v2 over F for broadcast (..., 3) arrays."""
    mul, add = F.mul_table, F.add_table
    return add[add[mul[U[..., 0], V[..., 0]], mul[U[..., 1], V[..., 1]]], mul[U[..., 2], V[..., 2]]]


def _cross(F: GF, U, V):
    """U x V over F for broadcast (..., 3) arrays: the line through two
    points, or the point on two lines."""
    mul, add, neg = F.mul_table, F.add_table, F.neg_table

    def minor(i, j):
        return add[mul[U[..., i], V[..., j]], neg[mul[U[..., j], V[..., i]]]]

    return np.stack([minor(1, 2), minor(2, 0), minor(0, 1)], axis=-1)


def _conics_contained_exhaustive(S: PointSet):
    """Oracle: sweep every normalised coefficient tuple over the field and
    keep the irreducible ones whose zero set lies inside S."""
    plane = S.space
    F = plane.field
    mon = _monomials(plane)
    # the coefficient tuples still alive, in canonical order, one contiguous
    # row per coefficient: first the coordinate array itself (stored so),
    # then the front of one buffer, into which each pass moves its survivors
    alive = projective_space(F, 5).coords_array().T
    buf = None
    for ci in S.complement().indices():
        keep = eval_many(F, mon[ci], alive.T) != 0
        k = np.count_nonzero(keep)
        if buf is None:
            buf = np.empty((6, k), dtype=alive.dtype)
        # row by row: a 2-D compress would index through an int64 array
        for row, out in zip(alive, buf):
            out[:k] = row[keep]
        alive = buf[:, :k]
        if k == 0:
            return []
    return [C for C in (Conic(F, c) for c in alive.T.tolist()) if C.is_irreducible]


def _anchor_pairs(S: PointSet):
    """Position pairs (P, Q) of the pencil search, sorted: for each point P
    of S, the later points Q of S on its anchor secant, the secant through
    P with the fewest of them."""
    N = S.card
    rank = np.where(S.member, np.cumsum(S.member, dtype=np.int32) - 1, -1)
    on = rank[S.space.lines[line_counts(S) > 1]]
    inside = on >= 0
    # a line's points are sorted, so its points of S come in rank order
    later = np.cumsum(inside[:, ::-1], axis=1, dtype=np.int32)[:, ::-1] - inside
    li, col = np.nonzero(inside)
    # the smallest later*|secants| + line for each P names its anchor secant
    best = np.full(N, np.iinfo(np.int64).max)
    np.minimum.at(best, on[li, col], later[li, col] * np.int64(len(on)) + li)
    anchor = on[best % len(on)]
    p, c = np.nonzero(anchor > np.arange(N)[:, None])
    return p, anchor[p, c]


def _conics_contained_pencils(S: PointSet, tangents):
    """Bitangent-pencil search by counting (the argument is in the module
    docstring).  For each anchor pair (P, Q), count the points R > P of S
    on each member lam of M^2 + lam*L_P*L_Q; a member hit n-1 times is a
    conic inside S whose lowest point is P.

    The count works in int16 discrete logarithms, log lam = log -1 +
    log M(R)^2 + log 1/L_P(R) + log 1/L_Q(R), over chunks of rows.  Only
    M(R) can be 0 (R on the line PQ, P and Q included); its log is a
    sentinel past any sum of three valid logs, and one lookup maps a sum
    to log lam or to a dump column g.  Every sum is below 5g, which fits
    int16 up to order TABLE_LIMIT."""
    plane = S.space
    F = plane.field
    n, g = F.order, F.order - 1
    pts = plane.coords_array()[S.member]
    N = len(pts)
    p, q = _anchor_pairs(S)
    # a conic has n points after its lowest
    p, q = p[p < N - n], q[p < N - n]
    if len(p) == 0:
        return []
    zero = 3 * g - 2
    lookup = np.full(zero + 2 * g - 1, g, dtype=np.int16)
    lookup[:zero] = (np.arange(zero) + F.log_table[F.neg(1)]) % g
    log_inv = (-F.log_table % g).astype(np.int16)
    log_sq = (2 * F.log_table % g).astype(np.int16)
    log_sq[0] = zero
    m = _cross(F, pts[p], pts[q])
    found = []
    step = max(1, _CHUNK // N)
    for lo in range(0, len(p), step):
        rows, R = slice(lo, lo + step), pts[None, p[lo] + 1 :]
        s = log_sq[_dot(F, m[rows, None], R)]
        s += log_inv[_dot(F, tangents[p[rows], None], R)]
        s += log_inv[_dot(F, tangents[q[rows], None], R)]
        # R starts after the chunk's first P; the later rows drop R <= P
        s[np.arange(p[lo] + 1, N) <= p[rows, None]] = zero
        lam = lookup[s] + (g + 1) * np.arange(len(s))[:, None]
        counts = np.bincount(lam.ravel(), minlength=len(s) * (g + 1)).reshape(len(s), g + 1)
        r, k = np.nonzero(counts[:, :g] == n - 1)
        found.append((r + lo, k))
    r, k = (np.concatenate(x) for x in zip(*found))
    rows = _pencil_member(F, m[r], tangents[p[r]], tangents[q[r]], F.exp_table[k])
    space5 = projective_space(F, 5)
    return [Conic(F, space5.point(int(i))) for i in np.sort(space5.index_rows(rows))]


def _pencil_member(F: GF, m, lp, lq, lam):
    """(k, 6) coefficient rows (a11,a22,a33,a12,a13,a23) of the conics
    M^2 + lam*L_P*L_Q, one per row of m, lp, lq and entry of lam: the
    coefficient of x_i*x_j, halved off the diagonal when p is odd."""
    mul, add = F.mul_table, F.add_table
    half = F.inv(F.add(1, 1)) if F.p != 2 else 1
    out = [add[mul[m[:, i], m[:, i]], mul[lam, mul[lp[..., i], lq[..., i]]]] for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        mm = mul[m[:, i], m[:, j]]
        mixed = add[mul[lp[..., i], lq[..., j]], mul[lp[..., j], lq[..., i]]]
        out.append(mul[half, add[add[mm, mm], mul[lam, mixed]]])
    return np.stack(out, axis=1)


def conics_contained(S: PointSet, method: str = "auto"):
    """Every irreducible conic whose point set lies inside S, each exactly
    once, in canonical order.

    "pencil" uses the bitangent-pencil search, in any characteristic
    (needs a unique tangent line at every point of S, as in a unital or a
    single conic); "exhaustive" sweeps all coefficient tuples and is the
    oracle for plane order <= 25.
    """
    if method not in ("auto", "pencil", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    tangents = None if method == "exhaustive" else _unique_tangents(S)
    if tangents is not None:
        return _conics_contained_pencils(S, tangents)
    if method == "pencil":
        raise ValueError("some point of S has no unique tangent line")
    if method == "auto" and S.space.field.order > 25:
        raise ValueError("no unique tangents and plane too large for the exhaustive sweep")
    return _conics_contained_exhaustive(S)


# -- difference-set searches -----------------------------------------------------


@dataclass
class DiffSetReport:
    class_: str
    max_size: int
    witnesses: list
    all_maximal_are_cosets: bool | None = None
    zero_convention: str | None = None


def _max_cliques(F: GF, vertices):
    """All maximum cliques, by ordered branch-and-bound, of the graph on the
    given field elements that joins two when their difference is a
    non-square."""
    vertices = sorted(vertices)
    best: list = []
    found: list = []

    def extend(clique, cands):
        nonlocal best, found
        if len(clique) + len(cands) < len(best):
            return
        if not cands:
            if len(clique) > len(best):
                best = list(clique)
                found = [tuple(clique)]
            elif len(clique) == len(best):
                found.append(tuple(clique))
            return
        for i, v in enumerate(cands):
            rest = [w for w in cands[i + 1 :] if not F.is_square(F.sub(v, w))]
            if len(clique) + 1 + len(rest) < len(best):
                continue
            extend(clique + [v], rest)

    extend([], vertices)
    return len(best), sorted(set(found))


def lemma1_search(F: GF) -> DiffSetReport:
    """Largest subsets of the nonzero squares whose pairwise differences are
    all non-squares, by exact clique search."""
    if F.p == 2:
        raise EvenCharacteristicUnsupported("the difference-set lemmas concern odd q")
    size, witnesses = _max_cliques(F, F.squares())
    return DiffSetReport("nonzero_squares", size, witnesses)


def lemma2_search(F: GF) -> DiffSetReport:
    """Largest pairwise-non-square-difference subsets of the non-squares.

    A size-q witness necessarily contains 0 (a strictly non-square set of
    that size cannot exist), so the ground set is the non-squares plus 0 and
    the report records which zero convention the coset match uses.
    """
    q = _isqrt_exact(F.order)
    if q is None:
        raise ValueError("lemma2 search needs a square plane order")
    if F.p == 2:
        raise EvenCharacteristicUnsupported("the difference-set lemmas concern odd q")
    size, witnesses = _max_cliques(F, [0] + F.nonsquares())
    subfield = F.subfield_elements(q)
    cosets_ok = True
    includes_zero = all(0 in w for w in witnesses)
    for w in witnesses:
        t = next((x for x in w if x), None)
        coset = set(F.mul(t, u) for u in subfield) if t is not None else set()
        if set(w) != coset or (t is not None and F.is_square(t)):
            cosets_ok = False
    convention = "includes_zero" if includes_zero else "excludes_zero"
    return DiffSetReport("non_squares", size, witnesses, cosets_ok, convention)


# -- the trichotomy check ---------------------------------------------------------


@dataclass
class AfklReport:
    order: int
    exhaustive_pairs: int
    hypothesis_pairs: int
    symmetric_pairs: int
    sampled_pairs: int
    violations: list
    ok: bool


def random_invertible(F: GF, rng: random.Random):
    while True:
        M = tuple(tuple(rng.randrange(F.order) for _ in range(3)) for _ in range(3))
        if det3(F, M) != 0:
            return M


def _hypothesis_matrix(conics):
    """Boolean (k, k) array whose entry [i, j] is
    ``no_external_points(conics[i], conics[j].points())``: one exact integer
    product of the external-point masks and the point masks counts, for
    each pair, the points of conic j external to conic i."""
    ext = np.array([C.classify_array() == 1 for C in conics], dtype=np.int32)
    on = np.array([C.points().member for C in conics], dtype=np.int32)
    return ext @ on.T == 0


def _transform_points(plane, M, pts: PointSet) -> PointSet:
    F = plane.field
    if det3(F, M) == 0:
        raise ValueError("transform needs an invertible matrix")
    images = _dot(F, np.array(M)[:, None], plane.coords_array()[pts.member])
    return PointSet.from_indices(plane, plane.index_rows(images.T))


def verify_afkl(F: GF, samples: int = 0, seed: int = 0) -> AfklReport:
    """Check the conic-pair trichotomy: every ordered pair of distinct
    irreducible conics for which D\\C avoids the external points of C must
    span a pencil of one of the three classes (a rank-1 member with the
    matching intersection pattern).

    The hypothesis alone does not force C\\D to be internal to D: over
    GF(25) the pair (2xy=z^2, 2xy=kz^2) with k-1 and k both non-squares has
    D\\C internal to C while C\\D is external to D (tangent-count check).
    The symmetric conclusion belongs to pairs satisfying the hypothesis in
    both directions, as conic pairs inside a common unital always do; the
    report counts those separately.

    All ordered pairs drawn from the three canonical families are checked
    exhaustively; ``samples`` extra hypothesis-satisfying pairs are produced
    by applying seeded random collineations to admissible canonical pairs.
    Fields of order below 17 are refused: the statement is not claimed there.
    """
    n = F.order
    if n < 17:
        raise FieldTooSmall(f"the trichotomy is stated for orders >= 17, got {n}")
    if F.p == 2:
        raise EvenCharacteristicUnsupported("the trichotomy concerns odd order")
    plane = projective_plane(F)
    conics = [canonical_pencil(F, PencilKind.HYPERBOLIC, k) for k in F.units()]
    conics += [canonical_pencil(F, PencilKind.ELLIPTIC, k) for k in F.units()]
    conics += [canonical_pencil(F, PencilKind.PARABOLIC, k) for k in F.elements()]
    hyp = _hypothesis_matrix(conics)
    # the families share no conic, so the off-diagonal entries are the
    # ordered pairs of distinct conics
    np.fill_diagonal(hyp, False)
    checked = len(conics) * (len(conics) - 1)
    hyp_pairs = int(np.count_nonzero(hyp))
    sym_pairs = int(np.count_nonzero(hyp & hyp.T))
    # row-major order: C outer, D inner
    reps = (classify_pair(conics[i], conics[j]) for i, j in zip(*np.nonzero(hyp)))
    violations = [rep for rep in reps if rep.ptype == PencilType.OTHER]
    rng = random.Random(seed)
    # each admissible case pair is built once, and its conics keep their points
    cases = [[canonical_case_pair(F, c, k) for k in admissible_ks(F, c)] for c in (1, 2, 3)]
    cases = [pairs for pairs in cases if pairs]
    sampled = 0
    for _ in range(samples):
        pairs = cases[rng.randrange(len(cases))]
        C0, D0 = pairs[rng.randrange(len(pairs))]
        M = random_invertible(F, rng)
        C1, D1 = C0.transform(M), D0.transform(M)
        pc = _transform_points(plane, M, C0.points())
        pd = _transform_points(plane, M, D0.points())
        sampled += 1
        rep = classify_pair(C1, D1, pc, pd)
        # admissible-case pairs satisfy the hypothesis in both directions,
        # so here the symmetric conclusion is part of the assertion
        if (
            not rep.hypothesis_holds
            or rep.ptype == PencilType.OTHER
            or not no_external_points(D1, pc)
        ):
            violations.append(rep)
    return AfklReport(n, checked, hyp_pairs, sym_pairs, sampled, violations, not violations)


# -- the union-of-conics certificate ----------------------------------------------


@dataclass
class UnionCertificate:
    q: int
    q_odd: bool
    covered: bool
    signature: str | None
    conics: list
    base_point: tuple | None = None
    tangent: tuple | None = None
    parameters: list | None = None
    parameter_coset_ok: bool | None = None
    parameter_characters_ok: bool | None = None
    pair_types: list | None = None
    uncovered: list | None = None
    notes: list | None = None


def _pencil_parameter(F: GF, base, tangent_sq, Ci: Conic):
    """Parameter a with Ci ~ base + a * tangent_sq, or None when Ci is not
    in that pencil."""
    rows = [(base[r], tangent_sq[r], F.neg(Ci.coeffs[r])) for r in range(6)]
    ns = nullspace(F, rows)
    if len(ns) != 1:
        return None
    mu, a, rho = ns[0]
    if mu == 0 or rho == 0:
        return None
    return F.div(a, mu)


def certify_union_of_conics(S: PointSet) -> UnionCertificate:
    """Certificate that a unital is, or is not, a union of conics of the
    hyperosculating (BEHS) kind.

    Enumerate the conics inside S, check they cover S, pairwise classify
    them (all hyperosculating through one base point with a common
    tangent), and test that the pencil parameters form a coset t*GF(q)
    whose nonzero members all have non-square character after the
    determinant normalisation.  For even q the search finds no conic, as it
    must: a contained conic's nucleus would collect q^2+1 tangent lines.
    """
    report = is_unital(S)
    if not report.is_unital:
        raise NotAUnital("certificate requires a verified unital")
    plane = S.space
    F = plane.field
    q = report.q
    odd = F.p != 2
    conics = conics_contained(S)
    if not conics:
        note = "no conics contained in the unital" if odd else (
            "no irreducible conic lies in the unital; a contained conic would "
            f"put q^2+1 = {q*q+1} tangents through its nucleus, but at most q+1 = {q+1} "
            "tangents meet in any point"
        )
        return UnionCertificate(q, odd, False, None, [], notes=[note])
    uncovered = (S - reduce(or_, (C.points() for C in conics))).indices()
    covered = not uncovered
    if not covered:
        return UnionCertificate(q, odd, False, None, conics, uncovered=uncovered)

    pair_types = []
    base_idx = None
    structure_ok = True
    for i in range(len(conics)):
        for j in range(i + 1, len(conics)):
            rep = classify_pair(conics[i], conics[j])
            pair_types.append(rep.ptype.value)
            if rep.ptype != PencilType.HYPEROSCULATING or not rep.hypothesis_holds:
                structure_ok = False
                continue
            b = plane.index(rep.common_points[0])
            if base_idx is None:
                base_idx = b
            elif base_idx != b:
                structure_ok = False
    if not structure_ok or base_idx is None:
        return UnionCertificate(
            q, odd, covered, None, conics, pair_types=pair_types,
            notes=["pairwise structure is not a hyperosculating family with one base point"],
        )
    base = plane.point(base_idx)
    tangent = conics[0].tangent_at(base)
    if any(C.tangent_at(base) != tangent for C in conics[1:]):
        return UnionCertificate(
            q, odd, covered, None, conics, base_point=base, pair_types=pair_types,
            notes=["contained conics do not share the tangent at the base point"],
        )
    tangent_sq = veronese_point(F, *tangent)
    base_conic = conics[0]
    params = []
    for C in conics:
        a = _pencil_parameter(F, base_conic.coeffs, tangent_sq, C)
        if a is None:
            return UnionCertificate(
                q, odd, covered, None, conics, base_point=base, tangent=tangent,
                pair_types=pair_types, notes=["contained conics do not lie in one pencil"],
            )
        params.append(a)
    params_sorted = sorted(params)
    t = next((x for x in params_sorted if x), None)
    coset_ok = (
        len(params) == q
        and len(set(params)) == q
        and 0 in params
        and t is not None
        and set(params) == {F.mul(t, u) for u in F.subfield_elements(q)}
    )
    det0 = base_conic.det()
    chars_ok = all(
        F.quadratic_character(F.mul(det0, x)) == QuadraticCharacter.NON_SQUARE
        for x in params_sorted
        if x
    )
    signature = "BEHS" if (coset_ok and chars_ok) else None
    return UnionCertificate(
        q,
        odd,
        covered,
        signature,
        conics,
        base_point=base,
        tangent=tangent,
        parameters=params_sorted,
        parameter_coset_ok=coset_ok,
        parameter_characters_ok=chars_ok,
        pair_types=pair_types,
    )

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
on one secant of P: its anchor secant, of those with the fewest the one
with the smallest line index.  A point R of S other than P, Q is off L_P
and L_Q, so it lies on C_lam exactly when M(R) != 0 and
lam = -M(R)^2/(L_P(R)*L_Q(R)).  So C_lam lies inside S with lowest point P
exactly when n-1 points R > P of S hit lam, and each conic inside S is
found once, from its lowest point and its point on the anchor secant.

The tangents and the anchor secants come from one pass over the line
table, the blocks of rows of ``geom.line_blocks``, with one gather of the
ranks of S's points per block.  The pass keeps only the flat positions of
the block's entries in S.  They come line by line, and within a line in
rank order, so an entry's line is its position // (n+1), the lines'
counts of S are one bincount of those lines, and the points of S after
an entry on its line are the cumulative count up to its line's end less
the entries up to it.  So the pass gives the tangent lines at each point
of S (the search needs exactly one) and, per point, a running minimum of
later*npoints + line over its secants, which names its anchor and gives
each pair the index of its line.  The unital check of
``certify_union_of_conics`` counts S on the lines with ``geom.line_counts``
instead, from the rows of S's points alone: |S|(n+1) entries against
the pass's whole table.

The pairs of one P all span its anchor secant, so M is one line for all of
them, and only L_Q changes from pair to pair.  The search takes M as the
dual vector of the anchor line, a scalar multiple c of P x Q: that scales
each lam by c^2 and leaves the members, so the conics found are the same.
It computes M(R)^2 and L_P(R) once per P and L_Q(R) once per pair.  A
line u is read at the points of S through two small tables: a normalised
R has r0 = 0 or 1, so u0*r0 + u1*r1 takes one of 2n values, keyed by
r0*n + r1, and u2*r2 one of n, keyed by r2.  Their sum indexes a flat n^2
table that holds what the count needs of u(R), its log squared or its log
inverse, so each value is two takes and one gather.  The two log tables
are built once per field.  The count bins the sums of the three logs as
they are, and folds the bins mod n-1 into one count per member; log -1
is added to the few members hit n-1 times alone.

Neither the identity nor the anchor argument divides by 2, so the search
runs in every characteristic.  Two things differ in characteristic 2: the
coefficient of x_i*x_j (i != j) is not halved, and log -1 is 0.
"""

import enum
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .conic import Conic, PencilKind, _monomials, canonical_pencil, eval_many, quadratic_rows, rank1_rows
from .geom import PointSet, det3, line_blocks, projective_space, span
from .gf import GF
from .unital import is_unital, unital_q
from .veronese import sorted_unique


class NotStated(ValueError):
    """The paper does not state the claim at this order."""


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


def no_external_points(C: Conic, D: Conic) -> bool:
    """Whether every point of D minus C avoids the external points of C.
    An external point of C is off C, so this classifies D's points alone."""
    return not (C.classify_array(D.point_indices()) == 1).any()


def classify_pair(C: Conic, D: Conic) -> PencilReport:
    """Intersection pattern, pencil type and rank-1 member of a pair of
    distinct irreducible conics, plus whether D\\C avoids the external
    points of C.  The common points, in canonical order, are those in both
    conics' sorted point indices."""
    F = C.field
    if F != D.field:
        raise ValueError("conics live over different fields")
    if C == D:
        raise ValueError("the two conics coincide")
    if C.rank() != 3 or D.rank() != 3:
        raise ValueError("pencil classification needs irreducible conics")
    both = np.intersect1d(C.point_indices(), D.point_indices(), assume_unique=True)
    common = [C.plane.point(int(i)) for i in both]
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
    hyp = no_external_points(C, D)
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
    b = np.arange(1, F.order, dtype=F.dtype)
    b2 = F.vmul(b, b)
    rows = np.zeros((len(b), 6), dtype=F.dtype)
    if case == 1:
        omk = F.sub(1, k)
        rows[:, 0] = omk
        rows[:, 1] = F.vmul(omk, b2)
        rows[:, 2] = F.vmul(F.add(k, k), b)
        rows[:, 3] = F.vmul(F.neg(F.add(k, 1)), b)
    elif case == 2:
        alpha = min(F.nonsquares())
        rows[:, 0] = F.vadd(alpha, F.vmul(F.neg(k), b2))
        rows[:, 1] = F.vmul(alpha, F.vadd(b2, F.neg(F.mul(alpha, k))))
        rows[:, 2] = F.vmul(k, F.vadd(b2, F.neg(alpha)))
        rows[:, 3] = F.vmul(F.mul(alpha, F.sub(1, k)), b)
        extra = [(k, F.neg(alpha), F.neg(k), 0, 0, 0), (1, F.neg(F.mul(alpha, k)), F.neg(k), 0, 0, 0)]
        rows = np.concatenate([rows, np.array(extra, dtype=rows.dtype)])
    elif case == 3:
        return []
    else:
        raise ValueError(f"unknown case {case}")
    space = projective_space(F, 5)
    return [space.point(int(i)) for i in sorted_unique(space.index_rows(rows))]


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

# (row, R) entries per chunk of the pencil search.  Each chunk pays a fixed
# cost and keeps a few entry-sized temporaries, about 17 bytes an entry at
# the peak; 1 << 18 ran 5-25% faster than 1 << 16 at plane orders 121 to
# 529 and holds the peak near 4.4 MB
_CHUNK = 1 << 18


def _point_keys(F: GF, pts):
    """The keys (r0*n + r1, r2) of the rows R of an (N, 3) array of points
    whose first coordinate is 0 or 1, as normalised points' are."""
    return pts[:, 0].astype(np.intp) * F.order + pts[:, 1], pts[:, 2].astype(np.intp)


def _line_values(F: GF, U, keys, table):
    """table[u(R)] for each row u of the (k, 3) array U and each point R
    given by its ``_point_keys``: a (k, points) array.  Per line,
    A[r0*n + r1] = u0*r0 + u1*r1 and B[r2] = (u2*r2)*n, the row offsets
    of u2*r2, so u(R) = a + b is read from the flat n^2 table at
    A + B = b*n + a: ``F.add_table.ravel()`` gives u(R) itself and
    ``f[F.add_table].ravel()`` gives f(u(R)).  Each entry is two row-wise
    takes, one sum and one gather."""
    U = np.asarray(U)
    r = np.arange(F.order)  # int64, so that the products gather at intp indices
    u1 = F.vmul(U[:, 1:2], r)
    A = np.concatenate([u1, F.vadd(U[:, :1], u1)], axis=1)
    B = F.row_offsets(F.vmul(U[:, 2:], r))
    ka, kb = keys
    idx = B.take(kb, axis=1)
    idx += A.take(ka, axis=1)
    return table[idx]


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


def _scan_lines(S: PointSet):
    """(tangents, p, q, line) from one blocked pass over the line table,
    each block read at the flat positions of its entries in S (see the
    module docstring).  tangents is the (|S|, 3) array whose row i
    is the dual vector of the one tangent line through the i-th point of
    S, or None when some point has none or several.  (p, q) are the
    position pairs of the pencil search, sorted: for each point P of S on
    a secant, the later points Q of S on its anchor secant, whose index
    is line."""
    lines = S.space.lines
    npoints, width = lines.shape
    N = S.card
    rank = np.where(S.member, np.cumsum(S.member, dtype=np.int32) - 1, -1)
    tangent = np.zeros(N, dtype=np.int64)
    ntangents = np.zeros(N, dtype=np.int64)
    # the smallest later*npoints + line for each P names its anchor secant
    never = np.iinfo(np.int64).max
    best = np.full(N, never)
    for lo, on in line_blocks(S.space, rank):
        on = on.ravel()
        pos = np.flatnonzero(on >= 0)
        li = pos // width
        r = on[pos]
        count = np.bincount(li, minlength=len(on) // width)
        # a tangent's one entry is the only one of its line
        touch = count[li] == 1
        touched = r[touch]
        tangent[touched] = li[touch] + lo
        np.add.at(ntangents, touched, 1)
        # the block's entries up to the end of entry i's line, less i + 1,
        # are the points of S after it on that line
        later = np.cumsum(count)[li] - np.arange(len(pos)) - 1
        key = later * np.int64(npoints) + (li + lo)
        key[touch] = never  # a tangent is no anchor
        np.minimum.at(best, r, key)
    tangents = S.space.coords_array()[tangent] if (ntangents == 1).all() else None
    # a point on no secant has no anchor and no pairs
    (ps,) = np.nonzero(best < never)
    line = best[ps] % npoints
    anchor = rank[lines[line]]
    p, c = np.nonzero(anchor > ps[:, None])
    return tangents, ps[p], anchor[p, c], line[p]


@lru_cache(maxsize=None)
def _log_tables(F: GF):
    """(log (a + b)^2, log 1/(a + b)), read-only int16 flat n^2 tables
    read at b*n + a, as ``_line_values`` reads them.  The logs are mod
    g = n-1; log 0^2 is the sentinel 3g-2, past any sum of three valid
    logs, and log 1/0 is never read, as R is off L_P and L_Q."""
    g = F.order - 1
    log_sq = (2 * F.log_table % g).astype(np.int16)
    log_sq[0] = 3 * g - 2
    log_inv = (-F.log_table % g).astype(np.int16)
    tables = log_sq[F.add_table].ravel(), log_inv[F.add_table].ravel()
    for t in tables:
        t.flags.writeable = False
    return tables


def _conics_contained_pencils(S: PointSet, tangents, p, q, line):
    """Bitangent-pencil search by counting (the argument is in the module
    docstring).  For each anchor pair (P, Q), count the points R > P of S
    on each member lam of M^2 + lam*L_P*L_Q, M the dual vector of the
    anchor line; a member hit n-1 times is a conic inside S whose lowest
    point is P.

    The count works in int16 discrete logarithms, log lam = log -1 + s mod
    g, s = log M(R)^2 + log 1/L_P(R) + log 1/L_Q(R), over chunks of rows.
    Only M(R) can be 0 (R on the line PQ, P and Q included); its log is a
    sentinel 3g-2 past any valid s, so every s is below 5g, which fits
    int16 up to order TABLE_LIMIT.  One bincount of s + row*5g counts the
    chunk's sums; the columns below the sentinel, folded mod g, give each
    row's hits per member, and log -1 is added to the hits alone.  Each
    chunk sums log M(R)^2 + log 1/L_P(R) once per P and gives the rows of
    P a copy with one take."""
    plane = S.space
    F = plane.field
    n, g = F.order, F.order - 1
    pts = plane.coords_array()[S.member]
    N = len(pts)
    # a conic has n points after its lowest
    keep = p < N - n
    p, q, line = p[keep], q[keep], line[keep]
    if len(p) == 0:
        return []
    zero, width = 3 * g - 2, 5 * g
    sq_of_sum, inv_of_sum = _log_tables(F)
    # the rows of one P are adjacent: up holds the distinct Ps, own[r] the
    # position of row r's P in up
    starts = np.diff(p, prepend=-1) != 0
    own = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    up = p[first]
    m = plane.coords_array()[line[first]]
    lp = tangents[up]
    ka, kb = _point_keys(F, pts)
    found = []
    step = max(1, _CHUNK // N)
    for lo in range(0, len(p), step):
        hi = min(lo + step, len(p))
        # the chunk's Ps are up[u0:u1]; a P's rows may straddle two chunks
        u0, u1 = own[lo], own[hi - 1] + 1
        R = ka[p[lo] + 1 :], kb[p[lo] + 1 :]
        per_p = _line_values(F, m[u0:u1], R, sq_of_sum)
        per_p += _line_values(F, lp[u0:u1], R, inv_of_sum)
        # R starts after the chunk's first P; the later Ps drop R <= P
        per_p[np.arange(p[lo] + 1, N) <= up[u0:u1, None]] = zero
        s = per_p.take(own[lo:hi] - u0, axis=0)
        s += _line_values(F, tangents[q[lo:hi]], R, inv_of_sum)
        nrows = len(s)
        sums = np.bincount((s + width * np.arange(nrows)[:, None]).ravel(), minlength=nrows * width)
        sums.reshape(nrows, width)[:, zero:] = 0
        r, k = np.nonzero(sums.reshape(nrows, 5, g).sum(axis=1) == n - 1)
        found.append((r + lo, k))
    r, k = (np.concatenate(x) for x in zip(*found))
    lam = F.exp_table[(k + F.log_table[F.neg(1)]) % g]
    rows = _pencil_member(F, m[own[r]], lp[own[r]], tangents[q[r]], lam)
    space5 = projective_space(F, 5)
    return [Conic(F, space5.point(int(i))) for i in np.sort(space5.index_rows(rows))]


def _pencil_member(F: GF, m, lp, lq, lam):
    """(k, 6) coefficient rows (a11,a22,a33,a12,a13,a23) of the conics
    M^2 + lam*L_P*L_Q, one per row of m, lp, lq and entry of lam: the
    coefficient of x_i*x_j, halved off the diagonal when p is odd."""
    add, mul = F.vadd, F.vmul
    half = F.inv(F.add(1, 1)) if F.p != 2 else 1
    lam = lam[:, None]
    diagonal = add(mul(m, m), mul(lam, mul(lp, lq)))
    # the columns x_0 x_1, x_0 x_2, x_1 x_2
    i, j = [0, 0, 1], [1, 2, 2]
    mm = mul(m[:, i], m[:, j])
    mixed = add(mul(lp[:, i], lq[:, j]), mul(lp[:, j], lq[:, i]))
    return np.concatenate([diagonal, mul(half, add(add(mm, mm), mul(lam, mixed)))], axis=1)


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
    if method != "exhaustive":
        tangents, *anchors = _scan_lines(S)
        if tangents is not None:
            return _conics_contained_pencils(S, tangents, *anchors)
        if method == "pencil":
            raise ValueError("some point of S has no unique tangent line")
    if S.space.field.order > 25:
        raise ValueError(f"plane order {S.space.field.order} is above 25, too large for the exhaustive sweep")
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
        raise NotStated("the difference-set lemmas concern odd q")
    size, witnesses = _max_cliques(F, F.squares())
    return DiffSetReport("nonzero_squares", size, witnesses)


def lemma2_search(F: GF) -> DiffSetReport:
    """Largest pairwise-non-square-difference subsets of the non-squares.

    A size-q witness necessarily contains 0 (a strictly non-square set of
    that size cannot exist), so the ground set is the non-squares plus 0 and
    the report records which zero convention the coset match uses.
    """
    q = unital_q(F)
    if F.p == 2:
        raise NotStated("the difference-set lemmas concern odd q")
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
    ``no_external_points(conics[i], conics[j])``.  Every conic is
    irreducible, with n+1 points, so their point indices form one
    (k, n+1) array, and row i reads conic i's external points there from
    one ``classify_array`` of the plane, dropped before the next row."""
    pts = np.array([C.point_indices() for C in conics])
    return np.array([~(C.classify_array() == 1)[pts].any(axis=1) for C in conics])


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
        raise NotStated(f"the trichotomy is stated for orders >= 17, got {n}")
    if F.p == 2:
        raise NotStated("the trichotomy concerns odd order")
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
    # each admissible case pair is built once
    cases = [[canonical_case_pair(F, c, k) for k in admissible_ks(F, c)] for c in (1, 2, 3)]
    cases = [pairs for pairs in cases if pairs]
    sampled = 0
    for _ in range(samples):
        pairs = cases[rng.randrange(len(cases))]
        C0, D0 = pairs[rng.randrange(len(pairs))]
        M = random_invertible(F, rng)
        C1, D1 = C0.transform(M), D0.transform(M)
        sampled += 1
        rep = classify_pair(C1, D1)
        # admissible-case pairs satisfy the hypothesis in both directions,
        # so here the symmetric conclusion is part of the assertion
        if (
            not rep.hypothesis_holds
            or rep.ptype == PencilType.OTHER
            or not no_external_points(D1, C1)
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


def _pencil_parameters(F: GF, base, tangent_sq, conics):
    """For each conic C, the parameter a with C ~ base + a * tangent_sq, or
    None when C is not in that pencil.  ``span(F, base, tangent_sq)``
    lists tangent_sq, then base + a * tangent_sq for a = 0, 1, ..., n-1,
    so a is C's position in that list less one; tangent_sq itself has no
    parameter.  The span is indexed once, and so are the conics."""
    space5 = projective_space(F, 5)
    members = space5.index_rows(span(F, base, tangent_sq)).tolist()
    parameter = {m: a for a, m in enumerate(members[1:])}
    return [parameter.get(i) for i in space5.index_rows(np.array([C.coeffs for C in conics])).tolist()]


def certify_union_of_conics(S: PointSet) -> UnionCertificate:
    """Certificate that a unital is, or is not, a union of conics of the
    hyperosculating (BEHS) kind.

    Enumerate the conics inside S, check they cover S, pairwise classify
    them (all hyperosculating through one base point with a common
    tangent), and test that the pencil parameters form a coset t*GF(q)
    whose nonzero members all have non-square character after the
    determinant normalisation.  For even q the search finds no conic, as it
    must: a contained conic's nucleus would collect q^2+1 tangent lines.
    The certificate is made once; each step sets the fields it establishes.
    """
    report = is_unital(S)
    if not report.is_unital:
        raise ValueError("certificate requires a verified unital")
    F = S.space.field
    q = report.q
    # a unital has one tangent at each of its points
    conics = _conics_contained_pencils(S, *_scan_lines(S))
    odd = F.p != 2
    cert = UnionCertificate(q, odd, False, None, conics)
    if not conics:
        note = "no conics contained in the unital" if odd else (
            "no irreducible conic lies in the unital; a contained conic would "
            f"put q^2+1 = {q*q+1} tangents through its nucleus, but at most q+1 = {q+1} "
            "tangents meet in any point"
        )
        cert.notes = [note]
        return cert
    uncovered = np.setdiff1d(np.flatnonzero(S.member), np.concatenate([C.point_indices() for C in conics]))
    if len(uncovered):
        cert.uncovered = uncovered.tolist()
        return cert
    cert.covered = True

    pairs = [classify_pair(C, D) for C, D in combinations(conics, 2)]
    cert.pair_types = [rep.ptype.value for rep in pairs]
    stray = any(rep.ptype != PencilType.HYPEROSCULATING or not rep.hypothesis_holds for rep in pairs)
    bases = {P for rep in pairs for P in rep.common_points}
    if stray or len(bases) != 1:
        cert.notes = ["pairwise structure is not a hyperosculating family with one base point"]
        return cert
    (cert.base_point,) = bases
    tangent = conics[0].tangent_at(cert.base_point)
    if any(C.tangent_at(cert.base_point) != tangent for C in conics[1:]):
        cert.notes = ["contained conics do not share the tangent at the base point"]
        return cert
    cert.tangent = tangent
    # the image of a normalised triple is normalised
    params = _pencil_parameters(F, conics[0].coeffs, quadratic_rows(F, [tangent])[0], conics)
    if None in params:
        cert.notes = ["contained conics do not lie in one pencil"]
        return cert
    cert.parameters = sorted(params)
    t = next((x for x in cert.parameters if x), None)
    cert.parameter_coset_ok = t is not None and set(params) == {F.mul(t, u) for u in F.subfield_elements(q)}
    det0 = conics[0].det()
    cert.parameter_characters_ok = all(not F.is_square(F.mul(det0, x)) for x in cert.parameters if x)
    if cert.parameter_coset_ok and cert.parameter_characters_ok:
        cert.signature = "BEHS"
    return cert

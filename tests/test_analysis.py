import hashlib
import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitals import analysis, cli, geom
from unitals.analysis import (
    NotStated,
    PencilType,
    admissible_ks,
    canonical_case_pair,
    certify_union_of_conics,
    classify_pair,
    conics_contained,
    lemma1_search,
    lemma2_search,
    no_external_points,
    random_invertible,
    verify_afkl,
    _hypothesis_matrix,
    _line_values,
    _point_keys,
    _scan_lines,
)
from unitals.cli import _prime_power
from unitals.conic import Conic, PencilKind, _monomials, canonical_pencil, quadratic_rows
from unitals.geom import PointSet, det3, line_counts, projective_plane, projective_space, span
from unitals.gf import field
from unitals.unital import behs_unital, hermitian_unital, is_unital, tangent_structure, unital_q
from oracles import PointClass, classify_point, line_through, nullspace, point_index, transform_points


def test_classify_pair_canonical_cases():
    for n_spec in ((3, 2), (5, 2)):
        F = field(*n_spec)
        expected = {
            1: (PencilType.BITANGENT_REAL, 2),
            2: (PencilType.BITANGENT_CONJUGATE, 0),
            3: (PencilType.HYPEROSCULATING, 1),
        }
        for case, (ptype, ncommon) in expected.items():
            for k in admissible_ks(F, case):
                C, D = canonical_case_pair(F, case, k)
                rep = classify_pair(C, D)
                assert rep.ptype == ptype
                assert len(rep.common_points) == ncommon
                assert rep.rank1_member is not None and rep.rank1_member.rank() == 1
                assert rep.hypothesis_holds
                # admissible parameters make the hypothesis symmetric
                assert no_external_points(D, C)


def test_no_external_points_matches_classify_point():
    # the one-gather hypothesis test against the per-point classifier
    for spec in ((3, 2), (5, 2)):
        F = field(*spec)
        plane = projective_plane(F)
        rng = random.Random(F.order)
        conics = [canonical_pencil(F, PencilKind.HYPERBOLIC, k) for k in F.units()]
        while len(conics) < F.order + 8:
            coeffs = tuple(rng.randrange(F.order) for _ in range(6))
            if any(coeffs) and Conic(F, coeffs).rank() == 3:
                conics.append(Conic(F, coeffs))
        seen = set()
        for C in conics:
            for D in conics:
                if C == D:
                    continue
                want = all(
                    classify_point(C, plane.point(pi)) != PointClass.EXTERNAL
                    for pi in np.setdiff1d(D.point_indices(), C.point_indices()).tolist()
                )
                assert no_external_points(C, D) == want
                seen.add(want)
        assert seen == {True, False}


def test_classify_pair_case_details():
    F = field(3, 2)
    k = admissible_ks(F, 1)[0]
    rep = classify_pair(*canonical_case_pair(F, 1, k))
    assert {tuple(P) for P in rep.common_points} == {(1, 0, 0), (0, 1, 0)}
    assert rep.rank1_member.coeffs == (0, 0, 1, 0, 0, 0)
    k3 = admissible_ks(F, 3)[0]
    rep3 = classify_pair(*canonical_case_pair(F, 3, k3))
    assert [tuple(P) for P in rep3.common_points] == [(0, 1, 0)]


def test_pencil_has_single_rank1_member():
    F = field(3, 2)
    for case in (1, 2, 3):
        for k in admissible_ks(F, case):
            C, D = canonical_case_pair(F, case, k)
            rank1 = [E for E in _members(C, D) if E.rank() == 1]
            assert len(rank1) == 1


def _members(C, D):
    # the pencil's n+1 members as Conic objects, in span order
    return [Conic(C.field, R) for R in span(C.field, C.coeffs, D.coeffs).tolist()]


def _random_irreducible(F, rng):
    while True:
        coeffs = tuple(rng.randrange(F.order) for _ in range(6))
        if any(coeffs) and Conic(F, coeffs).rank() == 3:
            return Conic(F, coeffs)


@pytest.mark.parametrize("spec, pairs", [((3, 2), 300), ((5, 2), 150)])
def test_rank1_member_matches_per_member_rank(spec, pairs):
    # the one rank1_rows call over the span against a Conic.rank() per member;
    # the canonical pencil families give the pairs that have a rank-1 member
    F = field(*spec)
    rng = random.Random(F.order)
    kinds = [PencilKind.HYPERBOLIC, PencilKind.ELLIPTIC, PencilKind.PARABOLIC]
    seen = set()
    for t in range(pairs):
        if t % 2:
            C, D = _random_irreducible(F, rng), _random_irreducible(F, rng)
        else:
            kind = kinds[rng.randrange(3)]
            C, D = (canonical_pencil(F, kind, rng.randrange(1, F.order)) for _ in range(2))
        if C == D:
            continue
        want = next((E for E in _members(C, D) if E.rank() == 1), None)
        got = classify_pair(C, D).rank1_member
        assert got == want
        assert got is None or all(type(c) is int for c in got.coeffs)
        seen.add(want is None)
    assert seen == {True, False}


def _canonical_conics(F):
    return (
        [canonical_pencil(F, PencilKind.HYPERBOLIC, k) for k in F.units()]
        + [canonical_pencil(F, PencilKind.ELLIPTIC, k) for k in F.units()]
        + [canonical_pencil(F, PencilKind.PARABOLIC, k) for k in F.elements()]
    )


@pytest.mark.parametrize("spec", [(3, 2), (5, 2)])
def test_hypothesis_matrix_matches_classify_point(spec):
    F = field(*spec)
    plane = projective_plane(F)
    conics = _canonical_conics(F)
    hyp = _hypothesis_matrix(conics)
    for i, C in enumerate(conics):
        external = {pi for pi in range(plane.npoints) if classify_point(C, plane.point(pi)) == PointClass.EXTERNAL}
        for j, D in enumerate(conics):
            if i != j:
                want = all(pi not in external for pi in np.setdiff1d(D.point_indices(), C.point_indices()).tolist())
                assert hyp[i, j] == want, (C, D)
    assert hyp.any() and not hyp.all()


def test_certificate_conics_keep_their_points_not_the_plane():
    # each contained conic keeps its n+1 point indices; one byte per plane
    # point per conic (28,731 points at q = 13) would be more.  A first
    # certificate builds the tables the second one reuses
    U = behs_unital(field(13, 2))[0]
    certify_union_of_conics(U)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cert = certify_union_of_conics(U)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cert.signature == "BEHS" and len(cert.conics) == 13
    assert U.space.npoints == 28_731
    assert kept < len(cert.conics) * U.space.npoints


def test_hypothesis_matrix_keeps_no_plane_array_per_conic():
    # each row classifies the plane once and drops it; the conics keep
    # their point indices alone.  A first call on equal conics builds the
    # plane's tables
    F = field(11, 2)
    _hypothesis_matrix(_canonical_conics(F))
    conics = _canonical_conics(F)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        hyp = _hypothesis_matrix(conics)
        kept = tracemalloc.get_traced_memory()[0] - before - hyp.nbytes
    finally:
        tracemalloc.stop()
    assert len(conics) == 361
    assert kept < len(conics) * projective_plane(F).npoints


def test_classify_pair_errors():
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    with pytest.raises(ValueError, match="the two conics coincide"):
        classify_pair(C, C)
    with pytest.raises(ValueError, match="pencil classification needs irreducible conics"):
        classify_pair(C, Conic(F, (0, 0, 1, 0, 0, 0)))


@settings(max_examples=80, deadline=None, database=None)
@given(st.sampled_from([(3, 2), (5, 2)]), st.booleans(), st.data())
def test_classify_pair_is_invariant_under_collineations(spec, canonical, data):
    # a collineation keeps the pencil's type, the common points, the
    # external points and the rank of every member
    F = field(*spec)
    elem = st.integers(0, F.order - 1)
    if canonical:
        case = data.draw(st.sampled_from([1, 2, 3]), label="case")
        # k = 0 is singular in cases 1 and 2; the first conic has k = 1, 1, 0
        k = data.draw(elem.filter(lambda k: k not in ((0,) if case == 3 else (0, 1))), label="k")
        C, D = canonical_case_pair(F, case, k)
    else:
        irreducible = st.tuples(*[elem] * 6).filter(any).map(lambda c: Conic(F, c)).filter(lambda E: E.rank() == 3)
        C = data.draw(irreducible, label="C")
        D = data.draw(irreducible.filter(lambda E: E != C), label="D")
    M = data.draw(st.tuples(*[st.tuples(elem, elem, elem)] * 3).filter(lambda M: det3(F, M) != 0), label="M")

    def kept(rep):
        return rep.ptype, len(rep.common_points), rep.hypothesis_holds, rep.rank1_member is not None

    assert kept(classify_pair(C.transform(M), D.transform(M))) == kept(classify_pair(C, D))


@pytest.mark.parametrize("q,expected", [(3, 2), (5, 3), (7, 4)])
def test_lemma1_bound(q, expected):
    F = field(q, 2)
    rep = lemma1_search(F)
    assert rep.max_size == expected == (q + 1) // 2
    for w in rep.witnesses:
        assert all(F.is_square(x) and x for x in w)
        for a, b in combinations(w, 2):
            assert not F.is_square(F.sub(a, b))


@pytest.mark.parametrize("q", [3, 5])
def test_lemma1_against_brute_force(q):
    F = field(q, 2)
    sqs = F.squares()
    best, wit = 0, []
    for r in range(1, len(sqs) + 1):
        for sub in combinations(sqs, r):
            if all(not F.is_square(F.sub(a, b)) for a, b in combinations(sub, 2)):
                if r > best:
                    best, wit = r, [sub]
                elif r == best:
                    wit.append(sub)
    rep = lemma1_search(F)
    assert rep.max_size == best
    assert sorted(rep.witnesses) == sorted(wit)


@pytest.mark.parametrize("q", [3, 5])
def test_lemma2_cosets(q):
    F = field(q, 2)
    rep = lemma2_search(F)
    assert rep.max_size == q
    assert rep.all_maximal_are_cosets
    assert rep.zero_convention == "includes_zero"
    sub = F.subfield_elements(q)
    for w in rep.witnesses:
        assert 0 in w
        # nonzero members are non-squares (the class filter)
        assert all(not F.is_square(x) for x in w if x)
        t = next(x for x in w if x)
        assert set(w) == {F.mul(t, u) for u in sub}


@pytest.mark.parametrize("q", [3, 5])
def test_lemma2_strict_reading_caps_at_q_minus_1(q):
    # without 0 the maximum drops to q-1 and witnesses are punctured cosets
    F = field(q, 2)
    ns = F.nonsquares()
    best, wit = 0, []
    for r in range(1, q + 1):
        for sub in combinations(ns, r):
            if all(not F.is_square(F.sub(a, b)) for a, b in combinations(sub, 2)):
                if r > best:
                    best, wit = r, [sub]
                elif r == best:
                    wit.append(sub)
    assert best == q - 1
    subfield = F.subfield_elements(q)
    for w in wit:
        t = w[0]
        assert set(w) == {F.mul(t, u) for u in subfield if u}


def test_conics_contained_behs_q3_both_methods():
    F = field(3, 2)
    U, conics = behs_unital(F)
    got_p = conics_contained(U, method="pencil")
    got_e = conics_contained(U, method="exhaustive")
    assert got_p == got_e
    assert sorted(C.coeffs for C in got_p) == sorted(C.coeffs for C in conics)


def test_conics_contained_hermitian_q3_empty():
    F = field(3, 2)
    U = hermitian_unital(F)
    assert conics_contained(U, method="pencil") == []
    assert conics_contained(U, method="exhaustive") == []


@pytest.mark.parametrize("h", [2, 4])
def test_pencil_search_matches_exhaustive_on_even_hermitian(h):
    # plane orders 4 and 16: no conic, by the nucleus argument
    U = hermitian_unital(field(2, h))
    assert conics_contained(U, method="pencil") == conics_contained(U, method="exhaustive") == []


def test_exhaustive_sweep_reads_the_coordinate_array_in_place():
    # the sweep of PG(5,16) against the Hermitian unital at q=4 peaked at
    # 41,389,974 bytes while it kept a transposed copy of the 6,710,886-byte
    # coordinate array; without the copy it must stay below the difference.
    # It now peaks near 1.9 arrays (the survivors' buffer and the
    # temporaries of one pass), and any copy of the array would add one more
    U = hermitian_unital(field(2, 4))
    coords = projective_space(U.space.field, 5).coords_array()
    _monomials(U.space)
    tracemalloc.start()
    try:
        found = analysis._conics_contained_exhaustive(U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [] and coords.nbytes == 6_710_886
    assert peak <= 41_389_974 - 6_710_886
    assert peak <= 2.4 * coords.nbytes


def test_conics_contained_single_conic():
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    assert conics_contained(C.points()) == [C]


def _flag_rows(F, P, L):
    """Rows of the three 2x2 minors of (A.P, L): zero on the coefficient
    tuples of the conics whose polar of P is L (or which are singular at P)."""
    x, y, z = P
    u = ((x, 0, 0, y, z, 0), (0, y, 0, x, 0, z), (0, 0, z, 0, x, y))
    return [
        tuple(F.sub(F.mul(L[b], ua), F.mul(L[a], ub)) for ua, ub in zip(u[a], u[b]))
        for a, b in ((0, 1), (0, 2), (1, 2))
    ]


def _product_coeffs(F, U, V):
    """Coefficient tuple (a11,a22,a33,a12,a13,a23) of the form U(X)*V(X)."""
    half = F.inv(F.add(1, 1))
    sym = lambda i, j: F.mul(half, F.add(F.mul(U[i], V[j]), F.mul(U[j], V[i])))
    return tuple(sym(i, j) for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))


def _pairing(F, row, c):
    acc = 0
    for r, x in zip(row, c):
        acc = F.add(acc, F.mul(r, x))
    return acc


def test_bitangent_pencil_identity_against_null_space():
    # the conics through P and Q touching L_P at P and L_Q at Q, solved as a
    # scalar null space, are the pencil spanned by M^2 and L_P*L_Q
    F = field(3, 2)
    plane = projective_plane(F)
    mon = _monomials(plane)
    U, _ = behs_unital(F)
    sets = [U, hermitian_unital(F), canonical_pencil(F, PencilKind.ELLIPTIC, 1).points()]
    pairs = 0
    for S in sets:
        tangents = dict(zip(S.indices(), map(tuple, _scan_lines(S)[0].tolist())))
        for pi, qi in combinations(S.indices(), 2):
            P, Q = plane.point(pi), plane.point(qi)
            rows = [mon[pi].tolist(), mon[qi].tolist()]
            rows += _flag_rows(F, P, tangents[pi]) + _flag_rows(F, Q, tangents[qi])
            basis = nullspace(F, rows)
            M = line_through(plane, P, Q)
            pencil = [_product_coeffs(F, M, M), _product_coeffs(F, tangents[pi], tangents[qi])]
            # both generators solve every row, and they are independent
            assert len(basis) == 2
            for c in pencil:
                assert all(_pairing(F, row, c) == 0 for row in rows)
            assert len(nullspace(F, [pencil[0], pencil[1]])) == 4
            pairs += 1
    assert pairs == 2 * 378 + 45


def test_pencil_search_matches_exhaustive_n9():
    F = field(3, 2)
    plane = projective_plane(F)
    rng = random.Random(6)
    sets = [behs_unital(F, t)[0] for t in F.nonsquares()] + [hermitian_unital(F)]
    sets += [transform_points(plane, random_invertible(F, rng), S) for S in list(sets) for _ in range(2)]
    counts = []
    for S in sets:
        got = conics_contained(S, method="pencil")
        assert got == conics_contained(S, method="exhaustive")
        counts.append(len(got))
    assert counts == [3, 3, 3, 3, 0] + [3] * 8 + [0] * 2


@pytest.mark.parametrize(
    "p,h,count", [(3, 2, 6), (5, 2, 4), (7, 2, 3), (3, 4, 2), (2, 2, 6), (2, 3, 6), (2, 4, 6)]
)
def test_pencil_search_finds_single_random_conic(p, h, count):
    F = field(p, h)
    rng = random.Random(p * 100 + h)
    found = 0
    while found < count:
        C = Conic(F, [rng.randrange(F.order) for _ in range(6)])
        if not C.is_irreducible:
            continue
        assert conics_contained(C.points(), method="pencil") == [C]
        found += 1


@pytest.mark.parametrize("F", [field(7, 2), field(3, 4)], ids=["q7", "q9"])
def test_pencil_search_finds_construction_conics(F):
    U, conics = behs_unital(F)
    got = conics_contained(U, method="pencil")
    assert sorted(C.coeffs for C in got) == sorted(C.coeffs for C in conics)
    assert len(got) == len(conics) == unital_q(F)
    space5 = projective_space(F, 5)
    assert [point_index(space5, C.coeffs) for C in got] == sorted(point_index(space5, C.coeffs) for C in got)
    assert conics_contained(hermitian_unital(F), method="pencil") == []


@pytest.mark.parametrize("p", [5, 7])
def test_pencil_search_commutes_with_collineations(p):
    # the conics inside g.S are the images under g of the conics inside S
    F = field(p, 2)
    plane = projective_plane(F)
    space5 = projective_space(F, 5)
    rng = random.Random(p)
    U, _ = behs_unital(F)
    for S, count in ((U, p), (hermitian_unital(F), 0)):
        inside = conics_contained(S, method="pencil")
        assert len(inside) == count
        for _ in range(2):
            M = random_invertible(F, rng)
            images = sorted((C.transform(M) for C in inside), key=lambda C: point_index(space5, C.coeffs))
            assert conics_contained(transform_points(plane, M, S), method="pencil") == images
    assert conics_contained(PointSet(plane, np.zeros(plane.npoints, dtype=bool)), method="pencil") == []


_F9 = field(3, 2)
# invertible 3x3 matrices over GF(9), row by row
_COLLINEATIONS_Q3 = (
    st.lists(st.integers(0, 8), min_size=9, max_size=9)
    .map(lambda v: (tuple(v[:3]), tuple(v[3:6]), tuple(v[6:])))
    .filter(lambda M: det3(_F9, M) != 0)
)
_BEHS_CONICS_Q3 = [C for t in _F9.nonsquares() for C in behs_unital(_F9, t)[1]]


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(["behs", "hermitian"]), _COLLINEATIONS_Q3)
def test_pencil_search_matches_exhaustive_on_collineation_images(kind, M):
    S = behs_unital(_F9)[0] if kind == "behs" else hermitian_unital(_F9)
    image = transform_points(projective_plane(_F9), M, S)
    assert conics_contained(image, method="pencil") == conics_contained(image, method="exhaustive")


@settings(max_examples=40, deadline=None, database=None)
@given(st.sets(st.integers(0, len(_BEHS_CONICS_Q3) - 1), min_size=1, max_size=5), _COLLINEATIONS_Q3)
def test_pencil_search_matches_exhaustive_on_unions_of_behs_conics(chosen, M):
    # unions of construction conics from every non-square class, moved by a
    # collineation; the pencil search needs a unique tangent at every point
    plane = projective_plane(_F9)
    union = PointSet(plane, np.any([_BEHS_CONICS_Q3[i].points().member for i in chosen], axis=0))
    S = transform_points(plane, M, union)
    if _scan_lines(S)[0] is None:
        with pytest.raises(ValueError):
            conics_contained(S, method="pencil")
    else:
        assert conics_contained(S, method="pencil") == conics_contained(S, method="exhaustive")


def _anchors_by_loop(S):
    """For each rank r of a point P of S, by a loop over the secants through
    P in line order: (line, ranks) for the first secant with the fewest
    ranks after r, its index and those ranks, or (None, []) when P is on
    no secant."""
    plane = S.space
    rank = {pt: r for r, pt in enumerate(S.indices())}
    secants = [(li, plane.lines[li].tolist()) for li in np.flatnonzero(line_counts(S) > 1)]
    out = []
    for pt, r in rank.items():
        laters = [(li, sorted(rank[x] for x in line if rank.get(x, -1) > r)) for li, line in secants if pt in line]
        out.append(min(laters, key=lambda later: len(later[1]), default=(None, [])))
    return out


def _tangents_by_point(S):
    """The dual vector of the one tangent line through each point of S, by a
    count of S on every line through it, or None when some point has none
    or several."""
    plane = S.space
    rows = plane.lines.tolist()
    counts = [sum(S.member[x] for x in line) for line in rows]
    out = []
    for pt in S.indices():
        tangents = [li for li, line in enumerate(rows) if pt in line and counts[li] == 1]
        if len(tangents) != 1:
            return None
        out.append(plane.point(tangents[0]))
    return out


def _scan_sets(F):
    """Unitals, a collineation image, the BEHS unital less one point and
    plus one, a conic, a point and the empty set."""
    plane = projective_plane(F)
    U = behs_unital(F)[0]
    extra = PointSet.from_indices(plane, [int(np.argmin(U.member))])
    return [
        U,
        hermitian_unital(F),
        transform_points(plane, random_invertible(F, random.Random(F.p)), U),
        PointSet(plane, U.member & (np.arange(plane.npoints) != U.indices()[7])),
        PointSet(plane, U.member | extra.member),
        canonical_pencil(F, PencilKind.PARABOLIC, 0).points(),
        extra,
        PointSet(plane, np.zeros(plane.npoints, dtype=bool)),
    ]


@pytest.mark.parametrize("p", [3, 5])
def test_anchor_pairs_match_oracle(p):
    nones = []
    for S in _scan_sets(field(p, 2)):
        tangents, ps, qs, lines = _scan_lines(S)
        nones.append(tangents is None)
        ps, qs, lines = ps.tolist(), qs.tolist(), lines.tolist()
        assert ps == sorted(ps)
        for r, (line, anchor) in enumerate(_anchors_by_loop(S)):
            assert [q for pr, q in zip(ps, qs) if pr == r] == anchor
            assert all(li == line for pr, li in zip(ps, lines) if pr == r)
        # each pair row's anchor line, whose dual vector is the search's M,
        # holds both P and Q
        points = S.indices()
        for pr, q, li in zip(ps, qs, lines):
            assert {points[pr], points[q]} <= set(S.space.lines[li].tolist())
        want = _tangents_by_point(S)
        assert (tangents is None) == (want is None)
        if want is not None:
            assert list(map(tuple, tangents.tolist())) == want
    # a unital less one point keeps a unique tangent at every point; with a
    # point more, that point and its q+1 neighbours on old tangents have none
    assert nones == [False, False, False, False, True, False, True, False]


def _irreducible_conic(F, seed):
    rng = random.Random(seed)
    while True:
        C = Conic(F, [rng.randrange(F.order) for _ in range(6)])
        if C.is_irreducible:
            return C


def test_pencil_search_chunks_do_not_change_output(monkeypatch):
    # one row per chunk, so that every chunk starts its R at its own P and
    # folds its own log sums; at q = 4, where log -1 is 0, the Hermitian
    # unital, its image and one conic stand in for the BEHS unital
    sets = []
    for p, h in ((5, 2), (7, 2), (2, 4)):
        F = field(p, h)
        move = lambda S: transform_points(projective_plane(F), random_invertible(F, random.Random(9)), S)
        if p % 2:
            U = behs_unital(F)[0]
            sets += [U, hermitian_unital(F), move(U)]
        else:
            H = hermitian_unital(F)
            sets += [H, move(H), _irreducible_conic(F, h).points()]
    expected = [conics_contained(S, method="pencil") for S in sets]
    monkeypatch.setattr(analysis, "_CHUNK", 1)
    assert [conics_contained(S, method="pencil") for S in sets] == expected
    assert [len(c) for c in expected] == [5, 0, 5, 7, 0, 7, 0, 0, 1]


# both characteristics, up to order 256 and at 289, where the flat-table
# index moves from uint16 to uint32
_LINE_VALUE_FIELDS = [field(p, h) for p, h in ((2, 1), (3, 1), (2, 3), (3, 2), (2, 4), (5, 2), (2, 8), (17, 2))]


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(_LINE_VALUE_FIELDS), st.data())
def test_line_values_match_scalar_sums(F, data):
    n = F.order
    plane = projective_plane(F)
    element = st.integers(0, n - 1)
    lines = data.draw(st.lists(st.lists(element, min_size=3, max_size=3), min_size=1, max_size=6))
    # normalised points, those with x = 0 (the first n+1 indices) drawn often
    index = st.one_of(st.integers(0, n), st.integers(0, plane.npoints - 1))
    points = [plane.point(i) for i in data.draw(st.lists(index, min_size=1, max_size=8))]
    # the search passes lines in the field's dtype; wider integer lines work too
    U = np.array(lines, dtype=data.draw(st.sampled_from([F.mul_table.dtype, np.int64])))
    keys = _point_keys(F, np.array(points, dtype=F.mul_table.dtype))

    def value(u, r):
        return F.add(F.add(F.mul(u[0], r[0]), F.mul(u[1], r[1])), F.mul(u[2], r[2]))

    want = [[value(u, r) for r in points] for u in lines]
    got = _line_values(F, U, keys, F.add_table.ravel())
    assert got.dtype == F.add_table.dtype
    assert got.tolist() == want
    # a table f[F.add_table] reads f at the value, as the search's log tables do
    f = np.random.default_rng(n).permutation(n).astype(np.int16)
    assert _line_values(F, U, keys, f[F.add_table].ravel()).tolist() == f[np.array(want)].tolist()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_anchor_pairs_blocks_do_not_change_them(monkeypatch, p):
    # one line per block, so that the running minimum and the tangent
    # counts meet every line in a block of its own
    sets = _scan_sets(field(p, 2))

    def scans():
        out = []
        for S in sets:
            scan = [None if a is None else a.tolist() for a in _scan_lines(S)]
            out.append(scan + [is_unital(S)])
        return out

    expected = scans()
    monkeypatch.setattr(geom, "_LINE_BLOCK_ENTRIES", 1)
    assert scans() == expected


def test_anchor_pairs_memory_stays_below_the_line_table(monkeypatch):
    # the scan reads the line table in blocks of rows, each at the flat
    # positions of its entries in S, and keeps per-point arrays, the anchor
    # rows and the pairs: at plane order 121, with the 7 MB table in 220
    # blocks, the peak is 0.210x the table.  Older passes peaked at 0.28x,
    # and one table-sized boolean copy alone would reach the bound
    S = behs_unital(field(11, 2))[0]
    S.space.lines  # built on first read: build it before the traced scan
    monkeypatch.setattr(geom, "_LINE_BLOCK_ENTRIES", 1 << 13)
    tracemalloc.start()
    try:
        _scan_lines(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(S.space.lines) > 200 * (geom._LINE_BLOCK_ENTRIES // S.space.lines.shape[1])
    assert peak < 0.25 * S.space.lines.nbytes


def test_pencil_search_memory_is_one_chunk():
    # the search keeps per-chunk temporaries of about _CHUNK entries and
    # per-row arrays: with _CHUNK = 1 << 18 the BEHS unital peaks at
    # 4.42 MB at plane order 121 and 4.29 MB at 169 (1.58 and 1.66 MB at
    # 1 << 16), where one int64 |S| x |S| array would take 14 and 39 MB
    for p in (11, 13):
        F = field(p, 2)
        S = behs_unital(F)[0]
        tangents, *anchors = _scan_lines(S)
        analysis._log_tables(F)
        tracemalloc.start()
        try:
            assert len(analysis._conics_contained_pencils(S, tangents, *anchors)) == p
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20


@pytest.mark.parametrize("p", [5, 7])
def test_pencil_search_gathers_once_per_point(monkeypatch, p):
    # M(R) and L_P(R) are read once per point P of a chunk, L_Q(R) once
    # per anchor pair (P, Q): at most (rows + 2*distinct P)*|S| entries,
    # where three reads per row would need up to 3*rows*|S|
    F = field(p, 2)
    U = behs_unital(F)[0]
    image = transform_points(projective_plane(F), random_invertible(F, random.Random(p)), U)
    line_values = analysis._line_values
    entries = 0

    def counted(F, U, keys, table):
        nonlocal entries
        out = line_values(F, U, keys, table)
        entries += out.size
        return out

    monkeypatch.setattr(analysis, "_line_values", counted)
    for S in (U, hermitian_unital(F), image):
        entries = 0
        conics_contained(S, method="pencil")
        ps = _scan_lines(S)[1]
        assert 0 < entries <= (len(ps) + 2 * len(np.unique(ps))) * S.card


@pytest.mark.parametrize("q,behs,herm", [(5, 92, 116), (7, 346, 347), (4, None, 44), (8, None, 764)])
def test_anchor_pairs_complexity_guard(q, behs, herm):
    # the search reads one row per anchor pair: about 2|S|, at most q|S|;
    # BEHS unitals exist for odd q only
    p, e = _prime_power(q)
    F = field(p, 2 * e)
    sets = [(hermitian_unital(F), herm)] + ([(behs_unital(F)[0], behs)] if q % 2 else [])
    for S, count in sets:
        assert len(_scan_lines(S)[1]) == count <= q * S.card


def test_verify_afkl_guard():
    with pytest.raises(NotStated, match="stated for orders >= 17, got 9"):
        verify_afkl(field(3, 2))
    with pytest.raises(NotStated, match="the trichotomy concerns odd order"):
        verify_afkl(field(2, 6))


def test_verify_afkl_n25():
    F = field(5, 2)
    rep = verify_afkl(F, samples=300, seed=11)
    assert rep.ok
    assert rep.hypothesis_pairs > 0
    assert rep.symmetric_pairs < rep.hypothesis_pairs  # one-way pairs exist
    assert rep.sampled_pairs == 300


@pytest.mark.parametrize("spec, counts", [((5, 2), (5256, 888, 588)), ((7, 2), (20880, 3504, 2328))])
def test_verify_afkl_exhaustive_counts(spec, counts):
    # exhaustive, hypothesis and symmetric pair counts over the canonical families
    rep = verify_afkl(field(*spec))
    assert (rep.exhaustive_pairs, rep.hypothesis_pairs, rep.symmetric_pairs) == counts
    assert rep.ok and rep.sampled_pairs == 0


def test_certify_behs_q3():
    F = field(3, 2)
    U, _ = behs_unital(F)
    cert = certify_union_of_conics(U)
    assert cert.covered and cert.signature == "BEHS"
    assert cert.base_point == (0, 1, 0)
    assert cert.parameter_coset_ok and cert.parameter_characters_ok
    assert 0 in cert.parameters and len(cert.parameters) == 3


def test_certify_behs_transformed_frame():
    # the structural signature does not depend on canonical position
    F = field(3, 2)
    plane = projective_plane(F)
    U, _ = behs_unital(F)
    rng = random.Random(9)
    M = random_invertible(F, rng)
    U2 = transform_points(plane, M, U)
    cert = certify_union_of_conics(U2)
    assert cert.covered and cert.signature == "BEHS"


def test_certify_behs_every_t_class_q3():
    # distinct non-square classes t*GF(q)* give distinct unitals, all BEHS
    F = field(3, 2)
    sets = set()
    for t in F.nonsquares():
        U, _ = behs_unital(F, t)
        sets.add(tuple(U.indices()))
        assert certify_union_of_conics(U).signature == "BEHS"
    assert len(sets) == 2  # 4 non-squares fall into 2 classes mod GF(3)*


def test_certify_behs_second_t_class_q5():
    F = field(5, 2)
    t0 = min(F.nonsquares())
    covered = {F.mul(t0, u) for u in F.subfield_elements(5) if u}
    t1 = next(t for t in F.nonsquares() if t not in covered)
    U, _ = behs_unital(F, t1)
    cert = certify_union_of_conics(U)
    assert cert.covered and cert.signature == "BEHS"


def test_certify_hermitian():
    F = field(3, 2)
    cert = certify_union_of_conics(hermitian_unital(F))
    assert not cert.covered and cert.signature is None and cert.conics == []


def test_certify_even_q():
    for p, h, q in ((2, 2, 2), (2, 4, 4), (2, 6, 8)):
        F = field(p, h)
        cert = certify_union_of_conics(hermitian_unital(F))
        assert not cert.q_odd and not cert.covered and cert.conics == []
        assert cert.notes and "nucleus" in cert.notes[0]


def _count_walks(monkeypatch):
    """A list that grows by one entry each time analysis or geom starts a
    walk over the line table through line_blocks."""
    walks = []
    line_blocks = geom.line_blocks

    def counted(plane, values):
        walks.append(plane)
        return line_blocks(plane, values)

    monkeypatch.setattr(geom, "line_blocks", counted)
    monkeypatch.setattr(analysis, "line_blocks", counted)
    return walks


@pytest.mark.parametrize("p", [3, 5])
def test_certify_walks_the_line_table_once_per_unital(monkeypatch, p):
    # the pencil search's scan is the one walk; the unital check reads the
    # rows of the unital's points alone
    F = field(p, 2)
    sets = [behs_unital(F)[0], hermitian_unital(F)]
    walks = _count_walks(monkeypatch)
    certs = [certify_union_of_conics(S) for S in sets]
    assert [c.signature for c in certs] == ["BEHS", None]
    assert len(walks) == len(sets)


def test_tangent_structure_never_walks_the_line_table(monkeypatch):
    # the line counts read the rows of the unital's points, the tangent
    # counts those of its tangent lines
    F = field(5, 2)
    sets = [behs_unital(F)[0], hermitian_unital(F)]
    walks = _count_walks(monkeypatch)
    assert all(tangent_structure(S).ok for S in sets)
    assert walks == []


def test_unital_reports_never_walk_the_line_table(monkeypatch, capsys):
    # verify-unital, the unital claim and theorem3 count lines from chosen
    # rows alone; at q = 5 the unital reports build the BEHS and the
    # Hermitian unital
    walks = _count_walks(monkeypatch)
    assert cli.run_unital_claim(field(5, 2))["ok"]
    for kind in ("behs", "hermitian"):
        assert cli.main(["verify-unital", "--q", "5", "--kind", kind]) == 0
        assert '"tangent_structure"' in capsys.readouterr().out
    assert cli.run_theorem3(field(5, 2), 20, 0)["ok"]
    assert walks == []


def test_certify_requires_unital():
    from unitals.geom import PointSet

    F = field(3, 2)
    plane = projective_plane(F)
    with pytest.raises(ValueError, match="certificate requires a verified unital"):
        certify_union_of_conics(PointSet.from_indices(plane, range(28)))


def _pencil_parameter_by_null_space(F, base, tangent_sq, Ci):
    # the reference: mu*base + a*tangent_sq = rho*Ci as a 6x3 null space,
    # one solution with mu and rho nonzero giving a/mu
    rows = [(base[r], tangent_sq[r], F.neg(Ci.coeffs[r])) for r in range(6)]
    ns = nullspace(F, rows)
    if len(ns) != 1:
        return None
    mu, a, rho = ns[0]
    if mu == 0 or rho == 0:
        return None
    return F.mul(a, F.inv(mu))


@pytest.mark.parametrize("spec", [(3, 1), (2, 2), (3, 2), (13, 1), (2, 4), (5, 2), (7, 2)])
def test_pencil_parameter_matches_null_space(spec):
    # seeded (base, L^2, Ci): every odd draw a pencil member base + a*L^2,
    # every fifth of those L^2 itself, which has no parameter
    F = field(*spec)
    space5 = projective_space(F, 5)
    rng = random.Random(F.order)
    members = squares = 0
    for trial in range(80):
        triple = (0, 0, 0)
        while not any(triple):
            triple = tuple(rng.randrange(F.order) for _ in range(3))
        tangent_sq = space5.normalize(quadratic_rows(F, [triple])[0].tolist())
        base = tangent_sq
        while base == tangent_sq:
            base = space5.point(rng.randrange(space5.npoints))
        a = rng.randrange(F.order)
        if trial % 10 == 1:
            Ci = Conic(F, tangent_sq)
            squares += 1
        elif trial % 2:
            Ci = Conic(F, [F.add(b, F.mul(a, t)) for b, t in zip(base, tangent_sq)])
            members += 1
        else:
            Ci = Conic(F, space5.point(rng.randrange(space5.npoints)))
        want = _pencil_parameter_by_null_space(F, base, tangent_sq, Ci)
        assert analysis._pencil_parameters(F, base, tangent_sq, [Ci]) == [want]
        if trial % 2:
            assert want == (None if trial % 10 == 1 else a)
    assert members == 32 and squares == 8


# sha256 of the certificate's JSON on each of its return paths
_CERT_DIGESTS = {
    "no_conics_odd": "edbe0a4353094281606016bd2e0a84444933c6f6d13460b37c3565bc79d94c28",
    "no_conics_even": "f0ced318935b7f217b4e28ccb81dc28d94099de7f1e8920ba4d47eebe5cb2be9",
    "uncovered": "41030f5cc42cf0a7a868c1951ac57af966b6a15a35f2c7a328556bd4fda0e3ec",
    "pairwise_structure": "9f1851c588de1456305f91ad98ca849f02e32afaebdade519a22dd5c8a9ef411",
    "shared_tangent": "95b23a81fd5584f68a53e83cf7c0fa653f7807722a9086421ec40d286334b810",
    "one_pencil": "251127c033e0f2fcecbeb66c0198e986948bc7da482c5ae061b995f631980cf3",
    "behs": "dd84d810a8751943699d0c55d53a4b4cbd264486dae041b3f7df5522ad2c9ef1",
}


@pytest.mark.parametrize("path", sorted(_CERT_DIGESTS))
def test_certificate_return_paths_are_byte_identical(monkeypatch, path):
    # the BEHS unital at q=3, bent onto each path: no consistent list of
    # conics reaches the tangent and pencil paths, so those two patch one
    # non-first conic's tangent or pencil parameter
    F = field(3, 2)
    U, conics = behs_unital(F)
    if path == "no_conics_odd":
        U = hermitian_unital(F)
    elif path == "no_conics_even":
        U = hermitian_unital(field(2, 2))
    elif path == "uncovered":
        monkeypatch.setattr(analysis, "_conics_contained_pencils", lambda S, *scan: conics[:-1])
    elif path == "pairwise_structure":
        extra = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
        monkeypatch.setattr(analysis, "_conics_contained_pencils", lambda S, *scan: conics + [extra])
    elif path == "shared_tangent":
        tangent_at = Conic.tangent_at
        bent = lambda C, P: (1, 0, 0) if C == conics[1] else tangent_at(C, P)
        monkeypatch.setattr(Conic, "tangent_at", bent)
    elif path == "one_pencil":
        parameters = analysis._pencil_parameters
        bent = lambda F, base, sq, cs: [None if C == conics[1] else a for C, a in zip(cs, parameters(F, base, sq, cs))]
        monkeypatch.setattr(analysis, "_pencil_parameters", bent)
    text = json.dumps(certify_union_of_conics(U), default=cli._jsonable)
    assert hashlib.sha256(text.encode()).hexdigest() == _CERT_DIGESTS[path], text


def test_pairs_inside_unital_satisfy_hypothesis_both_ways():
    # the opening reduction: everything off a contained conic is internal
    F = field(3, 2)
    U, conics = behs_unital(F)
    for C, D in combinations(conics, 2):
        rep = classify_pair(C, D)
        assert rep.ptype == PencilType.HYPEROSCULATING
        assert rep.hypothesis_holds
        assert no_external_points(D, C)
        # the whole unital minus the conic is internal to it
        plane = projective_plane(F)
        for pi in np.setdiff1d(U.indices(), C.point_indices()).tolist():
            assert classify_point(C, plane.point(pi)) == PointClass.INTERNAL


def test_case1_nonsquare_parameter_conic_hits_external_point():
    # a residual conic with non-square parameter b meets the line x = 0 in
    # (0, y, 1) with y^2 = 2k/((k-1)b), and that point is external to the
    # base hyperbola, so the conic can never join it inside a unital
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    checked = 0
    for k in admissible_ks(F, 1):
        omk = F.sub(1, k)
        for b in F.nonsquares():
            E = Conic(
                F,
                (omk, F.mul(omk, F.mul(b, b)), F.mul(F.add(k, k), b), F.neg(F.mul(F.add(k, 1), b)), 0, 0),
            )
            y2 = F.mul(F.add(k, k), F.inv(F.mul(F.sub(k, 1), b)))
            P = (0, next(y for y in F.elements() if F.mul(y, y) == y2), 1)
            assert E.evaluate(P) == 0
            assert classify_point(C, P) == PointClass.EXTERNAL
            checked += 1
    assert checked > 0

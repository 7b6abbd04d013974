import random
import tracemalloc
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitals import analysis
from unitals.analysis import (
    CoincidentConics,
    FieldTooSmall,
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
    _anchor_pairs,
    _hypothesis_matrix,
    _transform_points,
    _unique_tangents,
)
from unitals.cli import _prime_power
from unitals.conic import Conic, PencilKind, SingularConic, _monomials, canonical_pencil
from unitals.geom import PointSet, det3, line_counts, projective_plane, projective_space, span
from unitals.gf import field, nullspace
from unitals.unital import NotAUnital, behs_unital, hermitian_unital, unital_q


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
                assert no_external_points(D, C.points())


def test_no_external_points_matches_classify_point():
    # the one-gather hypothesis test against the per-point classifier
    from unitals.conic import PointClass

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
                    C.classify_point(plane.point(pi)) != PointClass.EXTERNAL
                    for pi in (D.points() - C.points()).indices()
                )
                assert no_external_points(C, D.points()) == want
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


@pytest.mark.parametrize("spec", [(3, 2), (5, 2)])
def test_hypothesis_matrix_matches_classify_point(spec):
    from unitals.conic import PointClass

    F = field(*spec)
    plane = projective_plane(F)
    conics = [canonical_pencil(F, PencilKind.HYPERBOLIC, k) for k in F.units()]
    conics += [canonical_pencil(F, PencilKind.ELLIPTIC, k) for k in F.units()]
    conics += [canonical_pencil(F, PencilKind.PARABOLIC, k) for k in F.elements()]
    hyp = _hypothesis_matrix(conics)
    for i, C in enumerate(conics):
        external = {pi for pi in range(plane.npoints) if C.classify_point(plane.point(pi)) == PointClass.EXTERNAL}
        for j, D in enumerate(conics):
            if i != j:
                want = all(pi not in external for pi in (D.points() - C.points()).indices())
                assert hyp[i, j] == want, (C, D)
    assert hyp.any() and not hyp.all()


def test_classify_pair_errors():
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    with pytest.raises(CoincidentConics):
        classify_pair(C, C)
    with pytest.raises(SingularConic):
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
        tangents = dict(zip(S.indices(), map(tuple, _unique_tangents(S).tolist())))
        for pi, qi in combinations(S.indices(), 2):
            P, Q = plane.point(pi), plane.point(qi)
            rows = [mon[pi].tolist(), mon[qi].tolist()]
            rows += _flag_rows(F, P, tangents[pi]) + _flag_rows(F, Q, tangents[qi])
            basis = nullspace(F, rows)
            M = plane.line_through(P, Q)
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
    sets += [_transform_points(plane, random_invertible(F, rng), S) for S in list(sets) for _ in range(2)]
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
    assert [space5.index(C.coeffs) for C in got] == sorted(space5.index(C.coeffs) for C in got)
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
            images = sorted((C.transform(M) for C in inside), key=lambda C: space5.index(C.coeffs))
            assert conics_contained(_transform_points(plane, M, S), method="pencil") == images
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
    image = _transform_points(projective_plane(_F9), M, S)
    assert conics_contained(image, method="pencil") == conics_contained(image, method="exhaustive")


@settings(max_examples=40, deadline=None, database=None)
@given(st.sets(st.integers(0, len(_BEHS_CONICS_Q3) - 1), min_size=1, max_size=5), _COLLINEATIONS_Q3)
def test_pencil_search_matches_exhaustive_on_unions_of_behs_conics(chosen, M):
    # unions of construction conics from every non-square class, moved by a
    # collineation; the pencil search needs a unique tangent at every point
    union = reduce(or_, (_BEHS_CONICS_Q3[i].points() for i in chosen))
    S = _transform_points(projective_plane(_F9), M, union)
    if _unique_tangents(S) is None:
        with pytest.raises(ValueError):
            conics_contained(S, method="pencil")
    else:
        assert conics_contained(S, method="pencil") == conics_contained(S, method="exhaustive")


def _anchor_candidates(S):
    """For each rank r of a point P of S, by a loop over the secants through
    P: every shortest list of the ranks after r on one such secant."""
    plane = S.space
    rank = {pt: r for r, pt in enumerate(S.indices())}
    secants = [plane.lines[li].tolist() for li in np.flatnonzero(line_counts(S) > 1)]
    out = []
    for pt, r in rank.items():
        laters = [sorted(rank[x] for x in line if rank.get(x, -1) > r) for line in secants if pt in line]
        out.append([qs for qs in laters if len(qs) == min(map(len, laters))])
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_anchor_pairs_match_oracle(p):
    F = field(p, 2)
    U = behs_unital(F)[0]
    image = _transform_points(projective_plane(F), random_invertible(F, random.Random(p)), U)
    for S in (U, hermitian_unital(F), image):
        ps, qs = (a.tolist() for a in _anchor_pairs(S))
        assert ps == sorted(ps)
        for r, candidates in enumerate(_anchor_candidates(S)):
            assert [q for pr, q in zip(ps, qs) if pr == r] in candidates


def test_pencil_search_chunks_do_not_change_output(monkeypatch):
    # one row per chunk, so that every chunk starts its R at its own P
    F = field(5, 2)
    U = behs_unital(F)[0]
    sets = [U, hermitian_unital(F), _transform_points(projective_plane(F), random_invertible(F, random.Random(9)), U)]
    expected = [conics_contained(S, method="pencil") for S in sets]
    monkeypatch.setattr(analysis, "_CHUNK", 1)
    assert [conics_contained(S, method="pencil") for S in sets] == expected
    assert [len(c) for c in expected] == [5, 0, 5]


@pytest.mark.parametrize("q,behs,herm", [(5, 92, 116), (7, 346, 347), (4, None, 44), (8, None, 764)])
def test_anchor_pairs_complexity_guard(q, behs, herm):
    # the search reads one row per anchor pair: about 2|S|, at most q|S|;
    # BEHS unitals exist for odd q only
    p, e = _prime_power(q)
    F = field(p, 2 * e)
    sets = [(hermitian_unital(F), herm)] + ([(behs_unital(F)[0], behs)] if q % 2 else [])
    for S, count in sets:
        assert len(_anchor_pairs(S)[0]) == count <= q * S.card


def test_verify_afkl_guard():
    with pytest.raises(FieldTooSmall):
        verify_afkl(field(3, 2))


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
    U2 = _transform_points(plane, M, U)
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


def test_certify_requires_unital():
    from unitals.geom import PointSet

    F = field(3, 2)
    plane = projective_plane(F)
    with pytest.raises(NotAUnital):
        certify_union_of_conics(PointSet.from_indices(plane, range(28)))


def test_pairs_inside_unital_satisfy_hypothesis_both_ways():
    # the opening reduction: everything off a contained conic is internal
    F = field(3, 2)
    U, conics = behs_unital(F)
    for C, D in combinations(conics, 2):
        rep = classify_pair(C, D)
        assert rep.ptype == PencilType.HYPEROSCULATING
        assert rep.hypothesis_holds
        assert no_external_points(D, C.points())
        # the whole unital minus the conic is internal to it
        plane = projective_plane(F)
        for pi in (U - C.points()).indices():
            from unitals.conic import PointClass

            assert C.classify_point(plane.point(pi)) == PointClass.INTERNAL


def test_case1_nonsquare_parameter_conic_hits_external_point():
    # a residual conic with non-square parameter b meets the line x = 0 in
    # (0, y, 1) with y^2 = 2k/((k-1)b), and that point is external to the
    # base hyperbola, so the conic can never join it inside a unital
    from unitals.conic import PointClass

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
            y2 = F.div(F.add(k, k), F.mul(F.sub(k, 1), b))
            P = (0, next(y for y in F.elements() if F.mul(y, y) == y2), 1)
            assert E.contains(P)
            assert C.classify_point(P) == PointClass.EXTERNAL
            checked += 1
    assert checked > 0

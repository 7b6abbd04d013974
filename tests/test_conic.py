import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitals.conic import (
    Conic,
    EvenCharacteristicUnsupported,
    NotIrreducible,
    OddCharacteristic,
    PencilKind,
    PointClass,
    PointNotOnConic,
    SingularConic,
    _monomials,
    canonical_pencil,
    eval_many,
    rank1_rows,
    symmetric_rank_leq1,
)
from unitals.cli import _jsonable
from unitals.geom import apply_collineation, projective_plane, projective_space
from unitals.gf import field, nullspace


def hyperbola(F):
    return canonical_pencil(F, PencilKind.HYPERBOLIC, 1)


def tangent_count_oracle(C):
    """Tangent lines of a conic counted through every plane point."""
    plane = C.plane
    tls = {plane.line_index(C.tangent_at(plane.point(pi))) for pi in C.points().indices()}
    cnt = [0] * plane.npoints
    for li in tls:
        assert C.points().member[plane.lines[li]].sum() == 1
        for pi in plane.lines[li].tolist():
            cnt[pi] += 1
    return cnt


def test_eval_examples():
    F = field(3, 2)
    C = hyperbola(F)
    assert C.contains((1, 0, 0)) and C.contains((0, 1, 0))
    assert not C.contains((0, 0, 1))
    P = canonical_pencil(F, PencilKind.PARABOLIC, 0)
    assert P.contains((0, 1, 0))


@pytest.mark.parametrize("p,h", [(3, 2), (5, 2), (2, 2), (2, 3)])
def test_vector_kernel_matches_scalar_evaluate(p, h):
    # pins the table kernel to the scalar form at every plane point, in
    # even characteristic too, where the cross columns are not doubled
    F = field(p, h)
    plane = projective_plane(F)
    mon = _monomials(plane)
    rng = random.Random(p * 100 + h)
    for _ in range(20):
        coeffs = [rng.randrange(F.order) for _ in range(6)]
        if not any(coeffs):
            continue
        C = Conic(F, coeffs)
        assert eval_many(F, C.coeffs, mon).tolist() == [C.evaluate(P) for P in plane.points()]


# both characteristics, up to order 256 and at 289, where the flat-table
# index moves from uint16 to uint32
_EVAL_FIELDS = [field(p, h) for p, h in ((2, 1), (3, 1), (2, 3), (3, 2), (2, 4), (5, 2), (2, 8), (17, 2))]


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from(_EVAL_FIELDS), st.data())
def test_eval_many_matches_scalar_sums(F, data):
    element = st.integers(0, F.order - 1)
    coeffs = data.draw(st.lists(st.one_of(st.just(0), element), min_size=6, max_size=6))
    rows = data.draw(st.lists(st.lists(element, min_size=6, max_size=6), min_size=1, max_size=20))
    arr = np.array(rows, dtype=F.mul_table.dtype)
    if data.draw(st.booleans()):
        # the layout the exhaustive sweep passes: one contiguous row per coefficient
        arr = np.ascontiguousarray(arr.T).T
    want = []
    for r in rows:
        acc = 0
        for c, x in zip(coeffs, r):
            acc = F.add(acc, F.mul(c, x))
        want.append(acc)
    got = eval_many(F, coeffs, arr)
    assert got.dtype == F.mul_table.dtype
    assert got.tolist() == want


def test_normalisation_and_equality():
    F = field(3, 2)
    assert Conic(F, (0, 0, 2, 1, 0, 0)) == Conic(F, (0, 0, 1, 2, 0, 0))
    assert Conic(F, (0, 0, 2, 1, 0, 0)).coeffs[2] == 1
    with pytest.raises(ValueError):
        Conic(F, (0, 0, 0, 0, 0, 0))


def test_rank_and_det():
    F = field(3, 2)
    C = hyperbola(F)
    assert C.rank() == 3
    # the stored representative scales 2xy - kz^2 by -1/k, so the raw
    # determinant k picks up the cube: k * (-1/k)^3 = -1/k^2
    assert C.det() == F.neg(1)
    for k in (2, 3, 6):
        Hk = canonical_pencil(F, PencilKind.HYPERBOLIC, k)
        assert Hk.det() == F.neg(F.inv(F.mul(k, k)))
    # elliptic and parabolic members store the leading-one form directly
    alpha = min(F.nonsquares())
    for k in F.units():
        assert canonical_pencil(F, PencilKind.ELLIPTIC, k).det() == F.mul(alpha, k)
    for k in F.elements():
        assert canonical_pencil(F, PencilKind.PARABOLIC, k).det() == F.neg(1)
    assert Conic(F, (0, 0, 1, 0, 0, 0)).rank() == 1  # z^2
    assert Conic(F, (0, 0, 0, 1, 0, 0)).rank() == 2  # xy


def test_point_counts():
    F = field(3, 2)
    n = F.order
    assert hyperbola(F).points().card == n + 1
    # repeated line: the n+1 points of z = 0
    Z = Conic(F, (0, 0, 1, 0, 0, 0))
    plane = projective_plane(F)
    assert Z.points().indices() == plane.lines[plane.line_index((0, 0, 1))].tolist()
    # two distinct lines through the plane: 2n+1 points
    assert Conic(F, (0, 0, 0, 1, 0, 0)).points().card == 2 * n + 1


@pytest.mark.parametrize("p,h", [(3, 2), (5, 2)])
def test_classifier_against_tangent_counts(p, h):
    F = field(p, h)
    n = F.order
    plane = projective_plane(F)
    rng = random.Random(1)
    conics = [
        hyperbola(F),
        canonical_pencil(F, PencilKind.ELLIPTIC, 1),
        canonical_pencil(F, PencilKind.PARABOLIC, 0),
    ]
    while len(conics) < 8:
        coeffs = tuple(rng.randrange(n) for _ in range(6))
        if any(coeffs):
            C = Conic(F, coeffs)
            if C.rank() == 3:
                conics.append(C)
    for C in conics:
        cnt = tangent_count_oracle(C)
        on = ext = inn = 0
        for i in range(plane.npoints):
            cls = C.classify_point(plane.point(i))
            if cls == PointClass.EXTERNAL:
                ext += 1
                assert cnt[i] == 2
            elif cls == PointClass.INTERNAL:
                inn += 1
                assert cnt[i] == 0
            else:
                on += 1
                assert cnt[i] == 1
        assert (on, ext, inn) == (n + 1, n * (n + 1) // 2, n * (n - 1) // 2)
        # the vectorised classifier agrees with the scalar one
        cls_arr = C.classify_array()
        assert [int(x) for x in cls_arr] == [
            {PointClass.ON_CONIC: 0, PointClass.EXTERNAL: 1, PointClass.INTERNAL: -1}[
                C.classify_point(plane.point(i))
            ]
            for i in range(plane.npoints)
        ]


def test_external_point_example():
    F = field(3, 2)
    C = hyperbola(F)
    assert C.classify_point((0, 0, 1)) == PointClass.EXTERNAL


def test_classify_errors():
    F = field(3, 2)
    with pytest.raises(SingularConic):
        Conic(F, (0, 0, 1, 0, 0, 0)).classify_point((1, 0, 0))
    F4 = field(2, 2)
    with pytest.raises(EvenCharacteristicUnsupported):
        Conic(F4, (1, 0, 0, 0, 0, 1)).rank()


def test_tangents():
    F = field(3, 2)
    C = hyperbola(F)
    assert C.tangent_at((1, 0, 0)) == (0, 1, 0)
    P = canonical_pencil(F, PencilKind.PARABOLIC, 0)
    assert P.tangent_at((0, 1, 0)) == (0, 0, 1)
    with pytest.raises(PointNotOnConic):
        C.tangent_at((0, 0, 1))
    plane = projective_plane(F)
    for pi in C.points().indices():
        li = plane.line_index(C.tangent_at(plane.point(pi)))
        assert C.points().member[plane.lines[li]].sum() == 1


def test_nucleus():
    F4 = field(2, 2)
    C = Conic(F4, (1, 0, 0, 0, 0, 1))  # x^2 + yz
    assert C.points().card == 5
    assert C.nucleus() == (1, 0, 0)
    D = Conic(F4, (0, 1, 0, 0, 1, 0))  # y^2 + xz
    assert D.nucleus() == (0, 1, 0)
    F2 = field(2)
    E = Conic(F2, (1, 0, 0, 0, 0, 1))
    assert E.points().card == 3
    E.nucleus()  # concurrency asserted internally
    with pytest.raises(OddCharacteristic):
        hyperbola(field(3, 2)).nucleus()
    with pytest.raises(NotIrreducible):
        Conic(F4, (0, 0, 0, 1, 0, 0)).nucleus()


def test_nucleus_tangent_concurrency_all_ovals():
    # every irreducible conic over GF(2) and GF(4) has a nucleus
    from unitals.geom import projective_space

    for p, h in ((2, 1), (2, 2)):
        F = field(p, h)
        space5 = projective_space(F, 5)
        plane = projective_plane(F)
        ovals = 0
        for i in range(space5.npoints):
            C = Conic(F, space5.point(i))
            if C.is_irreducible:
                nuc = C.nucleus()
                ovals += 1
                # the nucleus carries all n+1 tangents
                ni = plane.index(nuc)
                tl = [
                    li
                    for li in np.flatnonzero((plane.lines == ni).any(axis=1))
                    if C.points().member[plane.lines[li]].sum() == 1
                ]
                assert len(tl) == F.order + 1
        assert ovals > 0


def test_canonical_pencil():
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    assert C.coeffs == (0, 0, 1, F.neg(1), 0, 0)
    P = canonical_pencil(F, PencilKind.PARABOLIC, 0)
    assert P.coeffs == (1, 0, 0, 0, 0, F.neg(1))
    with pytest.raises(ValueError):
        canonical_pencil(F, PencilKind.HYPERBOLIC, 0)
    E1 = canonical_pencil(F, PencilKind.ELLIPTIC, 1)
    # x^2 - alpha y^2 = z^2 with alpha the least non-square
    assert E1.coeffs == (1, F.neg(min(F.nonsquares())), F.neg(1), 0, 0, 0)
    for k in F.units():
        if k == 1:
            continue
        Ek = canonical_pencil(F, PencilKind.ELLIPTIC, k)
        assert (E1.points() & Ek.points()).card == 0


def test_transform_matches_point_images():
    F = field(3, 2)
    plane = projective_plane(F)
    C = hyperbola(F)
    M = ((1, 2, 0), (0, 1, 1), (1, 0, 2))
    Ct = C.transform(M)
    imgs = {plane.index(apply_collineation(plane, M, plane.point(i))) for i in C.points().indices()}
    assert set(Ct.points().indices()) == imgs
    assert Ct.rank() == 3


def test_case1_collineation_maps_exceptional_conics():
    # sigma = diag(1, b, sqrt(b)) carries the coefficients of the case-1
    # residual conic with parameter b to the one with parameter 1
    F = field(3, 2)
    plane = projective_plane(F)
    k = 3  # admissible: square, k-1 non-square
    assert F.is_square(k) and not F.is_square(F.sub(k, 1))

    def e_conic(b):
        omk = F.sub(1, k)
        return Conic(
            F,
            (omk, F.mul(omk, F.mul(b, b)), F.mul(F.add(k, k), b), F.neg(F.mul(F.add(k, 1), b)), 0, 0),
        )

    for b in F.squares():
        r = next(x for x in F.elements() if F.mul(x, x) == b)
        sigma = ((1, 0, 0), (0, b, 0), (0, 0, r))
        imgs = {
            plane.index(apply_collineation(plane, sigma, plane.point(i)))
            for i in e_conic(b).points().indices()
        }
        assert imgs == set(e_conic(1).points().indices())


def test_five_points_determine_the_conic():
    # the null space of five points' monomial rows is the one conic on them
    F = field(3, 2)
    C = hyperbola(F)
    basis = nullspace(F, _monomials(C.plane)[C.points().indices()[:5]].tolist())
    assert len(basis) == 1
    assert Conic(F, basis[0]) == C


def test_internal_membership_parity():
    # for the family 2xy = hz^2 in one unital, the parameter constraints
    # surface as quadratic characters: both-way internality at (1, k) needs
    # chi(k-1) and chi(k(k-1)) non-square, hence k a nonzero square
    from unitals.analysis import no_external_points

    F = field(3, 2)
    C = hyperbola(F)
    for k in F.units():
        if k == 1:
            continue
        D = canonical_pencil(F, PencilKind.HYPERBOLIC, k)
        fwd = no_external_points(C, D.points())
        bwd = no_external_points(D, C.points())
        assert fwd == (not F.is_square(F.sub(k, 1)))
        assert bwd == (not F.is_square(F.mul(k, F.sub(k, 1))))
        if fwd and bwd:
            assert F.is_square(k)


def test_symmetry_needs_both_directions():
    # one-way internality does not imply the reverse: over GF(25) take
    # k with k and k-1 both non-squares
    from unitals.analysis import no_external_points

    F = field(5, 2)
    k = next(k for k in F.nonsquares() if not F.is_square(F.sub(k, 1)))
    C = hyperbola(F)
    D = canonical_pencil(F, PencilKind.HYPERBOLIC, k)
    assert no_external_points(C, D.points())
    assert not no_external_points(D, C.points())
    # ground truth by tangent counting: C\D meets two tangents of D
    cnt = tangent_count_oracle(D)
    diffs = (C.points() - D.points()).indices()
    assert all(cnt[i] == 2 for i in diffs)


@pytest.mark.parametrize("bad", [-1, 9, 99])
def test_out_of_range_elements_are_refused(bad):
    F = field(3, 2)
    with pytest.raises(ValueError, match=f"coefficient {bad} is not a field element"):
        Conic(F, (1, 2, 3, 4, 5, bad))
    for kind in PencilKind:
        with pytest.raises(ValueError, match=f"k {bad} is not a field element"):
            canonical_pencil(F, kind, bad)


def test_coefficients_are_python_ints():
    F = field(3, 2)
    # a lead coefficient of 1 keeps the coefficients as given, so each is
    # converted on the way in
    C = Conic(F, np.array([1, 0, 0, 0, 0, 0]))
    assert json.dumps(C, default=_jsonable) == "[1, 0, 0, 0, 0, 0]"
    assert all(type(c) is int for c in Conic(F, np.array([2, 0, 3, 0, 0, 1], dtype=np.uint8)).coeffs)
    for bad in [(True, 0, 0, 0, 0, 0), (1.5, 0, 0, 0, 0, 0), ("1", 0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError, match=f"coefficient {bad[0]} is not a field element"):
            Conic(F, bad)


def test_rank1_rows_matches_scalar_on_pg59():
    F = field(3, 2)
    pts = projective_space(F, 5).coords_array()
    want = [symmetric_rank_leq1(F, q) for q in pts.tolist()]
    assert rank1_rows(F, pts).tolist() == want
    assert sum(want) == projective_plane(F).npoints
    # any leading shape, and the zero row
    assert rank1_rows(F, pts[:60].reshape(3, 4, 5, 6)).ravel().tolist() == want[:60]
    assert rank1_rows(F, np.zeros((1, 6), dtype=np.uint8)).tolist() == [False]

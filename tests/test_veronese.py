import random
import tracemalloc

import numpy as np
import pytest

from unitals.analysis import (
    admissible_ks,
    canonical_case_pair,
    case1_exceptional_vpoints,
    case_residual_formula,
)
from unitals.conic import Conic, PencilKind, canonical_pencil, quadratic_rows, rank1_rows
from unitals.geom import projective_plane, projective_space, span
from unitals.gf import field
from unitals.veronese import cone_residual_intersection, line_meets_veronese, sorted_unique
from oracles import (
    cone_contains,
    cone_point_indices,
    direct_residuals,
    point_index,
    scalar_line_meets_veronese,
    scalar_residuals,
    scan_residuals,
    swept_cone_indices,
    symmetric_rank_leq1,
    veronese_indices,
)


def veronese_image(F, triple):
    """The normalised Veronese image of a nonzero triple."""
    return projective_space(F, 5).normalize(quadratic_rows(F, [triple])[0].tolist())


def test_veronese_point_examples():
    F = field(3, 2)
    assert quadratic_rows(F, [(0, 0, 1), (1, 1, 1), (0, 2, 1)]).tolist() == [
        [0, 0, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [0, F.mul(2, 2), 1, 0, 0, 2],
    ]
    # the image of a normalised triple is normalised
    images = quadratic_rows(F, projective_plane(F).coords_array())
    assert all(tuple(r) == projective_space(F, 5).normalize(r) for r in images.tolist())


@pytest.mark.parametrize("p,h", [(3, 1), (3, 2)])
def test_image_count(p, h):
    F = field(p, h)
    n = F.order
    imgs = {veronese_image(F, t) for t in projective_plane(F).coords_array().tolist()}
    assert len(imgs) == n * n + n + 1
    idx = veronese_indices(F)
    assert idx.tolist() == sorted(point_index(projective_space(F, 5), P) for P in imgs)
    assert not idx.flags.writeable
    # the image depends only on the projective class
    assert veronese_image(F, (0, 0, 1)) == veronese_image(F, (0, 0, 2 % n or 1))


def test_is_on_veronese():
    # V is the set of rank-1 points
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    rows = [(0, 0, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0), C.coeffs]
    assert [symmetric_rank_leq1(F, q) for q in rows] == [True, False, False]
    assert rank1_rows(F, np.array(rows)).tolist() == [True, False, False]


@pytest.mark.parametrize(
    "given,want",
    [([], []), ([7], [7]), ([3, 1, 3, 3, 2, 1], [1, 2, 3]), ([5, 5, 5], [5])],
)
def test_sorted_unique(given, want):
    assert sorted_unique(np.array(given, dtype=np.int64)).tolist() == want


def test_conic_vpoint_roundtrip():
    F = field(3, 2)
    rng = random.Random(5)
    n = F.order
    for _ in range(1000):
        coeffs = tuple(rng.randrange(n) for _ in range(6))
        if not any(coeffs):
            continue
        C = Conic(F, coeffs)
        assert Conic(F, C.coeffs) == C


def test_rank1_conics_are_exactly_the_surface():
    F = field(3)
    space = projective_space(F, 5)
    rank1 = {i for i in range(space.npoints) if Conic(F, space.point(i)).rank() == 1}
    assert rank1 == set(veronese_indices(F).tolist())


def test_singular_hypersurface_double_count():
    # det = 0 over PG(5,9) counted through the rank machinery and through
    # the raw determinant of the rebuilt symmetric matrix
    from unitals.geom import det3

    F = field(3, 2)
    space = projective_space(F, 5)
    by_rank = 0
    by_det = 0
    for i in range(space.npoints):
        q = space.point(i)
        if Conic(F, q).rank() < 3:
            by_rank += 1
        M = ((q[0], q[3], q[4]), (q[3], q[1], q[5]), (q[4], q[5], q[2]))
        if det3(F, M) == 0:
            by_det += 1
    assert by_rank == by_det > 0


def test_cone_contains():
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    assert cone_contains(C, C.coeffs)
    assert cone_contains(C, (0, 0, 1, 0, 0, 0))
    assert cone_contains(C, (1, 1, 1, 1, 1, 1))
    D = canonical_pencil(F, PencilKind.HYPERBOLIC, 2)
    assert cone_contains(C, D.coeffs)
    with pytest.raises(ValueError, match="rank-1 conics are points of V, not cone apices"):
        cone_contains(Conic(F, (0, 0, 1, 0, 0, 0)), (1, 0, 0, 0, 0, 0))


def test_cone_covers_line_and_surface():
    F = field(3, 2)
    space = projective_space(F, 5)
    for case in (1, 2, 3):
        ks = admissible_ks(F, case)
        if not ks:
            continue
        C, D = canonical_case_pair(F, case, ks[0])
        for P in span(F, C.coeffs, D.coeffs):
            assert cone_contains(C, P) and cone_contains(D, P)
        for i in veronese_indices(F)[::7].tolist():
            P = space.point(i)
            assert cone_contains(C, P) and cone_contains(D, P)


def _lines_by_hits(F, rng):
    """Point pairs of PG(5,n) spanning lines through 0, 1 and 2 points of
    V, two of each, judged by the scalar scan."""
    space = projective_space(F, 5)
    plane = projective_plane(F)
    surface = [veronese_image(F, t) for t in plane.coords_array().tolist()]
    found = {0: [], 1: [], 2: []}
    while any(len(pairs) < 2 for pairs in found.values()):
        P = rng.choice(surface) if rng.random() < 0.3 else space.point(rng.randrange(space.npoints))
        Q = rng.choice(surface) if rng.random() < 0.5 else space.point(rng.randrange(space.npoints))
        if P == Q:
            continue
        hits = len(scalar_line_meets_veronese(F, P, Q))
        if len(found[hits]) < 2:
            found[hits].append((P, Q))
    return [pair for pairs in found.values() for pair in pairs]


@pytest.mark.parametrize("p,h", [(3, 2), (2, 4), (5, 2), (7, 2), (5, 1)])
def test_line_meets_veronese(p, h):
    # orders 9, 16, 25 and 49, and the prime order 5, whose case-1
    # exceptional line for k = beta = 4 passes through z^2
    F = field(p, h)
    pairs = _lines_by_hits(F, random.Random(F.order))
    if p != 2:
        pairs += [
            case1_exceptional_vpoints(F, k, beta) for k in admissible_ks(F, 1) for beta in F.elements() if beta > 1
        ]
    for P, Q in pairs:
        want = scalar_line_meets_veronese(F, P, Q)
        assert line_meets_veronese(F, P, Q) == want
        # the line, not the pair, decides
        assert line_meets_veronese(F, Q, P) == want
    if F.order == 5:
        assert line_meets_veronese(F, *case1_exceptional_vpoints(F, 4, 4)) == [(0, 0, 1, 0, 0, 0)]
    if F.order == 9:
        P0 = canonical_pencil(F, PencilKind.PARABOLIC, 0)
        P1 = canonical_pencil(F, PencilKind.PARABOLIC, 1)
        assert line_meets_veronese(F, P0.coeffs, P1.coeffs) == [(0, 0, 1, 0, 0, 0)]
        v1, v2 = veronese_image(F, (1, 0, 0)), veronese_image(F, (0, 1, 0))
        assert len(line_meets_veronese(F, v1, v2)) == 2


@pytest.mark.parametrize(
    "P,Q",
    [
        ((0, 0, 1, 0, 0, 0), (0, 0, 2, 0, 0, 0)),
        ((1, 2, 0, 0, 1, 0), (1, 2, 0, 0, 1, 0)),
        ((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
        ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    ],
)
def test_line_meets_veronese_refuses_a_degenerate_pair(P, Q):
    # P ~ Q, P = Q or a zero point spans no line: some row of the span
    # vanishes, and indexing it refuses
    with pytest.raises(ValueError, match="spans no projective point"):
        line_meets_veronese(field(3, 2), P, Q)


def test_case1_exceptional_lines_miss_surface():
    F = field(3, 2)
    for k in admissible_ks(F, 1):
        for beta in F.elements():
            if beta in (0, 1):
                continue
            p1, pb = case1_exceptional_vpoints(F, k, beta)
            assert line_meets_veronese(F, p1, pb) == []


@pytest.mark.parametrize("p,case,k", [(3, 1, 2), (5, 1, 2), (3, 3, 1), (5, 3, 2)])
def test_scan_matches_scalar_reference(p, case, k):
    F = field(p, 1)
    if case == 1:
        C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
        D = canonical_pencil(F, PencilKind.HYPERBOLIC, k)
    else:
        C = canonical_pencil(F, PencilKind.PARABOLIC, 0)
        D = canonical_pencil(F, PencilKind.PARABOLIC, k)
    scalar = scalar_residuals(C, [D])
    assert scan_residuals(C, [D]) == scalar
    assert direct_residuals(C, [D]) == scalar
    assert cone_residual_intersection(C, [D]) == scalar


def test_residual_formulas_n9():
    F = field(3, 2)
    for case in (1, 2, 3):
        ks = admissible_ks(F, case)
        if not ks:
            continue
        pairs = [canonical_case_pair(F, case, k) for k in ks]
        C, Ds = pairs[0][0], [D for _, D in pairs]
        scan = scan_residuals(C, Ds)
        assert direct_residuals(C, Ds) == scan
        assert cone_residual_intersection(C, Ds) == scan
        assert scan == [cone_residual_intersection(C, [D])[0] for D in Ds]
        for k, res in zip(ks, scan):
            assert res == case_residual_formula(F, case, k), (case, k)
            if case == 1:
                assert len(res) == F.order - 1
                assert all(Conic(F, q).rank() == 3 for q in res)
            if case == 2:
                assert len(res) == F.order + 1
            if case == 3:
                assert res == []


@pytest.mark.parametrize("p,h", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_direct_cone_matches_sweep(p, h):
    F = field(p, h)
    n = F.order
    rng = random.Random(100 * p + h)
    apexes = []
    while len(apexes) < 15:
        coeffs = tuple(rng.randrange(n) for _ in range(6))
        if any(coeffs):
            apexes.append(Conic(F, coeffs))
    # rank-1 apexes, points of V itself
    apexes += [Conic(F, row) for row in quadratic_rows(F, [(1, 0, 0), (1, 1, 1), (0, 1, rng.randrange(1, n))])]
    for C in apexes:
        assert np.array_equal(cone_point_indices(C), swept_cone_indices(C)), C


@pytest.mark.parametrize("p,h", [(7, 1), (3, 2), (11, 1), (5, 2), (7, 2)])
def test_residual_matches_direct_cones_for_every_case(p, h):
    F = field(p, h)
    for case in (1, 2, 3):
        ks = admissible_ks(F, case)
        if not ks:
            continue
        pairs = [canonical_case_pair(F, case, k) for k in ks]
        C, Ds = pairs[0][0], [D for _, D in pairs]
        assert cone_residual_intersection(C, Ds) == direct_residuals(C, Ds), case


def _random_apex(F, rng, irreducible):
    while True:
        coeffs = tuple(rng.randrange(F.order) for _ in range(6))
        if any(coeffs) and (not irreducible or Conic(F, coeffs).rank() == 3):
            return Conic(F, coeffs)


@pytest.mark.parametrize("p,h", [(3, 2), (5, 2), (7, 2), (2, 2), (2, 3), (2, 4)])
def test_residual_matches_direct_cones_on_random_pairs(p, h):
    # irreducible pairs in odd characteristic, where the residual refuses
    # any other; in characteristic 2 any apex, a fifth of them rank-1 points
    # of V, so that the apex line may pass through V
    F = field(p, h)
    n = F.order
    rng = random.Random(1000 * p + h)
    odd = p != 2
    for t in range(25):
        C, D = _random_apex(F, rng, odd), _random_apex(F, rng, odd)
        if not odd and t % 5 == 0:
            C = Conic(F, quadratic_rows(F, [(1, rng.randrange(n), rng.randrange(n))])[0])
        if C == D:
            continue
        assert cone_residual_intersection(C, [D]) == direct_residuals(C, [D]), (C, D)


def test_residual_peaks_below_one_direct_cone():
    # one direct cone at order 81 spans 544,726 rows, a 3.3 MB (rows, 6)
    # array; the residual reads the 6,643 rows of V, and any array with a
    # row per cone point, n^3 of them, would outgrow the bound
    F = field(3, 4)
    n = F.order
    C, D = canonical_case_pair(F, 1, admissible_ks(F, 1)[0])
    span_bytes = (n * n + n + 1) * (n + 1) * 6 * F.mul_table.itemsize
    cone_residual_intersection(C, [D])  # field tables and V's indices built untraced
    tracemalloc.start()
    try:
        res = cone_residual_intersection(C, [D])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res[0]) == n - 1
    assert peak < span_bytes


def test_residual_rejects_bad_input():
    F = field(3, 2)
    C = canonical_pencil(F, PencilKind.HYPERBOLIC, 1)
    D = canonical_pencil(F, PencilKind.HYPERBOLIC, 2)
    with pytest.raises(ValueError):
        cone_residual_intersection(C, [D, C])
    with pytest.raises(ValueError, match="residual intersection needs irreducible conics"):
        cone_residual_intersection(C, [D, Conic(F, (0, 0, 1, 0, 0, 0))])

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitals import analysis, geom
from unitals.gf import field
from unitals.geom import (
    PointSet,
    ProjectiveSpace,
    det3,
    inv3,
    line_counts,
    matvec3,
    point_array,
    projective_plane,
    projective_space,
    span,
    tangent_counts,
)
from oracles import apply_collineation, line_through, point_index


def test_point_counts():
    assert projective_plane(field(3)).npoints == 13
    assert projective_plane(field(3, 2)).npoints == 91
    assert projective_space(field(3, 2), 5).npoints == 66430
    with pytest.raises(ValueError, match="dim 3 not supported"):
        projective_space(field(3), 3)


def test_canonical_order_is_lexicographic():
    for F, d in ((field(3, 2), 2), (field(3), 5)):
        space = projective_space(F, d)
        pts = [space.point(i) for i in range(space.npoints)]
        assert pts == sorted(pts)
        assert len(set(pts)) == space.npoints
        for i, P in enumerate(pts):
            assert point_index(space, P) == i


def test_index_roundtrip_pg59():
    space = projective_space(field(3, 2), 5)
    for i in (0, 1, 17, 12345, 66429):
        assert point_index(space, space.point(i)) == i
    arr = space.coords_array()
    for i in (0, 7, 4096, 66429):
        assert tuple(int(x) for x in arr[i]) == space.point(i)


@pytest.mark.parametrize("p,h,d", [(3, 1, 5), (2, 2, 5), (5, 1, 5), (3, 2, 2), (7, 1, 2)])
def test_coords_array_matches_scalar_points(p, h, d):
    space = projective_space(field(p, h), d)
    arr = space.coords_array()
    assert arr.shape == (space.npoints, d + 1)
    assert [tuple(int(x) for x in row) for row in arr] == [space.point(i) for i in range(space.npoints)]


@pytest.mark.parametrize("p,h,d", [(3, 2, 5), (2, 3, 5), (5, 1, 2), (5, 2, 5), (17, 2, 5)])
def test_index_rows_matches_normalize_and_index(p, h, d):
    # rows in the field's own dtype: uint16 at order 289, where the flat
    # gather's indices widen to uint32
    F = field(p, h)
    space = projective_space(F, d)
    rng = random.Random(p * h * d)
    rows = [tuple(rng.randrange(F.order) for _ in range(d + 1)) for _ in range(2000)]
    # a leading entry other than 1 in every position
    rows += [
        (0,) * t + (rng.randrange(2, F.order),) + tuple(rng.randrange(F.order) for _ in range(d - t))
        for t in range(d + 1)
        for _ in range(50)
    ]
    rows = [r for r in rows if any(r)]
    got = space.index_rows(np.array(rows, dtype=F.mul_table.dtype))
    assert got.tolist() == [point_index(space, space.normalize(r)) for r in rows]
    # a zero row spans no point: refused, not wrapped round to a real index
    zero = (0,) * (d + 1)
    for bad in ([zero], rows[:3] + [zero] + rows[3:6]):
        with pytest.raises(ValueError):
            space.index_rows(np.array(bad, dtype=F.mul_table.dtype))
    # an entry outside 0..n-1 is refused, not read from a neighbouring
    # table entry or wrapped round
    for bad in (-1, F.order):
        for t in (0, d):
            wrong = np.array(rows[:4], dtype=np.int64)
            wrong[2, t] = bad
            with pytest.raises(ValueError, match=f"entry {bad} is not a field element"):
                space.index_rows(wrong)


@pytest.mark.parametrize("p,h", [(3, 1), (3, 2)])
def test_two_points_one_line_exhaustive(p, h):
    plane = projective_plane(field(p, h))
    n = plane.field.order
    lines = plane.lines.tolist()
    lines_through = [[li for li, pts in enumerate(lines) if pi in pts] for pi in range(plane.npoints)]
    for P, Q in combinations(map(plane.point, range(plane.npoints)), 2):
        L = line_through(plane, P, Q)
        li = point_index(plane, plane.normalize(L))
        pts = lines[li]
        assert point_index(plane, P) in pts and point_index(plane, Q) in pts
        # no second line carries both
        both = [l for l in lines_through[point_index(plane, P)] if point_index(plane, Q) in lines[l]]
        assert both == [li]
    assert all(len(set(lp)) == n + 1 for lp in lines)
    assert all(len(pl) == n + 1 for pl in lines_through)


def test_two_points_one_line_pg2_25():
    plane = projective_plane(field(5, 2))
    n = plane.field.order
    # every pair of distinct lines meets in exactly one point
    line_sets = [frozenset(lp) for lp in plane.lines.tolist()]
    for a, b in combinations(line_sets, 2):
        assert len(a & b) == 1
    # every point pair lies on exactly one line: each line carries C(26,2)
    # pairs, lines are pairwise 1-intersecting, and the totals add up
    pairs_per_line = (n + 1) * n // 2
    assert len(line_sets) * pairs_per_line == plane.npoints * (plane.npoints - 1) // 2


def test_line_through_examples():
    pg9 = projective_plane(field(3, 2))
    assert line_through(pg9, (1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    pg3 = projective_plane(field(3))
    L = line_through(pg3, (1, 1, 1), (1, 2, 0))
    assert len(pg3.lines[point_index(pg3, pg3.normalize(L))]) == 4
    with pytest.raises(ValueError, match="coincide"):
        line_through(pg3, (1, 2, 0), (1, 2, 0))
    with pytest.raises(ValueError, match=r"lines are only built in PG\(2,n\)"):
        line_through(projective_space(field(3), 5), (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0))


def test_pg5_lines():
    # a PG(5,n) line is the n+1 points span gives, indexed by index_rows
    F = field(3, 2)
    space = projective_space(F, 5)
    P, Q = space.point(3), space.point(40000)
    idxs = space.index_rows(np.array(span(F, P, Q)))
    assert len(set(idxs.tolist())) == 10
    assert {3, 40000} <= set(idxs.tolist())
    assert idxs.tolist() == [point_index(space, space.normalize(R)) for R in span(F, P, Q)]


def _span_reference(F, P, Q):
    return [list(Q)] + [[F.add(x, F.mul(lam, y)) for x, y in zip(P, Q)] for lam in F.elements()]


@pytest.mark.parametrize("d", [2, 5])
def test_span_matches_scalar_formula(d):
    # Q, then P + lambda*Q through the scalar field operations
    F = field(3, 2)
    space = projective_space(F, d)
    rng = random.Random(d)
    idx = [rng.randrange(space.npoints) for _ in range(14)]
    P, Q = space.point(idx[0]), space.point(idx[1])
    one = span(F, P, Q)
    assert one.shape == (F.order + 1, d + 1) and one.dtype == np.uint8
    assert one.tolist() == _span_reference(F, P, Q)
    # a batch of pairs, and one point broadcast against a batch
    Ps = space.coords_array()[idx[:7]]
    Qs = space.coords_array()[idx[7:]]
    assert span(F, Ps, Qs).tolist() == [_span_reference(F, a, b) for a, b in zip(Ps.tolist(), Qs.tolist())]
    assert span(F, P, Qs).tolist() == [_span_reference(F, P, b) for b in Qs.tolist()]


def test_index_of_a_numpy_row():
    # uint8 coordinates times n^k would overflow without the int() conversion
    space = projective_space(field(3, 2), 5)
    row = space.coords_array()[40000]
    assert row.dtype == np.uint8
    assert point_index(space, row) == 40000
    assert space.index_rows(row[None]).tolist() == [40000]


def test_points_on_line_canonical_order():
    plane = projective_plane(field(3, 2))
    pts = [plane.point(i) for i in plane.lines[point_index(plane, (0, 0, 1))].tolist()]
    assert pts == sorted(pts)
    assert all(P[2] == 0 for P in pts)
    assert len(pts) == 10


def test_collineations():
    F = field(3, 2)
    plane = projective_plane(F)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for i in (0, 5, 90):
        assert apply_collineation(plane, ident, plane.point(i)) == plane.point(i)
    with pytest.raises(ValueError, match="collineation matrix is singular"):
        apply_collineation(plane, ((1, 0, 0), (0, 1, 0), (1, 1, 0)), (1, 0, 0))
    with pytest.raises(ValueError, match="^matrix is singular"):
        inv3(F, ((1, 2, 0), (0, 1, 1), (1, 0, 1)))  # determinant 3 = 0 mod 3
    M = ((1, 2, 0), (0, 1, 1), (1, 0, 2))
    assert det3(F, M) != 0
    Mi = inv3(F, M)
    assert tuple(zip(*(matvec3(F, M, col) for col in zip(*Mi)))) == ident


@pytest.mark.parametrize("p,h", [(3, 2), (5, 2), (7, 2)])
def test_collineations_preserve_collinearity(p, h):
    F = field(p, h)
    plane = projective_plane(F)
    rng = random.Random(42)
    for _ in range(50):
        M = tuple(tuple(rng.randrange(F.order) for _ in range(3)) for _ in range(3))
        if det3(F, M) == 0:
            continue
        li = rng.randrange(plane.npoints)
        P, Q, R = (plane.point(i) for i in plane.lines[li, :3].tolist())
        P2, Q2, R2 = (apply_collineation(plane, M, X) for X in (P, Q, R))
        L2 = line_through(plane, P2, Q2)
        assert point_index(plane, R2) in plane.lines[point_index(plane, plane.normalize(L2))].tolist()


def test_pointset_operations():
    plane = projective_plane(field(3))
    A = PointSet.from_indices(plane, [0, 3, 5])
    B = PointSet.from_indices(plane, [3, 7])
    assert A.card == 3
    assert A.member[3] and not A.member[1]
    assert A.indices() == [0, 3, 5]
    assert A.complement().card == 10 and A.complement().indices()[:3] == [1, 2, 4]
    assert A == PointSet.from_indices(plane, [5, 0, 3, 0]) and A != B
    with pytest.raises(ValueError):
        A.member[1] = True


@pytest.mark.parametrize("bad", [-1, 13, 100])
def test_from_indices_refuses_points_outside_the_plane(bad):
    plane = projective_plane(field(3))
    with pytest.raises(ValueError):
        PointSet.from_indices(plane, [0, bad])


@pytest.mark.parametrize(
    "idxs",
    [[6, 0, 3], (3, 6, 0), range(0, 9, 3), [], *(np.array([6, 3, 0, 3], dtype=t) for t in (np.uint8, np.int32, np.int64))],
)
def test_from_indices_takes_any_integer_sequence(idxs):
    plane = projective_plane(field(3))
    assert PointSet.from_indices(plane, idxs).indices() == sorted({int(i) for i in idxs})


def test_line_counts():
    plane = projective_plane(field(3))
    S = PointSet.from_indices(plane, plane.lines[4].tolist() + [0])
    counts = line_counts(S)
    assert counts.tolist() == [len(set(pts) & set(S.indices())) for pts in plane.lines.tolist()]
    assert counts[4] == 4
    # tangent lines through each point, counted line by line
    tangents = [li for li, c in enumerate(counts.tolist()) if c == 1]
    through = [sum(1 for li in tangents if pi in plane.lines[li]) for pi in range(plane.npoints)]
    assert tangent_counts(S).tolist() == through
    # S is line 4: its points lie on 3 other lines, any other point on 4 lines through S
    assert through == [3 if S.member[pi] else 4 for pi in range(plane.npoints)]


def test_line_counts_read_the_table_in_blocks(monkeypatch):
    # at plane order 121, with blocks of 67 rows of the 7 MB table, the
    # counts read the rows of the set's 1,476 points, 23 blocks, and are
    # those of the whole boolean incidence.  The peak is the counts, the
    # set's point indices and one block, 0.0325x the table; the incidence
    # itself would be 0.25x
    plane = projective_plane(field(11, 2))
    S = PointSet(plane, np.random.default_rng(11).random(plane.npoints) < 0.1)
    whole = np.count_nonzero(S.member[plane.lines], axis=1)
    monkeypatch.setattr(geom, "_LINE_BLOCK_ENTRIES", 1 << 13)
    tracemalloc.start()
    try:
        counts = line_counts(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts, whole)
    assert peak < 0.04 * plane.lines.nbytes


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("p,h", [(2, 1), (2, 2), (3, 2), (5, 2), (7, 2), (17, 2)])
@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.floats(0, 1))
def test_counts_from_chosen_rows_match_the_whole_incidence(p, h, block, seed, share):
    # the counts read only the rows of the set's points, and of its tangent
    # lines, in default blocks and in blocks of one row; the whole boolean
    # incidence, line by line, gives the same numbers.  Random sets, sparse
    # ones most often, at plane orders 2 to 289
    plane = projective_plane(field(p, h))
    S = PointSet(plane, np.random.default_rng(seed).random(plane.npoints) < share**2)
    whole = np.count_nonzero(S.member[plane.lines], axis=1)
    tangents = plane.lines[whole == 1]
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(geom, "_LINE_BLOCK_ENTRIES", block)
        assert np.array_equal(line_counts(S), whole)
        assert np.array_equal(tangent_counts(S), np.bincount(tangents.ravel(), minlength=plane.npoints))


@pytest.mark.parametrize("p,h", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_lines_match_scalar_incidence(p, h):
    # row li of the line table is {i : L.point(i) = 0} for the dual L with
    # index li, computed here with scalar field arithmetic
    F = field(p, h)
    plane = projective_plane(F)
    pts = [plane.point(i) for i in range(plane.npoints)]
    assert plane.lines.shape == (plane.npoints, F.order + 1)
    assert plane.lines.dtype == np.int32
    for li, L in enumerate(pts):
        on = [
            i
            for i, X in enumerate(pts)
            if F.add(F.add(F.mul(L[0], X[0]), F.mul(L[1], X[1])), F.mul(L[2], X[2])) == 0
        ]
        assert plane.lines[li].tolist() == on


def test_line_table_blocks_do_not_change_it(monkeypatch):
    F = field(5, 2)
    whole = ProjectiveSpace(F, 2).lines
    monkeypatch.setattr(geom, "_LINE_BLOCK_ENTRIES", 8 * 26)  # blocks of 8 duals, the last one short
    assert np.array_equal(ProjectiveSpace(F, 2).lines, whole)


def test_line_table_build_peaks_near_the_table_size():
    # the table is written a block of duals at a time: building PG(2,121),
    # a 7 MB table, allocates at most as much again besides it, and the
    # plane keeps its line table and coordinate array and nothing per point
    F = field(11, 2)
    tracemalloc.start()
    try:
        plane = ProjectiveSpace(F, 2)
        plane.lines
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plane.lines.nbytes == 14763 * 122 * 4
    assert peak <= 2 * plane.lines.nbytes
    assert kept <= 1.02 * (plane.lines.nbytes + plane.coords_array().nbytes)


def test_line_table_is_built_on_first_read(monkeypatch):
    # classify_pair and Conic.points read the conics' point indices, found
    # from the plane's coordinates alone in odd characteristic, so they
    # build no table; line_counts builds it once.
    # Planes are memoised, so this takes an order no other test builds
    built = []
    build = ProjectiveSpace._build_lines

    def counted(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(ProjectiveSpace, "_build_lines", counted)
    F = field(19)
    C, D = analysis.canonical_case_pair(F, 1, analysis.admissible_ks(F, 1)[0])
    analysis.classify_pair(C, D)
    assert C.points().card == 20 and built == []
    line_counts(C.points())
    line_counts(D.points())
    assert built == [C.plane]


def test_oversized_line_table_is_refused_before_it_is_allocated(monkeypatch):
    # PG(2,25) has a 651 x 26 int32 table of 67,704 bytes: it is built at
    # that limit, and refused one byte below it with the plane and the size
    # named, having allocated a small part of it
    F = field(5, 2)
    monkeypatch.setattr(geom, "_LINE_TABLE_BYTES", 67704)
    assert ProjectiveSpace(F, 2).lines.nbytes == 67704
    monkeypatch.setattr(geom, "_LINE_TABLE_BYTES", 67703)
    plane = ProjectiveSpace(F, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"line table of PG\(2,25\) would take 67704 bytes"):
            plane.lines
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 67704


# PG(5,n) at orders 2 to 25, and the planes on either side of the move of
# the coordinate dtype from uint8 to uint16
_ROUND_TRIP_SPACES = [((2, 1), 5), ((3, 1), 5), ((2, 2), 5), ((2, 3), 5), ((3, 2), 5), ((2, 4), 5), ((5, 2), 5),
                      ((2, 8), 2), ((257, 1), 2)]


@pytest.fixture(scope="module")
def round_trip_spaces():
    # built here rather than through the memoised constructors, so that the
    # two large planes are freed with this module
    return {key: ProjectiveSpace(field(*key[0]), key[1]) for key in _ROUND_TRIP_SPACES}


@settings(max_examples=300, deadline=None, database=None)
@given(st.sampled_from(_ROUND_TRIP_SPACES), st.data())
def test_coordinates_indices_and_rows_round_trip(round_trip_spaces, key, data):
    space = round_trip_spaces[key]
    F = space.field
    coords = space.coords_array()
    assert coords.dtype == (np.uint8 if F.order <= 256 else np.uint16)
    i = data.draw(st.integers(0, space.npoints - 1))
    P = tuple(int(x) for x in coords[i])
    assert P == space.point(i)
    assert point_index(space, space.point(i)) == i
    lam = data.draw(st.integers(1, F.order - 1))
    assert space.index_rows(F.mul_table[lam, coords[i]][None]).tolist() == [i]


def test_point_array_peaks_at_its_own_size():
    # each coordinate row is written in place: PG(5,16), a 6.7 MB array,
    # allocates almost nothing besides it
    F = field(2, 4)
    tracemalloc.start()
    try:
        arr = point_array(F, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert arr.nbytes == 1118481 * 6
    assert peak <= 1.1 * arr.nbytes

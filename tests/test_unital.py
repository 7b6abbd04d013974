import random

import numpy as np
import pytest

from unitals.conic import PencilKind, canonical_pencil
from unitals.geom import PointSet, projective_plane
from unitals.gf import field
from unitals.unital import (
    behs_unital,
    hermitian_unital,
    is_unital,
    tangent_structure,
    unital_q,
)
from oracles import point_index


@pytest.mark.parametrize("p,h,q", [(2, 2, 2), (3, 2, 3), (2, 4, 4), (5, 2, 5)])
def test_hermitian_counts_and_profile(p, h, q):
    F = field(p, h)
    U = hermitian_unital(F)
    assert U.card == q**3 + 1
    rep = is_unital(U)
    assert rep.is_unital
    assert rep.profile == {1: q**3 + 1, q + 1: F.order**2 + F.order + 1 - q**3 - 1}
    assert rep.failures == []


def test_hermitian_q3_profile_exact():
    rep = is_unital(hermitian_unital(field(3, 2)))
    assert rep.profile == {1: 28, 4: 63}


@pytest.mark.parametrize("q", [3, 5])
def test_behs_counts_and_verifier(q):
    F = field(q, 2)
    U, conics = behs_unital(F)
    assert U.card == q**3 + 1
    assert len(conics) == q
    assert is_unital(U).is_unital
    for C in conics:
        assert C.points().card == q * q + 1


def test_hermitian_q7_count():
    F = field(7, 2)
    U = hermitian_unital(F)
    assert U.card == 7**3 + 1
    assert is_unital(U).is_unital


def test_behs_q7_count():
    F = field(7, 2)
    U, conics = behs_unital(F)
    assert U.card == 7**3 + 1 and len(conics) == 7
    assert is_unital(U).is_unital


def test_behs_structure():
    F = field(3, 2)
    plane = projective_plane(F)
    U, conics = behs_unital(F)
    base = point_index(plane, (0, 1, 0))
    # pairwise intersections are exactly the common base point
    for i in range(len(conics)):
        for j in range(i + 1, len(conics)):
            assert np.intersect1d(conics[i].point_indices(), conics[j].point_indices()).tolist() == [base]
    # the parameter a = 0 member 2yz = x^2 is always present
    assert canonical_pencil(F, PencilKind.PARABOLIC, 0) in conics
    # every pencil through a pair contains the repeated line z^2 = 0
    from unitals.analysis import classify_pair

    rep = classify_pair(conics[0], conics[1])
    assert rep.rank1_member is not None and rep.rank1_member.coeffs == (0, 0, 1, 0, 0, 0)


def test_behs_conic_tangents_are_unital_tangents():
    F = field(3, 2)
    plane = projective_plane(F)
    U, conics = behs_unital(F)
    tangent_line = {
        li for li, pts in enumerate(plane.lines) if U.member[pts].sum() == 1
    }
    for C in conics:
        for pi in C.points().indices():
            li = point_index(plane, plane.normalize(C.tangent_at(plane.point(pi))))
            assert li in tangent_line


@pytest.mark.parametrize("q", [3, 5])
def test_behs_independent_of_t_within_coset(q):
    F = field(q, 2)
    t = min(F.nonsquares())
    U, _ = behs_unital(F, t)
    for u in F.subfield_elements(q):
        if u == 0:
            continue
        U2, _ = behs_unital(F, F.mul(t, u))
        assert U2 == U
    # a non-square outside t*GF(q)* gives a different unital
    other = next(s for s in F.nonsquares() if s not in {F.mul(t, u) for u in F.subfield_elements(q)})
    U3, _ = behs_unital(F, other)
    assert U3 != U
    assert is_unital(U3).is_unital


def test_tangent_structure_counts():
    for q, ph in ((3, (3, 2)), (2, (2, 2))):
        F = field(*ph)
        U = hermitian_unital(F)
        ts = tangent_structure(U)
        assert ts.ok
        assert ts.on_profile == {1: q**3 + 1}
        n = F.order
        assert ts.off_profile == {q + 1: n * n + n + 1 - q**3 - 1}
        # double count: tangents through off-points = (#tangent lines) * n
        off_total = sum(cnt * mult for cnt, mult in ts.off_profile.items())
        assert off_total == (q**3 + 1) * n


def test_tangent_structure_behs_offpoint_example():
    # q = 3: off-unital points see 4 tangents and 6 secants
    F = field(3, 2)
    U, _ = behs_unital(F)
    ts = tangent_structure(U)
    assert ts.off_profile == {4: 63}


def test_random_set_is_not_a_unital():
    F = field(3, 2)
    plane = projective_plane(F)
    rng = random.Random(3)
    S = PointSet.from_indices(plane, rng.sample(range(plane.npoints), 28))
    rep = is_unital(S)
    assert not rep.is_unital and rep.failures
    with pytest.raises(ValueError, match="tangent structure is only defined for unitals"):
        tangent_structure(S)


def test_errors():
    with pytest.raises(ValueError, match="plane order 3 is not a square"):
        hermitian_unital(field(3))
    with pytest.raises(ValueError, match="plane order 5 is not a square"):
        unital_q(field(5, 1))
    with pytest.raises(ValueError, match="the conic-union construction needs q odd"):
        behs_unital(field(2, 2))
    F = field(3, 2)
    with pytest.raises(ValueError, match="t = 1 is a square"):
        behs_unital(F, 1)


@pytest.mark.parametrize("t", [-1, 9, 99])
def test_behs_refuses_non_elements(t):
    # -1 used to wrap round to the last element and build a 28-point set
    with pytest.raises(ValueError, match=f"t {t} is not a field element"):
        behs_unital(field(3, 2), t)

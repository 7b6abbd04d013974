"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its runtime and asserting the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suite is heavier
than the unit tests (full PG(5,25) sweeps, 10^5 sampled conic pairs) but
stays inside the per-criterion budgets on one CPU.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from unitals.analysis import (
    admissible_ks,
    canonical_case_pair,
    case1_exceptional_vpoints,
    case_residual_formula,
    certify_union_of_conics,
    classify_pair,
    conics_contained,
    lemma1_search,
    lemma2_search,
    PencilType,
    verify_afkl,
)
from unitals.cli import run_theorem3
from unitals.gf import field
from unitals.unital import behs_unital, hermitian_unital, is_unital, tangent_structure
from unitals.veronese import cone_residual_intersection, line_meets_veronese
from oracles import cone_point_indices, direct_residuals, scan_residuals, swept_cone_indices


def report(num: int, ok: bool, t0: float, desc: str) -> float:
    dt = time.time() - t0
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'} ({dt:.1f}s): {desc}")
    return dt


def test_criterion_1_unital_axioms():
    t0 = time.time()
    ok = True
    for q, ph, kinds in ((2, (2, 2), ("hermitian",)), (3, (3, 2), ("hermitian", "behs")),
                         (4, (2, 4), ("hermitian",)), (5, (5, 2), ("hermitian", "behs"))):
        F = field(*ph)
        n = F.order
        for kind in kinds:
            t_build = time.time()
            S = hermitian_unital(F) if kind == "hermitian" else behs_unital(F)[0]
            rep = is_unital(S)
            ok &= rep.is_unital and sorted(rep.profile) == [1, q + 1]
            ts = tangent_structure(S)
            ok &= ts.ok
            ok &= ts.on_profile == {1: q**3 + 1}
            ok &= ts.off_profile == {q + 1: n * n + n + 1 - q**3 - 1}
            assert time.time() - t_build < 5.0, f"{kind} q={q} exceeded 5 s"
    dt = report(1, ok, t0, "unital axioms and tangent structure, hermitian q in {2,3,4,5}, behs q in {3,5}")
    assert ok


def test_criterion_2_theorem3_oracle_equivalence():
    t0 = time.time()
    ok = True
    for p in (3, 5, 7):
        rep = run_theorem3(field(p, 2), 100, 7)
        ok &= rep["ok"] and rep["conics_checked"] == 103
    dt = report(2, ok, t0, "point classifier == tangent counting, 103 conics over each n in {9,25,49}")
    assert ok and dt < 60.0


def test_criterion_3_lemma1():
    t0 = time.time()
    ok = True
    for q, expect in ((3, 2), (5, 3), (7, 4)):
        rep = lemma1_search(field(q, 2))
        ok &= rep.max_size == expect == (q + 1) // 2
    dt = report(3, ok, t0, "pairwise-non-square-difference squares max out at (q+1)/2 for q in {3,5,7}")
    assert ok and dt < 30.0


def test_criterion_4_lemma2():
    t0 = time.time()
    ok = True
    convention = None
    for q in (3, 5):
        F = field(q, 2)
        rep = lemma2_search(F)
        ok &= rep.max_size == q and bool(rep.all_maximal_are_cosets)
        convention = rep.zero_convention
        sub = F.subfield_elements(q)
        for w in rep.witnesses:
            t = next(x for x in w if x)
            ok &= set(w) == {F.mul(t, u) for u in sub} and not F.is_square(t)
    dt = report(4, ok, t0, f"size-q witnesses are cosets t*GF(q), zero convention: {convention}")
    assert ok and dt < 60.0


def test_criterion_5_pencil_trichotomy():
    t0 = time.time()
    ok = True
    expected = {1: PencilType.BITANGENT_REAL, 2: PencilType.BITANGENT_CONJUGATE, 3: PencilType.HYPEROSCULATING}
    for p in (3, 5):
        F = field(p, 2)
        for case, ptype in expected.items():
            for k in admissible_ks(F, case):
                rep = classify_pair(*canonical_case_pair(F, case, k))
                ok &= rep.ptype == ptype and rep.rank1_member is not None and rep.hypothesis_holds
    rep25 = verify_afkl(field(5, 2))
    ok &= rep25.ok and rep25.hypothesis_pairs > 0
    rep49 = verify_afkl(field(7, 2), samples=100_000, seed=7)
    ok &= rep49.ok and rep49.sampled_pairs == 100_000
    dt = report(5, ok, t0, "canonical pairs classified per case; trichotomy holds exhaustively at 25 and on 1e5 sampled pairs at 49")
    assert ok and dt < 600.0


def test_criterion_6_cone_oracle_vs_closed_forms():
    t0 = time.time()
    ok = True
    for p in (3, 5):
        F = field(p, 2)
        apexes = set()
        for case in (1, 2, 3):
            ks = admissible_ks(F, case)
            pairs = [canonical_case_pair(F, case, k) for k in ks]
            if not pairs:
                continue
            C, Ds = pairs[0][0], [D for _, D in pairs]
            apexes.add(C)
            scan = scan_residuals(C, Ds)
            ok &= cone_residual_intersection(C, Ds) == scan
            ok &= direct_residuals(C, Ds) == scan
            for k, res in zip(ks, scan):
                ok &= res == case_residual_formula(F, case, k)
                if case == 3:
                    ok &= res == []
        # each swept apex: the direct cone is the sweep, index for index
        for C in apexes:
            ok &= bool(np.array_equal(cone_point_indices(C), swept_cone_indices(C)))
        for k in admissible_ks(F, 1):
            for beta in F.elements():
                if beta in (0, 1):
                    continue
                p1, pb = case1_exceptional_vpoints(F, k, beta)
                ok &= line_meets_veronese(F, p1, pb) == []
    dt = report(6, ok, t0, "full PG(5,9) and PG(5,25) sweeps match the closed forms, the projected and the direct cones for every admissible k")
    assert ok and dt < 900.0


def test_criterion_7_main_theorem_desk_scale():
    t0 = time.time()
    ok = True
    # q = 3: full conic enumeration is the oracle
    t3 = time.time()
    F9 = field(3, 2)
    U3, conics3 = behs_unital(F9)
    got3 = conics_contained(U3, method="pencil")
    ok &= got3 == conics_contained(U3, method="exhaustive")
    ok &= sorted(C.coeffs for C in got3) == sorted(C.coeffs for C in conics3)
    ok &= conics_contained(hermitian_unital(F9), method="exhaustive") == []
    ok &= certify_union_of_conics(U3).signature == "BEHS"
    ok &= not certify_union_of_conics(hermitian_unital(F9)).covered
    dt3 = time.time() - t3
    assert dt3 < 60.0, f"q=3 took {dt3:.0f}s"
    # q = 5: the 5-point pencil generator, cross-checked exhaustively
    F25 = field(5, 2)
    U5, conics5 = behs_unital(F25)
    got5 = conics_contained(U5, method="pencil")
    ok &= sorted(C.coeffs for C in got5) == sorted(C.coeffs for C in conics5)
    ok &= got5 == conics_contained(U5, method="exhaustive")
    H5 = hermitian_unital(F25)
    ok &= conics_contained(H5, method="pencil") == conics_contained(H5, method="exhaustive") == []
    ok &= certify_union_of_conics(U5).signature == "BEHS"
    ok &= not certify_union_of_conics(H5).covered
    # q in {2,4}: the nucleus obstruction; the certificate's pencil search
    # against the exhaustive oracle
    for p, h in ((2, 2), (2, 4)):
        H = hermitian_unital(field(p, h))
        cert = certify_union_of_conics(H)
        ok &= cert.conics == conics_contained(H, method="exhaustive") == [] and not cert.covered
    dt = report(7, ok, t0, "union-of-conics certificates: behs q in {3,5} signature BEHS, hermitian empty, even q nucleus obstruction")
    assert ok and dt < 1200.0


def test_criterion_8_determinism():
    t0 = time.time()
    cmd = [sys.executable, "-m", "unitals.cli", "report-all", "--q", "3", "--seed", "7"]
    r1 = subprocess.run(cmd, capture_output=True, timeout=300)
    r2 = subprocess.run(cmd, capture_output=True, timeout=300)
    ok = r1.returncode == 0 and r2.returncode == 0 and r1.stdout == r2.stdout and len(r1.stdout) > 0
    payload = json.loads(r1.stdout)
    ok &= payload["summary"]["violated"] == 0
    dt = report(8, ok, t0, "two runs of report-all --q 3 --seed 7 are byte-identical")
    assert ok

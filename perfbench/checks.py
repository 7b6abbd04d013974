"""Checks of each workload's reports against the benchmark's own field
arithmetic and against properties the method must have.

Each check takes the parsed JSON report, the exit status and the input
parameters, and returns a list of problems; an empty list means the report
passed.  Nothing here calls the program.
"""

from field import Field


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _field(problems, report, q):
    F = Field.from_report(report["field"])
    _expect(problems, "plane order", F.order, q * q)
    if not F.is_field():
        problems.append(f"modulus {F.modulus} is reducible")
    return F


def _on_cone(F, apex, point):
    """Line scan from the apex: some point of the line apex-point other than
    the apex is a rank-1 symmetric matrix (a point of the Veronese surface)."""
    for lam in range(F.order):
        v = tuple(F.add(r, F.mul(lam, a)) for r, a in zip(point, apex))
        if any(v) and F.symmetric_rank(v) == 1:
            return True
    return False


def check_cone(report, status, q):
    """Case 1 (2xy = z^2 against 2xy = kz^2): the admissible k, and for each
    the n-1 points of PG(5,n) on both cones, off the apex line and off the
    Veronese surface."""
    problems = []
    _expect(problems, "exit status", status, 0)
    F = _field(problems, report, q)
    n = F.order
    nonsq = set(F.nonsquares())
    ks = sorted(k for k in F.squares() if F.sub(k, 1) in nonsq)
    _expect(problems, "number of admissible k", len(ks), (n - 1) // 4)
    _expect(problems, "case", report.get("case"), 1)
    _expect(problems, "sweep", report.get("sweep"), "full")
    _expect(problems, "ks", report.get("ks"), ks)
    pairs = report.get("pairs", [])
    _expect(problems, "pair parameters", [e.get("k") for e in pairs], ks)
    # 2xy - k z^2 = 0 has a12 = 1 and a33 = -k
    apex_c = F.normalize((0, 0, F.neg(1), 1, 0, 0))
    for entry in pairs:
        k = entry.get("k")
        if k not in ks:
            continue
        apex_d = F.normalize((0, 0, F.neg(k), 1, 0, 0))
        residual = entry.get("residual", [])
        points = [tuple(r["point"]) for r in residual]
        _expect(problems, f"k={k} residual_size", entry.get("residual_size"), n - 1)
        _expect(problems, f"k={k} residual points", len(points), n - 1)
        _expect(problems, f"k={k} distinct points", len(set(points)), len(points))
        _expect(problems, f"k={k} matches_closed_form", entry.get("matches_closed_form"), True)
        for r, P in zip(residual, points):
            if len(P) != 6 or not any(P) or F.normalize(P) != P:
                problems.append(f"k={k} point {P} is not a normalised PG(5,n) point")
                continue
            _expect(problems, f"k={k} conic of {P}", tuple(r["conic"]), P)
            _expect(problems, f"k={k} reported rank of {P}", r["rank"], 3)
            _expect(problems, f"k={k} rank of {P}", F.symmetric_rank(P), 3)
            if F.rank([apex_c, apex_d, P]) != 3:
                problems.append(f"k={k} point {P} lies on the apex line")
            for apex in (apex_c, apex_d):
                if not _on_cone(F, apex, P):
                    problems.append(f"k={k} point {P} is not on the cone with apex {apex}")
    _expect(problems, "exceptional_lines_miss_surface", report.get("exceptional_lines_miss_surface"), True)
    _expect(problems, "ok", report.get("ok"), True)
    return problems


def behs_conics(F, q):
    """The q conics 2yz - x^2 + a z^2 = 0, a in t*GF(q), t the smallest
    non-square, as normalised coefficient tuples (a11,a22,a33,a12,a13,a23)."""
    t = min(F.nonsquares())
    return sorted(F.normalize((F.neg(1), 0, F.mul(t, u), 0, 0, 1)) for u in F.subfield(q))


def check_enum(report, status, q, kind):
    """Conics inside the BEHS unital (exactly its q construction conics) or
    inside the Hermitian unital (none)."""
    problems = []
    _expect(problems, "exit status", status, 0)
    F = _field(problems, report, q)
    _expect(problems, "kind", report.get("kind"), kind)
    _expect(problems, "cardinality", report.get("cardinality"), q**3 + 1)
    got = [tuple(c) for c in report.get("conics", [])]
    _expect(problems, "count", report.get("count"), len(got))
    if kind == "hermitian":
        _expect(problems, "conics", got, [])
        return problems
    want = behs_conics(F, q)
    _expect(problems, "number of conics", len(want), q)
    _expect(problems, "conics", sorted(got), want)
    plane = F.plane_points()
    for C in got:
        zeros = sum(1 for P in plane if F.conic_value(C, P) == 0)
        _expect(problems, f"zeros of {C}", zeros, q * q + 1)
    return problems

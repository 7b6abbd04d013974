"""Command-line front end: every verification as a reproducible, scriptable
report.

Reports are JSON by default with a fixed key order, field elements appear
as integer indices, and each report carries the field description (p, h,
modulus coefficients ascending) so it is self-describing.  Identical
configuration, including --seed, produces byte-identical output.  This
module is the only one that speaks JSON: the library returns dataclasses,
and ``_emit`` encodes them through one ``json.dumps`` hook, ``_jsonable``;
--format text reads the JSON text back and lays it out.  Every
subcommand accepts --workers and ignores it: every check runs in one
process.

The parser is built once per process; ``main`` runs subcommand NAME as the
module's function ``cmd_NAME`` (dashes read as underscores), looked up when
it is called, so a function replaced on the module is the one that runs.

Exit status: 0 when every checked claim is verified, 1 when a claim is
violated, 2 on usage errors (including claims refused at the given order),
3 on an internal error, whose traceback goes to stderr.
"""

import argparse
import dataclasses
import enum
import json
import random
import sys
import traceback
from functools import lru_cache, partial

from . import analysis, gf, veronese
from .conic import Conic, EvenCharacteristicUnsupported, PencilKind, canonical_pencil
from .geom import PointSet, projective_plane, projective_space, tangent_counts
from .gf import GF, is_prime
from .unital import behs_unital, hermitian_unital, is_unital, tangent_structure, unital_q


class UsageError(Exception):
    pass


def _prime_power(n: int):
    for p in range(2, n + 1):
        if n % p == 0:
            rest, e = n, 0
            while rest % p == 0:
                rest //= p
                e += 1
            if rest != 1 or not is_prime(p):
                raise UsageError(f"{n} is not a prime power")
            return p, e
    raise UsageError("order must be at least 2")


def _conic_arg(F: GF, text: str, option: str) -> Conic:
    return Conic(F, tuple(F.require_element(int(c), option) for c in text.split(",")))


def field_from_args(args, need_square=False) -> GF:
    modulus = None
    if getattr(args, "modulus", None):
        modulus = tuple(int(c) for c in args.modulus.split(","))
    if getattr(args, "q", None) is not None:
        p, e = _prime_power(args.q)
        return gf.field(p, 2 * e, modulus)
    if getattr(args, "p", None) is not None:
        if args.h is None:
            raise UsageError("--p needs --h")
        if need_square and args.h % 2:
            raise UsageError("this command needs a square plane order (h even or use --q)")
        return gf.field(args.p, args.h, modulus)
    raise UsageError("specify the field with --q or with --p/--h")


def _fields(report) -> dict:
    """A dataclass as the dict of its fields in declaration order, a trailing
    underscore dropped from each name (``class_`` is written "class")."""
    return {f.name.removesuffix("_"): getattr(report, f.name) for f in dataclasses.fields(report)}


def _jsonable(obj):
    """``json.dumps`` hook for the library's values: a conic as its
    coefficient list, an enum member as its value, a dataclass as its fields."""
    if isinstance(obj, Conic):
        return list(obj.coeffs)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return _fields(obj)
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def _emit(args, report: dict, csv_rows=None) -> None:
    if args.format == "csv":
        if csv_rows is None:
            raise UsageError("csv output is only offered for line-profile and difference-set tables")
        sys.stdout.write("\n".join(",".join(str(c) for c in row) for row in csv_rows) + "\n")
        return
    text = json.dumps(report, indent=2, default=_jsonable)
    if args.format == "text":
        text = "\n".join(_text_lines(json.loads(text), ""))
    sys.stdout.write(text + "\n")


def _text_lines(obj, indent):
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                lines.append(f"{indent}{k}:")
                lines.extend(_text_lines(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {json.dumps(v)}")
        return lines
    if isinstance(obj, list):
        return [f"{indent}- {json.dumps(v)}" for v in obj]
    return [f"{indent}{json.dumps(obj)}"]


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v) or len(json.dumps(v)) < 72
    return False


# -- claim runners ---------------------------------------------------------------


def run_theorem3(F: GF, samples: int, seed: int) -> dict:
    """Point classifier against the tangent-counting oracle, plus the
    external/internal census n(n+1)/2 and n(n-1)/2."""
    if F.p == 2:
        raise EvenCharacteristicUnsupported(
            "theorem3's external/internal point classification is stated for odd q; "
            f"GF({F.order}) has characteristic 2"
        )
    n = F.order
    conics = [
        canonical_pencil(F, PencilKind.HYPERBOLIC, 1),
        canonical_pencil(F, PencilKind.ELLIPTIC, 1),
        canonical_pencil(F, PencilKind.PARABOLIC, 0),
    ]
    rng = random.Random(seed)
    while len(conics) < 3 + samples:
        coeffs = tuple(rng.randrange(n) for _ in range(6))
        if any(coeffs):
            C = Conic(F, coeffs)
            if C.rank() == 3:
                conics.append(C)
    counts_ok = True
    agree_ok = True
    for C in conics:
        cls = C.classify_array()
        on, ext, inn = int((cls == 0).sum()), int((cls == 1).sum()), int((cls == -1).sum())
        if (on, ext, inn) != (n + 1, n * (n + 1) // 2, n * (n - 1) // 2):
            counts_ok = False
        # an irreducible conic's tangents are the lines meeting it once
        cnt = tangent_counts(C.points())
        if not (
            ((cls == 1) == (cnt == 2)).all()
            and ((cls == -1) == (cnt == 0)).all()
            and ((cls == 0) == (cnt == 1)).all()
        ):
            agree_ok = False
    return {
        "claim": "theorem3",
        "field": F.describe(),
        "conics_checked": len(conics),
        "external_count": n * (n + 1) // 2,
        "internal_count": n * (n - 1) // 2,
        "counts_ok": counts_ok,
        "classifier_matches_tangent_counts": agree_ok,
        "ok": counts_ok and agree_ok,
    }


def run_lemma1(F: GF) -> dict:
    q = unital_q(F)
    rep = analysis.lemma1_search(F)
    bound = (q + 1) // 2
    ok = rep.max_size == bound
    return {"claim": "lemma1", "field": F.describe(), "q": q, **_fields(rep), "bound": bound, "ok": ok}


def run_lemma2(F: GF) -> dict:
    q = unital_q(F)
    rep = analysis.lemma2_search(F)
    ok = rep.max_size == q and bool(rep.all_maximal_are_cosets)
    return {"claim": "lemma2", "field": F.describe(), "q": q, **_fields(rep), "ok": ok}


def run_afkl(F: GF, samples: int, seed: int) -> dict:
    rep = analysis.verify_afkl(F, samples=samples, seed=seed)
    return {"claim": "afkl", "field": F.describe(), **_fields(rep)}


def run_nucleus() -> dict:
    """Tangent concurrency for every irreducible conic of the even orders 2
    and 4: all q+1 tangents of an oval pass through one nucleus."""
    orders = []
    total = 0
    ok = True
    for p, h in ((2, 1), (2, 2)):
        F = gf.field(p, h)
        space5 = projective_space(F, 5)
        ovals = 0
        for i in range(space5.npoints):
            C = Conic(F, space5.point(i))
            if C.is_irreducible:
                try:
                    C.nucleus()
                except ValueError:  # no single common point, or not an oval
                    ok = False
                ovals += 1
        orders.append({"order": F.order, "ovals": ovals})
        total += ovals
    return {"claim": "nucleus", "orders": orders, "ovals_checked": total, "ok": ok}


def run_cone_residual_case(F: GF, case: int, k: int | None, full: bool) -> dict:
    """Exact cone residuals against the closed-form residual lists for one
    case, at every order: each residual is the intersection of the two
    directly built cones, so it covers all of PG(5,n) ("sweep": "full").

    Case 1 also asks that no exceptional line p1 p_beta meet V.  That
    fails, rightly, at orders = 5 mod 8: k = -1 is admissible exactly when
    -1 is a square and 2 is not, and with beta = -1 the line passes through
    z^2 = (0,0,1,0,0,0).  Square orders q^2 are 1 mod 8, so no plane of the
    paper admits k = -1."""
    if F.p == 2:
        raise EvenCharacteristicUnsupported(
            f"cone-residual needs odd characteristic; GF({F.order}) has characteristic 2"
        )
    ks = analysis.admissible_ks(F, case) if k is None else [k]
    pairs = [analysis.canonical_case_pair(F, case, kk) for kk in ks]
    # the first conic of a case pair does not depend on k
    residuals = veronese.cone_residual_intersection(pairs[0][0], [D for _, D in pairs]) if pairs else []
    entries = []
    ok = True
    for kk, res in zip(ks, residuals):
        closed = analysis.case_residual_formula(F, case, kk)
        match = res == closed
        ok = ok and match
        entry = {"k": kk, "residual_size": len(res), "matches_closed_form": match}
        if full:
            conics = [Conic(F, P) for P in res]
            entry["residual"] = [{"point": P, "conic": E, "rank": E.rank()} for P, E in zip(res, conics)]
        entries.append(entry)
    out = {
        "claim": "cone-residual",
        "field": F.describe(),
        "case": case,
        "alpha": min(F.nonsquares()) if case == 2 else None,
        "sweep": "full",
        "ks": ks,
        "pairs": entries,
    }
    if case == 1:
        misses = True
        for kk in ks:
            for beta in F.elements():
                if beta in (0, 1):
                    continue
                p1, pb = analysis.case1_exceptional_vpoints(F, kk, beta)
                if veronese.line_meets_veronese(F, p1, pb):
                    misses = False
        out["exceptional_lines_miss_surface"] = misses
        ok = ok and misses
    out["ok"] = ok
    return out


def run_main_claim(F: GF) -> dict:
    """Union-of-conics certificates: the Hermitian unital holds no conic,
    and for odd q the BEHS unital holds exactly its q construction conics.
    Each list comes from the pencil search, checked by the exhaustive
    sweep up to plane order 25."""
    q = unital_q(F)
    out = {"claim": "main", "field": F.describe(), "q": q}
    cross = F.order <= 25
    ok = True
    if q % 2:
        B, bconics = behs_unital(F)
        cert_b = analysis.certify_union_of_conics(B)
        got = cert_b.conics
        behs_exact = sorted(C.coeffs for C in got) == sorted(C.coeffs for C in bconics)
        cross_b = analysis.conics_contained(B, method="exhaustive") == got if cross else None
        out["behs"] = {
            "cardinality": B.card,
            "construction_conics": len(bconics),
            "conics_contained": len(got),
            "matches_construction": behs_exact,
            "exhaustive_cross_check": cross_b,
            "certificate": cert_b,
        }
        ok = behs_exact and cert_b.signature == "BEHS" and cross_b in (None, True)
    H = hermitian_unital(F)
    cert_h = analysis.certify_union_of_conics(H)
    got_h = cert_h.conics
    cross_h = analysis.conics_contained(H, method="exhaustive") == got_h if cross else None
    out["hermitian"] = {
        "cardinality": H.card,
        "conics_contained": len(got_h),
        "exhaustive_cross_check": cross_h,
        "covered": cert_h.covered,
    }
    out["ok"] = ok and not got_h and not cert_h.covered and cross_h in (None, True)
    return out


def run_unital_claim(F: GF) -> dict:
    q = unital_q(F)
    out = {"claim": "unital", "field": F.describe(), "q": q}
    entries = []
    ok = True
    builds = [("hermitian", lambda: hermitian_unital(F))]
    if q % 2:
        builds.append(("behs", lambda: behs_unital(F)[0]))
    for kind, build in builds:
        S = build()
        rep = is_unital(S)
        ts = tangent_structure(S) if rep.is_unital else None
        good = (
            rep.is_unital
            and sorted(rep.profile) == [1, q + 1]
            and ts is not None
            and ts.ok
            and ts.on_profile == {1: q**3 + 1}
            and ts.off_profile == {q + 1: F.order**2 + F.order + 1 - q**3 - 1}
        )
        ok = ok and good
        entries.append(
            {
                "kind": kind,
                "cardinality": rep.cardinality,
                "profile": rep.profile,
                "tangents_ok": bool(ts and ts.ok),
                "ok": good,
            }
        )
    out["unitals"] = entries
    out["ok"] = ok
    return out


# -- subcommands -------------------------------------------------------------------


def cmd_field(args) -> int:
    F = field_from_args(args)
    report = {
        "field": F.describe(),
        "generator": F.generator,
        "exp": list(F._exp),
        "log": list(F._log),
        "squares": F.squares(),
        "nonsquares": F.nonsquares(),
    }
    _emit(args, report)
    return 0


def _build_set(args, F: GF):
    """(kind, point set, construction conics or None): the set read from
    --points is of kind "points", a built one of the kind --kind names."""
    if args.points:
        if args.points == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.points) as fh:
                data = json.load(fh)
        plane = projective_plane(F)
        if not isinstance(data, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) and 0 <= i < plane.npoints for i in data
        ):
            raise UsageError(f"--points must be a JSON list of point indices in 0..{plane.npoints - 1}")
        return "points", PointSet.from_indices(plane, data), None
    if args.kind == "hermitian":
        return "hermitian", hermitian_unital(F), None
    if args.t is not None:
        F.require_element(args.t, "--t")
    return ("behs", *behs_unital(F, args.t))


def cmd_build_unital(args) -> int:
    F = field_from_args(args, need_square=True)
    kind, S, conics = _build_set(args, F)
    report = {
        "field": F.describe(),
        "kind": kind,
        "q": unital_q(F),
        "cardinality": S.card,
        "points": S.indices(),
    }
    if conics is not None:
        report["conics"] = conics
    _emit(args, report)
    return 0


def cmd_verify_unital(args) -> int:
    F = field_from_args(args, need_square=True)
    _, S, _ = _build_set(args, F)
    rep = is_unital(S)
    report = {"field": F.describe(), **_fields(rep)}
    if rep.is_unital:
        report["tangent_structure"] = tangent_structure(S)
    rows = [("size", "count"), *rep.profile.items()]
    _emit(args, report, csv_rows=rows)
    return 0 if rep.is_unital else 1


def cmd_enum_conics(args) -> int:
    F = field_from_args(args, need_square=True)
    kind, S, _ = _build_set(args, F)
    conics = analysis.conics_contained(S, method=args.method)
    report = {
        "field": F.describe(),
        "kind": kind,
        "cardinality": S.card,
        "count": len(conics),
        "conics": conics,
    }
    _emit(args, report)
    return 0


def cmd_classify_pair(args) -> int:
    F = field_from_args(args)
    if args.conic and args.conic2:
        C = _conic_arg(F, args.conic, "--conic")
        D = _conic_arg(F, args.conic2, "--conic2")
    elif args.case is not None and args.k is not None:
        C, D = analysis.canonical_case_pair(F, args.case, F.require_element(args.k, "--k"))
        if args.k2 is not None:
            D = analysis.canonical_case_pair(F, args.case, F.require_element(args.k2, "--k2"))[1]
    else:
        raise UsageError("give --conic/--conic2 or --case with --k")
    report = {"field": F.describe(), **_fields(analysis.classify_pair(C, D))}
    _emit(args, report)
    return 0


def cmd_cone_residual(args) -> int:
    F = field_from_args(args)
    k = None
    if args.k is not None:
        k = F.require_element(args.k, "--k")
        ks = analysis.admissible_ks(F, args.case)
        if k not in ks:
            listed = ", ".join(map(str, ks)) or "none"
            raise UsageError(
                f"--k {k} is not admissible for case {args.case} over GF({F.order}); admissible: {listed}"
            )
    report = run_cone_residual_case(F, args.case, k, full=True)
    _emit(args, report)
    return 0 if report["ok"] else 1


def cmd_check(args) -> int:
    claim = args.claim
    if claim == "nucleus":
        report = run_nucleus()
    else:
        F = field_from_args(args, need_square=claim in ("lemma1", "lemma2", "main"))
        report = {
            "theorem3": lambda: run_theorem3(F, args.samples, args.seed),
            "lemma1": lambda: run_lemma1(F),
            "lemma2": lambda: run_lemma2(F),
            "afkl": lambda: run_afkl(F, args.samples, args.seed),
            "main": lambda: run_main_claim(F),
        }[claim]()
    rows = None
    if claim in ("lemma1", "lemma2"):
        rows = [("witness",)] + [(" ".join(str(x) for x in w),) for w in report["witnesses"]]
    _emit(args, report, csv_rows=rows)
    return 0 if report["ok"] else 1


def cmd_report_all(args) -> int:
    F = field_from_args(args, need_square=True)
    q = unital_q(F)
    runs = [
        ({"claim": "unital"}, partial(run_unital_claim, F)),
        ({"claim": "theorem3"}, partial(run_theorem3, F, args.samples, args.seed)),
        ({"claim": "lemma1"}, partial(run_lemma1, F)),
        ({"claim": "lemma2"}, partial(run_lemma2, F)),
        ({"claim": "afkl"}, partial(run_afkl, F, 0, args.seed)),
        *(
            ({"claim": "cone-residual", "case": case}, partial(run_cone_residual_case, F, case, None, False))
            for case in (1, 2, 3)
        ),
        ({"claim": "main"}, partial(run_main_claim, F)),
        ({"claim": "nucleus"}, run_nucleus),
    ]
    claims = []
    for head, run in runs:
        try:
            claims.append(run())
        except (analysis.FieldTooSmall, EvenCharacteristicUnsupported) as exc:
            # a claim not stated at this order is skipped, not violated
            claims.append({**head, "skipped": str(exc), "ok": None})
    verified = sum(1 for c in claims if c["ok"] is True)
    violated = sum(1 for c in claims if c["ok"] is False)
    skipped = sum(1 for c in claims if c["ok"] is None)
    report = {
        "field": F.describe(),
        "q": q,
        "seed": args.seed,
        "claims": claims,
        "summary": {"total": len(claims), "verified": verified, "violated": violated, "skipped": skipped},
    }
    if args.format == "text":
        for c in claims:
            status = "PASS" if c["ok"] else ("SKIP" if c["ok"] is None else "FAIL")
            name = c["claim"] + (f" case {c['case']}" if c["claim"] == "cone-residual" else "")
            sys.stdout.write(f"{status:<5} {name}\n")
        sys.stdout.write(f"verified {verified}/{len(claims) - skipped}, skipped {skipped}\n")
    else:
        _emit(args, report)
    return 0 if violated == 0 else 1


# -- argument parsing ----------------------------------------------------------------


def _add_field_opts(sp):
    sp.add_argument("--q", type=int, help="unital parameter q; the plane has order q^2")
    sp.add_argument("--p", type=int, help="characteristic of the plane field")
    sp.add_argument("--h", type=int, help="exponent: plane order p^h")
    sp.add_argument("--modulus", help="comma-separated modulus coefficients, ascending")


def _add_common(sp):
    sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1, help="accepted and ignored: every check runs in one process")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unitals",
        description="Build and verify unitals, conics and their Veronese geometry over small Galois fields.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("field", help="print the field description and tables")
    _add_field_opts(sp)
    _add_common(sp)

    for name in ("build-unital", "verify-unital", "enum-conics"):
        sp = sub.add_parser(name)
        _add_field_opts(sp)
        _add_common(sp)
        sp.add_argument("--kind", choices=("hermitian", "behs"), default="behs")
        sp.add_argument("--t", type=int, help="non-square parameter for the conic-union construction")
        sp.add_argument("--points", help="JSON file of point indices ('-' for stdin) instead of --kind")
        if name == "enum-conics":
            sp.add_argument("--method", choices=("auto", "pencil", "exhaustive"), default="auto")

    sp = sub.add_parser("classify-pair", help="pencil classification of a pair of conics")
    _add_field_opts(sp)
    _add_common(sp)
    sp.add_argument("--case", type=int, choices=(1, 2, 3))
    sp.add_argument("--k", type=int)
    sp.add_argument("--k2", type=int)
    sp.add_argument("--conic", help="six comma-separated coefficient indices")
    sp.add_argument("--conic2", help="six comma-separated coefficient indices")

    sp = sub.add_parser("cone-residual", help="cone-intersection oracle vs the closed forms")
    _add_field_opts(sp)
    _add_common(sp)
    sp.add_argument("--case", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--k", type=int, help="pencil parameter; all admissible k when omitted")

    sp = sub.add_parser("check", help="verify one claim")
    sp.add_argument("--claim", required=True, choices=("theorem3", "afkl", "lemma1", "lemma2", "main", "nucleus"))
    _add_field_opts(sp)
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=100)

    sp = sub.add_parser("report-all", help="run every claim and aggregate the statuses")
    _add_field_opts(sp)
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=100, help="random conics for the classifier check")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "samples", 0) < 0:
            raise UsageError(f"--samples must be at least 0, got {args.samples}")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # neither a verdict nor a usage error: a fault in the program
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

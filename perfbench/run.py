"""Benchmark of the ``unitals`` command, run in-process on one workload.

    python3 perfbench/run.py --workload enum-q5 --seed 3 --seconds 5 --trace 0

Each run sets the program up three times: a fresh import of ``unitals``,
the field and the projective spaces the workload uses.  It then calls
``unitals.cli.main`` on the workload's arguments, one round of operations
after another, until ``--seconds`` have passed, always finishing the round
it is in.  Then it sets up three times more and reports the median of the
six set-up times.  Each call is one operation; a non-zero exit, an
exception or a report that fails its check counts as failed.  The reports
are checked by ``checks.py`` against the benchmark's own field arithmetic,
apart from the program.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
the layers are wrapped by ``tracing.py``, the metrics are per layer, and the
spans go to ``perfbench/out/``.  The line before it gives the time of a
fixed pure-Python loop before and after the workload, so that a drifting
host can be told apart from a changed program.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from field import irreducible_moduli
from tracing import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3  # set-ups before the rounds, and again after them


@dataclass
class Workload:
    p: int  # the plane has order p^h
    h: int
    space5: bool  # whether set-up builds the PG(5,n) coordinate array
    ops: object  # modulus -> [(argv, check(report, status))]


def _modulus_arg(modulus):
    return ["--modulus", ",".join(map(str, modulus))]


def _cone_ops(modulus):
    argv = ["cone-residual", "--q", "5", "--case", "1"] + _modulus_arg(modulus)
    return [(argv, lambda rep, st: checks.check_cone(rep, st, 5))]


def _enum_ops(modulus):
    # the pair runs twice, so that a run spans about a minute of the host's
    # drifting speed rather than half of one
    return [
        (
            ["enum-conics", "--method", "pencil", "--q", "5", "--kind", kind] + _modulus_arg(modulus),
            lambda rep, st, kind=kind: checks.check_enum(rep, st, 5, kind),
        )
        for kind in ("behs", "hermitian") * 2
    ]


WORKLOADS = {
    "cone-n25": Workload(5, 2, True, _cone_ops),
    "enum-q5": Workload(5, 2, False, _enum_ops),
}


def reference_loop():
    """Median time of a fixed pure-Python loop, a gauge of host speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def set_up(wl, modulus):
    """Import the program afresh and build the field and spaces the
    workload uses, through the same memoised constructors the command
    calls, so the command finds them built.  Returns the CLI module, the
    time of each step and the size of the PG(5,n) array in MB (0 if none)."""
    for name in [m for m in sys.modules if m == "unitals" or m.startswith("unitals.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    cli = importlib.import_module("unitals.cli")
    gf, geom = sys.modules["unitals.gf"], sys.modules["unitals.geom"]
    t1 = time.perf_counter()
    F = gf.field(wl.p, wl.h, modulus)
    t2 = time.perf_counter()
    geom.projective_space(F, 2)
    t3 = time.perf_counter()
    space5_mb = 0.0
    if wl.space5:
        space5_mb = geom.projective_space(F, 5).coords_array().nbytes / 2**20
    t4 = time.perf_counter()
    steps = {"import": t1 - t0, "field": t2 - t1, "plane": t3 - t2, "space5": t4 - t3}
    return cli, steps, space5_mb


def cpu_time():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def call(cli, argv):
    """Run one command in-process; returns (exit status or None, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv + ["--workers", "1"])
    except SystemExit as exc:
        status = exc.code
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc()
        status = None
    return status, buf.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "unitals" / "cli.py").is_file():
        sys.exit(f"error: the program's sources are not at {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (a dependency, imported before set-up is timed)

    wl = WORKLOADS[args.workload]
    modulus = random.Random(args.seed).choice(irreducible_moduli(wl.p, wl.h))

    ref_before = reference_loop()
    steps = []
    for _ in range(SETUP_REPEATS):
        cli = None  # let the previous set-up's modules and spaces be freed
        cli, step, space5_mb = set_up(wl, modulus)
        steps.append(step)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    veronese = sys.modules["unitals.veronese"]

    rounds = []  # (wall, cpu, [(argv, check, status, stdout)])
    start = time.perf_counter()
    while True:
        ops = wl.ops(modulus)
        # the program keeps swept cones in a module cache; each round starts
        # without it, as a fresh process would
        getattr(veronese, "_CONE_CACHE", {}).clear()
        w0, c0 = time.perf_counter(), cpu_time()
        results = [(argv, check) + call(cli, argv) for argv, check in ops]
        rounds.append((time.perf_counter() - w0, cpu_time() - c0, results))
        if time.perf_counter() - start >= args.seconds:
            break
    # set up as often again after the rounds: the host's speed drifts over
    # seconds, and the median of both ends is steadier than that of one
    cli = veronese = None
    steps += [set_up(wl, modulus)[1] for _ in range(SETUP_REPEATS)]
    ref_after = reference_loop()

    attempted = failed = 0
    correct = True
    found_conics = 0
    for _, _, results in rounds:
        for argv, check, status, stdout in results:
            attempted += 1
            try:
                report = json.loads(stdout)
            except ValueError:
                report = None
            problems = ["no JSON report"] if report is None else check(report, status)
            if status != 0 or problems:
                failed += 1
                print(f"failed: {' '.join(argv)}: status {status}; {'; '.join(problems[:5])}", file=sys.stderr)
                if status == 0:
                    correct = False
            elif argv[0] == "enum-conics":
                found_conics += report["count"]

    n = len(rounds)
    wall = statistics.median(r[0] for r in rounds)
    setup_total = [sum(s.values()) for s in steps]
    if not tracer:
        usage = [resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(r[1] for r in rounds), "s"),
            "setup_s": (statistics.median(setup_total), "s"),
            "peak_rss_mb": (sum(usage) / 1024, "MB"),
        }
    else:
        tr = tracer
        flag_pairs = tr.flag_pairs / n
        metrics = {f"{layer}.self_s": (tr.self_s[layer] / n, "s") for layer in LAYERS}
        metrics.update(
            {
                "gf.field_s": (statistics.median(s["field"] for s in steps), "s"),
                "gf.scalar_calls": (
                    tr.calls_of(*(f"gf.GF.{op}" for op in ("add", "sub", "mul", "div", "inv", "neg", "pow"))) / n,
                    "count",
                ),
                "geom.plane_s": (statistics.median(s["plane"] for s in steps), "s"),
                "geom.space5_s": (statistics.median(s["space5"] for s in steps), "s"),
                "geom.space5_mb": (space5_mb, "MB"),
                "geom.normalize_calls": (tr.calls_of("geom.ProjectiveSpace.normalize") / n, "count"),
                "conic.constructed": (tr.calls_of("conic.Conic.__init__") / n, "count"),
                "conic.points_calls": (tr.calls_of("conic.Conic.points") / n, "count"),
                "veronese.cone_calls": (tr.calls_of("veronese.cone_point_indices") / n, "count"),
                "veronese.cone_s": (tr.phase_s["veronese.cone_s"] / n, "s"),
                "analysis.enum_s": (tr.phase_s["analysis.enum_s"] / n, "s"),
                "analysis.flag_pairs": (flag_pairs, "count"),
                "analysis.enum_yield": (found_conics / n / flag_pairs if flag_pairs else 0.0, "conics/pair"),
                "cli.stdout_bytes": (sum(len(r[3]) for _, _, res in rounds for r in res) / n, "bytes"),
            }
        )
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tr.write(path, {"workload": args.workload, "seed": args.seed, "rounds": n, "wall_s": wall})
        print(f"trace: {path.relative_to(HERE.parent)}; traced wall_s {wall:.4f} over {n} rounds")

    print(f"reference loop s: before {ref_before:.4f} after {ref_after:.4f}; rounds {n}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()

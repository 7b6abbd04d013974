"""Runs the benchmark once per seed on each named workload, one run after
another, and prints each end-to-end metric's median, quartiles and spread
(quartile distance over median), with the reference-loop times beside.

    python3 perfbench/spread.py --workloads enum-q5,cone-n25 --seeds 1-10 --label setA

Seeds are given as a range ``a-b`` or a comma list.  The runs' last lines
go to ``perfbench/out/spread-<label>.jsonl``.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    if "-" in text:
        a, b = map(int, text.split("-"))
        return list(range(a, b + 1))
    return [int(s) for s in text.split(",")]


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", default="spread")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(bench["run_seconds"])
    out = HERE / "out" / f"spread-{args.label}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("a") as log:
        for wl in args.workloads.split(","):
            rows = []
            for seed in _seeds(args.seeds):
                cmd = bench["command"] + ["--workload", wl, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode or not lines:
                    sys.exit(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                res = json.loads(lines[-1])
                ref = re.search(r"before ([\d.]+) after ([\d.]+)", proc.stdout)
                row = {"workload": wl, "seed": seed, "ref_before": float(ref[1]), "ref_after": float(ref[2])}
                row.update(res)
                rows.append(row)
                log.write(json.dumps(row) + "\n")
                log.flush()
                vals = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                print(f"{wl} seed {seed}: failed {res['failed']}/{res['attempted']} {vals} ref {ref[1]}/{ref[2]}", flush=True)
            print(f"== {wl}: {len(rows)} runs")
            names = list(rows[0]["metrics"]) + ["ref_before", "ref_after"]
            for name in names:
                vals = [r["metrics"][name]["value"] if name in r["metrics"] else r[name] for r in rows]
                s = summarise(vals)
                print(f"   {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  spread {s['spread']:.3f}")
            shares = {r["failed"] / r["attempted"] for r in rows}
            print(f"   failed share {sorted(shares)}; all correct {all(r['correct'] for r in rows)}", flush=True)


if __name__ == "__main__":
    main()

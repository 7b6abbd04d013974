"""Shows that the output checks bite: runs each workload's commands once,
checks that the real reports pass, then corrupts copies of them and checks
that every corrupted copy is rejected.

    python3 perfbench/bite.py

Takes about a minute; exits 1 if a real report is rejected or a corrupted
one accepted.
"""

import copy
import json
import random
import sys

import run


def _drop_residual_point(rep):
    pair = rep["pairs"][0]
    pair["residual"].pop()
    pair["residual_size"] -= 1


def _swap_residual_point(rep):
    # a point that is not on the cones: perturb one coordinate
    entry = rep["pairs"][0]["residual"][0]
    entry["point"][5] = (entry["point"][5] + 1) % rep["field"]["order"]
    entry["conic"] = list(entry["point"])


def _drop_k(rep):
    rep["ks"].pop()
    rep["pairs"].pop()


def _drop_conic(rep):
    rep["conics"].pop()
    rep["count"] -= 1


def _change_conic(rep):
    rep["conics"][0][2] = (rep["conics"][0][2] + 1) % rep["field"]["order"]


def _add_conic(rep):
    rep["conics"].append([1, 0, 0, 0, 0, 1])
    rep["count"] += 1


def _set(key, value):
    return lambda rep: rep.update({key: value})


CORRUPTIONS = {
    "cone-n25": {
        "remove a residual point": _drop_residual_point,
        "move a residual point off the cones": _swap_residual_point,
        "drop an admissible k": _drop_k,
        "exceptional line meets the surface": _set("exceptional_lines_miss_surface", False),
        "flip ok": _set("ok", False),
    },
    "enum-q5": {
        "drop a conic": _drop_conic,
        "change a conic": _change_conic,
        "add a conic": _add_conic,
        "change the cardinality": lambda r: r.update(cardinality=r["cardinality"] + 1),
    },
}


def main():
    sys.path.insert(0, str(run.SRC))
    bad = 0
    for name, wl in run.WORKLOADS.items():
        modulus = random.Random(1).choice(run.irreducible_moduli(wl.p, wl.h))
        cli, _, _ = run.set_up(wl, modulus)
        for argv, check in wl.ops(modulus)[:2]:  # each distinct command once
            status, stdout = run.call(cli, argv)
            report = json.loads(stdout)
            problems = check(report, status)
            print(f"{name} {' '.join(argv)}: real report {'rejected' if problems else 'passes'}")
            bad += bool(problems)
            for what, corrupt in CORRUPTIONS[name].items():
                copied = copy.deepcopy(report)
                try:
                    corrupt(copied)
                except (IndexError, KeyError):
                    continue  # nothing to corrupt in this report, e.g. no conics
                caught = check(copied, status)
                print(f"  {what}: {'rejected' if caught else 'ACCEPTED'}{': ' + caught[0] if caught else ''}")
                bad += not caught
            caught = check(report, 1)
            print(f"  exit status 1: {'rejected' if caught else 'ACCEPTED'}")
            bad += not caught
    print("all checks bite" if not bad else f"{bad} check(s) did not behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

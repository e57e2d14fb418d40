"""Compare a parent's benchmark runs with a change's.

    python3 benchmarks/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records appended by ``run.py --record``; only untraced
runs count.  For each workload and each end-to-end metric in
``BENCHMARK.json`` it prints both sides' median and quartiles (one value per
run), the pairs the change won (runs paired by seed and size, in order; ties
count for neither side) and a verdict:

* ``improved``: the change wins at least nine tenths of at least ten pairs,
  and its median beats the parent's by more than the parent's quartile
  distance;
* ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound, or the change failed more operations;
* ``unresolved``: the parent's quartile distance is wider than the bound and
  not every change run beats every parent run;
* ``unchanged``: otherwise.

Exits 1 when any verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """workload -> list of untraced run records, in file order."""
    runs = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs[rec["workload"]].append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent: list, change: list) -> list[tuple]:
    by_key = defaultdict(list)
    for rec in change:
        by_key[(rec["seed"], rec["size"])].append(rec)
    out = []
    for rec in parent:
        match = by_key[(rec["seed"], rec["size"])]
        if match:
            out.append((rec, match.pop(0)))
    return out


def verdict(metric: dict, par: list[float], chg: list[float], won: int,
            paired: int, extra_failures: bool) -> str:
    sign = 1 if metric["better"] == "lower" else -1
    p1, pm, p3 = quartiles(par)
    _, cm, _ = quartiles(chg)
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    if extra_failures or worse > metric["bound"]:
        return "regressed"
    if paired >= 10 and won >= 0.9 * paired and -sign * (cm - pm) > p3 - p1:
        return "improved"
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) < 0 for c in chg for p in par)
    if spread > metric["bound"] and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent_path: str, change_path: str) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(parent_path), load(change_path)
    regressed = False
    for wl in [w["name"] for w in bench["workloads"]]:
        par, chg = parent.get(wl, []), change.get(wl, [])
        if not par or not chg:
            print("%s: no runs on %s side" % (wl, "parent" if not par else "change"))
            continue
        failed = [sum(r["result"]["failed"] for r in side) for side in (par, chg)]
        tried = [sum(r["result"]["attempted"] for r in side) for side in (par, chg)]
        matched = pairs(par, chg)
        print("%s: %d parent runs, %d change runs, %d pairs; failed %d/%d vs %d/%d"
              % (wl, len(par), len(chg), len(matched), failed[0], tried[0],
                 failed[1], tried[1]))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sign = 1 if metric["better"] == "lower" else -1
            pv = [r["result"]["metrics"][name]["value"] for r in par]
            cv = [r["result"]["metrics"][name]["value"] for r in chg]
            won = sum(1 for p, c in matched
                      if sign * (c["result"]["metrics"][name]["value"]
                                 - p["result"]["metrics"][name]["value"]) < 0)
            v = verdict(metric, pv, cv, won, len(matched), failed[1] > failed[0])
            regressed |= v == "regressed"
            pq, cq = quartiles(pv), quartiles(cv)
            print("  %-12s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g] %s"
                  "  won %d/%d  %s"
                  % (name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], metric["unit"],
                     won, len(matched), v))
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="run records of the parent commit")
    parser.add_argument("change", help="run records of the change")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compares two sets of motbench run records.

    python3 motbench/compare.py BASE_DIR CHANGE_DIR
    python3 motbench/compare.py --summarize DIR

Each directory holds the records `run.py --save DIR` wrote. For every
workload and metric it prints each side's median, quartiles and run
count, and a verdict:

  better              the change wins at least 9 of 10 seed-matched
                      pairs and the medians differ by more than the
                      base's own interquartile range
  worse beyond bound  the change's median is worse than the base's by
                      more than the metric's bound
  within bound        neither of the above, with both spreads inside
                      the bound
  unresolved          a side's spread (IQR / median) is wider than the
                      bound and not every change run beats every base
                      run

End-to-end metrics take their bound from BENCHMARK.json; the per-strategy
wall split (wall_sot_s, wall_rmot_s, wall_mot_s: the median over passes
of the seconds of a pass's cells under that strategy) uses wall_s's
bound. Per-layer metrics of traced runs have
no bound and are printed without a verdict. Exits 1 when any bounded
metric is worse beyond its bound or unresolved.

--summarize prints one result set as JSON (median, quartiles and n per
workload and metric, the per-layer values of its traced runs, and the
defaults and cleared MOTSIM_* variables the runs recorded): the shape
of the baseline in motbench/BASELINE.json.
"""

import glob
import json
import os
import statistics
import sys

STRATEGIES = ("sot", "rmot", "mot")


def load(directory):
    """{(workload, trace): {seed: record}} of one result set."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def metric_values(rec):
    """Metric values of one record, plus the per-strategy wall split."""
    values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
    if rec["trace"] == 0:
        for s in STRATEGIES:
            # Cell names end in "/seed<input seed>": one input per pass.
            per_pass = {}
            for c in rec["raw"]["cells"]:
                if c["strategy"] == s and c["seconds"]:
                    key = c["name"].rsplit("/seed", 1)[-1]
                    per_pass[key] = per_pass.get(key, 0.0) + sum(c["seconds"])
            if per_pass:
                values[f"wall_{s}_s"] = statistics.median(per_pass.values())
    return values


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def better_than(x, y, direction):
    return x < y if direction == "lower" else x > y


def verdict(base, change, direction, bound, pairs):
    """The verdict of one metric; `pairs` are (base, change) per seed."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(better_than(c, b, direction)
                     for c in change for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    wins = sum(better_than(c, b, direction) for b, c in pairs)
    if (pairs and wins >= 0.9 * len(pairs) and better_than(cm, bm, direction)
            and abs(cm - bm) > (b3 - b1)):
        return "better"
    worse = cm - bm if direction == "lower" else bm - cm
    if worse > bound * abs(bm):
        return "worse beyond bound"
    return "within bound"


def fmt(v):
    q1, m, q3 = quartiles(v)
    return f"{m:12.6g} [{q1:.6g}, {q3:.6g}] n={len(v)}"


def summarize(directory):
    runs = load(directory)
    out = {"end_to_end": {}, "per_layer": {}, "defaults": {},
           "env_cleared": []}
    for (workload, trace), recs in sorted(runs.items()):
        values = {}
        for rec in recs.values():
            for name, v in metric_values(rec).items():
                values.setdefault(name, []).append(v)
            out["defaults"] = rec["raw"]["defaults"]
            out["env_cleared"] = sorted(set(out["env_cleared"]) |
                                        set(rec["raw"]["env_cleared"]))
        rows = {}
        for name, v in values.items():
            q1, m, q3 = quartiles(v)
            rows[name] = ({"median": m, "q1": q1, "q3": q3, "n": len(v)}
                          if trace == 0 else m)
        out["end_to_end" if trace == 0 else "per_layer"][workload] = rows
    return out


def main(argv):
    if len(argv) == 3 and argv[1] == "--summarize":
        print(json.dumps(summarize(argv[2]), indent=1, sort_keys=True))
        return 0
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        spec = json.load(f)
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for s in STRATEGIES:
        meta[f"wall_{s}_s"] = dict(meta["wall_s"], name=f"wall_{s}_s")
    base, change = load(argv[1]), load(argv[2])
    bad = 0
    print(f"{'workload':<11} {'metric':<30} {'base median [q1, q3]':>40} "
          f"{'change median [q1, q3]':>40}  verdict")
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        a, b = base[key], change[key]
        names = sorted({n for r in list(a.values()) + list(b.values())
                        for n in metric_values(r)},
                       key=lambda n: (n not in meta, list(meta).index(n)
                                      if n in meta else 0, n))
        for name in names:
            va = {s: metric_values(r).get(name) for s, r in a.items()}
            vb = {s: metric_values(r).get(name) for s, r in b.items()}
            va = {s: v for s, v in va.items() if v is not None}
            vb = {s: v for s, v in vb.items() if v is not None}
            if not va or not vb:
                continue
            m = meta.get(name, {"better": "lower"})
            if "bound" in m:
                pairs = [(va[s], vb[s]) for s in sorted(set(va) & set(vb))]
                v = verdict(list(va.values()), list(vb.values()),
                            m["better"], m["bound"], pairs)
                bad += v in ("worse beyond bound", "unresolved")
            else:
                v = "-"
            print(f"{workload:<11} {name:<30} {fmt(list(va.values())):>40} "
                  f"{fmt(list(vb.values())):>40}  {v}")
    missing = set(base) ^ set(change)
    for workload, trace in sorted(missing):
        print(f"{workload:<11} (trace {trace}) only in one result set")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

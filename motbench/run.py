#!/usr/bin/env python3
"""motbench: the motsim benchmark.

Builds the workload runner (motbench/CMakeLists.txt, which compiles the
repository's src/ tree) on first use, runs one workload for a fixed time
budget, checks every answer and prints the result as the last line of
standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics of a traced run.

    python3 motbench/run.py --workload x01 --seed 1 --seconds 20 --trace 0

Run it from the repository root. Extra flags: --size smoke (few vectors,
one pass; used by the tests), --save DIR (keep the full record for
compare.py), --goldens FILE_DIR (answer goldens to check against) and
--write-goldens (record this run's answers as the goldens of its
workload, size and seed).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("x01", "strategies", "mot_large", "serve")
# Runner wall-clock limit; the whole command must end within 180 s.
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(f"motbench: {msg}", file=sys.stderr, flush=True)


def nearest_rank(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of every held sample."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = math.ceil(Fraction(str(q)) * len(ordered))
    return ordered[max(1, min(len(ordered), rank)) - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def load_spec():
    """BENCHMARK.json sits next to this directory, at the checkout root."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build_runner():
    """Configures (once) and builds the runner; returns its path."""
    build_dir = os.path.join(build_root(), "motbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "motbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(build_dir, "motbench")


def golden_path(goldens_dir, size, seed):
    return os.path.join(goldens_dir, f"{size}-seed{seed}.json")


GOLDEN_FIELDS = ("x01", "final", "x_redundant", "detected_3v",
                 "detected_symbolic", "used_fallback")


def golden_line(digest):
    """One cell's digest as a golden-file line."""
    return " ".join(str(int(v) if isinstance(v, bool) else v)
                    for v in (digest[k] for k in GOLDEN_FIELDS))


def parse_golden(line):
    fields = dict(zip(GOLDEN_FIELDS, line.split()))
    for k in ("x_redundant", "detected_3v", "detected_symbolic"):
        fields[k] = int(fields[k])
    fields["used_fallback"] = fields["used_fallback"] == "1"
    return fields


def check_goldens(raw, goldens_dir):
    """Compares every cell's answer digest with its committed golden.

    The ID_X-red count and the X01-stage verdicts must match exactly. The
    final verdicts must match only where neither the golden nor this run
    used a fallback window: elsewhere the symbolic result is the paper's
    lower bound and is reported through `detected`, not gated (that every
    X01-detected fault stays detected is part of the X01 digest). Cells
    without a golden are not checked. Returns (failed runs, problems,
    cells checked).
    """
    path = golden_path(goldens_dir, raw["size"], raw["seed"])
    if not os.path.exists(path):
        return 0, [], 0
    with open(path) as f:
        golden = json.load(f).get(raw["workload"], {})
    failed, problems, checked = 0, [], 0
    for cell in raw["cells"]:
        if cell["name"] not in golden:
            continue
        checked += 1
        want = parse_golden(golden[cell["name"]])
        got = cell.get("digest")
        if got is None:
            continue  # already failed in the runner
        bad = [k for k in ("x01", "x_redundant", "detected_3v")
               if got[k] != want[k]]
        if not want["used_fallback"] and not got["used_fallback"]:
            bad += [k for k in ("final", "detected_symbolic")
                    if got[k] != want[k]]
        if bad:
            failed += max(cell["runs"] - cell["errors"], 0)
            problems.append(
                f"{cell['name']}: golden mismatch ({', '.join(bad)})")
    return failed, problems, checked


def write_goldens(raw, goldens_dir):
    path = golden_path(goldens_dir, raw["size"], raw["seed"])
    data = {}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    data[raw["workload"]] = {c["name"]: golden_line(c["digest"])
                             for c in raw["cells"]}
    os.makedirs(goldens_dir, exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f, indent=0, sort_keys=True)
        f.write("\n")
    log(f"wrote {path}")


def latency_samples(raw):
    """The samples the latency quantiles are taken over.

    serve: every request's client latency. Pipeline workloads: each
    cell's mean seconds over the run's passes (cell names end in
    "/seed<input seed>"). A cell's time swings by up to 2x from one input
    sequence to the next, so quantiles over single runs jump between
    circuits whose times overlap; over per-cell means they name a
    typical cell of the mix.
    """
    if raw["workload"] == "serve":
        return raw["latency_s"]
    per_cell = {}
    for c in raw["cells"]:
        per_cell.setdefault(c["name"].rsplit("/seed", 1)[0], []).extend(
            c["seconds"])
    return [sum(v) / len(v) for v in per_cell.values() if v]


def end_to_end(raw, attempted, failed):
    """The end-to-end metrics of an untraced run, from its raw samples."""
    lat = latency_samples(raw)
    p50, p90 = nearest_rank(lat, 0.5), nearest_rank(lat, 0.9)
    if not p50 <= p90 <= max(lat):
        raise AssertionError(f"latency quantiles out of order: {p50} {p90} {max(lat)}")
    return {
        "wall_s": median(raw["pass_s"]),
        "setup_s": median(raw["setup_s"]),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "detected": raw["detected"],
        "pass_rate": (attempted - failed) / attempted,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--goldens", default=os.path.join(BENCH_DIR, "goldens"))
    ap.add_argument("--write-goldens", action="store_true")
    ap.add_argument("--save", help="directory for the full run record")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = load_spec()
    try:
        runner = build_runner()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(build_root(), f"work-{os.getpid()}")
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUNNER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("runner timed out")
        return 1
    finally:
        spans = os.path.join(work, f"spans-{args.workload}.json")
        if os.path.exists(spans):
            traces = os.path.join(build_root(), "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json"))
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log(f"runner exited with {proc.returncode}")
        return 1
    raw = json.loads(proc.stdout)

    if args.write_goldens:
        if raw["problems"]:
            log("refusing to write goldens from a run with failed checks")
            return 1
        write_goldens(raw, args.goldens)

    attempted = sum(c["runs"] for c in raw["cells"])
    failed = sum(min(c["errors"], c["runs"]) for c in raw["cells"])
    golden_failed, golden_problems, golden_checked = check_goldens(
        raw, args.goldens)
    failed = min(attempted, failed + golden_failed)
    problems = raw["problems"] + golden_problems
    for p in problems:
        log(f"check failed: {p}")

    if args.trace == 0:
        values = end_to_end(raw, attempted, failed)
        wanted = spec["end_to_end"]
    else:
        values = dict(raw["layers"], **{
            "process.peak_rss_mb": median(raw["rss_mb"])})
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    if args.save:
        os.makedirs(args.save, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "size": args.size,
                  "golden_checked": golden_checked, "result": result,
                  "latency_n": len(latency_samples(raw)),
                  "passes": len(raw["pass_s"]), "raw": raw,
                  "problems": problems}
        name = f"{args.workload}-t{args.trace}-seed{args.seed}.json"
        with open(os.path.join(args.save, name), "w") as f:
            json.dump(record, f)
    log(f"{args.workload} seed {args.seed}: {len(raw['pass_s'])} passes, "
        f"latency n={len(latency_samples(raw))}, {golden_checked} cells "
        f"checked against goldens, "
        f"defaults {raw['defaults']}, MOTSIM_* cleared {raw['env_cleared']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

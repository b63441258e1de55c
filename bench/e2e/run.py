#!/usr/bin/env python3
"""Build and run the e2e_save benchmark, or compare two sets of its results.

Run one workload (builds bench/e2e first, into $CARGO_TARGET_DIR/e2e or
.bench_build/e2e under the repository root):

    python3 bench/e2e/run.py --workload dense_full --seed 1 --seconds 30 \
        --trace 0 [--json results.jsonl]

The last line of standard output is the run's result object. --trace 1
reports the per-layer metrics and leaves Chrome traces and layers.json
under <build dir>/trace/<workload>/.

Compare two result files (JSON lines written by --json) against the bounds
in BENCHMARK.json, one row per (metric, workload):

    python3 bench/e2e/run.py --compare A.jsonl B.jsonl
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"


def build(bdir):
    """Configure once, then build e2e_save incrementally. Build output goes
    to stderr so the result stays the last line of stdout."""
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "e2e_save",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: building e2e_save failed")
    return bdir / "e2e_save"


def run(args):
    bdir = build_dir()
    binary = build(bdir)
    workdir = bdir / "run"  # the ranks' Unix sockets live here
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(bdir / "trace")]
    if args.json:
        cmd += ["--json", str(Path(args.json).resolve())]
    return subprocess.run(cmd, cwd=workdir).returncode


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def load_results(path):
    """{workload: {metric: [values]}} over the untraced runs in `path`."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            metrics = out.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def compare(path_a, path_b):
    """B against A under BENCHMARK.json's bounds. A row is 'unresolved'
    when either side's run-to-run spread exceeds the bound, unless every
    run of B reads better than every run of A."""
    with open(ROOT / "BENCHMARK.json") as f:
        defs = {m["name"]: m for m in json.load(f)["end_to_end"]}
    a, b = load_results(path_a), load_results(path_b)
    print(f"{'metric':<16} {'workload':<16} {'median A':>12} {'median B':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  status")
    regressed = 0
    for workload in sorted(set(a) | set(b)):
        for name, d in defs.items():
            va = a.get(workload, {}).get(name, [])
            vb = b.get(workload, {}).get(name, [])
            if not va or not vb:
                print(f"{name:<16} {workload:<16} missing from one side")
                regressed += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if d["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            s = max(spread(va), spread(vb))
            b_wins = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
            if s > d["bound"] and not b_wins:
                status = "unresolved"
            elif worse > d["bound"]:
                status = "REGRESSED"
                regressed += 1
            else:
                status = "ok"
            print(f"{name:<16} {workload:<16} {ma:>12.6g} {mb:>12.6g} "
                  f"{(mb - ma) / ma:>+8.1%} {s:>7.1%} {d['bound']:>6.0%}  "
                  f"{status}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", help="append the result as a JSON line")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

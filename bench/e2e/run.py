#!/usr/bin/env python3
"""Builds e2gcl_e2e from this checkout, runs workloads, compares result sets.

One run (the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}):
    python3 bench/e2e/run.py --workload serve-lookup --seed 1 --seconds 12 --trace 0

A result set (every workload, seeds 1..5), then a comparison of two sets
under the bounds in BENCHMARK.json:
    python3 bench/e2e/run.py --workload all --runs 5 --out A.json
    python3 bench/e2e/run.py --compare A.json B.json

The toy-size smoke run of every workload (the e2e_smoke ctest):
    python3 bench/e2e/run.py --smoke --binary PATH/e2gcl_e2e

Each workload runs in its own process. Builds, scratch files and
per-run JSON go under .bench_build/ at the checkout root; result sets go
only where --out says.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds e2gcl_e2e; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no library sources under {ROOT}/src; "
                 "run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2gcl_e2e",
                  "-j", str(os.cpu_count() or 1)])
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"run.py: build failed (log: {log_path})")
    return BUILD / "e2gcl_e2e"


def git_info():
    def git(*args):
        try:
            p = subprocess.run(["git", "-C", str(ROOT)] + list(args),
                               capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(git("status", "--porcelain"))}


def run_one(binary, scratch, workload, seed, seconds, trace, expected,
            toy=False):
    """Runs one workload in its own process; returns its result dict with
    "correct" set, or exits when the run could not produce one."""
    out = scratch / "results" / f"{workload}-{seed}-{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir",
           str(scratch / "work" / workload), "--out", str(out)]
    cmd += ["--trace"] if trace else []
    cmd += ["--toy"] if toy else []
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
    if code != 0 or not out.is_file():
        sys.exit(f"run.py: {workload} exited with {code}")
    with open(out) as f:
        result = json.load(f)

    names = [m["name"] for m in expected]
    missing = [n for n in names if n not in result["metrics"]]
    extra = [n for n in result["metrics"] if n not in names]
    wrong_unit = [m["name"] for m in expected if m["name"] in result["metrics"]
                  and result["metrics"][m["name"]]["unit"] != m["unit"]]
    if missing or extra or wrong_unit:
        sys.exit(f"run.py: {workload} metrics disagree with BENCHMARK.json: "
                 f"missing {missing}, extra {extra}, wrong unit {wrong_unit}")
    result["correct"] = result["failed"] == 0 and result["attempted"] >= 1
    return result


def summary_line(result, expected):
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in expected},
    })


def run_set(args, bench):
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == ["all"] else args.workload
    unknown = [w for w in workloads if w not in names]
    if unknown:
        sys.exit(f"run.py: unknown workload(s) {unknown}; known: {names}")
    seconds = args.seconds or bench["run_seconds"]
    trace = args.trace == 1
    expected = bench["per_layer" if trace else "end_to_end"]
    binary = build()
    host = None
    runs = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in workloads:
            result = run_one(binary, BUILD, workload, seed, seconds, trace,
                             expected)
            if host is None:
                host = dict(result["host"], **git_info())
            result["host"] = host
            runs.append(result)
            print(summary_line(result, expected), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"host": host, "runs": runs}, f, indent=1)
            f.write("\n")
    return 0


def smoke(binary):
    """Every workload at toy size, traced and not: each metric that
    BENCHMARK.json names is printed and no operation fails."""
    bench = load_benchmark()
    scratch = Path(binary).resolve().parent / "smoke"
    failures = []
    for w in bench["workloads"]:
        for trace in (False, True):
            expected = bench["per_layer" if trace else "end_to_end"]
            r = run_one(binary, scratch, w["name"], 1, 0.3, trace, expected,
                        toy=True)
            if not r["correct"]:
                failures.append(f"{w['name']} trace={int(trace)}: "
                                f"{r['failed']} failed {r['failures']}")
    shutil.rmtree(scratch, ignore_errors=True)
    for f in failures:
        print("SMOKE FAILURE:", f)
    print("e2e smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def set_values(path):
    """{(workload, metric): [value per run]} of a set's end-to-end runs."""
    with open(path) as f:
        doc = json.load(f)
    values = {}
    for r in doc["runs"]:
        if r["trace"]:
            continue
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return doc.get("host", {}), values


def relative_spread(values):
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(path_a, path_b):
    """One row per (workload, end-to-end metric): B's median against A's,
    under the metric's bound. A row is unresolved when either set's
    quartile spread is wider than the bound, unless every B run beats
    every A run."""
    bench = load_benchmark()
    metrics = bench["end_to_end"]
    host_a, a = set_values(path_a)
    host_b, b = set_values(path_b)
    for label, host in (("A", host_a), ("B", host_b)):
        print(f"{label}: {host.get('git_sha', '?')[:12]} "
              f"dirty={host.get('git_dirty')} nproc={host.get('nproc')} "
              f"simd={host.get('simd_backend')} {host.get('cpu_model', '?')}")
    print(f"{'workload':<14} {'metric':<12} {'A median':>14} {'B median':>14} "
          f"{'worse':>8} {'spread':>7} {'bound':>6} {'runs':>5}  status")
    regressed = 0
    for w in bench["workloads"]:
        for m in metrics:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                continue
            va, vb = a[key], b[key]
            ma, mb = statistics.median(va), statistics.median(vb)
            lower = m["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            spreads = [s for s in (relative_spread(va), relative_spread(vb))
                       if s is not None]
            spread = max(spreads) if spreads else None
            if spread is not None and spread > m["bound"]:
                beats = all((y < x) if lower else (y > x)
                            for x in va for y in vb)
                status = "better" if beats else "unresolved"
            elif worse > m["bound"]:
                status = "REGRESSED"
                regressed += 1
            else:
                status = "ok"
            spread_s = "n/a" if spread is None else f"{100 * spread:.1f}%"
            print(f"{w['name']:<14} {m['name']:<12} {ma:>14.6g} {mb:>14.6g} "
                  f"{100 * worse:>7.1f}% {spread_s:>7} "
                  f"{100 * m['bound']:>5.0f}% {len(va):>2}/{len(vb):<2}  "
                  f"{status}")
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload name, or 'all' (repeatable)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measured seconds per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics instead of end-to-end ones")
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload, at seeds seed..seed+runs-1")
    p.add_argument("--out", help="write the result set here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--binary", help="prebuilt e2gcl_e2e (for --smoke)")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke(args.binary or build())
    if not args.workload or args.runs < 1:
        p.error("--workload is required (and --runs must be >= 1)")
    return run_set(args, load_benchmark())


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the BM_* benchmark binaries and records a medians snapshot.

Each run appends one snapshot object to BENCH_trajectory.json (a JSON
array), so successive CI runs grow a perf trajectory that can be diffed
across commits:

    {
      "git": "<short rev or 'unknown'>",
      "timestamp": "<UTC ISO-8601>",
      "host": {"nproc": N, "cpu_model": "...", "compiler": "...",
               "build_type": "..."},
      "benchmarks": { "<name>": {"real_time_ns": <median>, "runs": N}, ... }
    }

The host names the machine and the build the medians came from (the
compiler and build type are read from the build directory's CMake files);
medians from different hosts are not comparable.

Usage:
    tools/bench_report.py --build-dir build [--out BENCH_trajectory.json]
        [--filter REGEX] [--repetitions N] [--bench NAME ...]
        [--compare] [--compare-threshold 0.25] [--compare-filter REGEX]

By default every bench_* executable found in the build directory runs with
--benchmark_repetitions=N (default 3) and the per-benchmark median of
real_time is kept. Only the standard library is used; the script exits
nonzero if any benchmark binary fails.

--compare diffs the new snapshot against the latest trajectory entry from
the same host (the latest entry of all when none matches, with a note)
and warns (never fails: shared CI runners are noisy) about key
benchmarks whose median regressed by more than the threshold (by
default the service benches and the strong-model decider benches). Under
GITHUB_ACTIONS the warnings use the ::warning annotation format so they
surface on the workflow run page.
"""

import argparse
import datetime
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys

# The key benchmarks --compare watches: the service front door and the
# strong-model deciders, whose CC-check hot path dominates their medians.
DEFAULT_COMPARE_FILTER = (
    "^BM_(Service_|RcdpStrong_|Fig1_|RcdpStrongTractable_)")


def find_benches(build_dir, names):
    if names:
        paths = [os.path.join(build_dir, n) for n in names]
        missing = [p for p in paths if not os.path.isfile(p)]
        if missing:
            sys.exit("bench_report: missing benchmark binaries: %s"
                     % ", ".join(missing))
        return paths
    found = sorted(
        os.path.join(build_dir, f)
        for f in os.listdir(build_dir)
        if f.startswith("bench_") and
        os.access(os.path.join(build_dir, f), os.X_OK) and
        os.path.isfile(os.path.join(build_dir, f)))
    if not found:
        sys.exit("bench_report: no bench_* executables in %r" % build_dir)
    return found


def run_bench(path, bench_filter, repetitions):
    cmd = [
        path,
        "--benchmark_format=json",
        "--benchmark_repetitions=%d" % repetitions,
        "--benchmark_report_aggregates_only=false",
    ]
    if bench_filter:
        cmd.append("--benchmark_filter=%s" % bench_filter)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        sys.exit("bench_report: %s exited with %d" % (path, proc.returncode))
    return json.loads(proc.stdout.decode("utf-8"))


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             check=False)
        rev = out.stdout.decode("utf-8").strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except OSError:
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def cmake_value(pattern, paths):
    """The first capture of `pattern` in any of `paths`, or None."""
    for path in paths:
        try:
            with open(path) as f:
                match = re.search(pattern, f.read(), re.MULTILINE)
        except OSError:
            continue
        if match:
            return match.group(1)
    return None


def host_info(build_dir):
    """The machine and the build the benchmarks ran on."""
    compiler_files = glob.glob(
        os.path.join(build_dir, "CMakeFiles", "*", "CMakeCXXCompiler.cmake"))
    compiler_id = cmake_value(r'^set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)',
                              compiler_files)
    version = cmake_value(r'^set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)',
                          compiler_files)
    cache = [os.path.join(build_dir, "CMakeCache.txt")]
    build_type = cmake_value(r"^CMAKE_BUILD_TYPE:STRING=(.*)$", cache)
    return {
        "nproc": os.cpu_count() or 0,
        "cpu_model": cpu_model(),
        "compiler": " ".join(p for p in (compiler_id, version) if p)
                    or "unknown",
        "build_type": build_type or "unknown",
    }


def baseline_for(trajectory, host):
    """The latest entry recorded on `host`, else the latest entry."""
    for entry in reversed(trajectory):
        if entry.get("host") == host:
            return entry, True
    return trajectory[-1], False


def compare_snapshots(previous, current, threshold, name_filter):
    """Prints per-benchmark regressions beyond `threshold`; returns count."""
    pattern = re.compile(name_filter)
    github = os.environ.get("GITHUB_ACTIONS") == "true"
    regressions = 0
    prev_benches = previous.get("benchmarks", {})
    for name, row in sorted(current.get("benchmarks", {}).items()):
        if not pattern.search(name):
            continue
        base = prev_benches.get(name)
        if base is None or base.get("real_time_ns", 0) <= 0:
            continue
        ratio = row["real_time_ns"] / base["real_time_ns"]
        if ratio > 1.0 + threshold:
            regressions += 1
            message = (
                "%s regressed %.0f%% vs snapshot %s: "
                "%.0f ns -> %.0f ns median"
                % (name, (ratio - 1.0) * 100.0, previous.get("git", "?"),
                   base["real_time_ns"], row["real_time_ns"]))
            if github:
                print("::warning title=bench regression::%s" % message)
            else:
                print("bench_report: WARNING: %s" % message)
    matched = sum(1 for n in current.get("benchmarks", {}) if pattern.search(n))
    print("bench_report: compare vs %s: %d key benchmark(s) checked, "
          "%d regression(s) beyond %.0f%%"
          % (previous.get("git", "?"), matched, regressions, threshold * 100))
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_trajectory.json")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex passed to every binary")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--bench", action="append", default=[],
                        help="benchmark binary name (repeatable; default: "
                             "every bench_* in the build dir)")
    parser.add_argument("--compare", action="store_true",
                        help="warn when a key benchmark's median regressed "
                             "vs the latest trajectory entry from this host")
    parser.add_argument("--compare-threshold", type=float, default=0.25,
                        help="relative regression that triggers a warning "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--compare-filter", default=DEFAULT_COMPARE_FILTER,
                        help="regex selecting the key benchmarks to compare "
                             "(default %s)" % DEFAULT_COMPARE_FILTER)
    args = parser.parse_args()

    # Median over repetitions, keyed by benchmark name with the
    # "/repeats:N" suffix stripped (aggregate rows are skipped — we compute
    # our own median so --repetitions=1 still works).
    samples = {}
    for path in find_benches(args.build_dir, args.bench):
        print("bench_report: running %s" % path, flush=True)
        report = run_bench(path, args.filter, args.repetitions)
        for row in report.get("benchmarks", []):
            if row.get("run_type") == "aggregate":
                continue
            name = row["name"].split("/repeats:")[0]
            samples.setdefault(name, []).append(float(row["real_time"]))

    snapshot = {
        "git": git_rev(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": host_info(args.build_dir),
        "benchmarks": {
            name: {"real_time_ns": statistics.median(times),
                   "runs": len(times)}
            for name, times in sorted(samples.items())
        },
    }

    trajectory = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            trajectory = json.load(f)
        if not isinstance(trajectory, list):
            sys.exit("bench_report: %r is not a JSON array" % args.out)
    if args.compare:
        if trajectory:
            baseline, same_host = baseline_for(trajectory, snapshot["host"])
            if not same_host:
                print("bench_report: no snapshot from this host; comparing "
                      "with the latest entry (%s), whose medians may not be "
                      "comparable" % baseline.get("git", "?"))
            compare_snapshots(baseline, snapshot,
                              args.compare_threshold, args.compare_filter)
        else:
            print("bench_report: compare skipped (no previous snapshot)")
    trajectory.append(snapshot)
    with open(args.out, "w") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    print("bench_report: %d benchmark(s) -> %s (snapshot #%d)"
          % (len(snapshot["benchmarks"]), args.out, len(trajectory)))


if __name__ == "__main__":
    main()

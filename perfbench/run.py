#!/usr/bin/env python3
"""relcomp benchmark: builds the driver, runs workloads, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, default seed

Run from the root of the source tree. The driver and the relcomp library
are built from source in Release under $CARGO_TARGET_DIR (default
.bench_build). Each run prints its metrics by name with their units, then,
as its last line, one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of BENCHMARK.json with --trace 1. Every result, with the host and build it
ran on, is also written under <build dir>/perfbench-results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import layers  # noqa: E402

WORKLOADS = ["strong-audit", "hot-repeat", "tenant-churn"]
DEFAULT_SEED = 1
# Claims must also hold on this seed, which no change may be tuned on.
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 20
# (name, unit) of the end-to-end metrics, as the driver measures them.
END_TO_END = [
    ("decisions_per_s", "decisions/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
P99 = ("latency_p99_ms", "ms")  # printed only with >= 10 calls beyond it
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures and builds the driver; returns its path."""
    out = os.path.join(build_dir(), "perfbench-release")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build failed: %s" % e)
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (%s); see %s" % (" ".join(cmd), log_path))
    return os.path.join(out, "perfbench_driver")


def source_identity():
    """Git revision when there is one, and a digest of the built sources."""
    rev = "unknown"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            rev = r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return {"git_revision": rev, "source_sha256": h.hexdigest()}


def run_one(driver, workload, seed, seconds, trace):
    results = os.path.join(build_dir(), "perfbench-results")
    work = os.path.join(build_dir(), "perfbench-work")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d" % (workload, seed))
    out = stem + ("-traced" if trace else "") + ".json"
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out, "--work", work]
    spans = stem + "-spans.json"
    if trace:
        cmd += ["--trace", "--spans", spans]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    if code != 0:
        fail("driver exited with %d on %s" % (code, workload))
    with open(out) as f:
        r = json.load(f)
    r["build"] = source_identity()
    with open(out, "w") as f:
        json.dump(r, f, indent=1)

    print("%s seed %d: %d calls, %d decisions checked, %d failed; "
          "threads=%d (1 generator + %d workers)" % (
              workload, seed, r["calls"], r["checked"], r["failed"],
              r["threads"], r["workers"]))
    h = r["host"]
    print("  host: nproc=%d cpu=%s compiler=%s build=%s lock_rank_checks=%s "
          "git=%s source=%s" % (
              h["nproc"], h["cpu_model"], h["compiler"], h["build_type"],
              h["lock_rank_checks"], r["build"]["git_revision"][:12],
              r["build"]["source_sha256"][:12]))
    failed = r["failed"] + r.get("traced_failed", 0)
    correct = (failed == 0 and r["threads"] <= h["nproc"]
               and h["build_type"] == "Release")
    if not trace:
        shown = list(END_TO_END)
        if r["latency_samples"] >= 1000:
            shown.insert(3, P99)
        for name, unit in shown:
            print("  %-16s %14.6g %s" % (name, r[name], unit))
        print("  (latency over %d calls; setup_s is the median of %d set-ups)" % (
            r["latency_samples"], len(r["setup_samples_s"])))
        metrics = {name: {"value": r[name], "unit": unit} for name, unit in END_TO_END}
    else:
        with open(spans) as f:
            doc = json.load(f)
        print(layers.report(doc))
        values, _ = layers.analyze(doc)
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            exported = [m["name"] for m in json.load(f)["per_layer"]]
        units = dict(layers.METRICS)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in exported}
    attempted = r["checked"] + r.get("traced_checked", 0)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    a = p.parse_args()
    driver = build()
    names = WORKLOADS if a.workload == "all" else [a.workload]
    for name in names:
        print(json.dumps(run_one(driver, name, a.seed, a.seconds, a.trace == 1)))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Layer report: per-layer metrics and self-time shares from a traced run.

    python3 perfbench/layers.py SPAN_FILE [SPAN_FILE ...]

A span file is what `run.py --trace 1` leaves under
<build dir>/perfbench-results/. It holds the benchmark's own spans (set-up
calls, every call of the traced phase, and the replays of the first calls'
distinct requests through each layer's public functions), the service's
phase traces, and the counters of the traced phase. The service traces are
nested under the benchmark's call span of the same request: by trace id for
single-request calls, by submission time for batch calls. A span's self
time is its duration minus the part of it that its children cover.
"""

import bisect
import json
import statistics
import sys

# Phase spans of a service trace, by layer.
PHASE_LAYER = {
    "admit": "service",
    "coalesce-join": "service",
    "shed": "service",
    "queue": "sched",
    "cache-lookup": "cache",
    "cache-store": "cache",
    "evaluate": "core",
}
LAYERS = ["service", "sched", "cache", "core"]

# (name, unit) of every per-layer metric, in report order. The ones the
# benchmark exports are listed in BENCHMARK.json; the rest are report-only
# because some workload has no such work (no queue waits or cache stores on
# hot-repeat, for instance).
METRICS = [
    ("core.evaluate_ms", "ms"),
    ("core.loop.mod-enum_ms", "ms"),
    ("core.loop.mod-enum_steps", "count"),
    ("core.loop.ground_ms", "ms"),
    ("core.loop.ground_steps", "count"),
    ("core.worlds", "count"),
    ("core.valuations", "count"),
    ("core.extensions", "count"),
    ("core.cc_checks", "count"),
    ("core.query_evals", "count"),
    ("core.satisfies_ccs_us", "us"),
    ("query.eval_us", "us"),
    ("core.adom_build_us", "us"),
    ("core.prepare_ms", "ms"),
    ("service.register_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("service.fingerprint_us", "us"),
    ("service.call_overhead_us", "us"),
    ("service.admit_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.store_us", "us"),
    ("sched.queue_p50_us", "us"),
    ("sched.queue_p90_us", "us"),
    ("sched.wait_mean_us", "us"),
    ("sched.waited_per_1k", "count"),
    ("service.hit_ratio", "ratio"),
    ("service.coalesced_per_1k", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.stores_per_1k", "count"),
    ("cache.evictions_per_1k", "count"),
    ("cache.admission_rejects_per_1k", "count"),
    ("cache.resident_mb", "MB"),
    ("obs.trace_overhead_pct", "%"),
]
STAT_FIELDS = ["worlds", "valuations", "extensions", "cc_checks", "query_evals"]


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def quantile(values, q):
    """Linear interpolation between closest ranks, like the driver's."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def covered(intervals):
    """Total length of the union of [start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def service_traces(doc):
    """trace id -> {"start", "end", "phases": [(name, ts, dur)],
    "loops": [(tag, dur)]} from the service's trace_event dump."""
    traces = {}
    evaluating = None
    for ev in doc["service_traces"]["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        if ev["pid"] == 1:
            t = traces.setdefault(ev["tid"], {"phases": [], "loops": []})
            t["phases"].append((ev["name"], ev["ts"], ev["dur"]))
        elif ev["name"].startswith("evaluate req#"):
            evaluating = traces.get(ev["args"]["trace_id"])
        elif evaluating is not None:
            # Profile slices follow their evaluate span; "other" is
            # evaluation time outside every instrumented loop.
            evaluating["loops"].append((ev["name"], ev["dur"]))
    for t in traces.values():
        t["start"] = min(ts for _, ts, _ in t["phases"])
        t["end"] = max(ts + dur for _, ts, dur in t["phases"])
    return traces


def attach(calls, traces):
    """call span id -> list of its service traces."""
    by_call = {c["id"]: [] for c in calls}
    by_trace_id = {c["trace_id"]: c["id"] for c in calls if c["trace_id"]}
    batch_calls = sorted((c for c in calls if not c["trace_id"]),
                         key=lambda c: c["start_us"])
    starts = [c["start_us"] for c in batch_calls]
    for tid, t in traces.items():
        if tid in by_trace_id:
            by_call[by_trace_id[tid]].append(t)
            continue
        # Trace timestamps are whole microseconds, truncated.
        i = bisect.bisect_right(starts, t["start"] + 1) - 1
        if i >= 0 and t["start"] <= batch_calls[i]["end_us"]:
            by_call[batch_calls[i]["id"]].append(t)
    return by_call


def analyze(doc):
    """Returns (metrics by name, self-time shares) for one traced run."""
    spans = doc["spans"]
    named = {}
    for s in spans:
        named.setdefault(s["name"], []).append(s)
    dur = lambda s: s["end_us"] - s["start_us"]
    workers = doc["workers"]
    traced = doc["traced"]
    counters = traced["counters"]
    decisions = max(traced["decisions"], 1)
    per_1k = lambda n: 1000.0 * n / decisions

    evals = {s["request"]: s for s in named.get("core.EvaluateRequest", [])}
    eval_us = {r: dur(s) for r, s in evals.items()}
    m = {}
    m["core.evaluate_ms"] = median(list(eval_us.values())) / 1000.0
    for tag in ("mod-enum", "ground"):
        m["core.loop.%s_ms" % tag] = mean(
            [s["loops"].get(tag, {}).get("us", 0) for s in evals.values()]) / 1000.0
        m["core.loop.%s_steps" % tag] = mean(
            [s["loops"].get(tag, {}).get("steps", 0) for s in evals.values()])
    for field in STAT_FIELDS:
        m["core." + field] = mean([s["stats"][field] for s in evals.values()])
    # Cheap replayed calls are timed over `reps` repetitions per span.
    med_us = lambda name: median(
        [dur(s) / s.get("reps", 1) for s in named.get(name, [])])
    m["core.satisfies_ccs_us"] = med_us("core.SatisfiesCCs")
    m["query.eval_us"] = med_us("query.Eval")
    m["core.adom_build_us"] = med_us("core.BuildAdom")
    m["service.fingerprint_us"] = med_us("service.FingerprintRequest")
    m["cache.load_ms"] = med_us("cache.LoadCaches") / 1000.0

    prepare = {}
    for s in named.get("core.Prepare", []):
        prepare.setdefault(s["request"], []).append(dur(s))
    m["core.prepare_ms"] = sum(median(v) for v in prepare.values()) / 1000.0
    registers = {}
    for s in named.get("service.RegisterSetting", []):
        registers[s["parent"]] = registers.get(s["parent"], 0.0) + dur(s)
    m["service.register_ms"] = median(list(registers.values())) / 1000.0

    # Self time by layer over the calls the service traces cover, and the
    # call overhead: the call minus the evaluate spans of its own requests
    # (spread over the pool for batches; the whole call on a hit).
    calls = named.get("call", [])
    traces = service_traces(doc)
    by_call = attach(calls, traces)
    self_us = {layer: 0.0 for layer in LAYERS}
    parts = {}
    phase_durs = {}
    overheads = []
    total = 0.0
    traced_calls = 0

    def charge(layer, key, us):
        nonlocal total
        self_us[layer] += us
        parts[key] = parts.get(key, 0.0) + us
        total += us

    for c in calls:
        ts = by_call[c["id"]]
        if not ts:
            continue
        traced_calls += 1
        charge("service", "call self",
               max(0.0, dur(c) - covered([(t["start"], t["end"]) for t in ts])))
        evaluated = []
        for t in ts:
            loops = sum(d for _, d in t["loops"])
            for name, _, d in t["phases"]:
                phase_durs.setdefault(name, []).append(d)
                if name == "evaluate":
                    evaluated.append(d)
                    charge("core", "evaluate outside loops", max(0.0, d - loops))
                else:
                    charge(PHASE_LAYER.get(name, "service"), name, d)
            for tag, d in t["loops"]:
                # "other" is evaluation time outside every instrumented loop.
                charge("core", "evaluate outside loops" if tag == "other"
                       else "loop " + tag, d)
        width = min(workers, len(evaluated)) if evaluated else 1
        overheads.append(dur(c) - sum(evaluated) / width)
    m["service.call_overhead_us"] = median(overheads)
    m["service.admit_us"] = mean(phase_durs.get("admit", []))
    m["cache.lookup_us"] = mean(phase_durs.get("cache-lookup", []))
    m["cache.store_us"] = mean(phase_durs.get("cache-store", []))
    queue = phase_durs.get("queue", [])
    m["sched.queue_p50_us"] = quantile(queue, 0.5)
    m["sched.queue_p90_us"] = quantile(queue, 0.9)

    waited = counters["waited"]
    m["sched.wait_mean_us"] = counters["wait_micros"] / waited if waited else 0.0
    m["sched.waited_per_1k"] = per_1k(waited)
    requests = max(counters["requests"], 1)
    m["service.hit_ratio"] = counters["cache_hits"] / requests
    m["service.coalesced_per_1k"] = per_1k(counters["coalesced"])
    lookups = counters["cache_lookup_hits"] + counters["cache_lookup_misses"]
    m["cache.hit_ratio"] = counters["cache_lookup_hits"] / lookups if lookups else 0.0
    n_traces = sum(len(v) for v in by_call.values())
    m["cache.stores_per_1k"] = (
        1000.0 * len(phase_durs.get("cache-store", [])) / n_traces if n_traces else 0.0)
    m["cache.evictions_per_1k"] = per_1k(counters["evictions"])
    m["cache.admission_rejects_per_1k"] = per_1k(counters["admission_rejects"])
    m["cache.resident_mb"] = counters["resident_bytes"] / 1e6
    untraced = doc["untraced"]["decisions_per_s"]
    m["obs.trace_overhead_pct"] = (
        100.0 * (untraced - traced["decisions_per_s"]) / untraced if untraced else 0.0)

    shares = {
        "layers": {k: v / total for k, v in self_us.items()} if total else {},
        "parts": {k: v / total for k, v in parts.items()} if total else {},
        "calls": traced_calls,
        "traces": n_traces,
    }
    return m, shares


def report(doc):
    m, shares = analyze(doc)
    t = doc["traced"]
    lines = [
        "layer report: %s seed %s  (traced phase: %d calls, %d decisions; "
        "%.6g decisions/s untraced, %.6g traced)" % (
            doc["workload"], doc["seed"], t["calls"], t["decisions"],
            doc["untraced"]["decisions_per_s"], t["decisions_per_s"]),
        "  timed phase: %d requests, %d cache hits, %d evaluations, %d evictions, "
        "%d admission rejects" % (
            t["counters"]["requests"], t["counters"]["cache_hits"],
            t["counters"]["cache_misses"], t["counters"]["evictions"],
            t["counters"]["admission_rejects"]),
        "  self time by layer, as a share of %s time over the last %d calls "
        "(%d service traces):" % (
            "request" if doc["batch"] else "call", shares["calls"],
            shares["traces"]),
    ]
    for layer in LAYERS:
        lines.append("    %-8s %6.2f%%" % (layer, 100 * shares["layers"].get(layer, 0)))
    lines.append("  by span:")
    for name, share in sorted(shares["parts"].items(), key=lambda kv: -kv[1]):
        lines.append("    %-26s %6.2f%%" % (name, 100 * share))
    ev = m["core.evaluate_ms"] * 1000.0
    if ev > 0:
        lines.append("  operators, replayed (per-call time x calls per decision, "
                     "as a share of the median evaluation; an upper bound):")
        for label, us, count in (
                ("CC check", m["core.satisfies_ccs_us"], m["core.cc_checks"]),
                ("query eval", m["query.eval_us"], m["core.query_evals"])):
            lines.append("    %-10s %9.3f us x %10.1f = %6.1f%%" % (
                label, us, count, 100 * us * count / ev))
    lines.append("  metrics (counts per 1,000 decisions of the traced phase; "
                 "base %d decisions):" % t["decisions"])
    for name, unit in METRICS:
        lines.append("    %-32s %14.6g %s" % (name, m[name], unit))
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        with open(path) as f:
            print(report(json.load(f)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

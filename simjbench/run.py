#!/usr/bin/env python3
"""Benchmark of the simj template build, template answering and join.

One run:
    python3 simjbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the measuring binary from the checkout's sources (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), generates the workload's inputs from
the seed in one process, measures them in a second one, checks the outputs,
and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, and the per-layer table is printed.

Other modes:
    --steady [--runs N] [--workloads a,b] [--first-seed K] [--trace 0|1]
        repeats each workload on seeds K..K+N-1 and prints each metric's
        median, quartiles and spread against its bound.
    --self-test
        checks the percentile and quartile helpers.

See README.md in this directory for the workloads and the layer map.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("qa_offline", "qa_online", "er_verify")
# A run must end within 180 s; the measuring process gets what is left.
RUN_BUDGET_S = 170.0
# The tail is reported at p99, or, when fewer than 1000 samples leave fewer
# than 10 beyond p99, at the highest of these with 10 samples beyond it.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


# ---------------------------------------------------------------- stats --

def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so that 99.9% of 10000 is 9990 and not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_percentile(n):
    """Highest candidate percentile with at least 10 of n samples beyond it,
    or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= 10:
            return p
    return None


def percentile_name(p):
    return "p" + ("%g" % p).replace(".", "_")


def spread(values):
    """(q1, median, q3, (q3 - q1) / median), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, ((q3 - q1) / q2 if q2 else float("inf"))


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- build --

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "simjbench")


def build():
    """Configures and builds the measuring binary (both are no-ops when up to
    date); the build output goes to stderr. Returns the binary's path or
    None on failure."""
    out = build_dir()
    for step in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", out, "--target", "simjbench", "-j", "4"]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(out, "simjbench")
    return binary if os.path.exists(binary) else None


def measure(binary, workload, seed, seconds, trace, deadline):
    """Generates the inputs, runs the measuring process and returns its
    record (a dict), or raises RuntimeError."""
    inputs = os.path.join(build_dir(), "inputs", "%s-%d" % (workload, seed))
    os.makedirs(inputs, exist_ok=True)
    gen = subprocess.run(
        [binary, "gen", "--workload", workload, "--seed", str(seed),
         "--dir", inputs],
        stdout=sys.stderr, stderr=sys.stderr,
        timeout=max(1.0, deadline - time.monotonic()))
    if gen.returncode != 0:
        raise RuntimeError("input generation failed")
    run = subprocess.run(
        [binary, "run", "--workload", workload, "--dir", inputs,
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if run.returncode != 0:
        raise RuntimeError("measuring process exited with %d" % run.returncode)
    return json.loads(run.stdout.strip().splitlines()[-1])


# -------------------------------------------------------------- metrics --

# The time metrics are taken at the 95th percentile over passes (nearest
# rank; a run has at least 20 passes, so it is never the slowest pass):
# pass_p95_s of the pass times, item_p50_p95_ms of each pass's median item
# latency, and setup_s of the median of the set-ups timed before each pass.
# The shared host drifts between speeds up to ~1.9x apart, for seconds to
# minutes at a time, so a median over a run depends on how long the run
# spent at each speed. Nearly every run spends a few of its passes at the
# slower, common speed, which a high percentile over passes reports. Over
# 20 s windows of two 300 s runs the spread of pass time was 34%/20% for the
# median, 11%/15% for p90 and 7%/9% for p95 (README.md, "Steadiness").
#
# The p99 needs all items (>= 1000) to have 10 samples beyond it, so it is
# taken over every timed item, but at the same host speed: each item's
# latency is scaled by item_p50_p95_ms over its pass's median. A pass repeats
# the same items, so the pass medians differ only by host speed. Unscaled, the
# p99 of er_verify is the heaviest item's median over the run's mix of
# speeds, and spread 33% over the same windows; scaled, 10%.
OVER_PASSES = 95


def by_pass(samples, passes):
    """Splits samples taken in `passes` equal groups, one group per pass, into
    one list per pass."""
    size = len(samples) // passes
    return [samples[p * size:(p + 1) * size] for p in range(passes)]


def over_passes(samples, passes):
    """The 95th percentile over passes of each pass's median sample."""
    return percentile([statistics.median(group)
                       for group in by_pass(samples, passes)], OVER_PASSES)


def scaled_to_slow_pass(samples, passes):
    """The samples with each pass's scaled by over_passes(samples, passes)
    over that pass's median."""
    groups = by_pass(samples, passes)
    medians = [statistics.median(group) for group in groups]
    slow = percentile(medians, OVER_PASSES)
    return [x * slow / median
            for group, median in zip(groups, medians) for x in group]


def end_to_end(record):
    """The end-to-end metrics of one untimed run, plus sample counts."""
    items = record["item_ms"]
    passes = len(record["pass_s"])
    metrics = {
        "setup_s": (over_passes(record["setup_s"], passes), "s"),
        "pass_p95_s": (percentile(record["pass_s"], OVER_PASSES), "s"),
        "item_p50_p95_ms": (over_passes(items, passes), "ms"),
    }
    tail = tail_percentile(len(items))
    if tail is not None:
        metrics["item_%s_p95_ms" % percentile_name(tail)] = (
            percentile(scaled_to_slow_pass(items, passes), tail), "ms")
    metrics["peak_rss_mb"] = (record["peak_rss_mb"], "MB")
    counts = {"setup_s": "%d passes of %d set-ups" % (
                  passes, len(record["setup_s"]) // passes),
              "pass_p95_s": "%d passes" % passes,
              "item_p50_p95_ms": "%d passes of %d items" % (
                  passes, len(items) // passes)}
    for name in metrics:
        if name.startswith("item_") and name not in counts:
            counts[name] = "%d items" % len(items)
    return metrics, counts


# Span rows by phase, in the order the per-layer table lists them.
SETUP_LAYERS = ("workload.kb_build", "workload.parse_text",
                "sparql.query_graph", "nlp.parse_question",
                "nlp.uncertain_build", "templates.parse_store",
                "workload.dataset_gen")
ITEM_LAYERS = ("ged.css_pair", "core.partition", "core.verify",
               "templates.generate", "templates.store_add", "nlp.normalize",
               "nlp.parse_question", "nlp.question_tree", "nlp.align",
               "nlp.tree_edit", "nlp.slot_link", "rdf.evaluate")


def per_layer(record):
    """Per-layer metrics and table rows of one traced run."""
    trace = record["trace"]
    counters = trace["counters"]
    passes = trace["passes"]
    setups = max(1, trace["setups"])
    setup_spans = trace["spans"]["setup"]
    item_spans = trace["spans"]["item"]
    # Medians here: the replays they are compared with are medians too.
    pass_s = statistics.median(record["pass_s"])
    setup_s = statistics.median(record["setup_s"])

    def span(phase, name):
        return phase.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def us_per_call(name):
        calls = span(setup_spans, name)["calls"] + span(item_spans, name)["calls"]
        total = (span(setup_spans, name)["total_s"] +
                 span(item_spans, name)["total_s"])
        return ratio(total * 1e6, calls)

    c = lambda key: counters.get(key, 0.0)
    partitioned = c("total_pairs") - c("pruned_structural")
    layer_self = sum(span(item_spans, n)["self_s"] for n in ITEM_LAYERS)
    coverage = ratio(layer_self / passes, pass_s) if passes else 0.0
    is_qa_online = record["workload"] == "qa_online"
    traced = statistics.median(trace["pass_s"]) if trace["pass_s"] else 0.0
    bare = (statistics.median(trace["replay_pass_s"])
            if trace["replay_pass_s"] else 0.0)
    prep = sum(span(item_spans, n)["total_s"]
               for n in ("nlp.normalize", "nlp.parse_question",
                         "nlp.question_tree"))
    verify_total = span(item_spans, "core.verify")["total_s"]

    questions = span(item_spans, "nlp.normalize")["calls"]
    us, ms = "us", "ms"
    metrics = {
        "workload.kb_build_ms": (us_per_call("workload.kb_build") / 1e3, ms),
        "workload.parse_text_ms": (us_per_call("workload.parse_text") / 1e3,
                                   ms),
        "workload.dataset_gen_ms": (
            us_per_call("workload.dataset_gen") / 1e3, ms),
        "templates.parse_store_ms": (
            us_per_call("templates.parse_store") / 1e3, ms),
        "sparql.query_graph_us": (us_per_call("sparql.query_graph"), us),
        "nlp.parse_question_us": (us_per_call("nlp.parse_question"), us),
        "nlp.uncertain_build_us": (us_per_call("nlp.uncertain_build"), us),
        "ged.css_pair_us": (us_per_call("ged.css_pair"), us),
        "ged.css_calls": (ratio(span(item_spans, "ged.css_pair")["calls"],
                                passes), "count"),
        "core.css_pass_ratio": (ratio(partitioned, c("total_pairs")),
                                "ratio"),
        "core.partition_us": (us_per_call("core.partition"), us),
        "core.prob_prune_ratio": (ratio(c("pruned_probabilistic"),
                                        partitioned), "ratio"),
        "core.live_groups_per_pair": (ratio(c("live_groups"), partitioned),
                                      "count"),
        "core.verify_us": (us_per_call("core.verify"), us),
        "core.accept_ratio": (ratio(c("results"), c("candidates")), "ratio"),
        "graph.worlds_per_candidate": (ratio(c("worlds_enumerated"),
                                             c("candidates")), "count"),
        "ged.ged_calls_per_candidate": (ratio(c("ged_calls"),
                                              c("candidates")), "count"),
        "ged.world_bound_prune_ratio": (ratio(c("worlds_pruned_by_bound"),
                                              c("worlds_enumerated")),
                                        "ratio"),
        "ged.world_greedy_accept_ratio": (ratio(
            c("worlds_accepted_by_upper_bound"), c("worlds_enumerated")),
            "ratio"),
        "ged.verify_us_per_ged_call": (ratio(
            verify_total * 1e6 / passes if passes else 0.0, c("ged_calls")),
            us),
        "ged.aborted": (c("ged_aborted"), "count"),
        "templates.generate_us": (us_per_call("templates.generate"), us),
        "templates.distinct_ratio": (ratio(c("templates"), c("generated")),
                                     "ratio"),
        "nlp.question_prep_us": (ratio(prep * 1e6, questions), us),
        "nlp.align_us": (us_per_call("nlp.align"), us),
        "nlp.align_calls_per_question": (ratio(c("align_calls"),
                                               c("questions")), "count"),
        "nlp.align_pass_ratio": (ratio(c("align_passed"), c("align_calls")),
                                 "ratio"),
        "nlp.tree_edit_us": (us_per_call("nlp.tree_edit"), us),
        "rdf.evaluate_us": (us_per_call("rdf.evaluate"), us),
        "rdf.rows_per_query": (ratio(c("rows"), c("evaluations")), "count"),
        "core.replay_coverage": (0.0 if is_qa_online else coverage, "ratio"),
        "templates.answer_coverage": (coverage if is_qa_online else 0.0,
                                      "ratio"),
        "trace.overhead_pct": (ratio((traced - pass_s) * 100.0, pass_s), "%"),
        "trace.span_cost_pct": (ratio((traced - bare) * 100.0, bare), "%"),
    }

    # Useful outcomes per attempt, for the layers that can waste work.
    useful = {
        "ged.css_pair": ratio(c("pruned_structural"), c("total_pairs")),
        "core.partition": ratio(c("pruned_probabilistic"), partitioned),
        "core.verify": ratio(c("results"), c("candidates")),
        "templates.generate": ratio(c("generated"),
                                    c("generated") + c("generate_failed")),
        "templates.store_add": ratio(c("templates"), c("generated")),
        "nlp.align": ratio(c("align_passed"), c("align_calls")),
    }
    rows = []
    for phase, names, per, base in (("set-up", SETUP_LAYERS, setups, setup_s),
                                    ("item", ITEM_LAYERS, passes, pass_s)):
        spans = setup_spans if phase == "set-up" else item_spans
        for name in names:
            s = span(spans, name)
            if s["calls"] == 0:
                continue
            rows.append((phase, name, s["calls"] / per,
                         s["total_s"] * 1e3 / per,
                         s["total_s"] * 1e6 / s["calls"],
                         s["self_s"] * 1e3 / per,
                         ratio(s["self_s"] / per, base),
                         useful.get(name)))
        root = span(spans, "setup" if phase == "set-up" else "item")
        if root["calls"]:
            rows.append((phase, "(glue: root self time)", root["calls"] / per,
                         root["total_s"] * 1e3 / per,
                         root["total_s"] * 1e6 / root["calls"],
                         root["self_s"] * 1e3 / per,
                         ratio(root["self_s"] / per, base), None))
    extra = {"traced_pass_s": traced, "bare_replay_pass_s": bare,
             "pass_s": pass_s, "coverage": coverage,
             "setup_s": setup_s, "setups": setups, "passes": passes}
    return metrics, rows, extra


def print_table(rows, extra):
    print("per-layer table (traced replay; per set-up or per pass; share = "
          "self time / untraced end-to-end median)")
    print("%-7s %-24s %11s %11s %11s %11s %7s %8s" % (
        "phase", "layer", "calls", "total ms", "us/call", "self ms",
        "share", "useful"))
    for phase, name, calls, total, per_call, self_ms, share, useful in rows:
        print("%-7s %-24s %11.1f %11.3f %11.3f %11.3f %6.1f%% %8s" % (
            phase, name, calls, total, per_call, self_ms, share * 100,
            "-" if useful is None else "%.4f" % useful))
    print("coverage: layer self time per pass / untraced pass median = %.4f "
          "(%.4f s / %.4f s)" % (extra["coverage"],
                                 extra["coverage"] * extra["pass_s"],
                                 extra["pass_s"]))
    print("tracing: traced replay %.4f s, same replay untraced %.4f s "
          "(medians of %d), untraced pass median %.4f s" % (
              extra["traced_pass_s"], extra["bare_replay_pass_s"],
              extra["passes"], extra["pass_s"]))


# ------------------------------------------------------------------ run --

def failed_checks(record):
    return [c for c in record["checks"] if not c["ok"]]


def one_run(args):
    start = time.monotonic()
    binary = build()
    if binary is None:
        print("simjbench: build failed", file=sys.stderr)
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        record = measure(binary, args.workload, args.seed, args.seconds,
                         args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print("simjbench: %s" % error, file=sys.stderr)
        return 1

    print("workload %s seed %d: %s" % (
        args.workload, args.seed,
        " ".join("%s=%g" % kv for kv in record["info"].items())))
    for check in record["checks"]:
        print("check %-32s %s  %s" % (check["name"],
                                      "ok" if check["ok"] else "FAILED",
                                      check["detail"]))
    print("attempted %d, failed %d (%.2f%%)" % (
        record["attempted"], record["failed"],
        100.0 * ratio(record["failed"], record["attempted"])))
    e2e, counts = end_to_end(record)
    for name, (value, unit) in e2e.items():
        extra = (" (%s)" % counts[name]) if name in counts else ""
        print("%-16s %12.6g %s%s" % (name, value, unit, extra))
    if args.trace:
        metrics, rows, extra = per_layer(record)
        print_table(rows, extra)
    else:
        metrics = e2e
    print("wall %.1f s" % (time.monotonic() - start))
    result = {
        "correct": not failed_checks(record),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def steady(args):
    """Repeats each workload on consecutive seeds; prints each metric's
    median, quartiles and relative spread against its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print("%s seed %d: run failed" % (workload, seed))
                return 1
            result = json.loads(lines[-1])
            print("%s seed %d: correct=%s attempted=%d failed=%d %s" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"], " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: %d runs" % (workload, args.runs))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3, rel = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound:
                verdict = "bound %.2f %s" % (
                    bound, "ok" if rel <= bound / 3 else
                    ("within bound" if rel <= bound else "TOO WIDE"))
                worst = max(worst, rel / bound)
            print("  %-32s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.2f%%"
                  "  %s" % (name, med, q1, q3, rel * 100, verdict))
    print("widest spread / bound: %.3f" % worst)
    return 0


# ------------------------------------------------------------ self-test --

def self_test():
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (what, got, want))

    hundred = list(range(1, 101))
    expect("p50 of 1..100", percentile(hundred, 50), 50)
    expect("p99 of 1..100", percentile(hundred, 99), 99)
    expect("p100 of 1..100", percentile(hundred, 100), 100)
    expect("p0 of 1..100", percentile(hundred, 0), 1)
    expect("p50 of one sample", percentile([7.5], 50), 7.5)
    expect("p50 unsorted", percentile([5, 1, 4, 2, 3], 50), 3)
    expect("p99 of 1..1000", percentile(range(1, 1001), 99), 990)
    expect("beyond p99 of 1000", samples_beyond(1000, 99), 10)
    expect("beyond p99 of 999", samples_beyond(999, 99), 9)
    expect("tail of 1000", tail_percentile(1000), 99.0)
    expect("tail of 10000", tail_percentile(10000), 99.0)
    expect("beyond p99.9 of 10000", samples_beyond(10000, 99.9), 10)
    expect("tail of 999", tail_percentile(999), 95.0)
    expect("tail of 200", tail_percentile(200), 95.0)
    expect("tail of 199", tail_percentile(199), 90.0)
    expect("tail of 20", tail_percentile(20), 50.0)
    expect("tail of 19", tail_percentile(19), None)
    expect("name p99", percentile_name(99.0), "p99")
    expect("name p99.9", percentile_name(99.9), "p99_9")
    q1, med, q3, rel = spread(list(range(1, 11)))
    expect("quartiles of 1..10", (q1, med, q3), (2.75, 5.5, 8.25))
    expect("spread of 1..10", rel, 1.0)
    expect("spread of constants", spread([2.0] * 5)[3], 0.0)
    # 20 passes; before pass p (from 0) five set-ups of 10p + 1 .. 10p + 5.
    record = {"setup_s": [10 * p + k for p in range(20) for k in range(1, 6)],
              "pass_s": [float(x) for x in range(1, 21)],
              "item_ms": list(range(1, 1001)), "peak_rss_mb": 5.0}
    expect("by_pass", by_pass([1, 2, 3, 4, 5, 6], 3), [[1, 2], [3, 4], [5, 6]])
    expect("over_passes of 20", over_passes(list(range(20)), 20), 18)
    metrics, counts = end_to_end(record)
    expect("e2e names", sorted(metrics), sorted(
        ["setup_s", "pass_p95_s", "item_p50_p95_ms", "item_p99_p95_ms",
         "peak_rss_mb"]))
    # Pass 18 (from 0) is the 19th of 20, the nearest-rank p95.
    expect("e2e setup over passes", metrics["setup_s"][0], 183)
    expect("e2e setup count", counts["setup_s"], "20 passes of 5 set-ups")
    expect("e2e pass p95", metrics["pass_p95_s"][0], 19.0)
    # 20 passes of 50 items; pass p's median is 50p + 25.5 (p from 0).
    expect("e2e item p50 over passes", metrics["item_p50_p95_ms"][0], 925.5)
    expect("e2e p99 count", counts["item_p99_p95_ms"], "1000 items")
    # The same 50 items in 20 passes, the last at twice the time: scaled to
    # the p95 pass (a fast one), the p99 is that of 1..50, where unscaled it
    # would be 80, from the slow pass.
    twice = [x * (2 if p == 19 else 1) for p in range(20)
             for x in range(1, 51)]
    expect("unscaled p99", percentile(twice, 99), 80)
    expect("scaled to the p95 pass", scaled_to_slow_pass(twice, 20),
           [float(x) for x in range(1, 51)] * 20)
    record["item_ms"] = twice
    metrics, _ = end_to_end(record)
    expect("e2e p99 at the p95 pass", metrics["item_p99_p95_ms"][0], 50)
    record["item_ms"] = list(range(1, 501))
    metrics, _ = end_to_end(record)
    expect("short run reports p95", "item_p95_p95_ms" in metrics, True)
    # The metrics a run prints are exactly those BENCHMARK.json declares,
    # with the same units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    record["item_ms"] = list(range(1, 1001))
    metrics, _ = end_to_end(record)
    expect("end_to_end names and units",
           {k: u for k, (_, u) in metrics.items()},
           {m["name"]: m["unit"] for m in spec["end_to_end"]})
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    record.update(workload="qa_online", trace={
        "counters": {}, "passes": 1, "setups": 1, "pass_s": [1.0],
        "replay_pass_s": [1.0],
        "spans": {"setup": {}, "item": {"nlp.align": dict(empty, calls=2,
                                                           total_s=1.0)}}})
    metrics, _, _ = per_layer(record)
    expect("per_layer names and units",
           {k: u for k, (_, u) in metrics.items()},
           {m["name"]: m["unit"] for m in spec["per_layer"]})
    expect("align us/call", metrics["nlp.align_us"][0], 500000.0)
    for failure in failures:
        print("FAIL " + failure)
    print("self-test: %d failures" % len(failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.steady:
        return steady(args)
    if args.workload is None:
        parser.error("--workload is required")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())

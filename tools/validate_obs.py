#!/usr/bin/env python3
"""Validate scmd observability artifacts.

Checks that a metrics JSONL file parses line-by-line with the expected
record shape, and that a trace JSON file is a well-formed Chrome
trace_event document with properly nested spans.

Usage:
    validate_obs.py [--metrics m.jsonl] [--trace t.json]
                    [--require-metrics name1,name2,...]
                    [--min-steps N] [--expect-balance] [--expect-cache]
                    [--expect-comm] [--expect-serve]

--expect-balance asserts the dynamic load-balancing schema: every metrics
record carries the balance.* gauges, at least one record observed a
rebalance, and the trace (when given) contains the per-step balance span
and, for that rebalance, its balance.plan and balance.apply phase spans,
each nested directly inside a balance span.

--expect-cache asserts the persistent-tuple-list schema: every metrics
record carries the tuple_cache.* gauges, the run observed at least one
rebuild AND at least one reuse step, and the trace (when given) contains
a replay.* span.

--expect-comm asserts the transport-statistics schema (docs/TRANSPORT.md):
every metrics record carries the comm.transport.* gauges, at least one
record observed traffic (comm.transport.messages_sent > 0), and the
values are true per-step deltas — a series whose bytes_sent is identical
across every record is rejected as the once-per-run cumulative-constant
bug the deltas replaced (record 0 includes bootstrap traffic, so real
delta series always vary).

--expect-serve asserts the serve daemon schema (docs/SERVICE.md): every
record carries the serve.* gauges (including the per-job latency split
serve.job_{bootstrap,steady,notify}_s), at least one record observed busy
worker ranks, and on the final record the job ledger (submitted =
done + failed + cancelled + active + queued) and the rank ledger
(total = busy + free + dead) both balance.

--expect-merged N asserts the distributed-telemetry schema
(docs/OBSERVABILITY.md): the metrics carry the per-step imbalance.*
summary, the comm.transport.* deltas, and phase_hist.* histograms; the
trace is ONE clock-aligned merged timeline with exactly N lanes (tid =
rank), every lane carrying step spans, and the k-th step span of every
rank mutually overlapping within --merge-slack-us (default 50000) — the
signature of per-rank clocks mapped into rank 0's timebase.

Exits non-zero (with a message on stderr) on the first violation.
"""

import argparse
import json
import sys


def fail(msg):
    print(f"validate_obs: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


BALANCE_METRICS = ("balance.ratio", "balance.rebalanced",
                   "balance.predicted_ratio", "balance.migrated_atoms")
# Phases of a re-cut, each a child of the step's balance span.
BALANCE_PHASES = ("balance.plan", "balance.apply")

CACHE_METRICS = ("tuple_cache.rebuilds", "tuple_cache.reuse_steps",
                 "tuple_cache.replayed")

COMM_METRICS = ("comm.transport.messages_sent", "comm.transport.bytes_sent",
                "comm.transport.messages_recv", "comm.transport.bytes_recv",
                "comm.transport.recv_stall_s",
                "comm.transport.max_mailbox_depth")

MERGED_METRICS = ("imbalance.search.max", "imbalance.search.avg",
                  "imbalance.search.ratio")

SERVE_METRICS = ("serve.queue_depth", "serve.jobs_active",
                 "serve.jobs_submitted", "serve.jobs_done",
                 "serve.jobs_failed", "serve.jobs_cancelled",
                 "serve.ranks_total", "serve.ranks_busy",
                 "serve.ranks_free", "serve.ranks_dead",
                 "serve.job_bootstrap_s", "serve.job_steady_s",
                 "serve.job_notify_s")


def validate_metrics(path, require_metrics, min_steps, expect_balance=False,
                     expect_cache=False, expect_comm=False,
                     expect_merged=None, expect_serve=False):
    if expect_balance:
        require_metrics = list(require_metrics) + list(BALANCE_METRICS)
    if expect_cache:
        require_metrics = list(require_metrics) + list(CACHE_METRICS)
    if expect_comm:
        require_metrics = list(require_metrics) + list(COMM_METRICS)
    if expect_merged:
        require_metrics = (list(require_metrics) + list(MERGED_METRICS) +
                           list(COMM_METRICS))
    if expect_serve:
        require_metrics = list(require_metrics) + list(SERVE_METRICS)
    rebalances = 0
    cache_rebuilds = 0
    cache_reuses = 0
    comm_messages = 0
    phase_hists = 0
    serve_busy = 0
    serve_last = None
    steps = []
    series = {}  # attrs tuple -> step list (one series per strategy/platform)
    comm_series = {}  # attrs tuple -> comm.transport.bytes_sent list
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                fail(f"{path}:{line_no}: invalid JSON: {e}")
            if not isinstance(rec, dict):
                fail(f"{path}:{line_no}: record is not an object")
            if "step" not in rec or not isinstance(rec["step"], int):
                fail(f"{path}:{line_no}: missing integer 'step'")
            if "metrics" not in rec or not isinstance(rec["metrics"], dict):
                fail(f"{path}:{line_no}: missing 'metrics' object")
            for name, value in rec["metrics"].items():
                if value is not None and not isinstance(value, (int, float)):
                    fail(f"{path}:{line_no}: metric {name!r} is not numeric")
            for name in require_metrics:
                if name not in rec["metrics"]:
                    fail(f"{path}:{line_no}: required metric {name!r} absent")
            for hname, h in rec.get("hist", {}).items():
                for key in ("lo", "hi", "count", "buckets"):
                    if key not in h:
                        fail(f"{path}:{line_no}: hist {hname!r} missing {key!r}")
                if sum(h["buckets"]) + h.get("underflow", 0) + h.get(
                        "overflow", 0) != h["count"]:
                    fail(f"{path}:{line_no}: hist {hname!r} counts don't sum")
                if hname.startswith("phase_hist."):
                    phase_hists += 1
            if rec["metrics"].get("balance.rebalanced"):
                rebalances += 1
            cache_rebuilds += rec["metrics"].get("tuple_cache.rebuilds") or 0
            cache_reuses += rec["metrics"].get("tuple_cache.reuse_steps") or 0
            comm_messages += rec["metrics"].get(
                "comm.transport.messages_sent") or 0
            if expect_serve:
                if (rec["metrics"].get("serve.ranks_busy") or 0) > 0:
                    serve_busy += 1
                serve_last = rec["metrics"]
            steps.append(rec["step"])
            key = tuple(sorted(rec.get("attrs", {}).items()))
            series.setdefault(key, []).append(rec["step"])
            if "comm.transport.bytes_sent" in rec["metrics"]:
                comm_series.setdefault(key, []).append(
                    rec["metrics"]["comm.transport.bytes_sent"])
    if expect_balance and rebalances == 0:
        fail(f"{path}: --expect-balance, but no record observed a rebalance")
    if expect_cache and cache_rebuilds == 0:
        fail(f"{path}: --expect-cache, but no record observed a rebuild")
    if expect_cache and cache_reuses == 0:
        fail(f"{path}: --expect-cache, but no record observed a reuse step")
    if expect_comm and comm_messages == 0:
        fail(f"{path}: --expect-comm, but no record observed transport "
             f"traffic")
    if expect_comm or expect_merged:
        # Per-step delta semantics: record 0 includes the bootstrap
        # traffic (scatter, clock sync), so a real delta series varies.
        # All-identical values across >= 3 records are the old
        # cumulative-constant bug.
        for key, vals in comm_series.items():
            if len(vals) >= 3 and vals[0] > 0 and len(set(vals)) == 1:
                fail(f"{path}: series {dict(key)}: "
                     f"comm.transport.bytes_sent identical across "
                     f"{len(vals)} records — cumulative constants, not "
                     f"per-step deltas")
    if expect_serve:
        # Daemon lifecycle semantics (docs/SERVICE.md): the pool actually
        # ran jobs, every submitted job reached a terminal state by the
        # final record, and the rank ledger stayed conserved.
        if serve_busy == 0:
            fail(f"{path}: --expect-serve, but no record observed a busy "
                 f"rank")
        if serve_last is not None:
            if (serve_last["serve.jobs_submitted"] or 0) == 0:
                fail(f"{path}: --expect-serve, but no job was ever "
                     f"submitted")
            terminal = ((serve_last["serve.jobs_done"] or 0) +
                        (serve_last["serve.jobs_failed"] or 0) +
                        (serve_last["serve.jobs_cancelled"] or 0))
            open_jobs = ((serve_last["serve.jobs_active"] or 0) +
                         (serve_last["serve.queue_depth"] or 0))
            if terminal + open_jobs != (serve_last["serve.jobs_submitted"]
                                        or 0):
                fail(f"{path}: --expect-serve: job ledger does not balance "
                     f"(submitted {serve_last['serve.jobs_submitted']}, "
                     f"terminal {terminal}, open {open_jobs})")
            ranks = serve_last["serve.ranks_total"] or 0
            accounted = ((serve_last["serve.ranks_busy"] or 0) +
                         (serve_last["serve.ranks_free"] or 0) +
                         (serve_last["serve.ranks_dead"] or 0))
            if ranks != accounted:
                fail(f"{path}: --expect-serve: rank ledger does not balance "
                     f"(total {ranks}, accounted {accounted})")
    if expect_merged and phase_hists == 0:
        fail(f"{path}: --expect-merged, but no phase_hist.* histogram "
             f"present")
    if len(steps) < min_steps:
        fail(f"{path}: only {len(steps)} records, expected >= {min_steps}")
    # Steps must be non-decreasing within each series (attrs identify the
    # series: strategy, platform, ...); a new series may restart at 0.
    for key, s in series.items():
        if s != sorted(s):
            fail(f"{path}: series {dict(key)}: steps not non-decreasing")
    print(f"validate_obs: {path}: OK ({len(steps)} records, "
          f"{len(series)} series, steps {min(steps)}..{max(steps)})")


def validate_trace(path, min_spans=1, expect_balance=False,
                   expect_cache=False, expect_merged=None,
                   merge_slack_us=50000.0):
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: invalid JSON: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: 'traceEvents' is not a list")
    if len(events) < min_spans:
        fail(f"{path}: only {len(events)} spans, expected >= {min_spans}")
    lanes = {}
    for i, e in enumerate(events):
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"{path}: event {i} missing {key!r}")
        if e["ph"] != "X":
            fail(f"{path}: event {i} has ph={e['ph']!r}, expected 'X'")
        if e["dur"] < 0:
            fail(f"{path}: event {i} has negative duration")
        lanes.setdefault(e["tid"], []).append(e)
    # Spans on one lane must nest (contain or disjoint, never partial
    # overlap) — this is what makes the flame graph render correctly.
    slack = 1.0  # microseconds of clock tolerance
    for tid, spans in lanes.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"] - slack:
                stack.pop()
            if stack and e["ts"] + e["dur"] > \
                    stack[-1]["ts"] + stack[-1]["dur"] + slack:
                fail(f"{path}: tid {tid}: span {e['name']!r} at ts={e['ts']}"
                     f" partially overlaps {stack[-1]['name']!r}")
            if expect_balance and e["name"] in BALANCE_PHASES and \
                    (not stack or stack[-1]["name"] != "balance"):
                fail(f"{path}: tid {tid}: span {e['name']!r} at "
                     f"ts={e['ts']} is not nested in a 'balance' span")
            stack.append(e)
    names = sorted({e["name"] for e in events})
    if expect_balance:
        for want in ("balance",) + BALANCE_PHASES:
            if want not in names:
                fail(f"{path}: --expect-balance, but no {want!r} span "
                     f"present")
    if expect_cache and not any(n.startswith("replay") for n in names):
        fail(f"{path}: --expect-cache, but no 'replay.*' span present")
    if expect_merged:
        # One merged timeline: exactly N lanes (tid = rank), each with
        # step spans, and the k-th step span of every rank mutually
        # overlapping within the clock-alignment slack.
        want = set(range(expect_merged))
        if set(lanes) != want:
            fail(f"{path}: --expect-merged {expect_merged}: lanes (tids) "
                 f"are {sorted(lanes)}, expected {sorted(want)}")
        step_spans = {}
        for tid, spans in lanes.items():
            mine = sorted((e for e in spans if e["name"] == "step"),
                          key=lambda e: e["ts"])
            if not mine:
                fail(f"{path}: --expect-merged: lane {tid} has no "
                     f"'step' span")
            step_spans[tid] = mine
        depth = min(len(s) for s in step_spans.values())
        for k in range(depth):
            kth = [step_spans[tid][k] for tid in sorted(step_spans)]
            last_start = max(e["ts"] for e in kth)
            first_end = min(e["ts"] + e["dur"] for e in kth)
            if last_start > first_end + merge_slack_us:
                fail(f"{path}: --expect-merged: step span {k} does not "
                     f"overlap across ranks (gap "
                     f"{last_start - first_end:.1f} us > slack "
                     f"{merge_slack_us:g} us) — traces not clock-aligned")
    print(f"validate_obs: {path}: OK ({len(events)} spans, "
          f"{len(lanes)} lane(s), phases: {', '.join(names)})")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--metrics", help="metrics JSONL path")
    ap.add_argument("--trace", help="Chrome trace JSON path")
    ap.add_argument("--require-metrics", default="",
                    help="comma-separated metric names every record must have")
    ap.add_argument("--min-steps", type=int, default=1,
                    help="minimum number of metrics records")
    ap.add_argument("--expect-balance", action="store_true",
                    help="require balance.* metrics, >= 1 rebalance, and "
                         "the balance, balance.plan and balance.apply "
                         "trace spans")
    ap.add_argument("--expect-cache", action="store_true",
                    help="require tuple_cache.* metrics, >= 1 rebuild and "
                         ">= 1 reuse step, and a replay.* trace span")
    ap.add_argument("--expect-comm", action="store_true",
                    help="require comm.transport.* metrics, >= 1 record "
                         "with messages_sent > 0, and per-step delta "
                         "(non-constant) series")
    ap.add_argument("--expect-merged", type=int, default=None, metavar="N",
                    help="require the distributed-telemetry schema: "
                         "imbalance.* + comm.transport.* + phase_hist.* "
                         "metrics, and a merged trace with N clock-aligned "
                         "rank lanes")
    ap.add_argument("--expect-serve", action="store_true",
                    help="require the serve daemon schema: serve.* gauges "
                         "on every record, >= 1 record with busy ranks, "
                         "and balanced job/rank ledgers on the final one")
    ap.add_argument("--merge-slack-us", type=float, default=50000.0,
                    help="clock-alignment tolerance for --expect-merged "
                         "step-span overlap (default 50000)")
    args = ap.parse_args()
    if not args.metrics and not args.trace:
        fail("nothing to validate: pass --metrics and/or --trace")
    require = [n for n in args.require_metrics.split(",") if n]
    if args.metrics:
        validate_metrics(args.metrics, require, args.min_steps,
                         expect_balance=args.expect_balance,
                         expect_cache=args.expect_cache,
                         expect_comm=args.expect_comm,
                         expect_merged=args.expect_merged,
                         expect_serve=args.expect_serve)
    if args.trace:
        validate_trace(args.trace, expect_balance=args.expect_balance,
                       expect_cache=args.expect_cache,
                       expect_merged=args.expect_merged,
                       merge_slack_us=args.merge_slack_us)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Negative-case tests for tools/validate_obs.py — the CI gate is
itself gated.  Every check the validator enforces gets one artifact
that violates it; a validator that stops failing these stops guarding
CI.  Stdlib unittest only (no third-party test deps).

Run directly (python3 tests/tools/test_validate_obs.py) or through
ctest (tools_validate_obs_selftest).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "tools")
VALIDATOR = os.path.join(TOOLS, "validate_obs.py")


def metrics_record(step, metrics=None, hist=None, attrs=None):
    rec = {"step": step, "metrics": metrics if metrics is not None else
           {"energy.potential": -1.0}}
    if hist:
        rec["hist"] = hist
    if attrs:
        rec["attrs"] = attrs
    return rec


def span(name, ts, dur, tid=0):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1,
            "tid": tid}


def comm_metrics(bytes_sent, msgs=4):
    return {"comm.transport.messages_sent": msgs,
            "comm.transport.bytes_sent": bytes_sent,
            "comm.transport.messages_recv": msgs,
            "comm.transport.bytes_recv": bytes_sent,
            "comm.transport.recv_stall_s": 0.0,
            "comm.transport.max_mailbox_depth": 2}


def merged_metrics(bytes_sent):
    m = comm_metrics(bytes_sent)
    m.update({"imbalance.search.max": 100.0, "imbalance.search.avg": 90.0,
              "imbalance.search.ratio": 1.1})
    return m


def phase_hist():
    return {"phase_hist.step": {"lo": -7.0, "hi": 2.0, "count": 1,
                                "buckets": [0, 1, 0]}}


class ValidatorRunner(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write_metrics(self, records):
        path = os.path.join(self.dir.name, "m.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")
        return path

    def write_trace(self, events):
        path = os.path.join(self.dir.name, "t.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events}, f)
        return path

    def run_validator(self, *args):
        return subprocess.run([sys.executable, VALIDATOR, *args],
                              capture_output=True, text=True, check=False)

    def assert_fails(self, message_part, *args):
        proc = self.run_validator(*args)
        self.assertNotEqual(proc.returncode, 0,
                            f"expected failure, got: {proc.stdout}")
        self.assertIn(message_part, proc.stderr)

    def assert_passes(self, *args):
        proc = self.run_validator(*args)
        self.assertEqual(proc.returncode, 0, proc.stderr)


class MetricsChecks(ValidatorRunner):
    def test_valid_file_passes(self):
        path = self.write_metrics([metrics_record(0), metrics_record(1)])
        self.assert_passes("--metrics", path, "--min-steps", "2")

    def test_invalid_json_fails(self):
        path = os.path.join(self.dir.name, "m.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"step": 0, "metrics": {}}\nnot json\n')
        self.assert_fails("invalid JSON", "--metrics", path)

    def test_missing_step_fails(self):
        path = self.write_metrics([{"metrics": {}}])
        self.assert_fails("missing integer 'step'", "--metrics", path)

    def test_missing_required_metric_fails(self):
        path = self.write_metrics([metrics_record(0)])
        self.assert_fails("required metric", "--metrics", path,
                          "--require-metrics", "no.such.metric")

    def test_non_monotonic_steps_fail(self):
        path = self.write_metrics([metrics_record(3), metrics_record(1)])
        self.assert_fails("steps not non-decreasing", "--metrics", path)

    def test_too_few_records_fail(self):
        path = self.write_metrics([metrics_record(0)])
        self.assert_fails("expected >= 5", "--metrics", path,
                          "--min-steps", "5")

    def test_hist_count_mismatch_fails(self):
        bad = {"phase_hist.step": {"lo": -7.0, "hi": 2.0, "count": 5,
                                   "buckets": [0, 1, 0]}}
        path = self.write_metrics([metrics_record(0, hist=bad)])
        self.assert_fails("counts don't sum", "--metrics", path)


class CommChecks(ValidatorRunner):
    def test_delta_series_passes(self):
        recs = [metrics_record(s, metrics=comm_metrics(b))
                for s, b in enumerate([900, 120, 140, 130])]
        self.assert_passes("--metrics", self.write_metrics(recs),
                           "--expect-comm")

    def test_missing_comm_gauges_fail(self):
        path = self.write_metrics([metrics_record(0)])
        self.assert_fails("required metric", "--metrics", path,
                          "--expect-comm")

    def test_no_traffic_fails(self):
        recs = [metrics_record(0, metrics=comm_metrics(0, msgs=0))]
        self.assert_fails("no record observed transport traffic",
                          "--metrics", self.write_metrics(recs),
                          "--expect-comm")

    def test_cumulative_constants_fail(self):
        # The old bug: every record carries the same run-wide totals.
        recs = [metrics_record(s, metrics=comm_metrics(5000))
                for s in range(4)]
        self.assert_fails("cumulative constants", "--metrics",
                          self.write_metrics(recs), "--expect-comm")


def serve_metrics(submitted=1, done=1, failed=0, cancelled=0, active=0,
                  queued=0, busy=0, free=3, dead=0, total=3):
    return {"serve.queue_depth": queued, "serve.jobs_active": active,
            "serve.jobs_submitted": submitted, "serve.jobs_done": done,
            "serve.jobs_failed": failed, "serve.jobs_cancelled": cancelled,
            "serve.ranks_total": total, "serve.ranks_busy": busy,
            "serve.ranks_free": free, "serve.ranks_dead": dead,
            "serve.job_bootstrap_s": 0.05, "serve.job_steady_s": 0.12,
            "serve.job_notify_s": 0.001}


class ServeChecks(ValidatorRunner):
    def test_daemon_lifecycle_passes(self):
        recs = [metrics_record(0, metrics=serve_metrics(
                    submitted=1, done=0, active=1, busy=2, free=1)),
                metrics_record(1, metrics=serve_metrics())]
        self.assert_passes("--metrics", self.write_metrics(recs),
                           "--expect-serve")

    def test_missing_serve_gauges_fail(self):
        self.assert_fails("required metric", "--metrics",
                          self.write_metrics([metrics_record(0)]),
                          "--expect-serve")

    def test_missing_latency_split_fails(self):
        metrics = serve_metrics(busy=2, free=1)
        del metrics["serve.job_steady_s"]
        self.assert_fails("serve.job_steady_s", "--metrics",
                          self.write_metrics([metrics_record(0,
                                                             metrics=metrics)]),
                          "--expect-serve")

    def test_never_busy_fails(self):
        recs = [metrics_record(0, metrics=serve_metrics())]
        self.assert_fails("no record observed a busy rank", "--metrics",
                          self.write_metrics(recs), "--expect-serve")

    def test_unbalanced_job_ledger_fails(self):
        # Two submissions but only one ever reached a terminal state and
        # none are active or queued: a job leaked.
        recs = [metrics_record(0, metrics=serve_metrics(busy=2, free=1)),
                metrics_record(1, metrics=serve_metrics(submitted=2))]
        self.assert_fails("job ledger does not balance", "--metrics",
                          self.write_metrics(recs), "--expect-serve")

    def test_unbalanced_rank_ledger_fails(self):
        recs = [metrics_record(0, metrics=serve_metrics(busy=2, free=1)),
                metrics_record(1, metrics=serve_metrics(free=2))]
        self.assert_fails("rank ledger does not balance", "--metrics",
                          self.write_metrics(recs), "--expect-serve")


class TraceChecks(ValidatorRunner):
    def test_nested_spans_pass(self):
        events = [span("step", 0, 100), span("force", 10, 50)]
        self.assert_passes("--trace", self.write_trace(events))

    def test_partial_overlap_fails(self):
        events = [span("step", 0, 100), span("force", 50, 100)]
        self.assert_fails("partially overlaps", "--trace",
                          self.write_trace(events))

    def test_negative_duration_fails(self):
        self.assert_fails("negative duration", "--trace",
                          self.write_trace([span("step", 0, -1)]))

    def test_missing_trace_events_fails(self):
        path = os.path.join(self.dir.name, "t.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": []}, f)
        self.assert_fails("missing 'traceEvents'", "--trace", path)


class MergedChecks(ValidatorRunner):
    def merged_artifacts(self, rank1_shift=0.0):
        recs = [metrics_record(s, metrics=merged_metrics(b),
                               hist=phase_hist())
                for s, b in enumerate([900, 120, 140])]
        events = []
        for k in range(3):
            events.append(span("step", 1000 * k, 800, tid=0))
            events.append(span("step", 1000 * k + rank1_shift, 800, tid=1))
        return self.write_metrics(recs), self.write_trace(events)

    def test_aligned_two_lane_trace_passes(self):
        m, t = self.merged_artifacts(rank1_shift=100.0)
        self.assert_passes("--metrics", m, "--trace", t,
                           "--expect-merged", "2")

    def test_wrong_lane_count_fails(self):
        m, t = self.merged_artifacts()
        self.assert_fails("lanes (tids)", "--metrics", m, "--trace", t,
                          "--expect-merged", "4")

    def test_misaligned_clocks_fail(self):
        # Rank 1's spans land 900 us late: no overlap within 50 us slack
        # -> the clock mapping was not applied.
        m, t = self.merged_artifacts(rank1_shift=900.0)
        self.assert_fails("not clock-aligned", "--metrics", m, "--trace",
                          t, "--expect-merged", "2",
                          "--merge-slack-us", "50")

    def test_lane_without_step_spans_fails(self):
        recs = [metrics_record(0, metrics=merged_metrics(10),
                               hist=phase_hist())]
        m = self.write_metrics(recs)
        t = self.write_trace([span("step", 0, 100, tid=0),
                              span("force", 0, 50, tid=1)])
        self.assert_fails("has no 'step' span", "--metrics", m,
                          "--trace", t, "--expect-merged", "2")

    def test_missing_phase_hist_fails(self):
        recs = [metrics_record(s, metrics=merged_metrics(b))
                for s, b in enumerate([900, 120, 140])]
        m = self.write_metrics(recs)
        t = self.write_trace([span("step", 0, 100, tid=0),
                              span("step", 20, 100, tid=1)])
        self.assert_fails("no phase_hist.* histogram", "--metrics", m,
                          "--trace", t, "--expect-merged", "2")

    def test_missing_imbalance_fails(self):
        recs = [metrics_record(0, metrics=comm_metrics(10),
                               hist=phase_hist())]
        self.assert_fails("required metric", "--metrics",
                          self.write_metrics(recs), "--expect-merged", "2")


class BalanceChecks(ValidatorRunner):
    def balance_metrics(self):
        gauges = {"balance.ratio": 1.6, "balance.rebalanced": 0,
                  "balance.predicted_ratio": 0.0,
                  "balance.migrated_atoms": 0}
        recut = dict(gauges, **{"balance.rebalanced": 1,
                                "balance.predicted_ratio": 1.05,
                                "balance.migrated_atoms": 120})
        return self.write_metrics([metrics_record(0, gauges),
                                   metrics_record(1, recut)])

    def test_recut_with_both_phases_passes(self):
        trace = self.write_trace([
            span("step", 0, 100), span("balance", 10, 50),
            span("balance.plan", 11, 20), span("balance.apply", 32, 25)])
        self.assert_passes("--metrics", self.balance_metrics(),
                           "--trace", trace, "--expect-balance")

    def test_no_rebalance_fails(self):
        gauges = {"balance.ratio": 1.6, "balance.rebalanced": 0,
                  "balance.predicted_ratio": 0.0,
                  "balance.migrated_atoms": 0}
        path = self.write_metrics([metrics_record(0, gauges)])
        self.assert_fails("no record observed a rebalance", "--metrics",
                          path, "--expect-balance")

    def test_recut_without_phase_spans_fails(self):
        # The metrics saw a re-cut, but the trace has only the enclosing
        # balance span: where the re-cut's time went is unrecorded.
        trace = self.write_trace([span("step", 0, 100),
                                  span("balance", 10, 50)])
        self.assert_fails("no 'balance.plan' span", "--metrics",
                          self.balance_metrics(), "--trace", trace,
                          "--expect-balance")
        trace = self.write_trace([span("step", 0, 100),
                                  span("balance", 10, 50),
                                  span("balance.plan", 11, 20)])
        self.assert_fails("no 'balance.apply' span", "--metrics",
                          self.balance_metrics(), "--trace", trace,
                          "--expect-balance")

    def test_phase_outside_balance_fails(self):
        trace = self.write_trace([
            span("step", 0, 100), span("balance", 10, 30),
            span("balance.plan", 11, 20), span("balance.apply", 50, 25)])
        self.assert_fails("'balance.apply' at ts=50 is not nested",
                          "--metrics", self.balance_metrics(),
                          "--trace", trace, "--expect-balance")


if __name__ == "__main__":
    unittest.main()

// JobScheduler semantics (serve/scheduler.hpp): priority-desc then
// FIFO ordering, space-sharing backfill, lowest-free-rank allocation,
// queued-vs-running cancel, dead-rank retirement, the job-table JSON
// schema the status channel publishes, and the per-job latency split.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "serve/scheduler.hpp"
#include "support/error.hpp"

namespace scmd::serve {
namespace {

std::int64_t submit(JobScheduler& s, int priority, int ranks,
                    double now = 0.0) {
  return s.submit("field = lj\n", priority, ranks, /*steps_total=*/10,
                  /*want_checkpoint=*/false, /*resume_job=*/0, now);
}

TEST(JobSchedulerTest, PriorityThenFifo) {
  JobScheduler s(2);
  const auto a = submit(s, 0, 2);
  const auto b = submit(s, 5, 2);
  const auto c = submit(s, 0, 2);
  ASSERT_EQ(s.start_next(1.0), b);  // highest priority first
  s.finish(b, JobState::kDone, "", 0.0, 10, 2.0);
  ASSERT_EQ(s.start_next(2.0), a);  // FIFO within a priority class
  s.finish(a, JobState::kDone, "", 0.0, 10, 3.0);
  ASSERT_EQ(s.start_next(3.0), c);
  s.finish(c, JobState::kDone, "", 0.0, 10, 4.0);
  EXPECT_EQ(s.start_next(4.0), 0);
  EXPECT_EQ(s.queue_depth(), 0);
  EXPECT_EQ(s.active_jobs(), 0);
  EXPECT_EQ(s.jobs_submitted(), 3);
}

TEST(JobSchedulerTest, BackfillPastTooLargeJob) {
  JobScheduler s(3);
  const auto small1 = submit(s, 0, 2);
  ASSERT_EQ(s.start_next(0.0), small1);  // holds ranks {1, 2}
  const auto big = submit(s, 0, 3);      // cannot fit while small1 runs
  const auto small2 = submit(s, 0, 1);
  ASSERT_EQ(s.start_next(0.0), small2);  // backfills past `big`
  EXPECT_EQ(s.free_ranks(), 0);
  EXPECT_EQ(s.start_next(0.0), 0);
  s.finish(small1, JobState::kDone, "", 0.0, 10, 1.0);
  s.finish(small2, JobState::kDone, "", 0.0, 10, 1.0);
  ASSERT_EQ(s.start_next(1.0), big);
  EXPECT_EQ(s.find(big)->pool_ranks.size(), 3u);
}

TEST(JobSchedulerTest, AllocatesLowestFreeRanksFirst) {
  JobScheduler s(4);
  const auto a = submit(s, 0, 2);
  ASSERT_EQ(s.start_next(0.0), a);
  EXPECT_EQ(s.find(a)->pool_ranks, (std::vector<int>{1, 2}));
  const auto b = submit(s, 0, 2);
  ASSERT_EQ(s.start_next(0.0), b);
  EXPECT_EQ(s.find(b)->pool_ranks, (std::vector<int>{3, 4}));
  s.finish(a, JobState::kDone, "", 0.0, 10, 1.0);
  const auto c = submit(s, 0, 1);
  ASSERT_EQ(s.start_next(1.0), c);
  EXPECT_EQ(s.find(c)->pool_ranks, (std::vector<int>{1}));
}

TEST(JobSchedulerTest, RejectsDemandThePoolCanNeverSatisfy) {
  JobScheduler s(2);
  EXPECT_THROW(submit(s, 0, 3), Error);
  EXPECT_THROW(submit(s, 0, 0), Error);
}

TEST(JobSchedulerTest, CancelQueuedVsRunning) {
  JobScheduler s(2);
  const auto a = submit(s, 0, 2);
  const auto b = submit(s, 0, 2);
  ASSERT_EQ(s.start_next(0.0), a);
  // Running job: the daemon must interrupt it.
  EXPECT_FALSE(s.cancel_queued(a, 1.0));
  EXPECT_EQ(s.find(a)->state, JobState::kRunning);
  // Queued job: terminal immediately.
  EXPECT_TRUE(s.cancel_queued(b, 1.0));
  EXPECT_EQ(s.find(b)->state, JobState::kCancelled);
  // Terminal and unknown jobs: no-op true.
  EXPECT_TRUE(s.cancel_queued(b, 2.0));
  EXPECT_TRUE(s.cancel_queued(999, 2.0));
}

TEST(JobSchedulerTest, FinishFreesRanksAndRecordsOutcome) {
  JobScheduler s(2);
  const auto a = submit(s, 0, 2);
  ASSERT_EQ(s.start_next(0.0), a);
  EXPECT_EQ(s.free_ranks(), 0);
  s.finish(a, JobState::kFailed, "boom", -1.5, 7, 1.0);
  EXPECT_EQ(s.free_ranks(), 2);
  const JobRecord* rec = s.find(a);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, JobState::kFailed);
  EXPECT_EQ(rec->error, "boom");
  EXPECT_EQ(rec->steps_done, 7);
  EXPECT_TRUE(rec->pool_ranks.empty());
}

TEST(JobSchedulerTest, DeadRankLeavesThePoolForever) {
  JobScheduler s(2);
  s.mark_rank_dead(2);
  EXPECT_EQ(s.free_ranks(), 1);
  EXPECT_EQ(s.dead_ranks(), 1);
  const auto a = submit(s, 0, 2);  // pool size still 2, so submit passes
  EXPECT_EQ(s.start_next(0.0), 0);  // but it can never be scheduled now
  const auto b = submit(s, 0, 1);
  ASSERT_EQ(s.start_next(0.0), b);  // dead rank skipped in allocation
  EXPECT_EQ(s.find(b)->pool_ranks, (std::vector<int>{1}));
  (void)a;
}

TEST(JobSchedulerTest, ProgressFeedsStepsPerSec) {
  JobScheduler s(2);
  const auto a = submit(s, 0, 2, /*now=*/0.0);
  ASSERT_EQ(s.start_next(1.0), a);
  s.record_progress(a, 50, 51, 3.0);
  const JobRecord* rec = s.find(a);
  EXPECT_EQ(rec->steps_done, 50);
  EXPECT_EQ(rec->chunks, 51);
  EXPECT_NEAR(rec->steps_per_sec, 25.0, 1e-9);
  s.record_progress(999, 1, 1, 3.0);  // unknown id: ignored
}

TEST(JobSchedulerTest, TableJsonCarriesTheSchema) {
  JobScheduler s(3);
  const auto a = submit(s, 2, 2, 0.0);
  ASSERT_EQ(s.start_next(0.5), a);
  submit(s, 0, 3, 1.0);
  s.mark_rank_dead(3);
  const std::string json = s.table_json(2.0);
  EXPECT_NE(json.find("\"pool\":{\"workers\":3,\"free\":0,\"dead\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"queue_depth\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"jobs_active\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"running\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ranks\":[1,2]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_latency_s\":0.5"), std::string::npos) << json;

  // Errors are JSON-escaped.
  s.finish(a, JobState::kFailed, "say \"what\"\n", 0.0, 1, 3.0);
  const std::string failed = s.table_json(3.0);
  EXPECT_NE(failed.find("say \\\"what\\\"\\n"), std::string::npos) << failed;
  EXPECT_NE(failed.find("\"runtime_s\":"), std::string::npos) << failed;
}

/// The number after `"key":` in the job table (the first match).
double table_number(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " missing from " << json;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

TEST(JobSchedulerTest, LatencySplitSumsToRuntime) {
  // Clocks are dyadic so every difference is exact in binary.
  JobScheduler s(2);
  const auto a = submit(s, 0, 2, 0.5);
  ASSERT_EQ(s.start_next(1.0), a);
  s.record_first_chunk(a, 1.25);
  s.record_first_chunk(a, 1.75);  // later chunks keep the first stamp
  s.record_result(a, 3.5);
  EXPECT_FALSE(latency_split(*s.find(a)).has_value());  // still running
  EXPECT_EQ(s.table_json(2.0).find("bootstrap_s"), std::string::npos);

  s.finish(a, JobState::kDone, "", 0.0, 10, 3.75);
  const auto split = latency_split(*s.find(a));
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->bootstrap_s, 0.25);
  EXPECT_EQ(split->steady_s, 2.25);
  EXPECT_EQ(split->notify_s, 0.25);

  const std::string json = s.table_json(4.0);
  EXPECT_EQ(table_number(json, "bootstrap_s") + table_number(json, "steady_s") +
                table_number(json, "notify_s"),
            table_number(json, "runtime_s"))
      << json;
  EXPECT_EQ(table_number(json, "queue_latency_s"), 0.5) << json;
}

TEST(JobSchedulerTest, JobWithoutChunksHasNoLatencySplit) {
  JobScheduler s(1);
  const auto a = submit(s, 0, 1);
  ASSERT_EQ(s.start_next(1.0), a);
  s.record_result(a, 2.0);
  s.finish(a, JobState::kFailed, "boom", 0.0, 0, 2.5);
  EXPECT_FALSE(latency_split(*s.find(a)).has_value());
  const std::string json = s.table_json(3.0);
  EXPECT_NE(json.find("\"runtime_s\":"), std::string::npos) << json;
  for (const char* key : {"bootstrap_s", "steady_s", "notify_s"})
    EXPECT_EQ(json.find(key), std::string::npos) << key << " in " << json;
}

}  // namespace
}  // namespace scmd::serve

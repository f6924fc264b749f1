#pragma once

/// \file scheduler.hpp
/// FIFO+priority job queue with space-sharing rank allocation
/// (docs/SERVICE.md).
///
/// Pure bookkeeping, no threads and no I/O: the daemon drives it under
/// its own lock, and tests drive it directly.  Ordering: runnable jobs
/// are considered by descending priority, then ascending id (FIFO
/// within a priority class).  Allocation backfills — the first
/// considered job whose rank demand fits the free pool starts, so two
/// small jobs run side by side while a large one waits (and a large
/// job can be overtaken by small ones until enough ranks drain; the
/// priority knob exists to stop that when it matters).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace scmd::serve {

/// Per-job resource caps, applied at submit (docs/SERVICE.md).  0 = no
/// cap on that axis.
struct JobLimits {
  long long max_atoms = 0;
  long long max_steps = 0;
  double max_walltime_s = 0.0;
};

struct JobRecord {
  std::int64_t id = 0;
  int priority = 0;
  JobState state = JobState::kQueued;
  std::string config_text;
  std::string error;

  int ranks_wanted = 0;
  std::vector<int> pool_ranks;  ///< held while running (empty otherwise)

  long long steps_total = 0;
  long long steps_done = 0;
  long long chunks = 0;
  double potential_energy = 0.0;

  bool want_checkpoint = false;
  std::int64_t resume_job = 0;

  /// Caller-supplied clocks (seconds, any monotonic base).
  double submitted_s = 0.0;
  double started_s = 0.0;
  double finished_s = 0.0;
  /// Arrival of the job's first metrics chunk and of its result (0 =
  /// not seen); they split the runtime (latency_split()).
  double first_chunk_s = 0.0;
  double result_s = 0.0;

  /// Steps/sec over the running window, from chunk progress.
  double steps_per_sec = 0.0;
};

/// Where a finished job's runtime went, on the daemon's clock:
/// bootstrap runs from the start to the first metrics chunk (plan build,
/// subset transport, clock sync, engine set-up, first step), steady from
/// there to the result, and notify from the result until every rank
/// reported kDone.  The three add up to the runtime.
struct LatencySplit {
  double bootstrap_s = 0.0;
  double steady_s = 0.0;
  double notify_s = 0.0;
};

/// The split of a terminal job that streamed a metrics chunk and
/// reported a result; nullopt for any other job.
std::optional<LatencySplit> latency_split(const JobRecord& rec);

/// Tracks worker pool ranks 1..num_workers (pool rank 0 is the daemon
/// and is never allocatable).
class JobScheduler {
 public:
  explicit JobScheduler(int num_workers);

  /// Register a validated job; returns its id.  The caller has already
  /// parsed the config and checked the caps — the scheduler only
  /// rejects rank demands the pool can never satisfy.
  std::int64_t submit(std::string config_text, int priority, int ranks_wanted,
                      long long steps_total, bool want_checkpoint,
                      std::int64_t resume_job, double now_s);

  /// Pick the next runnable job, allocate its ranks (lowest free pool
  /// ranks first), mark it running, and return its id; 0 when nothing
  /// fits (empty queue or not enough free live ranks).
  std::int64_t start_next(double now_s);

  /// Transition a running job to its terminal state and free its ranks.
  void finish(std::int64_t id, JobState state, std::string error,
              double potential_energy, long long steps_done, double now_s);

  /// Cancel: a queued job goes terminal immediately (returns true); a
  /// running job is left for the daemon to interrupt (returns false).
  /// Cancelling a terminal or unknown job is a no-op returning true.
  bool cancel_queued(std::int64_t id, double now_s);

  /// A pool rank died (dead-peer detection): it leaves the allocatable
  /// set forever.  Any job currently holding it is the daemon's problem
  /// (the job fails through the normal result path or is torn down).
  void mark_rank_dead(int pool_rank);

  /// Progress update from stream chunks (steps/sec for the job table).
  void record_progress(std::int64_t id, long long steps_done,
                       long long chunks, double now_s);

  /// Latency-split stamps: the job's first metrics chunk and its result
  /// arrived at `now_s`.  Only the first call of each counts.
  void record_first_chunk(std::int64_t id, double now_s);
  void record_result(std::int64_t id, double now_s);

  const JobRecord* find(std::int64_t id) const;
  JobRecord* find_mutable(std::int64_t id);

  int num_workers() const { return num_workers_; }
  int free_ranks() const;
  int dead_ranks() const;
  int queue_depth() const;   ///< jobs in kQueued
  int active_jobs() const;   ///< jobs in kRunning
  long long jobs_submitted() const { return next_id_ - 1; }

  /// Jobs in submit order (the job table).
  std::vector<const JobRecord*> jobs() const;

  /// Job-table JSON for the status channel (docs/SERVICE.md schema).
  std::string table_json(double now_s) const;

 private:
  int num_workers_ = 0;
  std::int64_t next_id_ = 1;
  std::map<std::int64_t, JobRecord> jobs_;
  std::vector<bool> busy_;  ///< index = pool rank - 1
  std::vector<bool> dead_;
};

}  // namespace scmd::serve

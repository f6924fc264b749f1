#include "serve/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/error.hpp"

namespace scmd::serve {

namespace {

/// Minimal JSON string escape (job configs/errors may carry quotes).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::optional<LatencySplit> latency_split(const JobRecord& rec) {
  if (!job_state_terminal(rec.state) || rec.first_chunk_s <= 0.0 ||
      rec.result_s <= 0.0)
    return std::nullopt;
  LatencySplit split;
  split.bootstrap_s = rec.first_chunk_s - rec.started_s;
  split.steady_s = rec.result_s - rec.first_chunk_s;
  split.notify_s = rec.finished_s - rec.result_s;
  return split;
}

JobScheduler::JobScheduler(int num_workers)
    : num_workers_(num_workers),
      busy_(static_cast<std::size_t>(num_workers), false),
      dead_(static_cast<std::size_t>(num_workers), false) {
  SCMD_REQUIRE(num_workers >= 1, "scheduler needs >= 1 worker rank");
}

std::int64_t JobScheduler::submit(std::string config_text, int priority,
                                  int ranks_wanted, long long steps_total,
                                  bool want_checkpoint,
                                  std::int64_t resume_job, double now_s) {
  SCMD_REQUIRE(ranks_wanted >= 1 && ranks_wanted <= num_workers_,
               "job wants " + std::to_string(ranks_wanted) +
                   " rank(s); the pool has " + std::to_string(num_workers_) +
                   " worker(s)");
  const std::int64_t id = next_id_++;
  JobRecord rec;
  rec.id = id;
  rec.priority = priority;
  rec.state = JobState::kQueued;
  rec.config_text = std::move(config_text);
  rec.ranks_wanted = ranks_wanted;
  rec.steps_total = steps_total;
  rec.want_checkpoint = want_checkpoint;
  rec.resume_job = resume_job;
  rec.submitted_s = now_s;
  jobs_.emplace(id, std::move(rec));
  return id;
}

std::int64_t JobScheduler::start_next(double now_s) {
  // Candidates: queued jobs, priority-desc then id-asc.
  std::vector<JobRecord*> queued;
  for (auto& [id, rec] : jobs_) {
    if (rec.state == JobState::kQueued) queued.push_back(&rec);
  }
  std::stable_sort(queued.begin(), queued.end(),
                   [](const JobRecord* a, const JobRecord* b) {
                     if (a->priority != b->priority)
                       return a->priority > b->priority;
                     return a->id < b->id;
                   });
  int free_count = 0;
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    if (!busy_[i] && !dead_[i]) ++free_count;
  }
  for (JobRecord* rec : queued) {
    if (rec->ranks_wanted > free_count) continue;  // backfill past it
    rec->pool_ranks.clear();
    for (std::size_t i = 0;
         i < busy_.size() &&
         rec->pool_ranks.size() < static_cast<std::size_t>(rec->ranks_wanted);
         ++i) {
      if (busy_[i] || dead_[i]) continue;
      busy_[i] = true;
      rec->pool_ranks.push_back(static_cast<int>(i) + 1);
    }
    rec->state = JobState::kRunning;
    rec->started_s = now_s;
    return rec->id;
  }
  return 0;
}

void JobScheduler::finish(std::int64_t id, JobState state, std::string error,
                          double potential_energy, long long steps_done,
                          double now_s) {
  JobRecord* rec = find_mutable(id);
  SCMD_REQUIRE(rec != nullptr, "finish() for unknown job " + std::to_string(id));
  SCMD_REQUIRE(job_state_terminal(state), "finish() needs a terminal state");
  for (const int r : rec->pool_ranks) {
    busy_[static_cast<std::size_t>(r - 1)] = false;
  }
  rec->pool_ranks.clear();
  rec->state = state;
  rec->error = std::move(error);
  rec->potential_energy = potential_energy;
  if (steps_done >= 0) rec->steps_done = steps_done;
  rec->finished_s = now_s;
}

bool JobScheduler::cancel_queued(std::int64_t id, double now_s) {
  JobRecord* rec = find_mutable(id);
  if (rec == nullptr) return true;
  if (rec->state == JobState::kQueued) {
    rec->state = JobState::kCancelled;
    rec->finished_s = now_s;
    return true;
  }
  return job_state_terminal(rec->state);
}

void JobScheduler::mark_rank_dead(int pool_rank) {
  SCMD_REQUIRE(pool_rank >= 1 && pool_rank <= num_workers_,
               "mark_rank_dead: not a worker rank");
  dead_[static_cast<std::size_t>(pool_rank - 1)] = true;
}

void JobScheduler::record_progress(std::int64_t id, long long steps_done,
                                   long long chunks, double now_s) {
  JobRecord* rec = find_mutable(id);
  if (rec == nullptr) return;
  rec->steps_done = steps_done;
  rec->chunks = chunks;
  const double elapsed = now_s - rec->started_s;
  if (elapsed > 1e-9 && steps_done > 0)
    rec->steps_per_sec = static_cast<double>(steps_done) / elapsed;
}

void JobScheduler::record_first_chunk(std::int64_t id, double now_s) {
  JobRecord* rec = find_mutable(id);
  if (rec != nullptr && rec->first_chunk_s <= 0.0) rec->first_chunk_s = now_s;
}

void JobScheduler::record_result(std::int64_t id, double now_s) {
  JobRecord* rec = find_mutable(id);
  if (rec != nullptr && rec->result_s <= 0.0) rec->result_s = now_s;
}

const JobRecord* JobScheduler::find(std::int64_t id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

JobRecord* JobScheduler::find_mutable(std::int64_t id) {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

int JobScheduler::free_ranks() const {
  int n = 0;
  for (std::size_t i = 0; i < busy_.size(); ++i) {
    if (!busy_[i] && !dead_[i]) ++n;
  }
  return n;
}

int JobScheduler::dead_ranks() const {
  int n = 0;
  for (const bool d : dead_) {
    if (d) ++n;
  }
  return n;
}

int JobScheduler::queue_depth() const {
  int n = 0;
  for (const auto& [id, rec] : jobs_) {
    if (rec.state == JobState::kQueued) ++n;
  }
  return n;
}

int JobScheduler::active_jobs() const {
  int n = 0;
  for (const auto& [id, rec] : jobs_) {
    if (rec.state == JobState::kRunning) ++n;
  }
  return n;
}

std::vector<const JobRecord*> JobScheduler::jobs() const {
  std::vector<const JobRecord*> out;
  out.reserve(jobs_.size());
  for (const auto& [id, rec] : jobs_) out.push_back(&rec);
  return out;
}

std::string JobScheduler::table_json(double now_s) const {
  std::ostringstream os;
  os << "{\"pool\":{\"workers\":" << num_workers_
     << ",\"free\":" << free_ranks() << ",\"dead\":" << dead_ranks()
     << "},\"queue_depth\":" << queue_depth()
     << ",\"jobs_active\":" << active_jobs() << ",\"jobs\":[";
  bool first = true;
  for (const auto& [id, rec] : jobs_) {
    if (!first) os << ",";
    first = false;
    os << "{\"id\":" << rec.id << ",\"state\":\""
       << job_state_name(rec.state) << "\",\"priority\":" << rec.priority
       << ",\"ranks_wanted\":" << rec.ranks_wanted << ",\"ranks\":[";
    for (std::size_t i = 0; i < rec.pool_ranks.size(); ++i) {
      if (i > 0) os << ",";
      os << rec.pool_ranks[i];
    }
    os << "],\"steps_done\":" << rec.steps_done
       << ",\"steps_total\":" << rec.steps_total
       << ",\"chunks\":" << rec.chunks << ",\"steps_per_sec\":"
       << rec.steps_per_sec;
    const double latency =
        rec.state == JobState::kQueued
            ? now_s - rec.submitted_s
            : (rec.started_s > 0.0 ? rec.started_s - rec.submitted_s : 0.0);
    os << ",\"queue_latency_s\":" << latency;
    if (job_state_terminal(rec.state))
      os << ",\"runtime_s\":"
         << (rec.started_s > 0.0 ? rec.finished_s - rec.started_s : 0.0);
    if (const auto split = latency_split(rec)) {
      os << ",\"bootstrap_s\":" << split->bootstrap_s
         << ",\"steady_s\":" << split->steady_s
         << ",\"notify_s\":" << split->notify_s;
    }
    if (!rec.error.empty()) os << ",\"error\":\"" << json_escape(rec.error)
                               << "\"";
    os << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace scmd::serve

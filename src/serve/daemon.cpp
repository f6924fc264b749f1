#include "serve/daemon.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <exception>
#include <sstream>
#include <utility>

#include "net/socket.hpp"
#include "net/status_server.hpp"
#include "net/tags.hpp"
#include "serve/runplan.hpp"
#include "support/config.hpp"
#include "support/error.hpp"

namespace scmd::serve {

namespace {

/// mkdir for the (at most two-level) job artifact directories; an
/// existing directory is success.
void ensure_dir(const std::string& path) {
  if (path.empty()) return;
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw Error("serve: cannot create directory '" + path +
              "': " + std::strerror(errno));
}

bool dir_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

}  // namespace

ServeDaemon::ServeDaemon(Transport& pool, DaemonConfig cfg)
    : pool_(pool),
      cfg_(std::move(cfg)),
      epoch_(std::chrono::steady_clock::now()),
      sched_(pool.num_ranks() - 1) {
  SCMD_REQUIRE(pool_.rank() == 0, "the daemon is pool rank 0");
  SCMD_REQUIRE(pool_.num_ranks() >= 2, "the pool needs >= 1 worker rank");
  const int workers = pool_.num_ranks() - 1;
  ensure_dir(cfg_.dir);
  if (cfg_.metrics != nullptr) {
    // Register the whole serve.* gauge set up front so the JSONL schema
    // is complete from the first record (tools/validate_obs.py relies
    // on a rectangular stream).
    obs::MetricsRegistry& m = *cfg_.metrics;
    m.set_attr("role", "serve_daemon");
    for (const char* name :
         {"serve.queue_depth", "serve.jobs_active", "serve.jobs_submitted",
          "serve.jobs_done", "serve.jobs_failed", "serve.jobs_cancelled",
          "serve.ranks_total", "serve.ranks_busy", "serve.ranks_free",
          "serve.ranks_dead", "serve.job_latency_s", "serve.job_bootstrap_s",
          "serve.job_steady_s", "serve.job_notify_s"}) {
      m.set(name, 0.0);
    }
    m.set("serve.ranks_total", workers);
    m.set("serve.ranks_free", workers);
  }
  {
    const MutexLock lock(mu_);
    worker_alive_.assign(static_cast<std::size_t>(workers), true);
  }
  if (cfg_.status_port >= 0)
    status_ = std::make_unique<StatusServer>(cfg_.status_port);
  const auto [fd, bound] = net::bind_listener("0.0.0.0", cfg_.client_port);
  listen_fd_ = fd;
  client_port_ = bound;
  monitors_.reserve(static_cast<std::size_t>(workers));
  for (int w = 1; w <= workers; ++w)
    monitors_.emplace_back([this, w] { monitor_loop(w); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ServeDaemon::~ServeDaemon() {
  // run() is the real teardown; this covers the error path where the
  // caller constructed a daemon but never served.
  if (!torn_down_) {
    request_shutdown();
    run();
  }
}

int ServeDaemon::status_port() const {
  return status_ ? status_->port() : -1;
}

double ServeDaemon::now_s() const {
  const std::chrono::duration<double> d =
      std::chrono::steady_clock::now() - epoch_;
  return d.count();
}

std::string ServeDaemon::job_dir(std::int64_t id) const {
  return cfg_.dir + "/job-" + std::to_string(id);
}

void ServeDaemon::request_shutdown() {
  shutdown_requested_.store(true);
  const MutexLock lock(mu_);
  tick_cv_.notify_all();
}

// ---------------------------------------------------------------------
// Scheduling core (all under mu_).

void ServeDaemon::dispatch_locked() {
  if (shutdown_requested_.load()) return;
  for (;;) {
    const std::int64_t id = sched_.start_next(now_s());
    if (id == 0) break;
    const JobRecord* rec = sched_.find(id);
    SCMD_REQUIRE(rec != nullptr, "started job has a record");
    JobAssignment& a = assignment_proto_.at(id);
    a.pool_ranks.clear();
    RunningJob rj;
    for (const int r : rec->pool_ranks) {
      a.pool_ranks.push_back(static_cast<std::int32_t>(r));
      rj.pool_ranks.push_back(r);
      rj.pending_ranks.insert(r);
    }
    const Bytes payload = encode_assignment(a);
    running_jobs_.emplace(id, std::move(rj));
    for (const int r : rec->pool_ranks)
      pool_.send(r, tags::kSvcAssign, payload);
    if (cfg_.metrics != nullptr)
      cfg_.metrics->set("serve.job_latency_s",
                        rec->started_s - rec->submitted_s);
  }
}

void ServeDaemon::cancel_job_locked(std::int64_t id, const std::string& why) {
  const JobRecord* rec = sched_.find(id);
  if (rec == nullptr) return;
  if (rec->state == JobState::kQueued) {
    sched_.cancel_queued(id, now_s());
    if (!why.empty()) sched_.find_mutable(id)->error = why;
    close_stream_locked(id, JobState::kCancelled, why);
    update_metrics_locked();
    tick_cv_.notify_all();
    return;
  }
  if (rec->state != JobState::kRunning) return;  // already terminal
  const auto it = running_jobs_.find(id);
  if (it == running_jobs_.end()) return;
  RunningJob& rj = it->second;
  if (rj.ctrl_sent || rj.result_seen) return;  // interrupt already in flight
  rj.cancel_reason = why;
  CtrlMsg ctrl;
  ctrl.job_id = id;
  ctrl.action = CtrlAction::kCancel;
  const Bytes payload = encode_ctrl(ctrl);
  for (const int r : rj.pool_ranks) {
    if (worker_alive_[static_cast<std::size_t>(r - 1)])
      pool_.send(r, tags::kSvcCtrl, payload);
  }
  rj.ctrl_sent = true;
}

void ServeDaemon::finalize_if_drained_locked(std::int64_t id) {
  const auto it = running_jobs_.find(id);
  if (it == running_jobs_.end()) return;
  RunningJob& rj = it->second;
  if (!rj.result_seen || !rj.pending_ranks.empty()) return;
  std::string error = rj.final_error;
  if (rj.final_state == JobState::kCancelled && error.empty())
    error = rj.cancel_reason;
  sched_.finish(id, rj.final_state, error, rj.potential_energy,
                rj.steps_completed, now_s());
  if (cfg_.metrics != nullptr) {
    if (const auto split = latency_split(*sched_.find(id))) {
      cfg_.metrics->set("serve.job_bootstrap_s", split->bootstrap_s);
      cfg_.metrics->set("serve.job_steady_s", split->steady_s);
      cfg_.metrics->set("serve.job_notify_s", split->notify_s);
    }
  }
  close_stream_locked(id, rj.final_state, error);
  running_jobs_.erase(it);
  dispatch_locked();  // freed ranks can seed queued work immediately
  update_metrics_locked();
  publish_locked();
  tick_cv_.notify_all();
}

void ServeDaemon::close_stream_locked(std::int64_t id, JobState state,
                                      const std::string& error) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) return;
  const std::shared_ptr<JobStream> stream = it->second;
  const MutexLock slock(stream->mu);
  if (stream->closed) return;
  stream->closed = true;
  stream->final_state = state;
  stream->final_error = error;
  stream->cv.notify_all();
}

JobStatus ServeDaemon::status_of_locked(std::int64_t id) {
  const JobRecord* rec = sched_.find(id);
  SCMD_REQUIRE(rec != nullptr, "unknown job " + std::to_string(id));
  JobStatus st;
  st.job_id = id;
  st.state = rec->state;
  st.error = rec->error;
  st.steps_done = rec->steps_done;
  st.steps_total = rec->steps_total;
  st.chunks = rec->chunks;
  st.potential_energy = rec->potential_energy;
  st.steps_per_sec = rec->steps_per_sec;
  for (const int r : rec->pool_ranks)
    st.pool_ranks.push_back(static_cast<std::int32_t>(r));
  return st;
}

void ServeDaemon::publish_locked() {
  if (!status_) return;
  const double now = now_s();
  status_->publish("jobs", sched_.table_json(now));
  std::ostringstream os;
  os << "{\"daemon\":\"scmd_serve\",\"client_port\":" << client_port_
     << ",\"workers\":" << sched_.num_workers()
     << ",\"free\":" << sched_.free_ranks()
     << ",\"dead\":" << sched_.dead_ranks()
     << ",\"queue_depth\":" << sched_.queue_depth()
     << ",\"jobs_active\":" << sched_.active_jobs()
     << ",\"jobs_submitted\":" << sched_.jobs_submitted()
     << ",\"uptime_s\":" << now << ",\"shutting_down\":"
     << (shutdown_requested_.load() ? "true" : "false") << "}";
  status_->publish("status", os.str());
}

void ServeDaemon::update_metrics_locked() {
  if (cfg_.metrics == nullptr) return;
  long long done = 0;
  long long failed = 0;
  long long cancelled = 0;
  for (const JobRecord* rec : sched_.jobs()) {
    if (rec->state == JobState::kDone) ++done;
    if (rec->state == JobState::kFailed) ++failed;
    if (rec->state == JobState::kCancelled) ++cancelled;
  }
  obs::MetricsRegistry& m = *cfg_.metrics;
  const int workers = sched_.num_workers();
  const int free = sched_.free_ranks();
  const int dead = sched_.dead_ranks();
  m.set("serve.queue_depth", sched_.queue_depth());
  m.set("serve.jobs_active", sched_.active_jobs());
  m.set("serve.jobs_submitted",
        static_cast<double>(sched_.jobs_submitted()));
  m.set("serve.jobs_done", static_cast<double>(done));
  m.set("serve.jobs_failed", static_cast<double>(failed));
  m.set("serve.jobs_cancelled", static_cast<double>(cancelled));
  m.set("serve.ranks_total", workers);
  m.set("serve.ranks_busy", workers - free - dead);
  m.set("serve.ranks_free", free);
  m.set("serve.ranks_dead", dead);
  m.emit(obs_seq_++);
}

// ---------------------------------------------------------------------
// Worker monitors (one per pool worker rank).

void ServeDaemon::monitor_loop(int worker_rank) {
  for (;;) {
    UpMsg msg;
    try {
      msg = decode_up(pool_.recv(worker_rank, tags::kSvcUp));
    } catch (const std::exception&) {
      // Dead peer (or an unparseable frame, which we treat the same):
      // retire the rank, fail whatever it was running, keep serving on
      // the survivors.
      MutexLock lock(mu_);
      worker_alive_[static_cast<std::size_t>(worker_rank - 1)] = false;
      sched_.mark_rank_dead(worker_rank);
      std::vector<std::int64_t> affected;
      for (const auto& [id, rj] : running_jobs_) {
        if (std::find(rj.pool_ranks.begin(), rj.pool_ranks.end(),
                      worker_rank) != rj.pool_ranks.end())
          affected.push_back(id);
      }
      for (const std::int64_t id : affected) {
        RunningJob& rj = running_jobs_.at(id);
        rj.pending_ranks.erase(worker_rank);
        if (!rj.result_seen) {
          // The root may itself be dead; don't wait for a result that
          // can never come.
          rj.result_seen = true;
          rj.final_state = JobState::kFailed;
          rj.final_error = "pool rank " + std::to_string(worker_rank) +
                           " died mid-job";
        }
        if (!rj.ctrl_sent) {
          CtrlMsg ctrl;
          ctrl.job_id = id;
          ctrl.action = CtrlAction::kCancel;
          const Bytes payload = encode_ctrl(ctrl);
          for (const int r : rj.pool_ranks) {
            if (r != worker_rank &&
                worker_alive_[static_cast<std::size_t>(r - 1)])
              pool_.send(r, tags::kSvcCtrl, payload);
          }
          rj.ctrl_sent = true;
        }
        finalize_if_drained_locked(id);
      }
      update_metrics_locked();
      publish_locked();
      tick_cv_.notify_all();
      return;
    }

    if (msg.kind == UpKind::kBye) return;

    MutexLock lock(mu_);
    const double now = now_s();
    switch (msg.kind) {
      case UpKind::kChunk: {
        const auto it = streams_.find(msg.job_id);
        long long nchunks = 0;
        if (it != streams_.end()) {
          const std::shared_ptr<JobStream> stream = it->second;
          ChunkMsg chunk;
          chunk.job_id = msg.job_id;
          chunk.kind = msg.chunk_kind;
          chunk.step = msg.step;
          chunk.payload = std::move(msg.payload);
          const MutexLock slock(stream->mu);  // order: mu_ then stream mu
          chunk.seq = stream->next_seq++;
          stream->chunks.push_back(std::move(chunk));
          if (stream->chunks.size() > cfg_.max_chunks_retained) {
            const auto drop = static_cast<std::ptrdiff_t>(
                stream->chunks.size() - cfg_.max_chunks_retained);
            stream->chunks.erase(stream->chunks.begin(),
                                 stream->chunks.begin() + drop);
            stream->base_seq += drop;
          }
          nchunks = stream->next_seq;
          stream->cv.notify_all();
        }
        sched_.record_progress(msg.job_id, msg.step, nchunks, now);
        if (msg.chunk_kind == ChunkKind::kMetrics)
          sched_.record_first_chunk(msg.job_id, now);
        break;
      }
      case UpKind::kResult: {
        const auto it = running_jobs_.find(msg.job_id);
        if (it == running_jobs_.end()) break;  // raced with rank death
        RunningJob& rj = it->second;
        if (!rj.result_seen) {
          rj.result_seen = true;
          sched_.record_result(msg.job_id, now);
          rj.potential_energy = msg.potential_energy;
          rj.steps_completed = msg.steps_completed;
          if (msg.failed) {
            rj.final_state = JobState::kFailed;
            rj.final_error = msg.error;
          } else if (msg.cancelled) {
            rj.final_state = JobState::kCancelled;
          } else {
            rj.final_state = JobState::kDone;
          }
        }
        if (!rj.ctrl_sent) {
          // Release every subset rank's control listener.
          CtrlMsg ctrl;
          ctrl.job_id = msg.job_id;
          ctrl.action = CtrlAction::kFinish;
          const Bytes payload = encode_ctrl(ctrl);
          for (const int r : rj.pool_ranks) {
            if (worker_alive_[static_cast<std::size_t>(r - 1)])
              pool_.send(r, tags::kSvcCtrl, payload);
          }
          rj.ctrl_sent = true;
        }
        finalize_if_drained_locked(msg.job_id);
        break;
      }
      case UpKind::kDone: {
        const auto it = running_jobs_.find(msg.job_id);
        if (it == running_jobs_.end()) break;
        it->second.pending_ranks.erase(worker_rank);
        finalize_if_drained_locked(msg.job_id);
        break;
      }
      case UpKind::kBye:
        break;  // handled above
    }
  }
}

// ---------------------------------------------------------------------
// Client sessions.

void ServeDaemon::accept_loop() {
  while (running_.load()) {
    // Short wait so teardown is observed promptly even with no clients.
    const int fd = net::accept_conn(
        listen_fd_, net::Clock::now() + std::chrono::milliseconds(200));
    if (fd < 0) continue;
    const MutexLock lock(conn_mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { session(fd); });
  }
}

void ServeDaemon::session(int fd) {
  for (;;) {
    Bytes payload;
    bool keep = false;
    try {
      if (!read_frame_payload(fd, &payload)) break;  // clean EOF
      const Frame frame = decode_frame(payload);
      keep = handle_frame(fd, frame);
    } catch (const std::exception& e) {
      // Malformed frame: answer kError and drop the connection — the
      // stream may be unsynchronized, but the daemon is unharmed.
      (void)write_frame(fd, MsgType::kError, encode_error(e.what()));
      break;
    }
    if (!keep || !running_.load()) break;
  }
  ::close(fd);
}

bool ServeDaemon::handle_frame(int fd, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kSubmit: {
      const SubmitRequest req = decode_submit(frame.body);
      std::int64_t id = 0;
      try {
        if (shutdown_requested_.load())
          throw Error("daemon is shutting down; not accepting jobs");
        // Full plan build validates the config the same way the worker
        // will see it, and prices the job for the resource caps.
        const JobPlan plan = build_job_plan(Config::parse(req.config_text));
        const JobLimits& lim = cfg_.limits;
        const long long atoms = plan.system->num_atoms();
        if (lim.max_atoms > 0 && atoms > lim.max_atoms)
          throw Error("job wants " + std::to_string(atoms) +
                      " atoms; this daemon caps jobs at " +
                      std::to_string(lim.max_atoms));
        if (lim.max_steps > 0 && plan.steps > lim.max_steps)
          throw Error("job wants " + std::to_string(plan.steps) +
                      " steps; this daemon caps jobs at " +
                      std::to_string(lim.max_steps));
        double walltime_s = plan.walltime_s;
        if (lim.max_walltime_s > 0.0) {
          walltime_s = walltime_s <= 0.0
                           ? lim.max_walltime_s
                           : std::min(walltime_s, lim.max_walltime_s);
        }
        if (req.resume_job > 0) {
          SCMD_REQUIRE(!cfg_.dir.empty(),
                       "resume needs a daemon started with --dir");
          SCMD_REQUIRE(dir_exists(job_dir(req.resume_job) + "/ckpt"),
                       "job " + std::to_string(req.resume_job) +
                           " left no checkpoints to resume from");
        }

        MutexLock lock(mu_);
        id = sched_.submit(req.config_text, req.priority, plan.ranks,
                           plan.steps, req.want_checkpoint, req.resume_job,
                           now_s());
        streams_.emplace(id, std::make_shared<JobStream>());
        JobAssignment proto;
        proto.job_id = id;
        proto.config_text = req.config_text;
        proto.want_checkpoint = req.want_checkpoint;
        proto.metrics_every =
            static_cast<std::int32_t>(plan.metrics_every);
        proto.walltime_s = walltime_s;
        if (!cfg_.dir.empty()) {
          ensure_dir(job_dir(id));
          proto.trace_path = job_dir(id) + "/trace.json";
          proto.checkpoint_every =
              static_cast<std::int32_t>(plan.checkpoint_every);
          if (req.resume_job > 0) {
            // Resumed jobs extend the original job's snapshot lineage.
            proto.restore = true;
            proto.ckpt_dir = job_dir(req.resume_job) + "/ckpt";
          } else if (plan.checkpoint_every > 0) {
            proto.ckpt_dir = job_dir(id) + "/ckpt";
            ensure_dir(proto.ckpt_dir);
          }
        }
        assignment_proto_.emplace(id, std::move(proto));
        dispatch_locked();
        update_metrics_locked();
        publish_locked();
        tick_cv_.notify_all();
      } catch (const std::exception& e) {
        return write_frame(fd, MsgType::kError, encode_error(e.what()));
      }
      return write_frame(fd, MsgType::kSubmitOk, encode_job_id(id));
    }
    case MsgType::kPoll: {
      const std::int64_t id = decode_job_id(frame.body);
      JobStatus st;
      {
        const MutexLock lock(mu_);
        if (sched_.find(id) == nullptr)
          return write_frame(fd, MsgType::kError,
                             encode_error("unknown job " + std::to_string(id)));
        st = status_of_locked(id);
      }
      return write_frame(fd, MsgType::kStatus, encode_status(st));
    }
    case MsgType::kCancel: {
      const std::int64_t id = decode_job_id(frame.body);
      JobStatus st;
      {
        const MutexLock lock(mu_);
        if (sched_.find(id) == nullptr)
          return write_frame(fd, MsgType::kError,
                             encode_error("unknown job " + std::to_string(id)));
        cancel_job_locked(id, "cancelled by client");
        st = status_of_locked(id);
      }
      return write_frame(fd, MsgType::kCancelOk, encode_status(st));
    }
    case MsgType::kStream:
      return handle_stream(fd, decode_stream_req(frame.body));
    case MsgType::kJobs: {
      std::string json;
      {
        const MutexLock lock(mu_);
        json = sched_.table_json(now_s());
      }
      return write_frame(fd, MsgType::kJobsInfo, encode_text(json));
    }
    case MsgType::kShutdown: {
      const bool ok = write_frame(fd, MsgType::kShutdownOk, Bytes{});
      request_shutdown();
      return ok;
    }
    default:
      return write_frame(fd, MsgType::kError,
                         encode_error("unexpected frame type"));
  }
}

bool ServeDaemon::handle_stream(int fd, const StreamRequest& req) {
  std::shared_ptr<JobStream> stream;
  {
    const MutexLock lock(mu_);
    const auto it = streams_.find(req.job_id);
    if (it == streams_.end())
      return write_frame(
          fd, MsgType::kError,
          encode_error("unknown job " + std::to_string(req.job_id)));
    stream = it->second;
  }

  bool disconnected = false;
  std::int64_t next = std::max<std::int64_t>(req.from_seq, 0);
  for (;;) {
    enum class Action { kSend, kEnd, kGone };
    Action action = Action::kEnd;
    ChunkMsg chunk;
    StreamEnd end;
    end.job_id = req.job_id;
    {
      MutexLock slock(stream->mu);
      for (;;) {
        // Evicted history restarts at the oldest retained chunk.
        if (next < stream->base_seq) next = stream->base_seq;
        if (next < stream->next_seq) {
          chunk =
              stream->chunks[static_cast<std::size_t>(next - stream->base_seq)];
          action = Action::kSend;
          break;
        }
        if (stream->closed) {
          end.state = stream->final_state;
          end.error = stream->final_error;
          action = Action::kEnd;
          break;
        }
        if (!running_.load()) {
          end.state = JobState::kFailed;
          end.error = "daemon stopped";
          action = Action::kEnd;
          break;
        }
        (void)stream->cv.wait_for(stream->mu, std::chrono::milliseconds(100));
        // A streaming client hung up (half-close or reset).
        if (net::peer_closed(fd)) {
          action = Action::kGone;
          break;
        }
      }
    }
    switch (action) {
      case Action::kSend:
        if (!write_frame(fd, MsgType::kChunk, encode_chunk(chunk))) {
          disconnected = true;
        } else {
          ++next;
        }
        break;
      case Action::kEnd:
        return write_frame(fd, MsgType::kStreamEnd, encode_stream_end(end));
      case Action::kGone:
        disconnected = true;
        break;
    }
    if (disconnected) {
      // A client that vanishes mid-stream takes its job down with it —
      // and nothing else.  The pool and every other job keep going.
      const MutexLock lock(mu_);
      cancel_job_locked(req.job_id, "client disconnected mid-stream");
      return false;
    }
  }
}

// ---------------------------------------------------------------------
// Main loop + teardown.

void ServeDaemon::run() {
  if (torn_down_) return;
  const auto tick = std::chrono::duration<double>(
      cfg_.tick_s > 0.0 ? cfg_.tick_s : 0.02);
  for (;;) {
    MutexLock lock(mu_);
    if (shutdown_requested_.load()) {
      // Sweep: queued jobs go terminal now, running jobs get a cancel;
      // both are idempotent, so re-sweeping each wakeup is harmless.
      for (const JobRecord* rec : sched_.jobs()) {
        if (!job_state_terminal(rec->state))
          cancel_job_locked(rec->id, "daemon shutdown");
      }
      if (sched_.active_jobs() == 0 && sched_.queue_depth() == 0) break;
    } else {
      dispatch_locked();
    }
    publish_locked();
    (void)tick_cv_.wait_for(mu_, tick);
  }

  // Every job is terminal and every surviving rank is back on its
  // assignment wait: dissolve the pool.
  {
    const MutexLock lock(mu_);
    JobAssignment bye;
    bye.shutdown = true;
    const Bytes payload = encode_assignment(bye);
    for (int w = 1; w < pool_.num_ranks(); ++w) {
      if (worker_alive_[static_cast<std::size_t>(w - 1)])
        pool_.send(w, tags::kSvcAssign, payload);
    }
  }
  for (std::thread& t : monitors_) {
    if (t.joinable()) t.join();
  }

  // Client side: stop accepting, unblock sessions, join them.
  running_.store(false);
  {
    const MutexLock lock(conn_mu_);
    for (const int fd : conn_fds_) net::hang_up(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // The accept loop (the only other writer of conn_threads_) is
    // joined; sessions never touch the vector, so this cannot deadlock.
    const MutexLock lock(conn_mu_);
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  {
    // One last snapshot so late scrapes see the final job table.
    const MutexLock lock(mu_);
    publish_locked();
    update_metrics_locked();
  }
  torn_down_ = true;
}

}  // namespace scmd::serve

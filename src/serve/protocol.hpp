#pragma once

/// \file protocol.hpp
/// Wire grammar for MD-as-a-service (docs/SERVICE.md).
///
/// Two protocols share this file:
///
///  1. The **client session protocol** between `scmd_client` and the
///     daemon's client socket: u32-LE length-prefixed frames (the same
///     outer framing as net/status_server and net/tcp), each frame
///     `u32 magic | u16 type | body`.  Bodies are encoded with the
///     bounds-checked ckpt::ByteWriter/ByteReader pair, so a truncated
///     or garbage frame is an scmd::Error at decode time — the daemon
///     answers kError and drops the connection, it never crashes.
///
///  2. The **pool control protocol** between the daemon (pool rank 0)
///     and its workers, carried over the Transport on the registered
///     `service` tag window (net/tags.hpp): job assignments down on
///     kSvcAssign, exactly one control verdict (cancel or finish) per
///     worker per job on kSvcCtrl, and chunk/result/done/bye traffic up
///     on kSvcUp.  A running job's MD traffic never touches this
///     window — serve::SubsetTransport remaps it onto the ordinary MD
///     tags between pool workers.

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "net/transport.hpp"

namespace scmd::serve {

/// First four body bytes of every client-protocol frame ("SCv1" LE).
inline constexpr std::uint32_t kFrameMagic = 0x31764353;

/// A frame larger than this is a confused client, not a request (the
/// largest legitimate frame is a checkpoint chunk).
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Client-protocol frame types.  Append-only: renumbering breaks old
/// clients.
enum class MsgType : std::uint16_t {
  kSubmit = 1,      ///< client -> daemon: SubmitRequest
  kSubmitOk = 2,    ///< daemon -> client: job id
  kPoll = 3,        ///< client -> daemon: job id
  kStatus = 4,      ///< daemon -> client: JobStatus
  kStream = 5,      ///< client -> daemon: StreamRequest
  kChunk = 6,       ///< daemon -> client: ChunkMsg (streaming)
  kStreamEnd = 7,   ///< daemon -> client: StreamEnd (terminal)
  kCancel = 8,      ///< client -> daemon: job id
  kCancelOk = 9,    ///< daemon -> client: JobStatus after the cancel
  kJobs = 10,       ///< client -> daemon: empty body
  kJobsInfo = 11,   ///< daemon -> client: job-table JSON string
  kShutdown = 12,   ///< client -> daemon: empty body
  kShutdownOk = 13, ///< daemon -> client: empty body
  kError = 14,      ///< daemon -> client: message string
};

/// Job lifecycle (docs/SERVICE.md).  Wire-visible: values are stable.
enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};

const char* job_state_name(JobState s);
bool job_state_terminal(JobState s);

/// Stream chunk payloads (the PR 7 append-only log shape).
enum class ChunkKind : std::uint8_t {
  kMetrics = 0,     ///< JSONL metric record(s) from the job's registry
  kCheckpoint = 1,  ///< ckpt::encode_checkpoint of the final state
};

// ---------------------------------------------------------------------
// Client session protocol bodies.

struct SubmitRequest {
  std::string config_text;      ///< INI-lite job config (serve/runplan.hpp)
  std::int32_t priority = 0;    ///< higher runs first within the queue
  bool want_checkpoint = false; ///< stream the final state as a chunk
  std::int64_t resume_job = 0;  ///< resume from this job's checkpoints (0 = fresh)
};

struct JobStatus {
  std::int64_t job_id = 0;
  JobState state = JobState::kQueued;
  std::string error;            ///< non-empty for kFailed
  std::int64_t steps_done = 0;
  std::int64_t steps_total = 0;
  std::int64_t chunks = 0;      ///< stream chunks recorded so far
  double potential_energy = 0.0;  ///< valid once kDone
  double steps_per_sec = 0.0;
  std::vector<std::int32_t> pool_ranks;  ///< ranks held while running
};

struct StreamRequest {
  std::int64_t job_id = 0;
  std::int64_t from_seq = 0;  ///< first chunk sequence number wanted
};

struct ChunkMsg {
  std::int64_t job_id = 0;
  std::int64_t seq = 0;       ///< dense per-job sequence, from 0
  ChunkKind kind = ChunkKind::kMetrics;
  std::int64_t step = 0;      ///< MD step the chunk describes
  Bytes payload;
};

struct StreamEnd {
  std::int64_t job_id = 0;
  JobState state = JobState::kDone;
  std::string error;
};

/// One decoded client-protocol frame.
struct Frame {
  MsgType type = MsgType::kError;
  Bytes body;
};

/// body -> `magic | type | body` bytes ready for length-prefixed write.
Bytes encode_frame(MsgType type, const Bytes& body);

/// Validate magic + known type; throws scmd::Error on garbage.
Frame decode_frame(const Bytes& payload);

Bytes encode_submit(const SubmitRequest& req);
SubmitRequest decode_submit(const Bytes& body);

Bytes encode_job_id(std::int64_t job_id);
std::int64_t decode_job_id(const Bytes& body);

Bytes encode_status(const JobStatus& st);
JobStatus decode_status(const Bytes& body);

Bytes encode_stream_req(const StreamRequest& req);
StreamRequest decode_stream_req(const Bytes& body);

Bytes encode_chunk(const ChunkMsg& chunk);
ChunkMsg decode_chunk(const Bytes& body);

Bytes encode_stream_end(const StreamEnd& end);
StreamEnd decode_stream_end(const Bytes& body);

Bytes encode_error(const std::string& message);
std::string decode_error(const Bytes& body);

Bytes encode_text(const std::string& text);
std::string decode_text(const Bytes& body);

// ---------------------------------------------------------------------
// Pool control protocol (daemon <-> workers, service tag window).

/// Daemon -> worker on tags::kSvcAssign.  `shutdown` dissolves the
/// worker loop; otherwise the worker joins job `job_id` as pool rank
/// `pool_ranks[i]` (job-local rank i; pool_ranks[0] is the job root).
struct JobAssignment {
  bool shutdown = false;
  std::int64_t job_id = 0;
  std::string config_text;
  std::vector<std::int32_t> pool_ranks;
  bool want_telemetry = true;
  bool want_checkpoint = false;  ///< job root streams a final-state chunk
  std::string ckpt_dir;          ///< per-job snapshot dir ("" = off)
  std::int32_t checkpoint_every = 0;
  bool restore = false;          ///< resume from ckpt_dir's newest snapshot
  std::string trace_path;        ///< job root saves its merged trace here
  double walltime_s = 0.0;       ///< 0 = uncapped
  std::int32_t metrics_every = 1;
};

Bytes encode_assignment(const JobAssignment& a);
JobAssignment decode_assignment(const Bytes& payload);

/// Daemon -> worker on tags::kSvcCtrl: exactly one per worker per job.
/// kCancel arrives mid-run (the worker's poll_abort picks it up);
/// kFinish arrives after the job root reported its result, releasing
/// the worker's control listener so the next assignment finds a clean
/// channel.
enum class CtrlAction : std::uint8_t { kCancel = 1, kFinish = 2 };

struct CtrlMsg {
  std::int64_t job_id = 0;
  CtrlAction action = CtrlAction::kFinish;
};

Bytes encode_ctrl(const CtrlMsg& msg);
CtrlMsg decode_ctrl(const Bytes& payload);

/// Worker -> daemon on tags::kSvcUp.
enum class UpKind : std::uint8_t {
  kChunk = 1,   ///< job root: stream chunk (metrics/checkpoint)
  kResult = 2,  ///< job root: the job's outcome
  kDone = 3,    ///< every subset rank: job fully torn down, rank free
  kBye = 4,     ///< worker loop exited after a shutdown assignment
};

struct UpMsg {
  UpKind kind = UpKind::kDone;
  std::int64_t job_id = 0;
  // kChunk:
  ChunkKind chunk_kind = ChunkKind::kMetrics;
  std::int64_t step = 0;
  Bytes payload;
  // kResult:
  bool failed = false;
  bool cancelled = false;
  std::string error;
  double potential_energy = 0.0;
  std::int64_t steps_completed = 0;
  std::int64_t steps_total = 0;
};

Bytes encode_up(const UpMsg& msg);
UpMsg decode_up(const Bytes& payload);

// ---------------------------------------------------------------------
// Socket helpers for the client protocol (u32-LE length prefix).

/// Write one frame — length prefix, magic, type and body — in a single
/// gather write (net/socket.hpp); false on a broken peer (never throws).
bool write_frame(int fd, MsgType type, const Bytes& body);

/// Read one length-prefixed frame payload.  Returns false on clean
/// EOF/reset; throws scmd::Error when the peer announces an oversized
/// frame (protocol violation — the stream cannot be resynchronized).
bool read_frame_payload(int fd, Bytes* payload);

}  // namespace scmd::serve

#include "serve/protocol.hpp"

#include <cstring>

#include "net/socket.hpp"
#include "support/error.hpp"

namespace scmd::serve {

namespace {

void put_string(ckpt::ByteWriter& w, const std::string& s) {
  w.pod(static_cast<std::uint32_t>(s.size()));
  if (!s.empty()) w.append(s.data(), s.size());
}

std::string get_string(ckpt::ByteReader& r) {
  const auto n = r.pod<std::uint32_t>();
  const Bytes raw = r.take(n);
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

void put_bytes(ckpt::ByteWriter& w, const Bytes& b) {
  w.pod(static_cast<std::uint64_t>(b.size()));
  if (!b.empty()) w.append(b.data(), b.size());
}

Bytes get_bytes(ckpt::ByteReader& r) {
  const auto n = r.pod<std::uint64_t>();
  return r.take(static_cast<std::size_t>(n));
}

/// Decode must consume the whole body: trailing bytes mean a mis-framed
/// or tampered message, not a longer schema.
void require_done(const ckpt::ByteReader& r, const char* what) {
  SCMD_REQUIRE(r.done(), std::string("service frame has trailing bytes: ") + what);
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

bool job_state_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

Bytes encode_frame(MsgType type, const Bytes& body) {
  ckpt::ByteWriter w;
  w.pod(kFrameMagic);
  w.pod(static_cast<std::uint16_t>(type));
  if (!body.empty()) w.append(body.data(), body.size());
  return w.take();
}

Frame decode_frame(const Bytes& payload) {
  ckpt::ByteReader r(payload);
  const auto magic = r.pod<std::uint32_t>();
  SCMD_REQUIRE(magic == kFrameMagic,
               "service frame carries the wrong magic (not a service "
               "client?)");
  const auto type = r.pod<std::uint16_t>();
  SCMD_REQUIRE(type >= static_cast<std::uint16_t>(MsgType::kSubmit) &&
                   type <= static_cast<std::uint16_t>(MsgType::kError),
               "service frame carries an unknown message type " +
                   std::to_string(type));
  Frame f;
  f.type = static_cast<MsgType>(type);
  f.body = r.take(r.remaining());
  return f;
}

Bytes encode_submit(const SubmitRequest& req) {
  ckpt::ByteWriter w;
  put_string(w, req.config_text);
  w.pod(req.priority);
  w.pod(static_cast<std::uint8_t>(req.want_checkpoint ? 1 : 0));
  w.pod(req.resume_job);
  return w.take();
}

SubmitRequest decode_submit(const Bytes& body) {
  ckpt::ByteReader r(body);
  SubmitRequest req;
  req.config_text = get_string(r);
  req.priority = r.pod<std::int32_t>();
  req.want_checkpoint = r.pod<std::uint8_t>() != 0;
  req.resume_job = r.pod<std::int64_t>();
  require_done(r, "submit");
  return req;
}

Bytes encode_job_id(std::int64_t job_id) {
  ckpt::ByteWriter w;
  w.pod(job_id);
  return w.take();
}

std::int64_t decode_job_id(const Bytes& body) {
  ckpt::ByteReader r(body);
  const auto id = r.pod<std::int64_t>();
  require_done(r, "job id");
  return id;
}

Bytes encode_status(const JobStatus& st) {
  ckpt::ByteWriter w;
  w.pod(st.job_id);
  w.pod(static_cast<std::uint8_t>(st.state));
  put_string(w, st.error);
  w.pod(st.steps_done);
  w.pod(st.steps_total);
  w.pod(st.chunks);
  w.pod(st.potential_energy);
  w.pod(st.steps_per_sec);
  w.array(st.pool_ranks);
  return w.take();
}

JobStatus decode_status(const Bytes& body) {
  ckpt::ByteReader r(body);
  JobStatus st;
  st.job_id = r.pod<std::int64_t>();
  st.state = static_cast<JobState>(r.pod<std::uint8_t>());
  st.error = get_string(r);
  st.steps_done = r.pod<std::int64_t>();
  st.steps_total = r.pod<std::int64_t>();
  st.chunks = r.pod<std::int64_t>();
  st.potential_energy = r.pod<double>();
  st.steps_per_sec = r.pod<double>();
  st.pool_ranks = r.array<std::int32_t>();
  require_done(r, "status");
  return st;
}

Bytes encode_stream_req(const StreamRequest& req) {
  ckpt::ByteWriter w;
  w.pod(req.job_id);
  w.pod(req.from_seq);
  return w.take();
}

StreamRequest decode_stream_req(const Bytes& body) {
  ckpt::ByteReader r(body);
  StreamRequest req;
  req.job_id = r.pod<std::int64_t>();
  req.from_seq = r.pod<std::int64_t>();
  require_done(r, "stream request");
  return req;
}

Bytes encode_chunk(const ChunkMsg& chunk) {
  ckpt::ByteWriter w;
  w.pod(chunk.job_id);
  w.pod(chunk.seq);
  w.pod(static_cast<std::uint8_t>(chunk.kind));
  w.pod(chunk.step);
  put_bytes(w, chunk.payload);
  return w.take();
}

ChunkMsg decode_chunk(const Bytes& body) {
  ckpt::ByteReader r(body);
  ChunkMsg chunk;
  chunk.job_id = r.pod<std::int64_t>();
  chunk.seq = r.pod<std::int64_t>();
  chunk.kind = static_cast<ChunkKind>(r.pod<std::uint8_t>());
  chunk.step = r.pod<std::int64_t>();
  chunk.payload = get_bytes(r);
  require_done(r, "chunk");
  return chunk;
}

Bytes encode_stream_end(const StreamEnd& end) {
  ckpt::ByteWriter w;
  w.pod(end.job_id);
  w.pod(static_cast<std::uint8_t>(end.state));
  put_string(w, end.error);
  return w.take();
}

StreamEnd decode_stream_end(const Bytes& body) {
  ckpt::ByteReader r(body);
  StreamEnd end;
  end.job_id = r.pod<std::int64_t>();
  end.state = static_cast<JobState>(r.pod<std::uint8_t>());
  end.error = get_string(r);
  require_done(r, "stream end");
  return end;
}

Bytes encode_error(const std::string& message) { return encode_text(message); }

std::string decode_error(const Bytes& body) { return decode_text(body); }

Bytes encode_text(const std::string& text) {
  ckpt::ByteWriter w;
  put_string(w, text);
  return w.take();
}

std::string decode_text(const Bytes& body) {
  ckpt::ByteReader r(body);
  std::string s = get_string(r);
  require_done(r, "text");
  return s;
}

Bytes encode_assignment(const JobAssignment& a) {
  ckpt::ByteWriter w;
  w.pod(static_cast<std::uint8_t>(a.shutdown ? 1 : 0));
  w.pod(a.job_id);
  put_string(w, a.config_text);
  w.array(a.pool_ranks);
  w.pod(static_cast<std::uint8_t>(a.want_telemetry ? 1 : 0));
  w.pod(static_cast<std::uint8_t>(a.want_checkpoint ? 1 : 0));
  put_string(w, a.ckpt_dir);
  w.pod(a.checkpoint_every);
  w.pod(static_cast<std::uint8_t>(a.restore ? 1 : 0));
  put_string(w, a.trace_path);
  w.pod(a.walltime_s);
  w.pod(a.metrics_every);
  return w.take();
}

JobAssignment decode_assignment(const Bytes& payload) {
  ckpt::ByteReader r(payload);
  JobAssignment a;
  a.shutdown = r.pod<std::uint8_t>() != 0;
  a.job_id = r.pod<std::int64_t>();
  a.config_text = get_string(r);
  a.pool_ranks = r.array<std::int32_t>();
  a.want_telemetry = r.pod<std::uint8_t>() != 0;
  a.want_checkpoint = r.pod<std::uint8_t>() != 0;
  a.ckpt_dir = get_string(r);
  a.checkpoint_every = r.pod<std::int32_t>();
  a.restore = r.pod<std::uint8_t>() != 0;
  a.trace_path = get_string(r);
  a.walltime_s = r.pod<double>();
  a.metrics_every = r.pod<std::int32_t>();
  require_done(r, "assignment");
  return a;
}

Bytes encode_ctrl(const CtrlMsg& msg) {
  ckpt::ByteWriter w;
  w.pod(msg.job_id);
  w.pod(static_cast<std::uint8_t>(msg.action));
  return w.take();
}

CtrlMsg decode_ctrl(const Bytes& payload) {
  ckpt::ByteReader r(payload);
  CtrlMsg msg;
  msg.job_id = r.pod<std::int64_t>();
  const auto action = r.pod<std::uint8_t>();
  SCMD_REQUIRE(action == static_cast<std::uint8_t>(CtrlAction::kCancel) ||
                   action == static_cast<std::uint8_t>(CtrlAction::kFinish),
               "unknown service control action " + std::to_string(action));
  msg.action = static_cast<CtrlAction>(action);
  require_done(r, "ctrl");
  return msg;
}

Bytes encode_up(const UpMsg& msg) {
  ckpt::ByteWriter w;
  w.pod(static_cast<std::uint8_t>(msg.kind));
  w.pod(msg.job_id);
  w.pod(static_cast<std::uint8_t>(msg.chunk_kind));
  w.pod(msg.step);
  put_bytes(w, msg.payload);
  w.pod(static_cast<std::uint8_t>(msg.failed ? 1 : 0));
  w.pod(static_cast<std::uint8_t>(msg.cancelled ? 1 : 0));
  put_string(w, msg.error);
  w.pod(msg.potential_energy);
  w.pod(msg.steps_completed);
  w.pod(msg.steps_total);
  return w.take();
}

UpMsg decode_up(const Bytes& payload) {
  ckpt::ByteReader r(payload);
  UpMsg msg;
  const auto kind = r.pod<std::uint8_t>();
  SCMD_REQUIRE(kind >= static_cast<std::uint8_t>(UpKind::kChunk) &&
                   kind <= static_cast<std::uint8_t>(UpKind::kBye),
               "unknown service up-message kind " + std::to_string(kind));
  msg.kind = static_cast<UpKind>(kind);
  msg.job_id = r.pod<std::int64_t>();
  msg.chunk_kind = static_cast<ChunkKind>(r.pod<std::uint8_t>());
  msg.step = r.pod<std::int64_t>();
  msg.payload = get_bytes(r);
  msg.failed = r.pod<std::uint8_t>() != 0;
  msg.cancelled = r.pod<std::uint8_t>() != 0;
  msg.error = get_string(r);
  msg.potential_energy = r.pod<double>();
  msg.steps_completed = r.pod<std::int64_t>();
  msg.steps_total = r.pod<std::int64_t>();
  require_done(r, "up message");
  return msg;
}

bool write_frame(int fd, MsgType type, const Bytes& body) {
  // u32 length | u32 magic | u16 type, then the body: one gather write.
  constexpr std::size_t kPrefix = 4 + 4 + 2;
  const auto len = static_cast<std::uint32_t>(kPrefix - 4 + body.size());
  const auto t = static_cast<std::uint16_t>(type);
  char prefix[kPrefix] = {};
  std::memcpy(prefix, &len, 4);
  std::memcpy(prefix + 4, &kFrameMagic, 4);
  std::memcpy(prefix + 8, &t, 2);
  iovec parts[] = {net::buf(prefix, sizeof(prefix)),
                   net::buf(body.data(), body.size())};
  return net::write_all(fd, parts);
}

bool read_frame_payload(int fd, Bytes* payload) {
  std::uint32_t len = 0;
  if (!net::read_all(fd, &len, sizeof(len))) return false;
  SCMD_REQUIRE(len <= kMaxFrameBytes,
               "service frame announces " + std::to_string(len) +
                   " bytes (limit " + std::to_string(kMaxFrameBytes) +
                   ") — protocol violation");
  payload->resize(len);
  if (len > 0 && !net::read_all(fd, payload->data(), len)) return false;
  return true;
}

}  // namespace scmd::serve

// Wire grammar of the MD-as-a-service protocols (serve/protocol.hpp):
// every body codec round-trips, and malformed frames — bad magic,
// unknown type, truncation, trailing bytes, oversized length prefix —
// are scmd::Error at decode time, never a crash or a misparse.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "serve/protocol.hpp"
#include "support/error.hpp"

namespace scmd::serve {
namespace {

Bytes bytes_of(const std::string& s) {
  Bytes out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(ServeProtocolTest, FrameRoundTrip) {
  SubmitRequest req;
  req.config_text = "field = lj\nsteps = 5\n";
  req.priority = 3;
  req.want_checkpoint = true;
  req.resume_job = 17;
  const Bytes payload = encode_frame(MsgType::kSubmit, encode_submit(req));
  const Frame frame = decode_frame(payload);
  EXPECT_EQ(frame.type, MsgType::kSubmit);
  const SubmitRequest back = decode_submit(frame.body);
  EXPECT_EQ(back.config_text, req.config_text);
  EXPECT_EQ(back.priority, 3);
  EXPECT_TRUE(back.want_checkpoint);
  EXPECT_EQ(back.resume_job, 17);
}

TEST(ServeProtocolTest, DecodeFrameRejectsBadMagic) {
  Bytes payload = encode_frame(MsgType::kPoll, encode_job_id(1));
  payload[0] = std::byte{0xAA};
  EXPECT_THROW(decode_frame(payload), Error);
}

TEST(ServeProtocolTest, DecodeFrameRejectsUnknownType) {
  Bytes payload = encode_frame(MsgType::kPoll, encode_job_id(1));
  // The u16 type sits right after the u32 magic.
  payload[4] = std::byte{0xFF};
  payload[5] = std::byte{0xFF};
  EXPECT_THROW(decode_frame(payload), Error);
}

TEST(ServeProtocolTest, DecodeFrameRejectsShortPayload) {
  EXPECT_THROW(decode_frame(Bytes(3)), Error);
  EXPECT_THROW(decode_frame(Bytes{}), Error);
}

TEST(ServeProtocolTest, DecodeBodyRejectsTruncation) {
  const Bytes body = encode_status([] {
    JobStatus st;
    st.job_id = 9;
    st.state = JobState::kRunning;
    st.pool_ranks = {1, 2, 3};
    return st;
  }());
  Bytes cut(body.begin(), body.end() - 1);
  EXPECT_THROW(decode_status(cut), Error);
}

TEST(ServeProtocolTest, DecodeBodyRejectsTrailingBytes) {
  Bytes body = encode_job_id(42);
  body.push_back(std::byte{0});
  EXPECT_THROW(decode_job_id(body), Error);
}

TEST(ServeProtocolTest, StatusRoundTrip) {
  JobStatus st;
  st.job_id = 5;
  st.state = JobState::kFailed;
  st.error = "boom \"quoted\"";
  st.steps_done = 40;
  st.steps_total = 100;
  st.chunks = 41;
  st.potential_energy = -1.25;
  st.steps_per_sec = 123.5;
  st.pool_ranks = {2, 4};
  const JobStatus back = decode_status(encode_status(st));
  EXPECT_EQ(back.job_id, 5);
  EXPECT_EQ(back.state, JobState::kFailed);
  EXPECT_EQ(back.error, st.error);
  EXPECT_EQ(back.steps_done, 40);
  EXPECT_EQ(back.steps_total, 100);
  EXPECT_EQ(back.chunks, 41);
  EXPECT_DOUBLE_EQ(back.potential_energy, -1.25);
  EXPECT_DOUBLE_EQ(back.steps_per_sec, 123.5);
  EXPECT_EQ(back.pool_ranks, (std::vector<std::int32_t>{2, 4}));
}

TEST(ServeProtocolTest, ChunkAndStreamRoundTrips) {
  ChunkMsg chunk;
  chunk.job_id = 7;
  chunk.seq = 12;
  chunk.kind = ChunkKind::kCheckpoint;
  chunk.step = 99;
  chunk.payload = bytes_of("binary\0payload");
  const ChunkMsg back = decode_chunk(encode_chunk(chunk));
  EXPECT_EQ(back.job_id, 7);
  EXPECT_EQ(back.seq, 12);
  EXPECT_EQ(back.kind, ChunkKind::kCheckpoint);
  EXPECT_EQ(back.step, 99);
  EXPECT_EQ(back.payload, chunk.payload);

  StreamRequest req;
  req.job_id = 7;
  req.from_seq = 3;
  const StreamRequest rback = decode_stream_req(encode_stream_req(req));
  EXPECT_EQ(rback.job_id, 7);
  EXPECT_EQ(rback.from_seq, 3);

  StreamEnd end;
  end.job_id = 7;
  end.state = JobState::kCancelled;
  end.error = "cancelled by client";
  const StreamEnd eback = decode_stream_end(encode_stream_end(end));
  EXPECT_EQ(eback.job_id, 7);
  EXPECT_EQ(eback.state, JobState::kCancelled);
  EXPECT_EQ(eback.error, "cancelled by client");
}

TEST(ServeProtocolTest, TextAndErrorRoundTrips) {
  EXPECT_EQ(decode_error(encode_error("unknown job 9")), "unknown job 9");
  EXPECT_EQ(decode_text(encode_text("{\"jobs\":[]}")), "{\"jobs\":[]}");
}

TEST(ServeProtocolTest, AssignmentRoundTrip) {
  JobAssignment a;
  a.job_id = 21;
  a.config_text = "field = lj\n";
  a.pool_ranks = {3, 1, 5};
  a.want_telemetry = false;
  a.want_checkpoint = true;
  a.ckpt_dir = "/tmp/jobs/21/ckpt";
  a.checkpoint_every = 4;
  a.restore = true;
  a.trace_path = "/tmp/jobs/21/trace.json";
  a.walltime_s = 12.5;
  a.metrics_every = 2;
  const JobAssignment back = decode_assignment(encode_assignment(a));
  EXPECT_FALSE(back.shutdown);
  EXPECT_EQ(back.job_id, 21);
  EXPECT_EQ(back.config_text, a.config_text);
  EXPECT_EQ(back.pool_ranks, a.pool_ranks);
  EXPECT_FALSE(back.want_telemetry);
  EXPECT_TRUE(back.want_checkpoint);
  EXPECT_EQ(back.ckpt_dir, a.ckpt_dir);
  EXPECT_EQ(back.checkpoint_every, 4);
  EXPECT_TRUE(back.restore);
  EXPECT_EQ(back.trace_path, a.trace_path);
  EXPECT_DOUBLE_EQ(back.walltime_s, 12.5);
  EXPECT_EQ(back.metrics_every, 2);

  JobAssignment bye;
  bye.shutdown = true;
  EXPECT_TRUE(decode_assignment(encode_assignment(bye)).shutdown);
}

TEST(ServeProtocolTest, CtrlAndUpRoundTrips) {
  CtrlMsg ctrl;
  ctrl.job_id = 4;
  ctrl.action = CtrlAction::kCancel;
  const CtrlMsg cback = decode_ctrl(encode_ctrl(ctrl));
  EXPECT_EQ(cback.job_id, 4);
  EXPECT_EQ(cback.action, CtrlAction::kCancel);

  UpMsg up;
  up.kind = UpKind::kResult;
  up.job_id = 4;
  up.failed = true;
  up.cancelled = false;
  up.error = "walltime cap exceeded after 3 step(s)";
  up.potential_energy = -2.5;
  up.steps_completed = 3;
  up.steps_total = 100;
  const UpMsg uback = decode_up(encode_up(up));
  EXPECT_EQ(uback.kind, UpKind::kResult);
  EXPECT_EQ(uback.job_id, 4);
  EXPECT_TRUE(uback.failed);
  EXPECT_FALSE(uback.cancelled);
  EXPECT_EQ(uback.error, up.error);
  EXPECT_DOUBLE_EQ(uback.potential_energy, -2.5);
  EXPECT_EQ(uback.steps_completed, 3);
  EXPECT_EQ(uback.steps_total, 100);

  UpMsg chunk;
  chunk.kind = UpKind::kChunk;
  chunk.job_id = 4;
  chunk.chunk_kind = ChunkKind::kMetrics;
  chunk.step = 8;
  chunk.payload = bytes_of("{\"step\":8}\n");
  const UpMsg chback = decode_up(encode_up(chunk));
  EXPECT_EQ(chback.kind, UpKind::kChunk);
  EXPECT_EQ(chback.chunk_kind, ChunkKind::kMetrics);
  EXPECT_EQ(chback.step, 8);
  EXPECT_EQ(chback.payload, chunk.payload);
}

/// Socket framing over a socketpair: round trip, clean EOF, and the
/// unresynchronizable oversized length prefix.
TEST(ServeProtocolTest, SocketFraming) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

  ASSERT_TRUE(write_frame(fds[0], MsgType::kPoll, encode_job_id(33)));
  Bytes payload;
  ASSERT_TRUE(read_frame_payload(fds[1], &payload));
  const Frame frame = decode_frame(payload);
  EXPECT_EQ(frame.type, MsgType::kPoll);
  EXPECT_EQ(decode_job_id(frame.body), 33);

  // Clean EOF: false, no throw.
  ::shutdown(fds[0], SHUT_WR);
  EXPECT_FALSE(read_frame_payload(fds[1], &payload));
  ::close(fds[0]);
  ::close(fds[1]);

  // Oversized announced length: protocol violation, throws.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  ASSERT_EQ(::send(fds[0], &huge, sizeof(huge), 0),
            static_cast<ssize_t>(sizeof(huge)));
  EXPECT_THROW(read_frame_payload(fds[1], &payload), Error);
  ::close(fds[0]);
  ::close(fds[1]);
}

/// write_frame's single gather write puts exactly `u32 length |
/// encode_frame(type, body)` on the wire, empty bodies included.
TEST(ServeProtocolTest, WriteFrameBytesAreLengthPlusEncodeFrame) {
  for (const Bytes& body : {Bytes{}, encode_job_id(33)}) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_TRUE(write_frame(fds[0], MsgType::kStatus, body));
    ::close(fds[0]);
    const Bytes framed = encode_frame(MsgType::kStatus, body);
    const auto len = static_cast<std::uint32_t>(framed.size());
    Bytes want(sizeof(len));
    std::memcpy(want.data(), &len, sizeof(len));
    want.insert(want.end(), framed.begin(), framed.end());
    Bytes got(want.size() + 1);  // one spare byte: nothing may follow
    const ssize_t n = ::recv(fds[1], got.data(), got.size(), MSG_WAITALL);
    ASSERT_EQ(n, static_cast<ssize_t>(want.size()));
    got.resize(want.size());
    EXPECT_EQ(got, want);
    ::close(fds[1]);
  }
}

TEST(ServeProtocolTest, StateNamesAndTerminality) {
  EXPECT_STREQ(job_state_name(JobState::kQueued), "queued");
  EXPECT_STREQ(job_state_name(JobState::kRunning), "running");
  EXPECT_STREQ(job_state_name(JobState::kDone), "done");
  EXPECT_STREQ(job_state_name(JobState::kFailed), "failed");
  EXPECT_STREQ(job_state_name(JobState::kCancelled), "cancelled");
  EXPECT_FALSE(job_state_terminal(JobState::kQueued));
  EXPECT_FALSE(job_state_terminal(JobState::kRunning));
  EXPECT_TRUE(job_state_terminal(JobState::kDone));
  EXPECT_TRUE(job_state_terminal(JobState::kFailed));
  EXPECT_TRUE(job_state_terminal(JobState::kCancelled));
}

}  // namespace
}  // namespace scmd::serve

#include "serve/client.hpp"

#include <unistd.h>

#include <utility>

#include "net/socket.hpp"
#include "support/error.hpp"

namespace scmd::serve {

ClientConnection::ClientConnection(const std::string& host, int port)
    : fd_(net::dial(host, port)) {}

ClientConnection::~ClientConnection() { close(); }

void ClientConnection::disconnect() {
  const int fd = fd_.load();
  if (fd >= 0) net::hang_up(fd);
}

void ClientConnection::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    net::hang_up(fd);
    ::close(fd);
  }
}

Frame ClientConnection::request(MsgType type, const Bytes& body) {
  const int fd = fd_.load();
  SCMD_REQUIRE(fd >= 0, "connection is closed");
  SCMD_REQUIRE(write_frame(fd, type, body),
               "connection to the daemon broke mid-request");
  Bytes payload;
  SCMD_REQUIRE(read_frame_payload(fd, &payload),
               "daemon closed the connection without replying");
  Frame reply = decode_frame(payload);
  if (reply.type == MsgType::kError)
    throw Error("daemon: " + decode_error(reply.body));
  return reply;
}

std::int64_t ClientConnection::submit(const SubmitRequest& req) {
  const Frame reply = request(MsgType::kSubmit, encode_submit(req));
  SCMD_REQUIRE(reply.type == MsgType::kSubmitOk,
               "unexpected reply to submit");
  return decode_job_id(reply.body);
}

JobStatus ClientConnection::poll(std::int64_t job_id) {
  const Frame reply = request(MsgType::kPoll, encode_job_id(job_id));
  SCMD_REQUIRE(reply.type == MsgType::kStatus, "unexpected reply to poll");
  return decode_status(reply.body);
}

JobStatus ClientConnection::cancel(std::int64_t job_id) {
  const Frame reply = request(MsgType::kCancel, encode_job_id(job_id));
  SCMD_REQUIRE(reply.type == MsgType::kCancelOk,
               "unexpected reply to cancel");
  return decode_status(reply.body);
}

std::string ClientConnection::jobs() {
  const Frame reply = request(MsgType::kJobs, Bytes{});
  SCMD_REQUIRE(reply.type == MsgType::kJobsInfo, "unexpected reply to jobs");
  return decode_text(reply.body);
}

void ClientConnection::shutdown() {
  const Frame reply = request(MsgType::kShutdown, Bytes{});
  SCMD_REQUIRE(reply.type == MsgType::kShutdownOk,
               "unexpected reply to shutdown");
}

StreamEnd ClientConnection::stream(
    std::int64_t job_id, std::int64_t from_seq,
    const std::function<void(const ChunkMsg&)>& on_chunk) {
  const int fd = fd_.load();
  SCMD_REQUIRE(fd >= 0, "connection is closed");
  StreamRequest req;
  req.job_id = job_id;
  req.from_seq = from_seq;
  SCMD_REQUIRE(write_frame(fd, MsgType::kStream, encode_stream_req(req)),
               "connection to the daemon broke mid-request");
  for (;;) {
    Bytes payload;
    SCMD_REQUIRE(read_frame_payload(fd, &payload),
                 "daemon closed the connection mid-stream");
    const Frame frame = decode_frame(payload);
    if (frame.type == MsgType::kChunk) {
      if (on_chunk) on_chunk(decode_chunk(frame.body));
      continue;
    }
    if (frame.type == MsgType::kStreamEnd)
      return decode_stream_end(frame.body);
    if (frame.type == MsgType::kError)
      throw Error("daemon: " + decode_error(frame.body));
    throw Error("unexpected frame type mid-stream");
  }
}

}  // namespace scmd::serve

#pragma once

/// \file client.hpp
/// Client side of the MD-as-a-service session protocol
/// (docs/SERVICE.md).  One ClientConnection is one TCP connection to
/// the daemon's client port; requests are synchronous and a connection
/// can issue any number of them.  Used by apps/scmd_client.cpp and the
/// service tests — the tests also use disconnect() to model a client
/// vanishing mid-stream.

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "serve/protocol.hpp"

namespace scmd::serve {

class ClientConnection {
 public:
  /// Connect to the daemon (net::dial, so TCP_NODELAY is set); throws
  /// scmd::Error when nobody answers.
  ClientConnection(const std::string& host, int port);
  ~ClientConnection();

  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// All requests throw scmd::Error on a kError reply or a broken
  /// connection.
  std::int64_t submit(const SubmitRequest& req);
  JobStatus poll(std::int64_t job_id);
  JobStatus cancel(std::int64_t job_id);
  std::string jobs();  ///< job-table JSON (scheduler schema)
  void shutdown();     ///< ask the daemon to drain and exit

  /// Follow a job's chunk stream from `from_seq`, invoking `on_chunk`
  /// per chunk, until the daemon sends the terminal marker (returned).
  /// Blocks while the job runs.
  StreamEnd stream(std::int64_t job_id, std::int64_t from_seq,
                   const std::function<void(const ChunkMsg&)>& on_chunk);

  /// Sever the connection without releasing the descriptor: a
  /// ::shutdown(SHUT_RDWR) that wakes any thread blocked in stream()
  /// (its recv returns 0 and it throws).  Safe to call concurrently
  /// with an in-flight stream() — this is the disconnect-mid-stream
  /// scenario, where the daemon cancels that job only.  close() the
  /// connection after the streaming thread has been joined.
  void disconnect();

  /// Release the socket (also called by the destructor).  Unlike
  /// disconnect() this invalidates the descriptor, so no other thread
  /// may be using the connection when it runs.
  void close();

 private:
  /// Send one frame, read one reply; throws on transport failure and
  /// turns a kError reply into an scmd::Error.
  Frame request(MsgType type, const Bytes& body);

  std::atomic<int> fd_{-1};
};

}  // namespace scmd::serve

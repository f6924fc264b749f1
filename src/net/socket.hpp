#pragma once

/// \file socket.hpp
/// The socket layer: the only code in src/ that makes socket syscalls
/// (tools/lint/scmd_lint.py, rule `raw-socket`).  The TCP mesh, the
/// serve daemon and client, and the status server all set up and write
/// their sockets through these helpers, so every endpoint behaves the
/// same way (docs/TRANSPORT.md, "Sockets"):
///
///  - every connected socket, dialed or accepted, has TCP_NODELAY set;
///  - a message leaves in one gather write (length prefix, header and
///    body together), never as a small write followed by another.
///
/// Both are needed.  A frame sent as two writes on a Nagle socket holds
/// the second write back until the peer ACKs the first, and the peer
/// delays that ACK by ~40 ms, so every request/reply round trip would
/// cost ~40 ms instead of tens of microseconds.

#include <sys/uio.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace scmd::net {

using Clock = std::chrono::steady_clock;

/// Bind a listening TCP socket on `host:port` (port 0 = ephemeral;
/// "0.0.0.0" or "" = every interface) and return {fd, bound port}.
/// Throws scmd::Error on failure.
std::pair<int, int> bind_listener(const std::string& host, int port);

/// Connect to `host:port` ("" = this machine) and return the socket,
/// with TCP_NODELAY set.  Without a deadline this makes one attempt per
/// resolved address; with one it retries with backoff (20 ms doubling
/// to 500 ms) until the deadline passes, for a peer whose listener may
/// not exist yet.  Throws scmd::Error naming the last failure when
/// nothing connected.
int dial(const std::string& host, int port,
         std::optional<Clock::time_point> deadline = std::nullopt);

/// Accept one connection on `listen_fd` and return it, with TCP_NODELAY
/// set; -1 when none was accepted before `deadline`.  A failed accept
/// (interrupted, aborted handshake, descriptor exhaustion) is retried
/// until the deadline; this never throws.
int accept_conn(int listen_fd, Clock::time_point deadline);

/// Send every byte of `parts` with sendmsg(MSG_NOSIGNAL): one call
/// unless the socket buffer fills, in which case the rest follows after
/// each partial write.  Retries EINTR.  Returns false when the
/// connection is broken; never raises SIGPIPE and never throws.  The
/// iovecs are advanced in place, so their contents are unspecified
/// afterwards.
bool write_all(int fd, std::span<iovec> parts);

/// An iovec over read-only bytes (sendmsg never writes through it).
inline iovec buf(const void* data, std::size_t size) {
  return {const_cast<void*>(data), size};
}

/// write_all() of one contiguous buffer.
inline bool write_all(int fd, const void* data, std::size_t size) {
  iovec part = buf(data, size);
  return write_all(fd, std::span<iovec>(&part, 1));
}

/// Read exactly `size` bytes; false on EOF or a connection error.
bool read_all(int fd, void* data, std::size_t size);

/// read_all() into `out` (resized to `size`) for a length taken from a
/// peer's header.  The buffer grows only as bytes arrive: 1 MiB first,
/// then doubling, never past twice what has been read.  So a corrupt
/// length costs memory in proportion to the bytes actually sent, not to
/// the length claimed.
bool read_sized(int fd, std::vector<std::byte>& out, std::uint64_t size);

/// Non-blocking probe: true when the peer hung up (EOF or reset).  A
/// readable byte is a pipelined request from a live peer and stays
/// queued.
bool peer_closed(int fd);

/// shutdown(SHUT_RDWR): wakes any thread blocked reading `fd` (its read
/// returns EOF) and sends FIN after data already queued.  The
/// descriptor stays open until the owner closes it.
void hang_up(int fd);

}  // namespace scmd::net

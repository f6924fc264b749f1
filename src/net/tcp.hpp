#pragma once

/// \file tcp.hpp
/// Multi-process TCP transport backend.
///
/// One process per rank; messages are length-prefixed frames over a full
/// mesh of TCP connections (one socket per rank pair, so TCP's in-order
/// delivery gives the per-(src, dst, tag) ordering guarantee directly).
///
/// Bootstrap (docs/TRANSPORT.md):
///   1. every rank binds an ephemeral listener for peer connections;
///   2. rank 0 binds the well-known rendezvous address; ranks 1..P-1
///      connect to it (with retry + backoff), announce their rank and
///      listener address, and receive the full address table back;
///   3. rank i dials every rank j > i's listener (identifying itself
///      with a one-frame handshake) and accepts one connection from
///      every rank j < i.
///
/// Runtime: send() enqueues the frame on a per-peer writer queue drained
/// by a dedicated writer thread, so the sender never blocks on a slow
/// peer.  A per-peer reader thread deposits incoming frames into the
/// rank's mailbox, from which recv(src, tag) takes them.  Collectives
/// are rank-0-rooted reduce + broadcast over point-to-point on a
/// reserved tag.
///
/// Failure behavior: recv() waits at most config.recv_timeout_s and then
/// throws scmd::Error; a peer whose connection drops marks the mailbox
/// lane dead and wakes all waiters, so a killed process surfaces as an
/// error on the survivors — never a hang.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/socket.hpp"
#include "net/transport.hpp"
#include "support/thread_safety.hpp"

namespace scmd {

/// TCP backend configuration.
struct TcpConfig {
  int rank = 0;
  int num_ranks = 1;

  /// Rendezvous address: rank 0 listens here, everyone else dials it.
  std::string rendezvous_host = "127.0.0.1";
  int rendezvous_port = 0;

  /// Address other ranks use to reach this rank's peer listener (the
  /// listener itself binds INADDR_ANY).  Keep the default for
  /// single-host runs; set to a routable address for multi-host runs.
  std::string advertise_host = "127.0.0.1";

  /// Give up dialing (rendezvous or a peer) after this long.
  double connect_timeout_s = 30.0;
  /// recv() waits at most this long for a matching message before
  /// throwing; 0 waits forever (collectives use the same bound).
  double recv_timeout_s = 60.0;

  /// Rank 0 only: adopt this already-listening socket as the rendezvous
  /// listener instead of binding rendezvous_host:rendezvous_port.  Lets
  /// in-process tests bind port 0 first and hand out the real port
  /// race-free (see bind_listener()).
  int rendezvous_fd = -1;
};

/// Callers that pass a rendezvous_fd bind it with this (net/socket.hpp).
using net::bind_listener;

/// One rank of a TCP cluster.  The constructor performs the full
/// bootstrap and blocks until the mesh is connected; the destructor
/// flushes pending sends, then tears the connections down.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(const TcpConfig& config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  int rank() const override { return config_.rank; }
  int num_ranks() const override { return config_.num_ranks; }

  void send(int dst, int tag, Bytes payload) override;
  Bytes recv(int src, int tag) override;

  void barrier() override;
  double allreduce_sum(double value) override;
  double allreduce_max(double value) override;

  TransportStats stats() const override;

  /// Abruptly close every socket without flushing queued sends —
  /// simulates this process crashing, for fault testing.  Peers observe
  /// a dropped connection; local pending recv() calls fail immediately.
  void hard_kill();

 private:
  struct Peer {
    int fd = -1;  ///< set before the threads start, then read-only
    std::thread reader;
    std::thread writer;
    Mutex m;
    CondVar cv;
    /// (tag, payload) frames awaiting the writer thread.
    std::deque<std::pair<int, Bytes>> outbox SCMD_GUARDED_BY(m);
    bool closing SCMD_GUARDED_BY(m) = false;
    std::atomic<bool> dead{false};
  };

  /// Mailbox shared by all reader threads and the owning rank.
  struct Inbox {
    mutable Mutex m;
    CondVar cv;
    /// (src, tag) -> pending payloads.
    std::map<std::pair<int, int>, std::deque<Bytes>> queues SCMD_GUARDED_BY(m);
    std::uint64_t depth SCMD_GUARDED_BY(m) = 0;
    std::uint64_t high_water SCMD_GUARDED_BY(m) = 0;
    std::vector<char> peer_dead SCMD_GUARDED_BY(m);
  };

  void rendezvous(int listen_port, std::vector<std::string>& hosts,
                  std::vector<int>& ports);
  void connect_mesh(int listen_fd, const std::vector<std::string>& hosts,
                    const std::vector<int>& ports);
  void reader_loop(int src);
  void writer_loop(int dst);
  void deposit(int src, int tag, Bytes payload);
  void mark_peer_dead(int src);
  double reduce(double value, bool is_max);
  Bytes recv_internal(int src);

  TcpConfig config_;
  std::vector<std::unique_ptr<Peer>> peers_;  // indexed by rank; self null
  Inbox inbox_;
  std::atomic<bool> killed_{false};

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> messages_received_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> recv_stall_ns_{0};
};

}  // namespace scmd

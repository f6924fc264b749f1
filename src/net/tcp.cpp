#include "net/tcp.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "net/tags.hpp"
#include "support/error.hpp"

// Frames are raw little-endian structs; a big-endian build would need a
// byte-swapping layer that nothing in this repo targets.
static_assert(std::endian::native == std::endian::little,
              "TcpTransport assumes a little-endian host");

namespace scmd {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// The rank-0-rooted collective protocol rides on the reserved
/// tags::kCollective channel; user tags must stay below it.
using tags::kCollective;

/// Sanity bound on a single frame — anything larger is a corrupt header.
/// A length under it still allocates only as its bytes arrive
/// (net::read_sized).
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 32;

/// Wire header of every mesh frame: u32 tag, u64 payload length.
constexpr std::size_t kHeaderBytes = 12;

std::uint64_t elapsed_ns(SteadyClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - t0)
          .count());
}

void encode_header(char (&buf)[kHeaderBytes], int tag, std::uint64_t len) {
  const auto utag = static_cast<std::uint32_t>(tag);
  std::memcpy(buf, &utag, 4);
  std::memcpy(buf + 4, &len, 8);
}

void decode_header(const char (&buf)[kHeaderBytes], int& tag,
                   std::uint64_t& len) {
  std::uint32_t utag = 0;
  std::memcpy(&utag, buf, 4);
  std::memcpy(&len, buf + 4, 8);
  tag = static_cast<int>(utag);
}

void write_u32(std::vector<char>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}

std::uint32_t read_u32_fd(int fd, const char* what) {
  std::uint32_t v = 0;
  SCMD_REQUIRE(net::read_all(fd, &v, 4),
               std::string("connection dropped while reading ") + what);
  return v;
}

std::string read_string_fd(int fd, std::size_t len) {
  std::string s(len, '\0');
  SCMD_REQUIRE(len == 0 || net::read_all(fd, s.data(), len),
               "connection dropped while reading an address string");
  return s;
}

}  // namespace

TcpTransport::TcpTransport(const TcpConfig& config) : config_(config) {
  SCMD_REQUIRE(config_.num_ranks >= 1, "tcp transport needs >= 1 rank");
  SCMD_REQUIRE(config_.rank >= 0 && config_.rank < config_.num_ranks,
               "tcp rank out of range");
  const int P = config_.num_ranks;
  {
    // Single-threaded here, but the analysis doesn't know that.
    MutexLock lk(inbox_.m);
    inbox_.peer_dead.assign(static_cast<std::size_t>(P), 0);
  }
  peers_.resize(static_cast<std::size_t>(P));
  if (P == 1) return;  // no wire, only the self lane

  SCMD_REQUIRE(config_.rendezvous_port > 0 || config_.rendezvous_fd >= 0,
               "tcp transport needs a rendezvous port");
  const auto [listen_fd, listen_port] = bind_listener("0.0.0.0", 0);
  std::vector<std::string> hosts(static_cast<std::size_t>(P));
  std::vector<int> ports(static_cast<std::size_t>(P), 0);
  try {
    rendezvous(listen_port, hosts, ports);
    connect_mesh(listen_fd, hosts, ports);
  } catch (...) {
    ::close(listen_fd);
    for (auto& p : peers_) {
      if (p && p->fd >= 0) ::close(p->fd);
    }
    throw;
  }
  ::close(listen_fd);

  for (int r = 0; r < P; ++r) {
    if (r == config_.rank) continue;
    Peer& peer = *peers_[static_cast<std::size_t>(r)];
    peer.reader = std::thread([this, r] { reader_loop(r); });
    peer.writer = std::thread([this, r] { writer_loop(r); });
  }
}

void TcpTransport::rendezvous(int listen_port, std::vector<std::string>& hosts,
                              std::vector<int>& ports) {
  const int P = config_.num_ranks;
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(
          static_cast<long long>(config_.connect_timeout_s * 1000.0));
  if (config_.rank == 0) {
    int rfd = config_.rendezvous_fd;
    if (rfd < 0)
      rfd = bind_listener(config_.rendezvous_host, config_.rendezvous_port)
                .first;
    hosts[0] = config_.advertise_host;
    ports[0] = listen_port;
    std::vector<int> conns;
    conns.reserve(static_cast<std::size_t>(P - 1));
    try {
      // Collect every rank's announcement: {rank, listener port, host}.
      for (int i = 0; i < P - 1; ++i) {
        const int fd = net::accept_conn(rfd, deadline);
        SCMD_REQUIRE(fd >= 0, "timed out waiting for a peer connection");
        conns.push_back(fd);
        const auto r = static_cast<int>(read_u32_fd(fd, "a rendezvous rank"));
        SCMD_REQUIRE(r > 0 && r < P && ports[static_cast<std::size_t>(r)] == 0,
                     "rendezvous: invalid or duplicate rank " +
                         std::to_string(r));
        ports[static_cast<std::size_t>(r)] =
            static_cast<int>(read_u32_fd(fd, "a rendezvous port"));
        hosts[static_cast<std::size_t>(r)] = read_string_fd(
            fd, read_u32_fd(fd, "a rendezvous host length"));
      }
      // Broadcast the completed address table.
      std::vector<char> table;
      for (int r = 0; r < P; ++r) {
        write_u32(table,
                  static_cast<std::uint32_t>(ports[static_cast<std::size_t>(r)]));
        const std::string& h = hosts[static_cast<std::size_t>(r)];
        write_u32(table, static_cast<std::uint32_t>(h.size()));
        table.insert(table.end(), h.begin(), h.end());
      }
      for (const int fd : conns)
        SCMD_REQUIRE(net::write_all(fd, table.data(), table.size()),
                     "rendezvous: failed to send the address table");
    } catch (...) {
      for (const int fd : conns) ::close(fd);
      ::close(rfd);
      throw;
    }
    for (const int fd : conns) ::close(fd);
    ::close(rfd);
    return;
  }
  // Ranks 1..P-1: announce ourselves, receive the table.
  const int fd =
      net::dial(config_.rendezvous_host, config_.rendezvous_port, deadline);
  try {
    std::vector<char> hello;
    write_u32(hello, static_cast<std::uint32_t>(config_.rank));
    write_u32(hello, static_cast<std::uint32_t>(listen_port));
    write_u32(hello, static_cast<std::uint32_t>(config_.advertise_host.size()));
    hello.insert(hello.end(), config_.advertise_host.begin(),
                 config_.advertise_host.end());
    SCMD_REQUIRE(net::write_all(fd, hello.data(), hello.size()),
                 "rendezvous: failed to announce to rank 0");
    for (int r = 0; r < P; ++r) {
      ports[static_cast<std::size_t>(r)] =
          static_cast<int>(read_u32_fd(fd, "the address table"));
      hosts[static_cast<std::size_t>(r)] =
          read_string_fd(fd, read_u32_fd(fd, "the address table"));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void TcpTransport::connect_mesh(int listen_fd,
                                const std::vector<std::string>& hosts,
                                const std::vector<int>& ports) {
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(
          static_cast<long long>(config_.connect_timeout_s * 1000.0));
  // Dial every higher rank's listener (its listener exists since before
  // the rendezvous, so the connection parks in its backlog at worst).
  for (int r = config_.rank + 1; r < config_.num_ranks; ++r) {
    const int fd = net::dial(hosts[static_cast<std::size_t>(r)],
                             ports[static_cast<std::size_t>(r)], deadline);
    const auto me = static_cast<std::uint32_t>(config_.rank);
    SCMD_REQUIRE(net::write_all(fd, &me, 4), "mesh handshake send failed");
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peers_[static_cast<std::size_t>(r)] = std::move(peer);
  }
  // Accept one connection from every lower rank.
  for (int i = 0; i < config_.rank; ++i) {
    const int fd = net::accept_conn(listen_fd, deadline);
    SCMD_REQUIRE(fd >= 0, "timed out waiting for a peer connection");
    const auto r = static_cast<int>(read_u32_fd(fd, "a mesh handshake"));
    SCMD_REQUIRE(r >= 0 && r < config_.rank &&
                     peers_[static_cast<std::size_t>(r)] == nullptr,
                 "mesh handshake: invalid or duplicate rank " +
                     std::to_string(r));
    auto peer = std::make_unique<Peer>();
    peer->fd = fd;
    peers_[static_cast<std::size_t>(r)] = std::move(peer);
  }
}

TcpTransport::~TcpTransport() {
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    Peer* peer = peers_[r].get();
    if (peer == nullptr) continue;
    {
      MutexLock lk(peer->m);
      peer->closing = true;
    }
    peer->cv.notify_all();
    if (peer->writer.joinable()) peer->writer.join();  // flushes the outbox
    // FIN after the flushed data; our blocked reader wakes with EOF.
    net::hang_up(peer->fd);
    if (peer->reader.joinable()) peer->reader.join();
    ::close(peer->fd);
  }
}

void TcpTransport::deposit(int src, int tag, Bytes payload) {
  {
    MutexLock lk(inbox_.m);
    inbox_.queues[{src, tag}].push_back(std::move(payload));
    ++inbox_.depth;
    if (inbox_.depth > inbox_.high_water) inbox_.high_water = inbox_.depth;
  }
  inbox_.cv.notify_all();
}

void TcpTransport::mark_peer_dead(int src) {
  Peer* peer = peers_[static_cast<std::size_t>(src)].get();
  if (peer != nullptr) {
    peer->dead.store(true);
    peer->cv.notify_all();
  }
  {
    MutexLock lk(inbox_.m);
    inbox_.peer_dead[static_cast<std::size_t>(src)] = 1;
  }
  inbox_.cv.notify_all();
}

void TcpTransport::reader_loop(int src) {
  const int fd = peers_[static_cast<std::size_t>(src)]->fd;
  for (;;) {
    char header[kHeaderBytes];
    if (!net::read_all(fd, header, sizeof(header))) break;
    int tag = 0;
    std::uint64_t len = 0;
    decode_header(header, tag, len);
    // A corrupt header drops the peer.  Tags above 2^31 decode negative.
    if (tag < 0 || tag > kCollective || len > kMaxFrameBytes) break;
    Bytes payload;
    if (!net::read_sized(fd, payload, len)) break;
    deposit(src, tag, std::move(payload));
  }
  mark_peer_dead(src);
}

void TcpTransport::writer_loop(int dst) {
  Peer& peer = *peers_[static_cast<std::size_t>(dst)];
  MutexLock lk(peer.m);
  for (;;) {
    while (peer.outbox.empty() && !peer.closing && !peer.dead.load())
      peer.cv.wait(peer.m);
    if (peer.dead.load()) return;
    if (peer.outbox.empty()) {
      if (peer.closing) return;
      continue;
    }
    auto [tag, payload] = std::move(peer.outbox.front());
    peer.outbox.pop_front();
    lk.unlock();
    char header[kHeaderBytes];
    encode_header(header, tag, payload.size());
    iovec frame[] = {net::buf(header, sizeof(header)),
                     net::buf(payload.data(), payload.size())};
    if (!net::write_all(peer.fd, frame)) {
      mark_peer_dead(dst);
      return;
    }
    lk.lock();
  }
}

void TcpTransport::send(int dst, int tag, Bytes payload) {
  SCMD_REQUIRE(dst >= 0 && dst < config_.num_ranks, "send to invalid rank");
  SCMD_REQUIRE(tag >= 0 && tag < kCollective,
               "tag " + std::to_string(tag) + " is reserved");
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
  if (dst == config_.rank) {
    deposit(dst, tag, std::move(payload));
    return;
  }
  Peer& peer = *peers_[static_cast<std::size_t>(dst)];
  SCMD_REQUIRE(!peer.dead.load(), "send to rank " + std::to_string(dst) +
                                      ": connection lost");
  {
    MutexLock lk(peer.m);
    peer.outbox.emplace_back(tag, std::move(payload));
  }
  peer.cv.notify_all();
}

Bytes TcpTransport::recv(int src, int tag) {
  SCMD_REQUIRE(src >= 0 && src < config_.num_ranks, "recv from invalid rank");
  const bool bounded = config_.recv_timeout_s > 0.0;
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(
          static_cast<long long>(config_.recv_timeout_s * 1000.0));
  const auto t0 = SteadyClock::now();
  MutexLock lk(inbox_.m);
  auto& q = inbox_.queues[{src, tag}];
  for (;;) {
    if (!q.empty()) {
      Bytes out = std::move(q.front());
      q.pop_front();
      --inbox_.depth;
      messages_received_.fetch_add(1, std::memory_order_relaxed);
      bytes_received_.fetch_add(out.size(), std::memory_order_relaxed);
      recv_stall_ns_.fetch_add(elapsed_ns(t0), std::memory_order_relaxed);
      return out;
    }
    // Dead peer with an empty queue: nothing more can ever arrive.
    SCMD_REQUIRE(!inbox_.peer_dead[static_cast<std::size_t>(src)],
                 "recv from rank " + std::to_string(src) +
                     ": connection lost (peer died?)");
    if (bounded) {
      SCMD_REQUIRE(SteadyClock::now() < deadline,
                   "recv from rank " + std::to_string(src) + " tag " +
                       std::to_string(tag) + " timed out after " +
                       std::to_string(config_.recv_timeout_s) + " s");
      inbox_.cv.wait_until(inbox_.m, deadline);
    } else {
      inbox_.cv.wait(inbox_.m);
    }
  }
}

double TcpTransport::reduce(double value, bool is_max) {
  // Rank-0-rooted reduce + broadcast on the reserved tag.  All ranks
  // enter collectives in the same order and per-(src, dst, tag) FIFO
  // holds, so consecutive collectives cannot interleave.
  const int P = config_.num_ranks;
  if (P == 1) return value;
  auto pack1 = [](double v) { return pack(std::vector<double>{v}); };
  auto post = [this](int dst, Bytes b) {
    // Bypass the public-tag check; stats still count the traffic.
    messages_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(b.size(), std::memory_order_relaxed);
    Peer& peer = *peers_[static_cast<std::size_t>(dst)];
    SCMD_REQUIRE(!peer.dead.load(), "collective: connection to rank " +
                                        std::to_string(dst) + " lost");
    {
      MutexLock lk(peer.m);
      peer.outbox.emplace_back(kCollective, std::move(b));
    }
    peer.cv.notify_all();
  };
  auto fetch = [this](int src) {
    // recv() validates only the rank, not the tag, so reuse it directly.
    const std::vector<double> v = unpack<double>(recv_internal(src));
    SCMD_REQUIRE(v.size() == 1, "collective: malformed reduction frame");
    return v[0];
  };
  if (config_.rank == 0) {
    double acc = value;
    for (int r = 1; r < P; ++r) {
      const double v = fetch(r);
      acc = is_max ? std::max(acc, v) : acc + v;
    }
    const Bytes result = pack1(acc);
    for (int r = 1; r < P; ++r) post(r, result);
    return acc;
  }
  post(0, pack1(value));
  return fetch(0);
}

Bytes TcpTransport::recv_internal(int src) {
  // recv() only rejects out-of-range ranks, so the reserved tag can ride
  // through it and inherit the timeout/fault behavior.
  return recv(src, kCollective);
}

void TcpTransport::barrier() { reduce(0.0, false); }

double TcpTransport::allreduce_sum(double value) {
  return reduce(value, false);
}

double TcpTransport::allreduce_max(double value) {
  return reduce(value, true);
}

TransportStats TcpTransport::stats() const {
  TransportStats s;
  s.messages_sent = messages_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.messages_received = messages_received_.load(std::memory_order_relaxed);
  s.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  s.recv_stall_ns = recv_stall_ns_.load(std::memory_order_relaxed);
  MutexLock lk(inbox_.m);
  s.max_mailbox_depth = inbox_.high_water;
  return s;
}

void TcpTransport::hard_kill() {
  killed_.store(true);
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    Peer* peer = peers_[r].get();
    if (peer == nullptr) continue;
    peer->dead.store(true);
    net::hang_up(peer->fd);
    peer->cv.notify_all();
  }
  {
    MutexLock lk(inbox_.m);
    for (auto& dead : inbox_.peer_dead) dead = 1;
  }
  inbox_.cv.notify_all();
}

}  // namespace scmd

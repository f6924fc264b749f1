// The socket layer (net/socket.hpp): every endpoint, dialed or accepted,
// carries TCP_NODELAY; gather writes survive partial writes, EINTR and
// a dead peer; a read sized by a peer's header allocates only as its
// bytes arrive; and a request/reply round trip on the serve client
// socket and the status socket costs well under a delayed ACK (~40 ms,
// what each one cost when a frame left in two writes on a Nagle socket).

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "../serve/pool_harness.hpp"
#include "net/socket.hpp"
#include "net/status_server.hpp"
#include "serve/client.hpp"

namespace scmd {
namespace {

using Clock = std::chrono::steady_clock;

bool nodelay(int fd) {
  int on = 0;
  socklen_t len = sizeof(on);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
  return on == 1;
}

/// A connected IPv4 socket of this process and its two port numbers.
struct Conn {
  int fd = -1;
  int local_port = 0;
  int peer_port = 0;
};

/// Every connected IPv4 socket open in this process.  The daemon and
/// the status server run in-process here, so their accepted ends show
/// up beside the clients' ends.
std::vector<Conn> tcp_connections() {
  std::vector<Conn> out;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in local{};
    sockaddr_in peer{};
    socklen_t len = sizeof(local);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len) != 0 ||
        local.sin_family != AF_INET)
      continue;
    len = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len) != 0)
      continue;
    out.push_back({fd, ntohs(local.sin_port), ntohs(peer.sin_port)});
  }
  return out;
}

/// Both ends of every connection to `port`: all must carry TCP_NODELAY,
/// and at least one connection must exist.
void expect_nodelay_on_both_ends(int port) {
  int client_ends = 0;
  int server_ends = 0;
  for (const Conn& c : tcp_connections()) {
    if (c.peer_port == port) {
      ++client_ends;
      EXPECT_TRUE(nodelay(c.fd)) << "client end fd " << c.fd;
    }
    if (c.local_port == port) {
      ++server_ends;
      EXPECT_TRUE(nodelay(c.fd)) << "accepted end fd " << c.fd;
    }
  }
  EXPECT_GE(client_ends, 1);
  EXPECT_GE(server_ends, 1);
}

/// One status-socket request on an open connection (scmd_top.py's
/// protocol, docs/OBSERVABILITY.md).
std::string status_request(int fd, const std::string& channel) {
  const auto len = static_cast<std::uint32_t>(channel.size());
  iovec parts[] = {net::buf(&len, sizeof(len)),
                   net::buf(channel.data(), channel.size())};
  EXPECT_TRUE(net::write_all(fd, parts));
  std::uint32_t reply_len = 0;
  EXPECT_TRUE(net::read_all(fd, &reply_len, sizeof(reply_len)));
  std::string reply(reply_len, '\0');
  EXPECT_TRUE(net::read_all(fd, reply.data(), reply.size()));
  return reply;
}

double median_ms(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

TEST(SocketTest, DialAndAcceptSetNodelay) {
  const auto [listen_fd, port] = net::bind_listener("127.0.0.1", 0);
  const int client = net::dial("127.0.0.1", port);
  const int server =
      net::accept_conn(listen_fd, Clock::now() + std::chrono::seconds(10));
  ASSERT_GE(server, 0);
  EXPECT_TRUE(nodelay(client));
  EXPECT_TRUE(nodelay(server));
  ::close(client);
  ::close(server);

  // An empty host dials this machine.
  const int local = net::dial("", port);
  EXPECT_TRUE(nodelay(local));
  ::close(local);
  ::close(listen_fd);
}

TEST(SocketTest, AcceptTimesOutAndDialFailsCleanly) {
  const auto [listen_fd, port] = net::bind_listener("127.0.0.1", 0);
  EXPECT_EQ(net::accept_conn(listen_fd,
                             Clock::now() + std::chrono::milliseconds(20)),
            -1);
  ::close(listen_fd);
  // Nothing listens on the closed port any more.
  EXPECT_THROW(net::dial("127.0.0.1", port), Error);
  EXPECT_THROW(net::dial("127.0.0.1", port,
                         Clock::now() + std::chrono::milliseconds(50)),
               Error);
}

TEST(SocketTest, ClientAndDaemonEndsSetNodelay) {
  serve_test::ServicePool pool(serve_test::Backend::kInProc, 2);
  serve::ClientConnection conn("127.0.0.1", pool.client_port());
  (void)conn.jobs();  // a full round trip: the daemon has accepted
  expect_nodelay_on_both_ends(pool.client_port());
  conn.close();
  pool.shutdown_and_join();
}

TEST(SocketTest, StatusServerEndsSetNodelay) {
  StatusServer server(0);
  const int fd = net::dial("127.0.0.1", server.port());
  EXPECT_EQ(status_request(fd, ""), "{}");
  expect_nodelay_on_both_ends(server.port());
  ::close(fd);
  server.stop();
}

TEST(SocketTest, GatherWriteSurvivesPartialWritesAndSignals) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);

  // Three parts with odd sizes, so partial writes end mid-part.
  std::vector<std::uint8_t> a(13), b(3 * 1024 * 1024 + 7), c(1024 * 1024 + 1);
  std::uint32_t x = 12345;
  for (auto* part : {&a, &b, &c}) {
    for (std::uint8_t& v : *part) {
      x = x * 1664525u + 1013904223u;
      v = static_cast<std::uint8_t>(x >> 24);
    }
  }
  std::vector<std::uint8_t> want(a);
  want.insert(want.end(), b.begin(), b.end());
  want.insert(want.end(), c.begin(), c.end());

  std::vector<std::uint8_t> got(want.size());
  std::thread reader([&] {
    // Small reads keep the sender blocked on a full buffer.
    std::size_t at = 0;
    while (at < got.size()) {
      const std::size_t n = std::min<std::size_t>(3000, got.size() - at);
      if (!net::read_all(sv[1], got.data() + at, n)) break;
      at += n;
    }
  });

  // A blocking sendmsg returns short only when a signal interrupts it,
  // so interrupt the writer continuously (the handler is installed
  // without SA_RESTART) to drive both the partial-write and the EINTR
  // path.
  struct sigaction quiet{};
  struct sigaction old{};
  quiet.sa_handler = [](int) {};
  ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &old), 0);
  std::atomic<bool> writing{true};
  const pthread_t writer = ::pthread_self();
  std::thread interrupter([&] {
    while (writing.load()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  iovec parts[] = {net::buf(a.data(), a.size()), net::buf(b.data(), b.size()),
                   net::buf(c.data(), c.size())};
  const bool ok = net::write_all(sv[0], parts);
  writing.store(false);
  interrupter.join();
  ASSERT_EQ(::sigaction(SIGUSR1, &old, nullptr), 0);
  reader.join();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(got == want);
  ::close(sv[0]);
  ::close(sv[1]);
}

std::atomic<int> g_sigpipes{0};

TEST(SocketTest, WriteToClosedPeerFailsWithoutSigpipe) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  struct sigaction count{};
  struct sigaction old{};
  count.sa_handler = [](int) { g_sigpipes.fetch_add(1); };
  ASSERT_EQ(::sigaction(SIGPIPE, &count, &old), 0);
  const std::vector<char> data(1 << 16, 'x');
  iovec parts[] = {net::buf(data.data(), 10),
                   net::buf(data.data() + 10, data.size() - 10)};
  EXPECT_FALSE(net::write_all(sv[0], parts));
  EXPECT_FALSE(net::write_all(sv[0], data.data(), data.size()));
  ASSERT_EQ(::sigaction(SIGPIPE, &old, nullptr), 0);
  EXPECT_EQ(g_sigpipes.load(), 0);
  EXPECT_TRUE(net::peer_closed(sv[0]));
  ::close(sv[0]);
}

long peak_rss_kib() {
  rusage usage{};
  EXPECT_EQ(::getrusage(RUSAGE_SELF, &usage), 0);
  return usage.ru_maxrss;
}

TEST(SocketTest, SizedReadOfCorruptLengthAllocatesOnlyWhatArrives) {
  // A TCP mesh header (u32 tag, u64 length) claiming 3 GiB, then 10
  // payload bytes and a hang-up.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::uint32_t tag = 7;
  const std::uint64_t claimed = std::uint64_t{3} << 30;
  char header[12];
  std::memcpy(header, &tag, 4);
  std::memcpy(header + 4, &claimed, 8);
  const char payload[10] = {'0', '1', '2', '3', '4', '5', '6', '7', '8', '9'};
  iovec parts[] = {net::buf(header, sizeof(header)),
                   net::buf(payload, sizeof(payload))};
  ASSERT_TRUE(net::write_all(sv[1], parts));
  ::close(sv[1]);

  char got_header[12];
  ASSERT_TRUE(net::read_all(sv[0], got_header, sizeof(got_header)));
  std::uint64_t len = 0;
  std::memcpy(&len, got_header + 4, 8);
  ASSERT_EQ(len, claimed);
  const long before = peak_rss_kib();
  std::vector<std::byte> out;
  EXPECT_FALSE(net::read_sized(sv[0], out, len));
  EXPECT_LT(peak_rss_kib() - before, 64L * 1024);
  ::close(sv[0]);
}

TEST(SocketTest, SizedReadDeliversMultiMiBFrame) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<std::byte> sent(5 * 1024 * 1024 + 3);
  std::uint32_t x = 777;
  for (std::byte& v : sent) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<std::byte>(x >> 24);
  }
  std::thread writer([&] {
    EXPECT_TRUE(net::write_all(sv[1], sent.data(), sent.size()));
  });
  std::vector<std::byte> got;
  EXPECT_TRUE(net::read_sized(sv[0], got, sent.size()));
  writer.join();
  EXPECT_TRUE(got == sent);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(SocketTest, PeerClosedIgnoresPipelinedBytes) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EXPECT_FALSE(net::peer_closed(sv[0]));  // idle, open
  ASSERT_TRUE(net::write_all(sv[1], "r", 1));
  EXPECT_FALSE(net::peer_closed(sv[0]));  // a pending byte: still live
  char byte = 0;
  ASSERT_TRUE(net::read_all(sv[0], &byte, 1));  // the probe consumed nothing
  EXPECT_EQ(byte, 'r');
  ::close(sv[1]);
  EXPECT_TRUE(net::peer_closed(sv[0]));
  ::close(sv[0]);
}

TEST(SocketTest, ServePollRoundTripIsFast) {
  serve_test::ServicePool pool(serve_test::Backend::kInProc, 3);
  serve::ClientConnection conn("127.0.0.1", pool.client_port());
  serve::SubmitRequest req;
  req.config_text = serve_test::lj_job(/*steps=*/2);
  const std::int64_t id = conn.submit(req);
  ASSERT_EQ(serve_test::wait_terminal(conn, id).state, serve::JobState::kDone);
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    (void)conn.poll(id);
    ms.push_back(ms_since(t0));
  }
  EXPECT_LT(median_ms(ms), 20.0);
  conn.close();
  pool.shutdown_and_join();
}

TEST(SocketTest, StatusRoundTripIsFast) {
  StatusServer server(0);
  server.publish("{\"latest_step\":7}");
  const int fd = net::dial("127.0.0.1", server.port());
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = Clock::now();
    EXPECT_EQ(status_request(fd, "status"), "{\"latest_step\":7}");
    ms.push_back(ms_since(t0));
  }
  EXPECT_LT(median_ms(ms), 20.0);
  ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace scmd

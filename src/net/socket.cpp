#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>

#include "support/error.hpp"

namespace scmd::net {

namespace {

std::string errno_str() { return std::strerror(errno); }

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// IPv4 address for a listener: "" and "0.0.0.0" mean every interface.
sockaddr_in listen_address(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (host.empty() || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    return addr;
  }
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1) return addr;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  SCMD_REQUIRE(rc == 0 && res != nullptr,
               "cannot resolve host '" + host + "': " + gai_strerror(rc));
  addr.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  ::freeaddrinfo(res);
  return addr;
}

}  // namespace

std::pair<int, int> bind_listener(const std::string& host, int port) {
  const sockaddr_in addr = listen_address(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SCMD_REQUIRE(fd >= 0, "socket(): " + errno_str());
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 128) != 0) {
    const std::string err = errno_str();
    ::close(fd);
    SCMD_REQUIRE(false, "cannot listen on " + host + ":" +
                            std::to_string(port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  SCMD_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
                   0,
               "getsockname(): " + errno_str());
  return {fd, static_cast<int>(ntohs(bound.sin_port))};
}

int dial(const std::string& host, int port,
         std::optional<Clock::time_point> deadline) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  // A null node resolves to this machine's loopback addresses.
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               std::to_string(port).c_str(), &hints, &res);
  SCMD_REQUIRE(rc == 0 && res != nullptr,
               "cannot resolve host '" + host + "': " + gai_strerror(rc));
  const std::unique_ptr<addrinfo, decltype(&::freeaddrinfo)> owned(
      res, &::freeaddrinfo);
  auto backoff = std::chrono::milliseconds(20);
  std::string last_error;
  for (;;) {
    for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd < 0) {
        last_error = "socket(): " + errno_str();
        continue;
      }
      if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
        set_nodelay(fd);
        return fd;
      }
      last_error = errno_str();
      ::close(fd);
    }
    if (!deadline || Clock::now() >= *deadline) break;
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(500));
  }
  throw Error("cannot connect to " + host + ":" + std::to_string(port) +
              ": " + last_error);
}

int accept_conn(int listen_fd, Clock::time_point deadline) {
  for (;;) {
    const auto remaining =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
    if (remaining.count() <= 0) return -1;
    pollfd pfd{listen_fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(remaining.count())) <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    set_nodelay(fd);
    return fd;
  }
}

bool write_all(int fd, std::span<iovec> parts) {
  iovec* iov = parts.data();
  std::size_t count = parts.size();
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Drop the parts that went out whole, then trim the partial one.
    auto sent = static_cast<std::size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::recv(fd, p, size, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_sized(int fd, std::vector<std::byte>& out, std::uint64_t size) {
  constexpr std::uint64_t kFirstChunk = std::uint64_t{1} << 20;
  out.clear();
  std::uint64_t have = 0;
  while (have < size) {
    const std::uint64_t next = std::min(size, std::max(kFirstChunk, 2 * have));
    out.reserve(next);
    out.resize(next);
    if (!read_all(fd, out.data() + have, next - have)) return false;
    have = next;
  }
  return true;
}

bool peer_closed(int fd) {
  char probe = 0;
  const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;
  if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
  return false;
}

void hang_up(int fd) { ::shutdown(fd, SHUT_RDWR); }

}  // namespace scmd::net

#include "net/status_server.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdint>

#include "net/socket.hpp"

namespace scmd {

namespace {

/// A status request larger than this is a confused client, not a
/// request.
constexpr std::uint32_t kMaxRequestBytes = 1 << 16;

}  // namespace

StatusServer::StatusServer(int port) {
  const auto [fd, bound] = net::bind_listener("0.0.0.0", port);
  listen_fd_ = fd;
  port_ = bound;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

StatusServer::~StatusServer() { stop(); }

void StatusServer::publish(std::string json) {
  publish("status", std::move(json));
}

void StatusServer::publish(const std::string& channel, std::string json) {
  const MutexLock lock(snapshot_mu_);
  snapshots_[channel] = std::move(json);
}

void StatusServer::accept_loop() {
  while (running_.load()) {
    // Short wait so stop() is observed promptly even with no clients.
    const int fd = net::accept_conn(
        listen_fd_, net::Clock::now() + std::chrono::milliseconds(200));
    if (fd < 0) continue;
    const MutexLock lock(conn_mu_);
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve(fd); });
  }
}

void StatusServer::serve(int fd) {
  while (running_.load()) {
    std::uint32_t len = 0;
    if (!net::read_all(fd, &len, sizeof(len))) break;
    if (len > kMaxRequestBytes) break;
    std::string request(len, '\0');
    if (len > 0 && !net::read_all(fd, request.data(), len)) break;

    std::string reply = "{}";
    {
      const std::string channel = request.empty() ? "status" : request;
      const MutexLock lock(snapshot_mu_);
      const auto it = snapshots_.find(channel);
      if (it != snapshots_.end()) reply = it->second;
    }
    const auto reply_len = static_cast<std::uint32_t>(reply.size());
    iovec parts[] = {net::buf(&reply_len, sizeof(reply_len)),
                     net::buf(reply.data(), reply.size())};
    if (!net::write_all(fd, parts)) break;
  }
  ::close(fd);
}

void StatusServer::stop() {
  if (!running_.exchange(false)) return;
  // Unblock serve() threads stuck in recv by half-closing their sockets;
  // serve() owns the close itself.
  {
    const MutexLock lock(conn_mu_);
    for (const int fd : conn_fds_) net::hang_up(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // The accept loop (the only other writer) is joined; serve() threads
    // never touch conn_threads_, so joining under the lock cannot
    // deadlock.
    const MutexLock lock(conn_mu_);
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace scmd

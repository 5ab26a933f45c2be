#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace isoee::service {

namespace {

/// Writes the whole buffer, absorbing short writes. False on error. A peer
/// that has gone away yields an error here, never a SIGPIPE.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

TcpServer::TcpServer(Service& service, int port) : service_(service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot listen on port " + std::to_string(port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (Connection& c : connections_) {
    if (c.thread.joinable()) c.thread.join();
  }
}

void TcpServer::serve() {
  while (!service_.shutdown_requested()) {
    reap_closed();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check shutdown
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    Connection& conn = connections_.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn] { serve_connection(conn); });
  }
  {
    // Wake connection threads blocked in read(): it returns 0 and they exit.
    // Only the read side is shut, so a reply still being computed (the
    // `shutdown` request's own included) is written out in full.
    std::lock_guard<std::mutex> lock(mu_);
    for (const Connection& c : connections_) {
      if (!c.closed) ::shutdown(c.fd, SHUT_RD);
    }
  }
  for (Connection& c : connections_) c.thread.join();
  connections_.clear();
}

void TcpServer::reap_closed() {
  // A closed connection's thread has nothing left to do but return.
  std::lock_guard<std::mutex> lock(mu_);
  connections_.remove_if([](Connection& c) {
    if (c.closed) c.thread.join();
    return c.closed;
  });
}

void TcpServer::serve_connection(Connection& conn) {
  const int fd = conn.fd;
  std::string buffer;
  std::size_t consumed = 0;  // buffer[0, consumed) is already handled
  char chunk[4096];
  while (!service_.shutdown_requested()) {
    const std::size_t newline = buffer.find('\n', consumed);
    if (newline != std::string::npos) {
      std::string line = buffer.substr(consumed, newline - consumed);
      consumed = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // blank lines are keep-alives
      if (line == "metrics") {
        // GET-less scrape: the bare word `metrics` (not valid JSON, so no
        // protocol request can collide with it) answers with the Prometheus
        // text exposition, `# EOF`-terminated so scrapers know the snapshot
        // is complete. The JSON protocol proper is untouched — this carve-out
        // lives only in the transports.
        if (!write_all(fd, obs::metrics().render_prometheus())) break;
        continue;
      }
      if (!write_all(fd, service_.handle_line(line) + "\n")) break;
      continue;
    }
    if (buffer.size() - consumed > kMaxLineBytes) {
      // An unframed flood; answer once and drop the connection rather than
      // buffering without bound.
      write_all(fd, render_error("null", ErrorCode::kInvalidRequest,
                                 "request line exceeds " + std::to_string(kMaxLineBytes) +
                                     " bytes") +
                        "\n");
      break;
    }
    // Every complete line is handled: compact once per read, not per line.
    buffer.erase(0, consumed);
    consumed = 0;
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;  // client closed (or error)
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ::close(fd);
  conn.closed = true;
}

std::size_t run_stdin(Service& service, std::istream& in, std::ostream& out) {
  std::size_t handled = 0;
  std::string line;
  while (!service.shutdown_requested() && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line == "metrics") {  // same scrape carve-out as the TCP transport
      out << obs::metrics().render_prometheus();
      out.flush();
      ++handled;
      continue;
    }
    out << service.handle_line(line) << "\n";
    out.flush();
    ++handled;
  }
  return handled;
}

}  // namespace isoee::service

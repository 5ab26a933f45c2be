#include "service/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <istream>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"

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

/// The reply to one request line, newline-terminated, or "" for a blank
/// keep-alive line. Both transports answer through this.
std::string answer_line(Service& service, std::string line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line.empty()) return {};
  // GET-less scrape: the bare word `metrics` (not valid JSON, so no protocol
  // request can collide with it) answers with the Prometheus text exposition,
  // `# EOF`-terminated so scrapers know the snapshot is complete. The JSON
  // protocol proper is untouched — this carve-out lives only in the transports.
  if (line == "metrics") return obs::metrics().render_prometheus();
  return service.handle_line(line) + "\n";
}

/// The one reply to a line longer than kMaxLineBytes; neither transport
/// buffers such a line whole.
std::string overlong_reply() {
  return render_error("null", ErrorCode::kInvalidRequest,
                      "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes") +
         "\n";
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
      ::listen(listen_fd_, 64) != 0 || ::pipe2(wake_, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("cannot listen on port " + std::to_string(port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpServer::~TcpServer() {
  for (const int fd : {listen_fd_, wake_[0], wake_[1]}) ::close(fd);
}

void TcpServer::serve() {
  std::vector<pollfd> fds;  // listen, wake, then each idle connection in order
  while (!service_.shutdown_requested()) {
    fds.assign({{listen_fd_, POLLIN, 0}, {wake_[0], POLLIN, 0}});
    for (const Connection& c : connections_) {
      if (!c.busy) fds.push_back({c.fd, POLLIN, 0});
    }
    // Every reply ends with a wake, so the timeout only backs up a shutdown
    // requested outside this server (an in-process caller or the stdin loop).
    if (::poll(fds.data(), fds.size(), /*timeout_ms=*/100) <= 0) continue;
    std::size_t i = 2;
    for (Connection& c : connections_) {
      if (c.busy || fds[i++].revents == 0) continue;
      c.busy = true;
      std::unique_lock<std::mutex> lock(mu_);
      ready_.push_back(&c);
      const bool start_worker = ready_.size() > idle_workers_;  // none idle for it
      lock.unlock();
      if (start_worker) {
        workers_.emplace_back([this] { work(); });
      } else {
        ready_cv_.notify_one();
      }
    }
    if (fds[1].revents != 0) {
      char sink[256];
      while (::read(wake_[0], sink, sizeof sink) > 0) continue;
      std::lock_guard<std::mutex> lock(mu_);
      for (Connection* c : done_) c->busy = false;
      done_.clear();
    }
    connections_.remove_if([](const Connection& c) { return !c.busy && c.fd < 0; });
    if (fds[0].revents != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) connections_.emplace_back().fd = fd;
    }
  }
  // Idle connections, those handed back included, close at once. A worker
  // still answering writes its reply in full, then closes its connection.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (Connection* c : done_) c->busy = false;
  }
  ready_cv_.notify_all();
  for (Connection& c : connections_) {
    if (!c.busy && c.fd >= 0) ::close(c.fd);
  }
  for (std::thread& w : workers_) w.join();
}

void TcpServer::work() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    ++idle_workers_;
    ready_cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    --idle_workers_;
    if (ready_.empty()) return;  // stopping, and every hand-off is served
    Connection* conn = ready_.front();
    ready_.pop_front();
    lock.unlock();
    const bool keep = answer(*conn);
    lock.lock();
    if (!keep || stopping_) {
      ::close(conn->fd);
      conn->fd = -1;
    }
    done_.push_back(conn);
    // Still under the lock, so this worker counts as idle again before
    // serve() can hand it more work. A full pipe already means "awake".
    (void)!::write(wake_[1], "", 1);
  }
}

bool TcpServer::answer(Connection& conn) {
  char chunk[16384];
  const ssize_t n = ::read(conn.fd, chunk, sizeof chunk);
  if (n <= 0) return false;  // client closed (or error)
  conn.buffer.append(chunk, static_cast<std::size_t>(n));
  std::size_t consumed = 0;  // buffer[0, consumed) is answered
  for (std::size_t nl; (nl = conn.buffer.find('\n', consumed)) != std::string::npos;
       consumed = nl + 1) {
    if (service_.shutdown_requested()) return false;
    const std::string line = conn.buffer.substr(consumed, nl - consumed);
    if (!write_all(conn.fd, answer_line(service_, line))) return false;
  }
  conn.buffer.erase(0, consumed);  // compact once per read, not per line
  if (conn.buffer.size() > kMaxLineBytes) {
    // An unframed flood; answer once and drop the connection rather than
    // buffering without bound.
    write_all(conn.fd, overlong_reply());
    return false;
  }
  return true;
}

std::size_t run_stdin(Service& service, std::istream& in, std::ostream& out) {
  std::size_t handled = 0;
  const auto reply = [&](const std::string& text) {
    if (text.empty()) return;
    out << text;
    out.flush();
    ++handled;
  };
  std::string line;
  bool overlong = false;  // the line passed kMaxLineBytes: answered, rest discarded
  char chunk[16384];
  while (!service.shutdown_requested()) {
    // Reads through the next '\n' (consumed, not stored) or a full chunk,
    // which sets failbit while more of the line is still to come.
    in.getline(chunk, sizeof chunk);
    const bool cut = in.fail() && !in.eof() && !in.bad();
    const bool newline = !in.fail() && !in.eof();
    if (!overlong) line.append(chunk, static_cast<std::size_t>(in.gcount()) - newline);
    if (!overlong && line.size() > kMaxLineBytes) {
      reply(overlong_reply());
      overlong = true;
      line.clear();
    }
    if (cut) {
      in.clear();
      continue;
    }
    if (!overlong) reply(answer_line(service, std::move(line)));
    line.clear();
    overlong = false;
    if (!newline) break;  // end of input
  }
  return handled;
}

}  // namespace isoee::service

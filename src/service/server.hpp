// Transports for the query service: a line-delimited TCP server and a
// stdin/stdout loop.
//
// The TCP server is deliberately plain POSIX: accept loop with a poll()
// timeout so a `shutdown` request is noticed promptly, one thread per
// connection (the service's own admission controller bounds simulation
// concurrency, so connection threads mostly block on futures), newline-framed
// requests and responses. Shutdown shuts the read side of every open
// connection, so a client that idles without closing cannot keep the server
// alive, while replies still being computed are written out in full. The
// stdin loop runs the identical request path without any sockets — it is what
// the tests and CI smoke drive.
#pragma once

#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

namespace isoee::service {

class TcpServer {
 public:
  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral; read the resolved
  /// port back with port()). Throws std::runtime_error on bind failure.
  TcpServer(Service& service, int port);
  ~TcpServer();

  int port() const { return port_; }

  /// Accepts and serves connections until the service reports
  /// shutdown_requested(), then shuts the read side of every connection still
  /// open (so a client idling in read() cannot hold the server up, while a
  /// request already being served still gets its reply) and joins their
  /// threads before returning.
  void serve();

 private:
  void serve_connection(int fd);

  Service& service_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::thread> connections_;
  // Connection fds not yet closed. A connection thread removes its own fd
  // before close(), so serve() never touches an fd number the OS reused.
  std::mutex live_mu_;
  std::vector<int> live_fds_;
};

/// Feeds request lines from `in` to the service and writes one response line
/// per request to `out`, until EOF or a handled `shutdown`. Returns the
/// number of requests handled.
std::size_t run_stdin(Service& service, std::istream& in, std::ostream& out);

}  // namespace isoee::service

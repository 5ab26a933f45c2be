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
#include <list>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

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
  /// threads before returning. Threads of closed connections are joined as
  /// the accept loop goes, so a long-lived server holds one thread (and one
  /// stack) per open connection, not per connection ever accepted.
  void serve();

 private:
  struct Connection {
    int fd = -1;
    bool closed = false;  // guarded by mu_; set when fd is closed
    std::thread thread;
  };

  void serve_connection(Connection& conn);
  void reap_closed();  // joins the threads of closed connections

  Service& service_;
  int listen_fd_ = -1;
  int port_ = 0;
  // Connections not yet joined; only serve() adds or removes entries. Each
  // thread marks its own entry closed, under mu_, as it closes its fd, so
  // serve() never touches an fd number the OS reused.
  std::mutex mu_;
  std::list<Connection> connections_;
};

/// Feeds request lines from `in` to the service and writes one response line
/// per request to `out`, until EOF or a handled `shutdown`. Returns the
/// number of requests handled.
std::size_t run_stdin(Service& service, std::istream& in, std::ostream& out);

}  // namespace isoee::service

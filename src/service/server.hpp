// Transports for the query service: a line-delimited TCP server and a
// stdin/stdout loop, both answering each line through one handler.
//
// The TCP server is plain POSIX, and every fd has one owner at a time: serve()
// poll()s the listening socket, a wake pipe and every connection no worker is
// serving, and hands a readable one to a worker. The worker reads once,
// answers every complete line in order, hands the connection back (or closes
// it) and writes the wake pipe. Workers are reused; a new one starts only when
// none is idle, so threads are bounded by the connections being served at
// once, not by the sockets open. The stdin loop runs the same request path
// without sockets — it is what the tests and CI smoke drive.
#pragma once

#include <condition_variable>
#include <deque>
#include <iosfwd>
#include <list>
#include <mutex>
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

  /// Serves connections until the service reports shutdown_requested(), then
  /// closes every idle connection at once, lets the workers write out the
  /// replies they are computing, and joins them before returning.
  void serve();

 private:
  struct Connection {
    int fd = -1;         // -1 once a worker has closed it
    bool busy = false;   // handed to a worker; only serve()'s thread uses it
    std::string buffer;  // bytes read but not yet answered
  };

  void work();                    // one worker's loop
  bool answer(Connection& conn);  // one read, every complete line; false = close

  Service& service_;
  int listen_fd_ = -1;
  int wake_[2] = {-1, -1};  // workers write, serve() polls the read end
  int port_ = 0;
  // Only serve()'s thread adds or erases connections and starts workers; a
  // worker touches only the connection it was handed.
  std::list<Connection> connections_;
  std::vector<std::thread> workers_;
  std::condition_variable ready_cv_;  // a hand-off, or stopping_
  std::mutex mu_;                     // guards the four fields below
  std::deque<Connection*> ready_;  // handed off, not yet taken by a worker
  std::vector<Connection*> done_;  // served and handed back
  std::size_t idle_workers_ = 0;
  bool stopping_ = false;
};

/// Feeds request lines from `in` to the service and writes one response line
/// per request to `out`, until EOF or a handled `shutdown`. Lines are read in
/// bounded chunks: one longer than kMaxLineBytes gets the `invalid_request`
/// reply the TCP transport writes, and the rest of it is discarded unbuffered.
/// Returns the number of replies written.
std::size_t run_stdin(Service& service, std::istream& in, std::ostream& out);

}  // namespace isoee::service

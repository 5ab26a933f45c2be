// isoee_serve: the what-if query service as a long-running process.
//
//   build/src/service/isoee_serve --port=0 --cache-dir=/var/tmp/isoee-cache
//
// speaks the line-delimited JSON protocol of docs/SERVICE.md over TCP
// (127.0.0.1 only; put a real proxy in front for anything else). With
// --stdin it answers requests from standard input instead — the zero-setup
// mode the CI smoke and quickstart docs use.
#include <climits>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace isoee;

  util::set_log_level_from_env();

  util::Cli cli("iso-energy-efficiency what-if query service (see docs/SERVICE.md)");
  cli.no_positional()
      .flag("port", "0", "TCP port to listen on (0 = ephemeral, printed at startup)")
      .flag("stdin", "false", "serve stdin/stdout instead of TCP (for tests/CI)")
      .flag("jobs", "1", "host-thread budget for the simulation tier (0 = all cores)")
      .flag("max-queue", "64", "admission cap: concurrent simulation jobs before overload")
      .flag("cache-dir", "", "result-cache directory (empty = every cold query simulates)")
      .flag("cache-max-mb", "0",
            "result-cache size cap in MiB, oldest entries pruned (0 = unbounded)")
      .flag("trace-out", "", "write a Chrome trace of request spans to this file at exit")
      .flag("metrics-out", "", "write the metrics snapshot as JSON to this file at exit")
      .flag("prom-out", "", "write a Prometheus text exposition snapshot to this file at exit");
  if (!cli.parse(argc, argv)) return 1;

  service::ServiceConfig config;
  config.cache_dir = cli.get("cache-dir");
  int port = 0;
  try {
    config.jobs = static_cast<int>(cli.get_int("jobs", 0, INT_MAX));
    config.max_pending = static_cast<int>(cli.get_int("max-queue", 1, INT_MAX));
    config.cache_max_bytes =
        static_cast<std::uint64_t>(cli.get_int("cache-max-mb", 0, LLONG_MAX >> 20)) << 20;
    port = static_cast<int>(cli.get_int("port", 0, 65535));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "isoee_serve: %s\n", e.what());
    return 1;
  }

  obs::TraceCollector collector;
  const std::string trace_out = cli.get("trace-out");
  if (!trace_out.empty()) obs::set_global_sink(&collector);

  service::Service service(config);
  std::size_t handled = 0;
  if (cli.get_bool("stdin")) {
    handled = service::run_stdin(service, std::cin, std::cout);
  } else {
    try {
      service::TcpServer server(service, port);
      // Parseable startup line: CI scrapes the resolved ephemeral port.
      std::printf("isoee_serve: listening on 127.0.0.1:%d\n", server.port());
      std::fflush(stdout);
      server.serve();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "isoee_serve: %s\n", e.what());
      return 1;
    }
  }

  if (!trace_out.empty()) {
    obs::set_global_sink(nullptr);
    const auto events = collector.sorted();
    if (obs::ChromeTraceWriter::write(events, trace_out, {{"source", "isoee-serve"}})) {
      std::fprintf(stderr, "[trace] %s (%zu events)\n", trace_out.c_str(), events.size());
    }
  }
  if (const std::string path = cli.get("metrics-out"); !path.empty()) {
    if (obs::metrics().write_json(path)) std::fprintf(stderr, "[metrics] %s\n", path.c_str());
  }
  if (const std::string path = cli.get("prom-out"); !path.empty()) {
    if (obs::metrics().write_prometheus(path)) {
      std::fprintf(stderr, "[prom] %s\n", path.c_str());
    }
  }
  std::fprintf(stderr, "isoee_serve: done (%zu stdin requests)\n", handled);
  return 0;
}

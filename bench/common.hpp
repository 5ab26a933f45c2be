// Shared scaffolding for the experiment harnesses: the Context every figure
// row runs in, the shared flags that build it (`bench::init`; `figures --help`
// lists them, README "Reproducing the paper's figures" explains them), and
// consistent stdout formatting and CSV export.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/study.hpp"
#include "analysis/surface.hpp"
#include "exec/executor.hpp"
#include "obs/obs.hpp"
#include "sim/machine.hpp"
#include "util/table.hpp"

namespace isoee::bench {

/// What a figure row reads from its invocation: the executor its cases run
/// on, where its CSVs go and the noise-seed override. The `figures` binary
/// builds one per process and runs every row on it; tests build their own.
class Context {
 public:
  struct Options {
    exec::ExecConfig exec;
    std::string csv_dir = "bench_out";
    std::optional<std::uint64_t> seed;  // empty = the machine preset's seed
    // Observability artifacts, written when the context ends (empty = off).
    std::string trace_out;
    std::string metrics_out;
    std::string flame_out;
    std::uint64_t flame_interval_us = 500;
  };

  /// Creates the CSV directory (throws std::runtime_error when it cannot),
  /// then installs the trace sink and starts the profiler the options ask for.
  explicit Context(Options options);
  /// Uninstalls the trace sink, stops the profiler and writes the artifacts.
  ~Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  const std::string& csv_dir() const { return options_.csv_dir; }

  /// Runs `cases` as one batch on the executor and returns their payloads in
  /// order; throws when a case failed.
  std::vector<std::string> run_cases(const std::vector<exec::Case>& cases);

  /// A study of `adapter` on `machine` that runs on the context's executor,
  /// its machine vector measured by the microbenchmarks (the paper's
  /// protocol) and its workload calibrated at sizes `ns` and rank counts `ps`.
  analysis::EnergyStudy study(const sim::MachineSpec& machine,
                              std::unique_ptr<analysis::BenchmarkAdapter> adapter,
                              const std::vector<double>& ns, const std::vector<int>& ps);

  /// The validation experiments run with noise enabled — the "real
  /// hardware" — under the --seed override when one was given.
  sim::MachineSpec with_noise(sim::MachineSpec machine) const;

  /// Prints the table and writes it as CSV under <csv-dir>/<name>.csv. A
  /// failed write is a broken experiment artifact: it throws
  /// std::runtime_error, failing the row, rather than print a table that
  /// never landed on disk.
  void emit(const util::Table& table, const std::string& name) const;

  /// Prints an EE surface as table + ASCII shade map and writes the CSV.
  void emit_surface(const analysis::EeSurface& surface, const std::string& name) const;

 private:
  Options options_;
  exec::Executor executor_;
  obs::TraceCollector trace_;
};

/// One kernel a row studies: its adapter, the sizes its workload is
/// calibrated at and the size the row evaluates it at.
struct Kernel {
  std::unique_ptr<analysis::BenchmarkAdapter> adapter;
  std::vector<double> calib_ns;
  double n;
};

struct Row;

/// Applies ISOEE_LOG, then parses the shared flags and builds the process's
/// Context. Returns nullptr
/// (after printing usage or an error) on --help, a malformed flag, a numeric
/// flag whose value is not a number in range, or a --csv-dir that cannot be
/// created; the binary should exit 1 then. With `rows` null the binary takes
/// flags only: a stray positional token is almost always a typo'd flag
/// (`-cache-dir=X`). Otherwise positionals name rows of kRows, resolved into
/// `rows` (every row when none is named); an unknown name fails and lists
/// the rows.
std::unique_ptr<Context> init(int argc, const char* const* argv,
                              std::vector<const Row*>* rows = nullptr);

/// Prints a section header.
void heading(const std::string& title, const std::string& paper_note);

}  // namespace isoee::bench

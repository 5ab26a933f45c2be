#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "workload.hpp"

namespace perfbench {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void record_span(isoee::obs::TraceCollector& trace, const std::string& name,
                 Clock::time_point t0, Clock::time_point t1, int tid) {
  static const Clock::time_point origin = Clock::now();
  isoee::obs::emit_span(trace, tid, "perfbench", name,
                        std::chrono::duration<double>(t0 - origin).count(),
                        std::chrono::duration<double>(t1 - t0).count());
}

std::vector<double> span_durations(const isoee::obs::TraceCollector& trace,
                                   const std::string& name) {
  std::vector<double> out;
  for (const isoee::obs::TraceEvent& e : trace.sorted()) {
    if (e.name == name) out.push_back(e.dur);
  }
  return out;
}

Counts Counts::now() {
  auto& reg = isoee::obs::metrics();
  static isoee::obs::Counter& events = reg.counter("engine.events_processed");
  static isoee::obs::Counter& messages = reg.counter("sim.messages_sent");
  static isoee::obs::Counter& bytes = reg.counter("sim.bytes_sent");
  return {isoee::sim::Engine::total_runs_started(), events.value(), messages.value(),
          bytes.value()};
}

bool near(double a, double b, double rel) {
  if (a == b) return true;
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

bool Expected::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string kind, key;
    is >> kind >> key;
    if (kind == "sim") {
      SimOutcome v;
      is >> v.makespan >> v.energy >> v.events >> v.instructions >> v.mem_accesses >>
          v.messages >> v.bytes;
      if (!is) return false;
      sims_[key] = v;
    } else if (kind == "text") {
      std::string rest;
      std::getline(is, rest);
      texts_[key] = rest.empty() ? rest : rest.substr(1);
    } else {
      return false;
    }
  }
  return true;
}

bool Expected::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# Expected simulated outputs, one operation configuration per line.\n"
         "# sim <key> <makespan_s> <energy_j> <events> <instructions> <mem_accesses> "
         "<messages> <bytes>\n"
         "# text <key> <response result fragment>\n"
         "# Regenerate with: perfbench --record-expected <this file>\n";
  char buf[512];
  for (const auto& [key, v] : sims_) {
    std::snprintf(buf, sizeof buf, "sim %s %.17g %.17g %llu %llu %llu %llu %llu\n",
                  key.c_str(), v.makespan, v.energy,
                  static_cast<unsigned long long>(v.events),
                  static_cast<unsigned long long>(v.instructions),
                  static_cast<unsigned long long>(v.mem_accesses),
                  static_cast<unsigned long long>(v.messages),
                  static_cast<unsigned long long>(v.bytes));
    out << buf;
  }
  for (const auto& [key, v] : texts_) out << "text " << key << ' ' << v << '\n';
  return static_cast<bool>(out);
}

std::string Expected::check(const std::string& key, const SimOutcome& got) const {
  const auto it = sims_.find(key);
  if (it == sims_.end()) return "no expected entry for " + key;
  const SimOutcome& want = it->second;
  std::ostringstream err;
  err.precision(17);
  if (!near(got.makespan, want.makespan, 1e-9)) {
    err << " makespan " << got.makespan << " != " << want.makespan;
  }
  if (!near(got.energy, want.energy, 1e-9)) {
    err << " energy " << got.energy << " != " << want.energy;
  }
  if (got.events != want.events) err << " events " << got.events << " != " << want.events;
  if (got.instructions != want.instructions) err << " instructions differ";
  if (got.mem_accesses != want.mem_accesses) err << " mem_accesses differ";
  if (got.messages != want.messages) err << " messages differ";
  if (got.bytes != want.bytes) err << " bytes differ";
  const std::string s = err.str();
  return s.empty() ? s : key + ":" + s;
}

std::string Expected::check_text(const std::string& key, const std::string& got) const {
  const auto it = texts_.find(key);
  if (it == texts_.end()) return "no expected entry for " + key;
  if (it->second != got) return key + ": response differs from the stored one";
  return {};
}

isoee::sim::MachineSpec noisy_system_g() {
  isoee::sim::MachineSpec m = isoee::sim::system_g();
  m.noise.enabled = true;
  return m;
}

SimOutcome outcome_of(const isoee::sim::RunResult& r, std::uint64_t events) {
  return {r.makespan,           r.total_energy_j(),        events,
          r.counters.instructions, r.counters.mem_accesses, r.counters.messages_sent,
          r.counters.bytes_sent};
}

void SerialRunner::begin_round() {
  round_start_ = Counts::now();
  round_ = {};
}

void SerialRunner::op(Pass& pass, const std::string& key, const char* span,
                      const std::function<isoee::sim::RunResult(std::string&)>& run) {
  std::string err;
  const Counts c0 = Counts::now();
  const Clock::time_point t0 = Clock::now();
  const isoee::sim::RunResult result = run(err);
  const Clock::time_point t1 = Clock::now();
  const SimOutcome got = outcome_of(result, (Counts::now() - c0).events);

  pass.latencies_s.push_back(std::chrono::duration<double>(t1 - t0).count());
  ++pass.attempted;
  if (pass.trace != nullptr) record_span(*pass.trace, span, t0, t1);
  err += expected_.check(key, got);
  if (!err.empty()) {
    ++pass.failed;
    record_failure(err);
  }
  round_.events += got.events;
  round_.instructions += got.instructions;
  round_.mem_accesses += got.mem_accesses;
  round_.messages += got.messages;
  round_.bytes += got.bytes;
  ++round_runs_;
}

void SerialRunner::end_round(Counts& per_round) {
  const Counts round = Counts::now() - round_start_;
  const Counts summed{round_runs_, round_.events, round_.messages, round_.bytes};
  round_runs_ = 0;
  if (!(round == summed)) {
    record_guard_violation(std::string(workload_) +
                           ": registry counts of a round differ from the sum of its "
                           "runs' counters");
  }
  if (!have_round_) {
    have_round_ = true;
    first_ = round_;
    per_round = round;
  } else if (!(round == per_round) || round_.instructions != first_.instructions ||
             round_.mem_accesses != first_.mem_accesses) {
    record_guard_violation(std::string(workload_) +
                           ": exact counts differ between rounds");
  }
}

}  // namespace perfbench

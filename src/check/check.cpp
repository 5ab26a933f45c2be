#include "check/check.hpp"

#include <algorithm>
#include <sstream>

#include "check/generators.hpp"
#include "check/shrink.hpp"
#include "sim/engine.hpp"
#include "smpi/registry.hpp"

namespace isoee::check {

bool SweepStats::covered_all_algorithms() const {
  constexpr smpi::Family kFamilies[] = {smpi::Family::kBcast, smpi::Family::kAllreduce,
                                        smpi::Family::kAllgather, smpi::Family::kAlltoall};
  for (const smpi::Family family : kFamilies) {
    for (const auto& info : smpi::registered_algorithms(family)) {
      const std::string key =
          std::string(smpi::family_name(family)) + "/" + std::string(info.name);
      const auto it = cases_per_algorithm.find(key);
      if (it == cases_per_algorithm.end() || it->second == 0) return false;
    }
  }
  return true;
}

std::string SweepStats::summary() const {
  std::ostringstream os;
  os << cases << " cases, " << failures.size() << " failures; " << flat_cases
     << " flat / " << hierarchical_cases << " two-level; " << zero_byte_cases
     << " zero-byte, " << perturbed_cases << " perturbed, " << tuned_cases << " tuned";
  if (cache_hits > 0) os << "; " << cache_hits << " cached";
  return os.str();
}

void SweepStats::merge(const SweepStats& other) {
  cases += other.cases;
  failures.insert(failures.end(), other.failures.begin(), other.failures.end());
  for (const auto& [op, n] : other.cases_per_op) cases_per_op[op] += n;
  for (const auto& [algo, n] : other.cases_per_algorithm) cases_per_algorithm[algo] += n;
  flat_cases += other.flat_cases;
  hierarchical_cases += other.hierarchical_cases;
  zero_byte_cases += other.zero_byte_cases;
  perturbed_cases += other.perturbed_cases;
  tuned_cases += other.tuned_cases;
  cache_hits += other.cache_hits;
}

SweepStats run_sweep(std::uint64_t seed, int count, exec::Executor& exec,
                     const SweepOptions& opts) {
  SweepStats stats;

  // Coverage accounting is a pure function of the generated configs, so it is
  // tallied up front, in index order, independently of how cases execute.
  std::vector<CheckConfig> configs;
  configs.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    const CheckConfig cfg = generate_case(seed, opts.start + i);
    ++stats.cases;
    ++stats.cases_per_op[op_name(cfg.op)];
    if (op_has_algorithms(cfg.op) && !cfg.tuned) {
      const smpi::Family family = op_family(cfg.op);
      const std::string key = std::string(smpi::family_name(family)) + "/" +
                              std::string(smpi::algorithm_name(family, cfg.algo));
      ++stats.cases_per_algorithm[key];
    }
    (cfg.hierarchical ? stats.hierarchical_cases : stats.flat_cases) += 1;
    if (cfg.elems == 0) ++stats.zero_byte_cases;
    if (cfg.perturb) ++stats.perturbed_cases;
    if (cfg.tuned) ++stats.tuned_cases;
    configs.push_back(cfg);
  }

  // Each case — oracle plus shrink — is a pure function of its own config and
  // the sweep options, so the payloads (and therefore the failure list) are
  // identical for every jobs value, and cacheable under a key derived from
  // exactly those inputs.
  std::vector<exec::Case> cases;
  cases.reserve(configs.size());
  for (const CheckConfig& cfg : configs) {
    exec::Case c;
    c.threads = sim::resolve_engine_workers(0, cfg.p);  // fiber-engine workers
                                                        // the oracle's runs use
    if (exec.cache().enabled()) {
      c.cache_key = "sweep\x1f" + cfg.repro() +
                    "\x1f"
                    "fault=" +
                    std::string(opts.fault.ring_allgather_off_by_one ? "1" : "0") +
                    "\x1f"
                    "shrink=" +
                    std::to_string(opts.shrink_failures ? opts.shrink_budget : 0);
    }
    c.run = [cfg, &opts]() -> std::string {
      auto failure = check_case(cfg, opts.fault);
      if (!failure) return std::string();
      std::string shrunk_repro = cfg.repro();
      if (opts.shrink_failures) {
        shrunk_repro =
            shrink_repro(cfg.repro(), failure_predicate(opts.fault), opts.shrink_budget);
      }
      return *failure + '\x1f' + shrunk_repro;
    };
    cases.push_back(std::move(c));
  }

  exec::BatchStats batch_stats;
  const std::vector<exec::CaseResult> results = exec.run(cases, &batch_stats);
  stats.cache_hits = batch_stats.cache_hits;

  for (std::size_t i = 0; i < results.size(); ++i) {
    const exec::CaseResult& r = results[i];
    std::string what;
    std::string shrunk_repro;
    if (!r.error.empty()) {
      // check_case never lets simulator exceptions escape, so this is an
      // executor-level problem; surface it as a failure rather than dropping it.
      what = "executor: " + r.error;
      shrunk_repro = configs[i].repro();
    } else if (!r.payload.empty()) {
      const std::size_t sep = r.payload.rfind('\x1f');
      what = r.payload.substr(0, sep);
      shrunk_repro = sep == std::string::npos ? configs[i].repro() : r.payload.substr(sep + 1);
    } else {
      continue;  // pass
    }
    SweepFailure f;
    f.original = configs[i];
    f.what = std::move(what);
    f.shrunk = CheckConfig::from_repro(shrunk_repro);
    f.shrunk_repro = std::move(shrunk_repro);
    stats.failures.push_back(std::move(f));
  }
  return stats;
}

}  // namespace isoee::check

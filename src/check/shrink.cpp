#include "check/shrink.hpp"

#include <vector>

namespace isoee::check {
namespace {

/// Candidate simplifications of one config, most aggressive first. Ordering
/// matters: big structural cuts (fewer ranks, zero payload) are tried before
/// cosmetic ones (canonical seed), so the predicate budget goes where it
/// shrinks fastest.
std::vector<CheckConfig> mutations(const CheckConfig& c) {
  std::vector<CheckConfig> out;
  const auto push = [&out, &c](auto&& edit) {
    CheckConfig m = c;
    edit(m);
    m.canonicalize();
    if (!(m == c)) out.push_back(m);
  };

  push([](CheckConfig& m) { m.p = 1; });
  push([](CheckConfig& m) { m.p = 2; });
  push([](CheckConfig& m) { m.p /= 2; });
  push([](CheckConfig& m) { m.p -= 1; });
  push([](CheckConfig& m) { m.elems = 0; });
  push([](CheckConfig& m) { m.elems = 1; });
  push([](CheckConfig& m) { m.elems /= 2; });
  push([](CheckConfig& m) { m.noise = false; });
  push([](CheckConfig& m) { m.perturb = false; });
  push([](CheckConfig& m) { m.tuned = false; });
  push([](CheckConfig& m) { m.hierarchical = false; });
  push([](CheckConfig& m) { m.comm_gear = false; });
  push([](CheckConfig& m) { m.gear_index = 0; });
  push([](CheckConfig& m) { m.root = 0; });
  push([](CheckConfig& m) { m.machine = "systemg"; });
  push([](CheckConfig& m) { m.algo = 0; });
  push([](CheckConfig& m) { m.seed = 1; });
  return out;
}

}  // namespace

ShrinkResult shrink(const CheckConfig& failing,
                    const std::function<bool(const CheckConfig&)>& still_fails,
                    int max_predicate_calls) {
  ShrinkResult res;
  res.config = failing;
  res.config.canonicalize();

  bool progressed = true;
  while (progressed && res.predicate_calls < max_predicate_calls) {
    progressed = false;
    for (const CheckConfig& candidate : mutations(res.config)) {
      if (res.predicate_calls >= max_predicate_calls) break;
      ++res.predicate_calls;
      if (still_fails(candidate)) {
        res.config = candidate;
        ++res.accepted;
        progressed = true;
        break;  // restart the mutation list from the new, smaller config
      }
    }
  }
  return res;
}

std::string shrink_repro(const std::string& failing_repro,
                         const std::function<bool(const CheckConfig&)>& still_fails,
                         int max_predicate_calls) {
  const CheckConfig failing = CheckConfig::from_repro(failing_repro);
  return shrink(failing, still_fails, max_predicate_calls).config.repro();
}

}  // namespace isoee::check

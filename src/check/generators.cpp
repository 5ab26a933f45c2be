#include "check/generators.hpp"

#include <cstddef>
#include <iterator>

#include "smpi/registry.hpp"
#include "util/rng.hpp"

namespace isoee::check {
namespace {

constexpr int kOpCount = static_cast<int>(std::size(kAllOps));

// Rank-count strata: pow2, non-pow2 (odd and even), 1, and the node-boundary
// sizes of the presets (SystemG packs 8 ranks per node, Dori 4).
constexpr int kRankStrata[] = {1, 2, 3, 4, 5, 7, 8, 12, 16};

}  // namespace

CheckConfig generate_case(std::uint64_t sweep_seed, int index) {
  std::uint64_t s = sweep_seed ^ (0x5eedc0de00ULL + static_cast<std::uint64_t>(index));
  util::Xoshiro256 rng(util::splitmix64(s));

  CheckConfig c;
  c.seed = rng() | 1;  // never 0
  c.op = kAllOps[static_cast<std::size_t>(index % kOpCount)];
  c.hierarchical = index % 2 == 1;
  c.machine = (index / 2) % 2 == 0 ? "systemg" : "dori";

  const int rank_pick = index / kOpCount;  // advances once per op cycle
  c.p = (rank_pick % 3 == 2)
            ? static_cast<int>(1 + rng.below(16))
            : kRankStrata[static_cast<std::size_t>(rank_pick) % std::size(kRankStrata)];

  // Payload strata: zero-byte, single element, small random, huge random.
  // Mixing in the op-cycle number decorrelates the stratum from the algorithm
  // cycle below (op period 14 and stratum period 4 share a factor of 2, so a
  // plain index % 4 would pin some op/algorithm combinations to one stratum).
  switch ((index + index / kOpCount) % 4) {
    case 0: c.elems = 0; break;
    case 1: c.elems = 1; break;
    case 2: c.elems = 2 + rng.below(63); break;
    default: c.elems = 1024 + rng.below((1 << 16) - 1024); break;
  }

  if (op_has_algorithms(c.op)) {
    const auto algos = smpi::registered_algorithms(op_family(c.op));
    // Cycle through the family's algorithms across successive op cycles so a
    // sweep of >= kOpCount * max_family_size configs covers every algorithm.
    c.algo = (index / kOpCount) % static_cast<int>(algos.size());
  }
  c.tuned = index % 5 == 4;  // tuning tables override the fixed algorithm
  c.root = static_cast<int>(rng.below(static_cast<std::uint64_t>(c.p)));
  c.gear_index = static_cast<int>(rng.below(4));
  c.comm_gear = rng.below(3) == 0;
  c.noise = rng.below(4) == 0;
  c.perturb = index % 4 == 2;

  c.canonicalize();
  return c;
}

}  // namespace isoee::check

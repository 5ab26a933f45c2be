// CKPT — a synthetic checkpointing application exercising the model's I/O
// path (T_io, DeltaP_io), which the paper defines (Eqs 5-9) but leaves at ~0
// because the NAS codes are not disk-intensive ("users can always replace
// T_io DeltaP_io with any combinations of specific I/O components").
//
// Each rank owns a slice of a state vector; every iteration applies a real
// arithmetic update pass (verifiable checksum), and every `ckpt_every`
// iterations writes its slice to local storage through the DiskSpec model.
// A final allreduce produces a p-invariant checksum.
#pragma once

#include <cstdint>

#include "powerpack/phases.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"

namespace isoee::npb {

struct CkptConfig {
  std::uint64_t elements = 1 << 20;  // global state vector length
  int iterations = 20;
  int ckpt_every = 5;                // checkpoint period (iterations)
  double seed = 314159265.0;
  smpi::CollectiveConfig collectives{};

  /// The field list (see model::MachineParams::fields), which the study
  /// fingerprint names: renaming a key invalidates every warm result cache.
  template <class Self, class Visit>
  static void fields(Self& c, Visit&& visit) {
    visit("elements", c.elements);
    visit("iterations", c.iterations);
    visit("every", c.ckpt_every);
    visit("seed", c.seed);
    visit("coll", c.collectives);
  }
};

struct CkptResult {
  double checksum = 0.0;           // global, p-invariant
  std::uint64_t checkpoints = 0;   // per-rank checkpoint count
  std::uint64_t bytes_written = 0; // per-rank bytes written to disk
};

/// Runs the checkpoint benchmark on one rank.
CkptResult ckpt_rank(sim::RankCtx& ctx, const CkptConfig& config,
                     powerpack::PhaseLog* phases = nullptr);

}  // namespace isoee::npb

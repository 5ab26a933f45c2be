// The fuzzing harness's case description: one CheckConfig fully determines
// one property-check case — machine preset, topology, noise, DVFS gears,
// rank count, operation, payload shape, algorithm selection, and the
// perturbation switch. Configs serialize to a compact, order-insensitive
// `key=value,...` repro string so any failure found by a randomized sweep
// (or CI soak run) can be replayed exactly with `fuzz_soak --repro=...`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/machine.hpp"
#include "smpi/registry.hpp"

namespace isoee::check {

/// Operations the harness can generate. Collective families with multiple
/// registered algorithms map onto smpi::Family; kernels exercise the full
/// sim-vs-analytical-model differential.
enum class OpKind {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kAllgather,
  kAllgatherv,
  kAlltoall,
  kAlltoallv,
  kGather,
  kScatter,
  kScan,
  kReduceScatter,
  kKernelEp,
  kKernelFt,
};

inline constexpr OpKind kAllOps[] = {
    OpKind::kBarrier,   OpKind::kBcast,    OpKind::kReduce,       OpKind::kAllreduce,
    OpKind::kAllgather, OpKind::kAllgatherv, OpKind::kAlltoall,   OpKind::kAlltoallv,
    OpKind::kGather,    OpKind::kScatter,  OpKind::kScan,         OpKind::kReduceScatter,
    OpKind::kKernelEp,  OpKind::kKernelFt,
};

const char* op_name(OpKind op);
OpKind op_from_name(std::string_view name);  // throws std::invalid_argument

/// True when the op is a collective family with >1 registered algorithm.
bool op_has_algorithms(OpKind op);
/// The registry family of a multi-algorithm op (only valid when
/// op_has_algorithms).
smpi::Family op_family(OpKind op);

/// One fuzz case. Every field is significant for replay; `seed` drives the
/// payload values, variable counts, noise stream, and perturbation stream.
struct CheckConfig {
  std::uint64_t seed = 1;
  std::string machine = "systemg";  // canonical sim::machine_preset name
  bool hierarchical = false;  // two-level (intra-node link) topology
  bool noise = false;         // lognormal timing jitter on
  int gear_index = 0;         // starting DVFS gear (index into gears_ghz)
  bool comm_gear = false;     // drop to the lowest gear inside collectives
  int p = 4;                  // simulated ranks
  OpKind op = OpKind::kAlltoall;
  std::size_t elems = 16;     // per-rank payload elements (0 = zero-byte case)
  int algo = 0;               // algorithm id within the family (fixed path)
  bool tuned = false;         // resolve algorithms from the mpich_like table
  int root = 0;               // root for rooted collectives
  bool perturb = false;       // exercise the host-schedule perturbation check

  /// Clamps the config onto the harness's valid envelope (p within machine
  /// cores and kernel divisibility constraints, algo within the family,
  /// root < p, ...) and `machine` onto its canonical preset name (throws
  /// std::invalid_argument for an unknown machine). Generator and shrinker
  /// both funnel through this.
  void canonicalize();

  /// Compact replayable form, e.g.
  /// "op=alltoall,machine=systemg,topo=two,p=6,elems=0,algo=bruck,...".
  std::string repro() const;

  /// Parses a repro string (any key order; unknown keys rejected). Throws
  /// std::invalid_argument with a description on malformed input.
  static CheckConfig from_repro(std::string_view text);

  bool operator==(const CheckConfig&) const = default;
};

/// Materializes the machine the case runs on (preset + topology + noise,
/// noise seed derived from cfg.seed).
sim::MachineSpec machine_for(const CheckConfig& cfg);

}  // namespace isoee::check

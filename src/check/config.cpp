#include "check/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace isoee::check {
namespace {

struct OpName {
  OpKind op;
  const char* name;
};

constexpr OpName kOpNames[] = {
    {OpKind::kBarrier, "barrier"},
    {OpKind::kBcast, "bcast"},
    {OpKind::kReduce, "reduce"},
    {OpKind::kAllreduce, "allreduce"},
    {OpKind::kAllgather, "allgather"},
    {OpKind::kAllgatherv, "allgatherv"},
    {OpKind::kAlltoall, "alltoall"},
    {OpKind::kAlltoallv, "alltoallv"},
    {OpKind::kGather, "gather"},
    {OpKind::kScatter, "scatter"},
    {OpKind::kScan, "scan"},
    {OpKind::kReduceScatter, "reduce_scatter"},
    {OpKind::kKernelEp, "ep"},
    {OpKind::kKernelFt, "ft"},
};

bool is_rooted(OpKind op) {
  return op == OpKind::kBcast || op == OpKind::kReduce || op == OpKind::kGather ||
         op == OpKind::kScatter;
}

int floor_pow2(int x) {
  int p = 1;
  while (p * 2 <= x) p *= 2;
  return p;
}

std::uint64_t parse_u64(std::string_view key, std::string_view value) {
  std::uint64_t out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size()) {
    throw std::invalid_argument("repro: bad number for '" + std::string(key) +
                                "': " + std::string(value));
  }
  return out;
}

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "0" || value == "1") return value == "1";
  throw std::invalid_argument("repro: '" + std::string(key) + "' must be 0 or 1, got " +
                              std::string(value));
}

}  // namespace

const char* op_name(OpKind op) {
  for (const auto& [o, name] : kOpNames) {
    if (o == op) return name;
  }
  return "?";
}

OpKind op_from_name(std::string_view name) {
  for (const auto& [op, n] : kOpNames) {
    if (name == n) return op;
  }
  throw std::invalid_argument("unknown op: " + std::string(name));
}

bool op_has_algorithms(OpKind op) {
  return op == OpKind::kBcast || op == OpKind::kAllreduce || op == OpKind::kAllgather ||
         op == OpKind::kAlltoall;
}

smpi::Family op_family(OpKind op) {
  switch (op) {
    case OpKind::kBcast: return smpi::Family::kBcast;
    case OpKind::kAllreduce: return smpi::Family::kAllreduce;
    case OpKind::kAllgather: return smpi::Family::kAllgather;
    case OpKind::kAlltoall: return smpi::Family::kAlltoall;
    default: throw std::logic_error("op has no algorithm family");
  }
}

void CheckConfig::canonicalize() {
  if (seed == 0) seed = 1;
  p = std::clamp(p, 1, 16);
  if (op == OpKind::kKernelFt) {
    // FT slab decomposition needs nx % p == 0 and nz % p == 0 on a
    // power-of-two grid; the harness runs a fixed 16^3 grid.
    p = floor_pow2(p);
  }
  if (op == OpKind::kKernelEp || op == OpKind::kKernelFt) {
    // Kernels run fixed NPB problem sizes; normalize the unused knobs so
    // shrunk repros are canonical.
    elems = 0;
    tuned = false;
  }
  const std::size_t cap = (op == OpKind::kAlltoall || op == OpKind::kAlltoallv ||
                           op == OpKind::kAllgather || op == OpKind::kAllgatherv)
                              ? (std::size_t{1} << 12)
                              : (std::size_t{1} << 16);
  elems = std::min(elems, cap);
  if (op_has_algorithms(op)) {
    const auto algos = smpi::registered_algorithms(op_family(op));
    algo = std::clamp(algo, 0, static_cast<int>(algos.size()) - 1);
  } else {
    algo = 0;
    tuned = false;
  }
  if (tuned) algo = 0;  // the table decides; normalize the ignored knob
  root = is_rooted(op) ? std::clamp(root, 0, p - 1) : 0;
  // Any spelling machine_preset accepts ("System_G", "DORI") becomes its
  // lower-case preset name, which is what repro strings carry.
  const sim::MachineSpec preset = sim::machine_preset(machine);
  machine.clear();
  for (const char c : preset.name) {
    machine += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  gear_index =
      std::clamp(gear_index, 0, static_cast<int>(preset.cpu.gears_ghz.size()) - 1);
}

std::string CheckConfig::repro() const {
  std::string s;
  s += "op=";
  s += op_name(op);
  s += ",machine=";
  s += machine;
  s += ",topo=";
  s += hierarchical ? "two" : "flat";
  s += ",p=" + std::to_string(p);
  s += ",elems=" + std::to_string(elems);
  s += ",algo=";
  s += op_has_algorithms(op) ? std::string(smpi::algorithm_name(op_family(op), algo))
                             : std::to_string(algo);
  s += ",tuned=" + std::to_string(tuned ? 1 : 0);
  s += ",root=" + std::to_string(root);
  s += ",gear=" + std::to_string(gear_index);
  s += ",commgear=" + std::to_string(comm_gear ? 1 : 0);
  s += ",noise=" + std::to_string(noise ? 1 : 0);
  s += ",perturb=" + std::to_string(perturb ? 1 : 0);
  s += ",seed=" + std::to_string(seed);
  return s;
}

CheckConfig CheckConfig::from_repro(std::string_view text) {
  std::map<std::string, std::string, std::less<>> kv;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("repro: expected key=value, got '" + std::string(item) +
                                  "'");
    }
    const auto [it, inserted] =
        kv.emplace(std::string(item.substr(0, eq)), std::string(item.substr(eq + 1)));
    if (!inserted) throw std::invalid_argument("repro: duplicate key '" + it->first + "'");
  }

  CheckConfig cfg;
  const auto take = [&kv](std::string_view key) -> std::string* {
    const auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  };
  // op first: algorithm names are resolved within its family.
  if (const auto* v = take("op")) cfg.op = op_from_name(*v);
  if (const auto* v = take("machine")) cfg.machine = *v;
  if (const auto* v = take("topo")) {
    if (*v != "flat" && *v != "two") {
      throw std::invalid_argument("repro: topo must be flat or two, got " + *v);
    }
    cfg.hierarchical = *v == "two";
  }
  if (const auto* v = take("p")) cfg.p = static_cast<int>(parse_u64("p", *v));
  if (const auto* v = take("elems")) cfg.elems = parse_u64("elems", *v);
  if (const auto* v = take("algo")) {
    if (!v->empty() && (std::isdigit(static_cast<unsigned char>(v->front())) != 0)) {
      cfg.algo = static_cast<int>(parse_u64("algo", *v));
    } else {
      cfg.algo = smpi::algorithm_id_from_name(op_family(cfg.op), *v);
    }
  }
  if (const auto* v = take("tuned")) cfg.tuned = parse_bool("tuned", *v);
  if (const auto* v = take("root")) cfg.root = static_cast<int>(parse_u64("root", *v));
  if (const auto* v = take("gear")) {
    cfg.gear_index = static_cast<int>(parse_u64("gear", *v));
  }
  if (const auto* v = take("commgear")) cfg.comm_gear = parse_bool("commgear", *v);
  if (const auto* v = take("noise")) cfg.noise = parse_bool("noise", *v);
  if (const auto* v = take("perturb")) cfg.perturb = parse_bool("perturb", *v);
  if (const auto* v = take("seed")) cfg.seed = parse_u64("seed", *v);

  constexpr std::string_view kKnown[] = {"op",   "machine", "topo",     "p",
                                         "elems", "algo",    "tuned",    "root",
                                         "gear",  "commgear", "noise",   "perturb",
                                         "seed"};
  for (const auto& [key, value] : kv) {
    if (std::find(std::begin(kKnown), std::end(kKnown), key) == std::end(kKnown)) {
      throw std::invalid_argument("repro: unknown key '" + key + "'");
    }
  }
  cfg.canonicalize();
  return cfg;
}

sim::MachineSpec machine_for(const CheckConfig& cfg) {
  sim::MachineSpec m = sim::machine_preset(cfg.machine);
  if (cfg.hierarchical) m = sim::with_intra_node_link(std::move(m));
  m.noise.enabled = cfg.noise;
  std::uint64_t s = cfg.seed;
  m.noise.seed = util::splitmix64(s);
  // A positive busy-poll share makes the comm-gear-down power invariant
  // non-vacuous (with the presets' 0 the CPU active energy of a pure
  // collective is identically zero on both sides of the comparison).
  m.power.net_poll_cpu_factor = 0.25;
  return m;
}

}  // namespace isoee::check

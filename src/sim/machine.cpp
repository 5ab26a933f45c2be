#include "sim/machine.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace isoee::sim {

double MemorySpec::access_latency(std::uint64_t working_set_bytes) const {
  // A uniform random access over a working set of size W lands in the
  // innermost level that still holds the touched line. With inclusive caches
  // and LRU, the fraction of accesses hitting level i is cap_i/W (clamped),
  // minus what the smaller levels already absorbed; the remainder goes to
  // DRAM. This produces the classic staircase that lat_mem_rd plots.
  if (working_set_bytes == 0) return caches.empty() ? dram_latency_s : caches.front().latency_s;
  const double ws = static_cast<double>(working_set_bytes);
  double covered = 0.0;  // fraction of accesses already served
  double latency = 0.0;
  for (const auto& level : caches) {
    const double frac = std::min(1.0, static_cast<double>(level.capacity_bytes) / ws);
    const double served = std::max(0.0, frac - covered);
    latency += served * level.latency_s;
    covered = std::max(covered, frac);
    if (covered >= 1.0) return latency;
  }
  latency += (1.0 - covered) * dram_latency_s;
  return latency;
}

double PowerSpec::cpu_delta_at(double ghz, double base_ghz) const {
  if (base_ghz <= 0.0) return cpu_delta_w;
  return cpu_delta_w * std::pow(ghz / base_ghz, gamma);
}

std::string MachineSpec::validate() const {
  if (nodes <= 0) return "nodes must be positive";
  if (sockets_per_node <= 0 || cores_per_socket <= 0) return "core topology must be positive";
  if (cpu.cpi <= 0.0) return "cpi must be positive";
  if (cpu.base_ghz <= 0.0) return "base frequency must be positive";
  if (cpu.gears_ghz.empty()) return "at least one DVFS gear required";
  for (std::size_t i = 0; i + 1 < cpu.gears_ghz.size(); ++i) {
    if (cpu.gears_ghz[i] <= cpu.gears_ghz[i + 1]) return "gears must be strictly descending";
  }
  for (double g : cpu.gears_ghz) {
    if (g <= 0.0) return "gear frequencies must be positive";
  }
  if (mem.dram_latency_s <= 0.0) return "DRAM latency must be positive";
  for (const auto& c : mem.caches) {
    if (c.capacity_bytes == 0 || c.latency_s <= 0.0) return "cache levels must be non-trivial";
  }
  if (net.t_s < 0.0 || net.bandwidth_Bps <= 0.0) return "network parameters invalid";
  if (net.hierarchical && (net.intra_t_s < 0.0 || net.intra_bandwidth_Bps <= 0.0)) {
    return "intra-node network parameters invalid";
  }
  if (power.gamma < 1.0) return "gamma must be >= 1 (Kim et al.)";
  if (power.system_idle_w() <= 0.0) return "idle power must be positive";
  if (mem_overlap < 0.0 || mem_overlap > 1.0) return "mem_overlap must be in [0,1]";
  return {};
}

MachineSpec system_g() {
  MachineSpec m;
  m.name = "SystemG";
  m.nodes = 325;
  m.sockets_per_node = 2;
  m.cores_per_socket = 4;

  m.cpu.cpi = 0.55;  // superscalar Xeon on NPB-like mixes
  m.cpu.base_ghz = 2.8;
  m.cpu.gears_ghz = {2.8, 2.4, 2.0, 1.6};

  m.mem.caches = {
      CacheLevel{32ull * 1024, 1.4e-9},          // L1D
      CacheLevel{6ull * 1024 * 1024, 5.0e-9},    // 6 MB L2 per core (paper)
  };
  m.mem.dram_latency_s = 80e-9;

  m.net.name = "InfiniBand-40G";
  m.net.t_s = 2.5e-6;
  m.net.bandwidth_Bps = 5.0e9;  // 40 Gb/s end-to-end (paper)

  // Mac Pro node: ~230 W idle, ~330 W loaded; divided over 8 core slots.
  m.power.cpu_idle_w = 9.0;
  m.power.cpu_delta_w = 12.0;  // at 2.8 GHz
  m.power.mem_idle_w = 4.0;
  m.power.mem_delta_w = 5.0;
  m.power.io_idle_w = 2.0;
  m.power.io_delta_w = 0.0;
  m.power.other_w = 14.0;
  m.power.gamma = 2.0;  // the paper sets gamma = 2 for SystemG

  m.noise.enabled = false;
  m.noise.seed = 0x5157e0c7ULL;

  m.mem_overlap = 0.6;
  return m;
}

MachineSpec dori() {
  MachineSpec m;
  m.name = "Dori";
  m.nodes = 8;
  m.sockets_per_node = 2;
  m.cores_per_socket = 2;

  m.cpu.cpi = 0.9;
  m.cpu.base_ghz = 2.0;
  m.cpu.gears_ghz = {2.0, 1.8, 1.6, 1.4, 1.2, 1.0};

  m.mem.caches = {
      CacheLevel{64ull * 1024, 1.5e-9},        // L1D
      CacheLevel{1ull * 1024 * 1024, 6.0e-9},  // 1 MB L2 per core (paper)
  };
  m.mem.dram_latency_s = 110e-9;

  m.net.name = "Ethernet-1G";
  m.net.t_s = 45e-6;
  m.net.bandwidth_Bps = 0.125e9;  // 1 Gb/s (paper)

  // Opteron node: ~180 W idle, ~260 W loaded; divided over 4 core slots.
  m.power.cpu_idle_w = 14.0;
  m.power.cpu_delta_w = 13.0;  // at 2.0 GHz
  m.power.mem_idle_w = 5.0;
  m.power.mem_delta_w = 6.0;
  m.power.io_idle_w = 2.5;
  m.power.io_delta_w = 0.0;
  m.power.other_w = 23.0;
  m.power.gamma = 2.0;

  m.noise.enabled = false;
  m.noise.seed = 0xd0217eedULL;

  m.mem_overlap = 0.5;
  return m;
}

MachineSpec machine_preset(std::string_view name) {
  std::string key;  // lower case, no underscores: "SystemG" -> "systemg"
  for (const char c : name) {
    if (c != '_') key += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (key == "systemg") return system_g();
  if (key == "dori") return dori();
  throw std::invalid_argument("unknown machine '" + std::string(name) +
                              "' (have: system_g, dori)");
}

MachineSpec with_intra_node_link(MachineSpec m, double intra_t_s, double intra_bw_Bps) {
  m.net.hierarchical = true;
  // Default intra-node link: shared-memory transport. MPPTest-style curves put
  // same-node latency at roughly 1/5 of the NIC's and bandwidth at memory-copy
  // rates, floored so a fast NIC (InfiniBand) still sees a gain.
  m.net.intra_t_s = intra_t_s > 0.0 ? intra_t_s : m.net.t_s / 5.0;
  m.net.intra_bandwidth_Bps =
      intra_bw_Bps > 0.0 ? intra_bw_Bps : std::max(4.0 * m.net.bandwidth_Bps, 8e9);
  return m;
}

}  // namespace isoee::sim

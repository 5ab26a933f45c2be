#include "exec/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "exec/codec.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"
#include "util/log.hpp"

namespace isoee::exec {

namespace fs = std::filesystem;

namespace {
struct CacheMetrics {
  obs::Counter& hits = obs::metrics().counter("exec.cache_hits");
  obs::Counter& misses = obs::metrics().counter("exec.cache_misses");
  obs::Counter& stores = obs::metrics().counter("exec.cache_stores");
  obs::Counter& pruned = obs::metrics().counter("exec.cache_pruned");

  static CacheMetrics& get() {
    static CacheMetrics m;
    return m;
  }
};

// Registered at load time, so every snapshot lists the family, at 0 in a
// process that never touches a cache.
[[maybe_unused]] const CacheMetrics& registered_at_load = CacheMetrics::get();

bool is_entry_file(const fs::path& p) { return p.extension() == ".result"; }

/// Sums the entry files under `dir`. Errors (entries vanishing mid-scan) are
/// skipped: the estimate self-corrects on the next prune.
std::uint64_t scan_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec) || !is_entry_file(it->path())) continue;
    const std::uint64_t size = it->file_size(ec);
    if (!ec) total += size;
  }
  return total;
}
}  // namespace

std::string machine_fingerprint(const sim::MachineSpec& m) {
  std::ostringstream os;
  os << "name=" << m.name << ";nodes=" << m.nodes << ";spn=" << m.sockets_per_node
     << ";cps=" << m.cores_per_socket << ";cpi=" << encode_f64(m.cpu.cpi)
     << ";base=" << encode_f64(m.cpu.base_ghz) << ";gears=";
  for (double g : m.cpu.gears_ghz) os << encode_f64(g) << ",";
  os << ";caches=";
  for (const auto& c : m.mem.caches) {
    os << c.capacity_bytes << ":" << encode_f64(c.latency_s) << ",";
  }
  os << ";dram=" << encode_f64(m.mem.dram_latency_s) << ";net=" << m.net.name
     << ";ts=" << encode_f64(m.net.t_s) << ";bw=" << encode_f64(m.net.bandwidth_Bps)
     << ";hier=" << (m.net.hierarchical ? 1 : 0)
     << ";its=" << encode_f64(m.net.intra_t_s)
     << ";ibw=" << encode_f64(m.net.intra_bandwidth_Bps)
     << ";dbw=" << encode_f64(m.disk.bandwidth_Bps)
     << ";dlat=" << encode_f64(m.disk.latency_s)
     << ";pci=" << encode_f64(m.power.cpu_idle_w)
     << ";pcd=" << encode_f64(m.power.cpu_delta_w)
     << ";pmi=" << encode_f64(m.power.mem_idle_w)
     << ";pmd=" << encode_f64(m.power.mem_delta_w)
     << ";pii=" << encode_f64(m.power.io_idle_w)
     << ";pid=" << encode_f64(m.power.io_delta_w)
     << ";po=" << encode_f64(m.power.other_w) << ";gamma=" << encode_f64(m.power.gamma)
     << ";poll=" << encode_f64(m.power.net_poll_cpu_factor)
     << ";noise=" << (m.noise.enabled ? 1 : 0)
     << ";ns=" << encode_f64(m.noise.compute_sigma) << ","
     << encode_f64(m.noise.memory_sigma) << "," << encode_f64(m.noise.network_sigma)
     << "," << encode_f64(m.noise.io_sigma) << "," << encode_f64(m.noise.sensor_sigma)
     << ";nseed=" << m.noise.seed << ";ovl=" << encode_f64(m.mem_overlap);
  return os.str();
}

ResultCache::ResultCache(std::string dir, std::uint64_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {
  if (dir_.empty()) return;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec && !fs::is_directory(dir_)) {
    ISOEE_WARN("result cache disabled: cannot create %s (%s)", dir_.c_str(),
               ec.message().c_str());
    return;
  }
  enabled_ = true;
  // A capped cache opened over existing entries must count them against the
  // cap, so the footprint is measured once up front (uncapped caches skip the
  // walk — they never consult the estimate).
  if (max_bytes_ > 0) approx_bytes_.store(scan_bytes(dir_));
}

std::string ResultCache::entry_path(const std::string& key) const {
  // Two independent FNV lanes + the salt give a 128-bit content address; the
  // stored key line catches the (astronomically unlikely) residual collision.
  const std::string salted = std::string(kCacheSalt) + "\x1f" + key;
  const std::uint64_t a = fnv1a(salted);
  const std::uint64_t b = fnv1a(salted, 0x9ae16a3b2f90404fULL);
  const std::string hex = encode_u64(a) + encode_u64(b);
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".result";
}

std::optional<std::string> ResultCache::load(const std::string& key) const {
  if (!enabled_) return std::nullopt;
  std::ifstream in(entry_path(key), std::ios::binary);
  if (!in) {
    CacheMetrics::get().misses.inc();
    return std::nullopt;
  }
  std::string stored_key;
  if (!std::getline(in, stored_key) || stored_key != std::string(kCacheSalt) + "\x1f" + key) {
    // Corrupt entry or hash collision: treat as absent.
    CacheMetrics::get().misses.inc();
    return std::nullopt;
  }
  std::ostringstream payload;
  payload << in.rdbuf();
  if (in.bad()) {
    CacheMetrics::get().misses.inc();
    return std::nullopt;
  }
  CacheMetrics::get().hits.inc();
  return payload.str();
}

bool ResultCache::store(const std::string& key, const std::string& payload) const {
  if (!enabled_) return false;
  const std::string path = entry_path(key);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec && !fs::is_directory(fs::path(path).parent_path())) {
    ISOEE_WARN("result cache: cannot create shard dir for %s (%s)", path.c_str(),
               ec.message().c_str());
    return false;
  }
  // Unique temp name per process and thread so concurrent cases writing the
  // same entry never interleave; rename() is atomic, last writer wins.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) {
      ISOEE_WARN("result cache: cannot open %s for writing", tmp.c_str());
      return false;
    }
    out << kCacheSalt << "\x1f" << key << "\n" << payload;
    out.flush();
    if (!out) {
      ISOEE_WARN("result cache: short write to %s", tmp.c_str());
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    ISOEE_WARN("result cache: rename %s -> %s failed (%s)", tmp.c_str(), path.c_str(),
               ec.message().c_str());
    fs::remove(tmp, ec);
    return false;
  }
  CacheMetrics::get().stores.inc();
  if (max_bytes_ > 0) {
    std::uint64_t size = 0;
    std::error_code size_ec;
    size = fs::file_size(path, size_ec);
    if (size_ec) size = payload.size();  // entry replaced already: estimate
    if (approx_bytes_.fetch_add(size) + size > max_bytes_) prune();
  }
  return true;
}

void ResultCache::prune() const {
  std::lock_guard<std::mutex> lock(prune_mu_);
  if (approx_bytes_.load() <= max_bytes_) return;  // another thread just pruned

  struct Entry {
    fs::file_time_type mtime;
    std::string path;
    std::uint64_t size = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec) || !is_entry_file(it->path())) continue;
    Entry e;
    e.path = it->path().string();
    e.size = it->file_size(ec);
    if (ec) continue;
    e.mtime = it->last_write_time(ec);
    if (ec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }

  // Oldest first; path breaks mtime ties so every pruner picks the same
  // victims regardless of directory iteration order.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });

  std::uint64_t removed = 0;
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    fs::remove(e.path, ec);
    if (ec) continue;  // e.g. pruned by a concurrent process: already gone
    total -= e.size;
    ++removed;
  }
  approx_bytes_.store(total);
  if (removed > 0) {
    CacheMetrics::get().pruned.inc(removed);
    ISOEE_INFO("result cache: pruned %llu oldest entries (%llu bytes kept, cap %llu)",
               static_cast<unsigned long long>(removed),
               static_cast<unsigned long long>(total),
               static_cast<unsigned long long>(max_bytes_));
  }
}

}  // namespace isoee::exec

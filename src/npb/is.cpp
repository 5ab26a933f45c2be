#include "npb/is.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <vector>

#include "npb/costs.hpp"
#include "util/rng.hpp"

namespace isoee::npb {

IsResult is_rank(sim::RankCtx& ctx, const IsConfig& config, powerpack::PhaseLog* phases) {
  if (config.key_bits < 1 || config.key_bits > 30) {
    throw std::invalid_argument("is: key_bits out of range");
  }
  smpi::Comm comm(ctx, config.collectives);
  const int p = ctx.size();
  const int r = ctx.rank();
  const std::uint64_t key_range = 1ull << config.key_bits;

  // --- generate the local slice of the global key stream ----------------------
  const std::uint64_t lo = config.n_keys * static_cast<std::uint64_t>(r) /
                           static_cast<std::uint64_t>(p);
  const std::uint64_t hi = config.n_keys * static_cast<std::uint64_t>(r + 1) /
                           static_cast<std::uint64_t>(p);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(hi - lo));
  {
    powerpack::OptionalPhase phase(phases, ctx, "is.generate");
    util::NpbRandom rng(config.seed);
    rng.skip(lo);
    // Deviates are drawn a block at a time (4 KiB of fiber stack) through
    // fill(), which overlaps several generator chains.
    std::array<double, 512> block;
    for (std::size_t i = 0; i < keys.size();) {
      const std::size_t m = std::min(block.size(), keys.size() - i);
      rng.fill(std::span<double>(block.data(), m));
      for (std::size_t j = 0; j < m; ++j, ++i) {
        keys[i] = static_cast<std::uint32_t>(block[j] * static_cast<double>(key_range));
      }
    }
    ctx.compute_mem(costs::kIsInstrPerKeyGen * keys.size(), keys.size() / 16);
  }

  // --- bucket by value range, exchange counts ---------------------------------
  // Bucket b owns keys in [b*range/p, (b+1)*range/p).
  auto bucket_of = [&](std::uint32_t key) {
    return static_cast<int>(static_cast<std::uint64_t>(key) * static_cast<std::uint64_t>(p) /
                            key_range);
  };
  std::vector<int> send_counts(static_cast<std::size_t>(p), 0);
  {
    powerpack::OptionalPhase phase(phases, ctx, "is.histogram");
    for (auto k : keys) ++send_counts[static_cast<std::size_t>(bucket_of(k))];
    ctx.compute_mem(costs::kIsInstrPerKeyCount * keys.size(),
                    keys.size() / costs::kIsKeysPerMemAccess / 8);
  }

  // Every rank needs to know how much it will receive from each peer: the
  // transpose of the send-count matrix, obtained with an alltoall of counts.
  std::vector<int> recv_counts(static_cast<std::size_t>(p), 0);
  comm.alltoall(std::span<const int>(send_counts), std::span<int>(recv_counts), 1);

  // --- scatter keys into send order, redistribute -----------------------------
  std::vector<std::uint32_t> send_buf(keys.size());
  {
    powerpack::OptionalPhase phase(phases, ctx, "is.scatter");
    std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
    for (int b = 0; b < p; ++b) {
      offsets[b + 1] = offsets[b] + static_cast<std::size_t>(send_counts[b]);
    }
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (auto k : keys) {
      send_buf[cursor[static_cast<std::size_t>(bucket_of(k))]++] = k;
    }
    ctx.compute_mem(costs::kIsInstrPerKeyScatter * keys.size(),
                    keys.size() / costs::kIsKeysPerMemAccess);
  }

  std::size_t recv_total = 0;
  for (int b = 0; b < p; ++b) recv_total += static_cast<std::size_t>(recv_counts[b]);
  std::vector<std::uint32_t> bucket(recv_total);
  {
    powerpack::OptionalPhase phase(phases, ctx, "is.alltoallv");
    comm.alltoallv(std::span<const std::uint32_t>(send_buf),
                   std::span<const int>(send_counts), std::span<std::uint32_t>(bucket),
                   std::span<const int>(recv_counts));
  }

  // --- counting sort of the local bucket --------------------------------------
  {
    powerpack::OptionalPhase phase(phases, ctx, "is.sort");
    // Bucket r owns keys with bucket_of(k) == r, i.e. k in
    // [ceil(r*range/p), ceil((r+1)*range/p)) — note the ceiling divisions,
    // which match the floor in bucket_of for any p.
    const auto pu = static_cast<std::uint64_t>(p);
    const std::uint64_t b_lo = (key_range * static_cast<std::uint64_t>(r) + pu - 1) / pu;
    const std::uint64_t b_hi = (key_range * static_cast<std::uint64_t>(r + 1) + pu - 1) / pu;
    std::vector<std::uint32_t> hist(static_cast<std::size_t>(b_hi - b_lo), 0);
    for (auto k : bucket) ++hist[k - b_lo];
    std::size_t w = 0;
    for (std::size_t v = 0; v < hist.size(); ++v) {
      for (std::uint32_t c = 0; c < hist[v]; ++c) {
        bucket[w++] = static_cast<std::uint32_t>(b_lo + v);
      }
    }
    ctx.compute_mem(costs::kIsInstrPerKeySort * (bucket.size() + hist.size()),
                    bucket.size() / costs::kIsKeysPerMemAccess + hist.size() / 16);
  }

  // --- verification ---------------------------------------------------------------
  IsResult result;
  result.local_keys = bucket.size();
  {
    powerpack::OptionalPhase phase(phases, ctx, "is.verify");
    bool ok = std::is_sorted(bucket.begin(), bucket.end());
    // Neighbour boundary check: my max <= right neighbour's min.
    const std::uint32_t sentinel_max = bucket.empty() ? 0 : bucket.back();
    const std::uint32_t sentinel_min =
        bucket.empty() ? ~std::uint32_t{0} : bucket.front();
    if (p > 1) {
      if (r + 1 < p) {
        comm.send(r + 1, 900, std::span<const std::uint32_t>(&sentinel_max, 1));
      }
      if (r > 0) {
        std::uint32_t left_max = 0;
        comm.recv(r - 1, 900, std::span<std::uint32_t>(&left_max, 1));
        // Empty buckets pass trivially.
        if (!bucket.empty() && left_max > sentinel_min) ok = false;
      }
    }
    ctx.compute(2 * bucket.size());
    const double total = comm.allreduce_sum(static_cast<double>(bucket.size()));
    result.total_keys = static_cast<std::uint64_t>(total + 0.5);
    const double all_ok = comm.allreduce_sum(ok ? 0.0 : 1.0);
    result.sorted = (all_ok == 0.0) && (result.total_keys == config.n_keys);
  }
  return result;
}

}  // namespace isoee::npb

// Barrier: dissemination algorithm, ceil(log2 p) rounds of one token send +
// one token receive per rank.
#pragma once

#include <cstddef>

#include "smpi/core.hpp"

namespace isoee::smpi::collectives {

inline void barrier(sim::RankCtx& ctx, const TagBlock& tags) {
  const int p = ctx.size();
  const int r = ctx.rank();
  std::byte token{0};
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    const int dst = (r + k) % p;
    const int src = ((r - k) % p + p) % p;
    ctx.send_bytes(dst, tags.tag(round), std::span<const std::byte>(&token, 1));
    ctx.recv(src, tags.tag(round), std::span<std::byte>(&token, 1));
  }
}

}  // namespace isoee::smpi::collectives

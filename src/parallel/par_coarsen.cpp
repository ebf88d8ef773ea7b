#include "parallel/par_coarsen.hpp"

#include "common/assert.hpp"

namespace hgr {

std::uint64_t hypergraph_checksum(const Hypergraph& h) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&x](std::uint64_t v) {
    x ^= v + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  };
  mix(static_cast<std::uint64_t>(h.num_vertices()));
  mix(static_cast<std::uint64_t>(h.num_nets()));
  for (const VertexId v : h.vertices()) {
    mix(static_cast<std::uint64_t>(h.vertex_weight(v)));
    mix(static_cast<std::uint64_t>(h.vertex_size(v)));
    mix(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(h.fixed_part(v).v)));
  }
  for (const NetId net : h.nets()) {
    mix(static_cast<std::uint64_t>(h.net_cost(net)));
    for (const VertexId v : h.pins(net)) mix(static_cast<std::uint64_t>(v.v));
  }
  return x;
}

CoarseLevel parallel_contract(RankContext& ctx, const Hypergraph& h,
                              IdSpan<VertexId, const VertexId> match,
                              Workspace* ws) {
  CoarseLevel level = contract(h, match, ws);
  const std::uint64_t mine = hypergraph_checksum(level.coarse);
  // One fused min/max reduction (one barrier) instead of two.
  struct MinMax {
    std::uint64_t lo;
    std::uint64_t hi;
  };
  const MinMax extremes =
      ctx.allreduce<MinMax>({mine, mine}, [](MinMax a, MinMax b) {
        return MinMax{a.lo < b.lo ? a.lo : b.lo, a.hi > b.hi ? a.hi : b.hi};
      });
  HGR_ASSERT_MSG(extremes.lo == extremes.hi,
                 "ranks contracted divergent coarse hypergraphs");
  return level;
}

}  // namespace hgr

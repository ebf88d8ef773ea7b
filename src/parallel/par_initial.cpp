#include "parallel/par_initial.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "partition/partitioner.hpp"

namespace hgr {

namespace {

/// Serialized quality header preceding the assignment on the wire.
struct Quality {
  Weight overweight;
  Weight cut;
  std::int32_t rank;

  bool better_than(const Quality& other) const {
    if (overweight != other.overweight) return overweight < other.overweight;
    if (cut != other.cut) return cut < other.cut;
    return rank < other.rank;  // deterministic tie-break
  }
};

Weight total_overweight(const Hypergraph& h, const Partition& p,
                        double epsilon) {
  const IdVector<PartId, Weight> pw = part_weights(h.vertex_weights(), p);
  const Weight max_w = max_part_weight(h.total_vertex_weight(), p.k, epsilon);
  Weight over = 0;
  for (const Weight w : pw) over += std::max<Weight>(0, w - max_w);
  return over;
}

}  // namespace

Partition parallel_coarse_partition(RankContext& ctx, const Hypergraph& h,
                                    const PartitionConfig& cfg,
                                    std::uint64_t seed, Workspace* ws) {
  // Rank-specific seed: every processor computes a *different* partition.
  PartitionConfig local_cfg = cfg;
  local_cfg.seed = derive_seed(seed, static_cast<std::uint64_t>(ctx.rank()));
  Partition mine = direct_kway_partition(h, local_cfg, ws);

  const Quality q{total_overweight(h, mine, cfg.epsilon),
                  connectivity_cut(h, mine),
                  static_cast<std::int32_t>(ctx.rank())};
  const FlatBuffer<Quality> all_quality = ctx.allgatherv<Quality>({&q, 1});
  Quality best = all_quality.all()[0];
  for (const Quality& other : all_quality.all())
    if (other.better_than(best)) best = other;

  // Winner broadcasts its assignment (raw vector on the wire).
  // hgr-lint: raw-ok
  const std::vector<PartId> winning =
      ctx.bcast(mine.assignment.raw(), static_cast<int>(best.rank));
  Partition result(cfg.num_parts, h.num_vertices());
  result.assignment.raw() = winning;  // hgr-lint: raw-ok
  result.validate();
  return result;
}

}  // namespace hgr

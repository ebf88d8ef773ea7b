#include "graphpart/diffusion.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "graphpart/grefine.hpp"
#include "metrics/balance.hpp"

namespace hgr {

Partition diffusive_repartition(const Graph& g, const Partition& old_p,
                                const DiffusionConfig& cfg) {
  HGR_ASSERT(old_p.num_vertices() == g.num_vertices());
  Partition p = old_p;
  const Index k = p.k;
  if (k <= 1 || g.num_vertices() == 0) return p;

  IdVector<PartId, Weight> part_w = part_weights(g.vertex_weights(), p);
  const double avg =
      static_cast<double>(g.total_vertex_weight()) / static_cast<double>(k);
  const Weight max_w = max_part_weight(g.total_vertex_weight(), k, cfg.epsilon);

  Rng rng(cfg.seed);
  for (Index round = 0; round < cfg.max_rounds; ++round) {
    bool any_overweight = false;
    for (const Weight w : part_w) any_overweight |= w > max_w;
    if (!any_overweight) break;

    // One diffusion step: every boundary vertex of an overweight part may
    // flow to its least-loaded adjacent part, provided that part sits
    // below average (loads only flow downhill, as in first-order
    // diffusion).
    Index moves = 0;
    const std::vector<Index> order = random_permutation(g.num_vertices(), rng);
    for (const Index v : order) {
      const PartId from = p[VertexId{v}];
      if (part_w[from] <= max_w) continue;
      PartId best = kNoPart;
      Weight best_conn = -1;
      for (std::size_t i = 0; i < g.neighbors(v).size(); ++i) {
        const PartId q = p[VertexId{g.neighbors(v)[i]}];
        if (q == from) continue;
        if (static_cast<double>(part_w[q]) >= avg)
          continue;  // downhill only
        const Weight conn = g.edge_weights(v)[i];
        if (best == kNoPart || conn > best_conn ||
            (conn == best_conn && part_w[q] < part_w[best]))
          best = q, best_conn = conn;
      }
      if (best == kNoPart) continue;
      part_w[from] -= g.vertex_weight(v);
      part_w[best] += g.vertex_weight(v);
      p[VertexId{v}] = best;
      ++moves;
    }
    if (moves == 0) break;  // no downhill boundary left: diffusion stalled
  }

  if (cfg.refine_after) {
    GRefineOptions opt;
    opt.epsilon = cfg.epsilon;
    opt.max_passes = cfg.refine_passes;
    // Keep migration low: refine against the *old* partition with a strong
    // migration term so polishing does not turn into a re-layout.
    opt.alpha = 1;
    opt.old_partition = &old_p;
    graph_kway_refine(g, p, opt, rng);
  }
  return p;
}

}  // namespace hgr

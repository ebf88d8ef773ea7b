#include "partition/partitioner.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "check/validate.hpp"
#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "metrics/balance.hpp"
#include "obs/trace.hpp"
#include "partition/coarsen_rule.hpp"
#include "partition/kway_refine.hpp"
#include "partition/matching_ipm.hpp"
#include "partition/recursive_bisect.hpp"

namespace hgr {

namespace {

/// Greedy k-way assignment at the coarsest level of the direct k-way path:
/// fixed vertices first, then heaviest-first placement into the feasible
/// part with the best connectivity gain (ties: lightest part).
Partition greedy_kway_initial(const Hypergraph& h, const PartitionConfig& cfg,
                              Rng& rng) {
  const Index k = cfg.num_parts;
  Partition p(k, h.num_vertices(), kNoPart);
  IdVector<PartId, Weight> part_w(k, 0);
  const Weight max_w = max_part_weight(h.total_vertex_weight(), k, cfg.epsilon);

  for (const VertexId v : h.vertices()) {
    const PartId f = h.fixed_part(v);
    if (f != kNoPart) {
      p[v] = f;
      part_w[f] += h.vertex_weight(v);
    }
  }

  std::vector<Index> order = random_permutation(h.num_vertices(), rng);
  std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
    return h.vertex_weight(VertexId{a}) > h.vertex_weight(VertexId{b});
  });

  IdVector<PartId, Weight> affinity(k, 0);
  for (const Index vi : order) {
    const VertexId v{vi};
    if (p[v] != kNoPart) continue;
    std::fill(affinity.begin(), affinity.end(), Weight{0});
    for (const NetId net : h.incident_nets(v)) {
      const Weight c = h.net_cost(net);
      for (const VertexId u : h.pins(net))
        if (u != v && p[u] != kNoPart) affinity[p[u]] += c;
    }
    PartId best = kNoPart;
    for (const PartId q : p.parts()) {
      const bool fits = part_w[q] + h.vertex_weight(v) <= max_w;
      if (!fits) continue;
      if (best == kNoPart || affinity[q] > affinity[best] ||
          (affinity[q] == affinity[best] && part_w[q] < part_w[best]))
        best = q;
    }
    if (best == kNoPart) {
      // Nothing fits: overflow into the lightest part (best effort).
      best = PartId{static_cast<Index>(
          std::min_element(part_w.begin(), part_w.end()) - part_w.begin())};
    }
    p[v] = best;
    part_w[best] += h.vertex_weight(v);
  }
  return p;
}

}  // namespace

void record_coarsen_level(Index fine_vertices, Index coarse_vertices,
                          IdSpan<VertexId, const VertexId> match) {
  std::uint64_t matched = 0;
  for (const VertexId v : match.ids())
    if (match[v] != v) ++matched;
  static obs::CachedCounter levels_counter("coarsen.levels");
  static obs::CachedCounter fine_counter("coarsen.fine_vertices");
  static obs::CachedCounter coarse_counter("coarsen.coarse_vertices");
  static obs::CachedCounter matched_counter("coarsen.matched_vertices");
  levels_counter += 1;
  fine_counter += static_cast<std::uint64_t>(fine_vertices);
  coarse_counter += static_cast<std::uint64_t>(coarse_vertices);
  matched_counter += matched;
}

std::vector<CoarseLevel> coarsen_hierarchy(const Hypergraph& h,
                                           Index min_stop_size,
                                           const PartitionConfig& cfg,
                                           Rng& rng, Workspace* ws) {
  obs::TraceScope coarsen_scope("coarsen");
  std::vector<CoarseLevel> levels;
  const Hypergraph* current = &h;
  const CoarseningRule rule(h.total_vertex_weight(), min_stop_size);
  for (Index level = 0; rule.continues(level, current->num_vertices());
       ++level) {
    const IdVector<VertexId, VertexId> match =
        ipm_matching(*current, rule.max_vertex_weight, rng, ws);
    CoarseLevel next = contract(*current, match, ws);
    if (CoarseningRule::stalled(current->num_vertices(),
                                next.coarse.num_vertices()))
      break;
    record_coarsen_level(current->num_vertices(), next.coarse.num_vertices(),
                         match);
    check::validate_coarsening(*current, next, cfg.check_level);
    levels.push_back(std::move(next));
    current = &levels.back().coarse;
  }
  return levels;
}

Partition direct_kway_partition(const Hypergraph& h,
                                const PartitionConfig& cfg, Workspace* ws) {
  Rng rng(cfg.seed);
  const std::vector<CoarseLevel> levels =
      coarsen_hierarchy(h, 2 * cfg.num_parts, cfg, rng, ws);
  const Hypergraph& coarsest = levels.empty() ? h : levels.back().coarse;

  Partition p(cfg.num_parts, coarsest.num_vertices());
  {
    obs::TraceScope initial_scope("initial");
    p = greedy_kway_initial(coarsest, cfg, rng);
    kway_refine(coarsest, p, cfg, cfg.max_refine_passes, ws);
  }

  {
    obs::TraceScope refine_scope("refine");
    for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
      const Hypergraph& finer =
          (std::next(it) == levels.rend()) ? h : std::next(it)->coarse;
      check::validate_coarsening(finer, *it, cfg.check_level, &p);
      Partition fine_p(cfg.num_parts, finer.num_vertices());
      for (const VertexId v : finer.vertices())
        fine_p[v] = p[it->fine_to_coarse[v]];
      p = std::move(fine_p);
      kway_refine(finer, p, cfg, cfg.max_refine_passes, ws);
    }
  }
  p.validate();
  return p;
}

Partition partition_hypergraph(const Hypergraph& h,
                               const PartitionConfig& cfg) {
  obs::TraceScope trace("partition");
  HGR_ASSERT(cfg.num_parts >= 1);
  HGR_ASSERT(cfg.epsilon >= 0.0);
  h.validate(cfg.num_parts);
  check::validate_hypergraph(h, cfg.check_level, cfg.num_parts);

  if (cfg.num_parts == 1 || h.num_vertices() == 0) {
    Partition p(std::max<Index>(1, cfg.num_parts), h.num_vertices(),
                PartId{0});
    if (h.has_fixed()) {
      for (const VertexId v : h.vertices())
        if (h.fixed_part(v) != kNoPart) p[v] = h.fixed_part(v);
    }
    return p;
  }

  // One scratch arena for the whole call: every level of coarsening,
  // initial partitioning, and refinement below draws its temporaries from
  // here instead of reallocating per level. When cfg asks for shared-memory
  // threads, the arena also carries the pool the kernels run on
  // (docs/PARALLELISM.md) — same partition at every thread count.
  Workspace ws;
  std::optional<ThreadPool> pool;
  if (cfg.num_threads > 1) {
    pool.emplace(static_cast<int>(cfg.num_threads));
    ws.set_pool(&*pool);
  }
  const Partition p = recursive_bisection_partition(h, cfg, &ws);

  // Fixed constraints are hard: verify.
  if (h.has_fixed()) {
    for (const VertexId v : h.vertices()) {
      const PartId f = h.fixed_part(v);
      HGR_ASSERT_MSG(f == kNoPart || p[v] == f,
                     "partitioner violated a fixed-vertex constraint");
    }
  }
  {
    check::PartitionExpectations expect;
    expect.epsilon = cfg.epsilon;
    expect.context = "partition_hypergraph";
    check::validate_partition(h, p, cfg.check_level, expect);
  }
  return p;
}

}  // namespace hgr

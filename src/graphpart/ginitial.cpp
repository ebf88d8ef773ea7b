#include "graphpart/ginitial.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "common/indexed_heap.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"

namespace hgr {

Partition greedy_graph_growing(const Graph& g, const PartitionConfig& cfg,
                               Rng& rng) {
  const Index n = g.num_vertices();
  const Index k = cfg.num_parts;
  Partition p(k, n, kNoPart);
  IdVector<PartId, Weight> part_w(k, 0);
  const Weight max_w = max_part_weight(g.total_vertex_weight(), k, cfg.epsilon);

  // One frontier heap per part, keyed by connection strength to the part.
  std::vector<IndexedMaxHeap> frontier;
  frontier.reserve(static_cast<std::size_t>(k));
  for (Index q = 0; q < k; ++q) frontier.emplace_back(n);

  std::vector<Index> seeds = random_permutation(n, rng);
  std::size_t seed_cursor = 0;

  auto claim = [&](Index v, PartId q) {
    p[VertexId{v}] = q;
    part_w[q] += g.vertex_weight(v);
    const auto nbrs = g.neighbors(v);
    const auto ws = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Index u = nbrs[i];
      if (p[VertexId{u}] != kNoPart) continue;
      auto& f = frontier[static_cast<std::size_t>(q.v)];
      if (f.contains(u)) {
        f.adjust(u, f.key(u) + ws[i]);
      } else {
        f.insert(u, ws[i]);
      }
    }
  };

  // Seed each part with a random unassigned vertex.
  for (const PartId q : part_range(k)) {
    while (seed_cursor < seeds.size() &&
           p[VertexId{seeds[seed_cursor]}] != kNoPart)
      ++seed_cursor;
    if (seed_cursor < seeds.size()) claim(seeds[seed_cursor++], q);
  }

  // Round-robin growth, lightest part first.
  Index unassigned = 0;
  for (Index v = 0; v < n; ++v)
    if (p[VertexId{v}] == kNoPart) ++unassigned;
  while (unassigned > 0) {
    // Pick the lightest part that still has a frontier; if every frontier
    // is empty (disconnected), reseed the lightest part.
    PartId pick = kNoPart;
    for (const PartId q : part_range(k)) {
      if (frontier[static_cast<std::size_t>(q.v)].empty()) continue;
      if (pick == kNoPart || part_w[q] < part_w[pick]) pick = q;
    }
    if (pick == kNoPart) {
      PartId lightest{0};
      for (const PartId q : part_range(k))
        if (part_w[q] < part_w[lightest]) lightest = q;
      while (seed_cursor < seeds.size() &&
             p[VertexId{seeds[seed_cursor]}] != kNoPart)
        ++seed_cursor;
      if (seed_cursor >= seeds.size()) break;  // should not happen
      claim(seeds[seed_cursor++], lightest);
      --unassigned;
      continue;
    }
    auto& f = frontier[static_cast<std::size_t>(pick.v)];
    const Index v = f.pop();
    if (p[VertexId{v}] != kNoPart) continue;  // claimed meanwhile
    if (part_w[pick] + g.vertex_weight(v) > max_w && part_w[pick] > 0) {
      // Part is full; drop this frontier entry (vertex stays available to
      // other parts).
      continue;
    }
    claim(v, pick);
    --unassigned;
  }

  // Safety: anything still unassigned goes to the lightest part.
  for (Index v = 0; v < n; ++v) {
    if (p[VertexId{v}] == kNoPart) {
      PartId lightest{0};
      for (const PartId q : part_range(k))
        if (part_w[q] < part_w[lightest]) lightest = q;
      claim(v, lightest);
    }
  }
  return p;
}

Partition initial_graph_partition(const Graph& g, const PartitionConfig& cfg,
                                  Rng& rng) {
  Partition best;
  double best_imb = std::numeric_limits<double>::max();
  Weight best_cut = std::numeric_limits<Weight>::max();
  for (Index t = 0; t < std::max<Index>(1, cfg.num_initial_trials); ++t) {
    Partition p = greedy_graph_growing(g, cfg, rng);
    const double imb = imbalance(g.vertex_weights(), p);
    const Weight cut = edge_cut(g, p);
    const bool feasible = imb <= cfg.epsilon + 1e-9;
    const bool best_feasible = best_imb <= cfg.epsilon + 1e-9;
    const bool better =
        best.assignment.empty() ||
        (feasible && !best_feasible) ||
        (feasible == best_feasible &&
         (feasible ? cut < best_cut : imb < best_imb));
    if (better) {
      best = std::move(p);
      best_imb = imb;
      best_cut = cut;
    }
  }
  return best;
}

}  // namespace hgr

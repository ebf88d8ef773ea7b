// Inner-product matching (IPM) with fixed-vertex constraints.
//
// IPM — "heavy-connectivity matching" in PaToH, adopted by hMETIS and
// Mondriaan — pairs a vertex with the neighbor sharing the largest
// cost-weighted set of nets. This is the coarsening kernel of the paper's
// Section 4.1. Fixed-vertex rule (cases 1-3): two vertices may match iff
// they are fixed to the same part or at least one is free; the coarse
// vertex inherits the fixed part of whichever constituent was fixed.
//
// The kernel runs deterministic mutual-proposal rounds (propose in
// parallel, commit mutual pairs) rather than one sequential greedy sweep,
// so it thread-parallelizes over the pool carried by `ws` while producing
// bit-identical matchings at every thread count (docs/PARALLELISM.md).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hgr {

/// Vertices with degree above this sit out IPM matching entirely, as
/// initiators and as partners (the serial mutual-proposal rounds need both
/// endpoints to score each other); guards against quadratic blowup on hubs
/// such as the repartitioning model's partition vertices.
inline constexpr Index kMaxMatchingDegree = 4096;

/// Nets larger than this are ignored while scoring inner products (their
/// contribution to the match quality is negligible and they are costly).
inline constexpr Index kMaxScoredNetSize = 1024;

/// Mutual-proposal IPM. Returns match[v] = partner (match[v] == v for
/// unmatched). max_vertex_weight: pairs whose combined weight exceeds it
/// are rejected (0 disables the cap). Fixed parts are read from h. `ws`
/// (optional) pools the score/proposal scratch across levels and supplies
/// the ThreadPool the proposal rounds run on (serial when absent).
IdVector<VertexId, VertexId> ipm_matching(const Hypergraph& h,
                                          Weight max_vertex_weight, Rng& rng,
                                          Workspace* ws = nullptr);

/// The one IPM score accumulator (serial and rank-parallel matchers):
/// over v's nets of 2..kMaxScoredNetSize pins and nonzero cost, adds the
/// net cost to score[u] for every other pin u with eligible(u). `touched`
/// receives each scored u once, in first-score order; `score` must be zero
/// on entry wherever eligible, and the caller zeroes the touched entries
/// as it reads them.
template <typename Eligible>
void accumulate_ipm_scores(const Hypergraph& h, VertexId v,
                           Eligible&& eligible, IdSpan<VertexId, Weight> score,
                           std::vector<VertexId>& touched) {
  touched.clear();
  for (const NetId net : h.incident_nets(v)) {
    const Index size = h.net_size(net);
    if (size < 2 || size > kMaxScoredNetSize) continue;
    const Weight c = h.net_cost(net);
    if (c == 0) continue;
    for (const VertexId u : h.pins(net)) {
      if (u == v || !eligible(u)) continue;
      if (score[u] == 0) touched.push_back(u);
      score[u] += c;
    }
  }
}

/// True iff the fixed parts allow u and v to merge (cases 1-3 of §4.1).
inline bool fixed_compatible(PartId fu, PartId fv) {
  return fu == kNoPart || fv == kNoPart || fu == fv;
}

/// Fixed part of the merged coarse vertex.
inline PartId merged_fixed(PartId fu, PartId fv) {
  return fu != kNoPart ? fu : fv;
}

}  // namespace hgr

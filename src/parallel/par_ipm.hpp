// Parallel inner-product matching with fixed vertices (paper §4.1).
//
// "The parallel implementation of IPM works in rounds where in each round,
// each processor selects a subset of vertices as candidate vertices that
// will be matched in that round. The candidate vertices are sent to all
// processors. Then all processors concurrently contribute the computation
// of their best match for those candidates. Matching is finalized by
// selecting a global best match for each candidate."
//
// Data layout substitution (documented in DESIGN.md): Zoltan distributes
// the hypergraph 2D; here the structure is replicated and the *vertices*
// are 1D block-distributed — each rank owns a contiguous vertex range,
// proposes candidates from it, and scores candidates only against its own
// unmatched vertices. The round structure, candidate broadcast,
// global-best reduction, and fixed-vertex matching constraint are the
// paper's; the byte traffic of the candidate and proposal exchanges is
// counted by the communicator.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "hypergraph/hypergraph.hpp"
#include "parallel/comm.hpp"

namespace hgr {

/// Block distribution: owner of vertex v among `size` ranks; rank r holds
/// [r*n/size, (r+1)*n/size). Computed as the largest r whose range starts
/// at or before v.
inline int block_owner(Index v, Index n, int size) {
  if (n <= 0) return 0;
  int r = static_cast<int>((static_cast<std::int64_t>(v) * size) / n);
  // Integer rounding can land one rank off; nudge into the true range.
  while (r > 0 && static_cast<std::int64_t>(n) * r / size > v) --r;
  while (r + 1 < size && static_cast<std::int64_t>(n) * (r + 1) / size <= v)
    ++r;
  return r;
}

/// Vertex range owned by rank r.
inline std::pair<Index, Index> block_range(Index n, int size, int r) {
  const auto lo = static_cast<Index>(static_cast<std::int64_t>(n) * r / size);
  const auto hi =
      static_cast<Index>(static_cast<std::int64_t>(n) * (r + 1) / size);
  return {lo, hi};
}

/// Round-based parallel IPM. Must be called congruently by all ranks of
/// ctx; every rank returns the identical full matching (match[v] ==
/// partner, v when unmatched), typed like the serial ipm_matching.
IdVector<VertexId, VertexId> parallel_ipm_matching(RankContext& ctx,
                                                   const Hypergraph& h,
                                                   Weight max_vertex_weight,
                                                   std::uint64_t seed);

/// Local IPM — the paper's future-work speedup ("We plan to improve this
/// performance by using local heuristics ... e.g., using local IPM instead
/// of global IPM"). Each rank matches its own vertices only against its
/// own vertices; the single exchange is the final pair list, so the
/// traffic is a small fraction of the candidate-broadcast scheme's. The
/// price is losing cross-rank matches (quality measured by
/// bench/parallel_scaling). Same congruence and postconditions as the
/// global version.
IdVector<VertexId, VertexId> local_ipm_matching(RankContext& ctx,
                                                const Hypergraph& h,
                                                Weight max_vertex_weight,
                                                std::uint64_t seed);

}  // namespace hgr

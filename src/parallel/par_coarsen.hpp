// Parallel coarsening step: contraction of a replicated hypergraph by a
// replicated matching, plus a cross-rank consistency check.
#pragma once

#include "hypergraph/hypergraph.hpp"
#include "parallel/comm.hpp"
#include "partition/contract.hpp"

namespace hgr {

/// Contract `h` by `match` (identical on every rank — the postcondition of
/// parallel_ipm_matching) and verify with an all-reduce that every rank
/// produced the same coarse hypergraph. Aborts on divergence, which would
/// indicate a nondeterministic code path. `ws` (optional, rank-local) pools
/// the contraction scratch across levels.
CoarseLevel parallel_contract(RankContext& ctx, const Hypergraph& h,
                              IdSpan<VertexId, const VertexId> match,
                              Workspace* ws = nullptr);

/// Structural checksum used by the consistency check (exposed for tests).
std::uint64_t hypergraph_checksum(const Hypergraph& h);

}  // namespace hgr

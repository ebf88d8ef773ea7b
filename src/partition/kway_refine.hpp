// Direct k-way greedy refinement of the connectivity-1 objective — the one
// propose/arbitrate refinement engine, for threads and for ranks.
//
// Greedy boundary sweeps in the style of k-way FM without rollback. Each
// pass proposes, for every movable vertex, its best strictly positive-gain
// destination that fits the Eq. 1 balance bound (ties to the lowest part
// id) against the frozen pass-start gain cache, in parallel over the
// caller's thread pool. The proposals are sorted by (gain descending,
// vertex ascending) and applied serially, each re-checked against the live
// cache. Fixed vertices never move. The sort is a total order, so the
// result is bit-identical at every thread count and rank count
// (docs/PARALLELISM.md). The refinement stage of the direct k-way method
// and, through RankSplit, of the parallel partitioner (paper §4.3).
#pragma once

#include <functional>
#include <vector>

#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "partition/config.hpp"

namespace hgr {

struct KwayRefineResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  Index moves = 0;
  Index passes = 0;
};

/// One proposed move. Also the wire format of the rank gather: raw vertex
/// id on purpose — this struct crosses the allgatherv comm boundary (see
/// types.hpp "boundary" note); PartId/Weight are trivially copyable and
/// travel as-is.
struct MoveProposal {
  Index vertex;  // raw VertexId.v
  PartId to;
  Weight gain;
};

/// A rank's share of a replicated refinement: every rank holds the same
/// (h, p), proposes only for its own vertex block, and applies the
/// gathered global list. The rank layer (parallel/par_partitioner.cpp)
/// builds it from its RankContext.
struct RankSplit {
  Index begin = 0;  // this rank's vertex block [begin, end)
  Index end = 0;
  /// Replaces this rank's proposals with every rank's (a collective).
  std::function<void(std::vector<MoveProposal>&)> gather;
  /// Called once per pass with the moves applied; asserts that every rank
  /// applied the same number (a collective).
  std::function<void(Index applied)> check_lockstep;
  /// Counts the replicated quantities (passes, moves, gains, skips); the
  /// other ranks count only their own proposals.
  bool lead = true;
};

/// Refine p in place. max_passes caps the number of sweeps; a sweep that
/// applies no move ends refinement early. `ws` (optional) pools the dense
/// pin table and per-pass scratch across levels and supplies the
/// ThreadPool the proposal phase runs on (serial when absent). `ranks`
/// (optional) splits the proposal phase over ranks; every rank must call
/// with the same (h, p, cfg, max_passes).
KwayRefineResult kway_refine(const Hypergraph& h, Partition& p,
                             const PartitionConfig& cfg, Index max_passes,
                             Workspace* ws = nullptr,
                             const RankSplit* ranks = nullptr);

}  // namespace hgr

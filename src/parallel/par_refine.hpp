// Parallel refinement (paper §4.3): a localized FM variant.
//
// Each rank keeps a replicated GainCache (the same incremental cut/gain
// structure the serial refiners use). Each pass, every rank scans the
// vertices it owns against the pass-start cache and proposes its best
// positive-gain moves; proposals are exchanged (the counted communication),
// then applied in a deterministic global order with revalidation — each
// move re-checks its gain and the balance constraint against the evolving
// cache, so all ranks end the pass with identical partitions. Fixed
// vertices never move.
#pragma once

#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "parallel/comm.hpp"
#include "partition/config.hpp"

namespace hgr {

struct ParRefineResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  Index moves = 0;
  Index passes = 0;
};

/// `ws` (optional) is the rank's arena: the replicated GainCache borrows
/// its tables from it, so a multilevel run reuses them across levels.
/// Refinement is skipped, counted and noted, on every rank alike, when the
/// dense table would be too large (gain_table_too_large).
ParRefineResult parallel_refine(RankContext& ctx, const Hypergraph& h,
                                Partition& p, const PartitionConfig& cfg,
                                std::uint64_t seed, Workspace* ws = nullptr);

}  // namespace hgr

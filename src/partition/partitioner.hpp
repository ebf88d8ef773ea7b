// Public entry point of the serial multilevel hypergraph partitioner.
//
// Supports partitioning with fixed vertices (the capability the paper's
// repartitioning model depends on) by multilevel recursive bisection
// (Zoltan's path, paper Section 4.4). The direct k-way multilevel kernel
// beside it serves the parallel partitioner's per-rank coarse partitions.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/workspace.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "partition/config.hpp"
#include "partition/contract.hpp"

namespace hgr {

/// Bump the obs coarsening counters for one accepted level: level count,
/// fine/coarse vertex totals (contraction ratio) and matched vertices
/// (match fraction). Shared by coarsen_hierarchy and the parallel
/// coarsening loop.
void record_coarsen_level(Index fine_vertices, Index coarse_vertices,
                          IdSpan<VertexId, const VertexId> match);

/// The serial multilevel coarsening loop shared by the bisection and
/// direct k-way paths: IPM matching + contraction, one level at a time,
/// under the CoarseningRule (partition/coarsen_rule.hpp) whose stop size
/// is max(kCoarsenTo, `min_stop_size`); a stalled level is discarded.
/// Every accepted level is recorded and validated. Returns the levels
/// finest first; the coarsest hypergraph is levels.back().coarse, or `h`
/// itself when nothing was accepted.
std::vector<CoarseLevel> coarsen_hierarchy(const Hypergraph& h,
                                           Index min_stop_size,
                                           const PartitionConfig& cfg,
                                           Rng& rng, Workspace* ws);

/// Compute a k-way partition of h honoring h.fixed_part() constraints and
/// the Eq. 1 balance tolerance cfg.epsilon (best effort when fixed vertices
/// make strict balance unattainable). Deterministic for fixed
/// (h, cfg) including cfg.seed.
Partition partition_hypergraph(const Hypergraph& h,
                               const PartitionConfig& cfg);

/// Direct k-way multilevel partitioning: IPM coarsening, greedy k-way
/// coarse assignment, k-way refinement on every level. The parallel
/// partitioner runs it per rank for its coarsest-level partition
/// (parallel/par_initial.cpp). `ws` (optional) pools kernel scratch
/// across levels.
Partition direct_kway_partition(const Hypergraph& h,
                                const PartitionConfig& cfg,
                                Workspace* ws = nullptr);

}  // namespace hgr

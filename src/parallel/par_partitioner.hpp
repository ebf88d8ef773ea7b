// The parallel multilevel hypergraph partitioner with fixed vertices
// (paper Section 4): coarsening by round-based candidate-broadcast IPM,
// replicated randomized coarse partitioning with a global best pick, and
// synchronized localized refinement — the serial k-way engine
// (kway_refine), each rank proposing for its own vertex block — executed
// by p ranks over the in-process message-passing runtime.
//
// Also provides the parallel form of the paper's headline operation:
// repartitioning via the augmented model, solved in parallel.
#pragma once

#include "core/repartitioner.hpp"
#include "hypergraph/hypergraph.hpp"
#include "metrics/partition.hpp"
#include "parallel/comm.hpp"
#include "partition/config.hpp"
#include "partition/kway_refine.hpp"

namespace hgr {

struct ParallelPartitionConfig {
  int num_ranks = 4;
  PartitionConfig base;
  /// Use local IPM (same-rank matches only, one pair-list exchange)
  /// instead of the candidate-broadcast global IPM — the speed/quality
  /// trade the paper proposes as future work (Section 5/6).
  bool local_matching = false;
  /// Watchdog timeout installed on the run's communicator (seconds; 0
  /// disables detection). base.fault_plan, when set, is installed too —
  /// injected stalls need a live watchdog to surface as CommDeadlock.
  double deadlock_timeout = 30.0;
};

struct ParallelPartitionResult {
  Partition partition;
  CommStats traffic;    // total bytes/messages across ranks
  double seconds = 0.0;
  Index levels = 0;     // coarsening depth reached
};

/// This rank's share of a replicated kway_refine over a level of
/// `num_vertices` vertices: its block_range, the proposal allgatherv, and
/// the per-pass lockstep check. Every rank of ctx must refine together.
RankSplit rank_split(RankContext& ctx, Index num_vertices);

/// Partition h into base.num_parts parts using num_ranks ranks. Honors
/// h.fixed_part(). Every rank computes the identical result; the returned
/// partition is rank 0's.
ParallelPartitionResult parallel_partition_hypergraph(
    const Hypergraph& h, const ParallelPartitionConfig& cfg);

/// Parallel Zoltan-repart: build the augmented repartitioning hypergraph
/// and solve it with the parallel fixed-vertex partitioner.
ParallelPartitionResult parallel_hypergraph_repartition(
    const Hypergraph& h, const Partition& old_p, Weight alpha,
    const ParallelPartitionConfig& cfg);

}  // namespace hgr

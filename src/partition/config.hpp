// Configuration for the multilevel hypergraph partitioner.
//
// The multilevel recipe itself is fixed, as in the paper: the coarsening
// stop rule lives in partition/coarsen_rule.hpp, the matching caps in
// partition/matching_ipm.hpp, FM's move limit in partition/refine_fm.cpp
// and the two-tier thresholds in core/incremental_repart.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "check/check_level.hpp"
#include "common/types.hpp"

namespace hgr {

namespace fault {
class FaultPlan;
}

/// Two-tier epoch routing (docs/INCREMENTAL.md): whether an epoch may be
/// served by the O(delta) incremental fast path instead of a full V-cycle.
enum class IncrementalMode {
  kOff,   // every epoch runs the full repartitioner (default)
  kAuto,  // fast path when the epoch delta is small; escalates on drift
  kOn,    // fast path whenever a baseline exists, regardless of delta size
};

const char* to_string(IncrementalMode mode);

struct PartitionConfig {
  Index num_parts = 2;

  /// Eq. 1 imbalance tolerance epsilon.
  double epsilon = 0.05;

  /// Seed for every randomized stage; same seed => identical partition.
  std::uint64_t seed = 1;

  /// Shared-memory threads per rank for the thread-parallel kernels
  /// (matching, contraction, k-way refinement). Composes with the rank
  /// count of a parallel run: p ranks x num_threads threads. Results are
  /// bit-identical for any value (docs/PARALLELISM.md).
  Index num_threads = 1;

  /// Randomized greedy-hypergraph-growing restarts at the coarsest level.
  Index num_initial_trials = 8;

  /// FM pass-pairs per uncoarsening level.
  Index max_refine_passes = 4;

  /// Two-tier epoch routing: see IncrementalMode. The fast path applies
  /// bounded greedy moves through the gain cache; it escalates to the full
  /// V-cycle when the epoch delta or the accumulated drift crosses the
  /// thresholds of core/incremental_repart.hpp (docs/INCREMENTAL.md).
  IncrementalMode incremental = IncrementalMode::kOff;

  /// Runtime invariant verification (src/check/): validators run at every
  /// coarsening level, after every (re)partitioning stage, and per epoch.
  /// kOff (default) costs nothing; see docs/CHECKING.md.
  check::CheckLevel check_level = check::CheckLevel::kOff;

  /// Deterministic fault-injection schedule (fault/fault_plan.hpp) that
  /// parallel runs install on their communicator; null (default) injects
  /// nothing. See docs/ROBUSTNESS.md.
  std::shared_ptr<const fault::FaultPlan> fault_plan;

  std::string to_string() const;
};

}  // namespace hgr

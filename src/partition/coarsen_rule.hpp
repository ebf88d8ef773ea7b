// The coarsening stop rule of the multilevel recipe (paper §4.1: stop at
// "less than 2k" vertices or when a level shrinks by less than 10%),
// written once for the four V-cycle drivers: coarsen_hierarchy, the
// rank-parallel partitioner, partition_graph and adaptive_repartition.
#pragma once

#include <algorithm>

#include "common/types.hpp"

namespace hgr {

inline constexpr Index kCoarsenTo = 100;  // floor of every stop size
inline constexpr double kMinCoarsenReduction = 0.10;
inline constexpr Index kMaxCoarsenLevels = 60;
inline constexpr double kMaxCoarseWeightFactor = 1.5;

struct CoarseningRule {
  /// `min_stop_size` is the driver's floor under kCoarsenTo: 2k for the
  /// hypergraph k-way paths, 20 for one bisection, 4k for the graph
  /// baseline. Matching never forms a coarse vertex heavier than
  /// kMaxCoarseWeightFactor x the average weight at the stop size.
  CoarseningRule(Weight total_vertex_weight, Index min_stop_size)
      : stop_size(std::max(kCoarsenTo, min_stop_size)),
        max_vertex_weight(std::max<Weight>(
            1, static_cast<Weight>(kMaxCoarseWeightFactor *
                                   static_cast<double>(total_vertex_weight) /
                                   stop_size))) {}

  /// True while level `level` should be built from `num_vertices`.
  bool continues(Index level, Index num_vertices) const {
    return level < kMaxCoarsenLevels && num_vertices > stop_size;
  }

  /// True when a level removed too few vertices to keep; the driver
  /// discards it and stops.
  static bool stalled(Index fine_vertices, Index coarse_vertices) {
    return 1.0 - static_cast<double>(coarse_vertices) /
                     static_cast<double>(fine_vertices) <
           kMinCoarsenReduction;
  }

  Index stop_size;
  Weight max_vertex_weight;
};

}  // namespace hgr

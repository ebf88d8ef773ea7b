// Ablations of the design choices DESIGN.md calls out:
//   1. k-way method: recursive bisection (Zoltan's path, the partitioner)
//      vs the direct k-way kernel the parallel partitioner runs per rank;
//   2. coarse-partitioning restarts (1 vs 8 vs 16 trials);
//   3. FM pass-pairs per level (1 vs 4 vs 8);
//   4. scratch remap: greedy matching vs optimal (Hungarian) relabeling.
// Reports connectivity-1 cut and wall time on a mid-size instance.
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "common/timer.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/migration.hpp"
#include "metrics/remap_optimal.hpp"
#include "metrics/cut.hpp"
#include "partition/partitioner.hpp"
#include "workload/datasets.hpp"

namespace {

using namespace hgr;

using Partitioner =
    std::function<Partition(const Hypergraph&, const PartitionConfig&)>;

void report(const char* label, const Hypergraph& h,
            const PartitionConfig& cfg,
            const Partitioner& partition = partition_hypergraph) {
  WallTimer timer;
  const Partition p = partition(h, cfg);
  const double seconds = timer.seconds();
  std::printf("%-34s cut=%-10lld imb=%.3f time=%s\n", label,
              static_cast<long long>(connectivity_cut(h, p)),
              imbalance(h.vertex_weights(), p),
              format_seconds(seconds).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.15;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0)
      scale = std::stod(argv[i] + 8);
  }
  const Graph g = make_dataset("auto-like", scale, 7);
  const Hypergraph h = graph_to_hypergraph(g);
  std::printf("=== Ablation: design choices (auto-like, %s, k=16) ===\n",
              h.summary().c_str());

  PartitionConfig base;
  base.num_parts = 16;
  base.epsilon = 0.05;
  base.seed = 11;

  report("baseline (RB + FM)", h, base);
  report("method: direct k-way", h, base,
         [](const Hypergraph& hg, const PartitionConfig& cfg) {
           return direct_kway_partition(hg, cfg);
         });

  PartitionConfig one_trial = base;
  one_trial.num_initial_trials = 1;
  report("coarse restarts: 1 trial", h, one_trial);

  PartitionConfig many_trials = base;
  many_trials.num_initial_trials = 16;
  report("coarse restarts: 16 trials", h, many_trials);

  PartitionConfig few_passes = base;
  few_passes.max_refine_passes = 1;
  report("FM passes: 1", h, few_passes);

  PartitionConfig many_passes = base;
  many_passes.max_refine_passes = 8;
  report("FM passes: 8", h, many_passes);

  // Scratch-remap heuristic vs the optimal (Hungarian) relabeling: how
  // much migration does the paper's greedy maximal matching leave on the
  // table?
  std::printf("\nremap heuristic vs optimal (scratch repartition):\n");
  const Partition old_p = partition_hypergraph(h, base);
  PartitionConfig fresh = base;
  fresh.seed = 12345;
  const Partition raw = partition_hypergraph(h, fresh);
  const Partition greedy =
      remap_parts_for_migration(h.vertex_sizes(), old_p, raw);
  const Partition optimal = remap_parts_optimal(h.vertex_sizes(), old_p, raw);
  std::printf("  %-20s migration=%lld\n", "no remap",
              static_cast<long long>(
                  migration_volume(h.vertex_sizes(), old_p, raw)));
  std::printf("  %-20s migration=%lld\n", "greedy matching",
              static_cast<long long>(
                  migration_volume(h.vertex_sizes(), old_p, greedy)));
  std::printf("  %-20s migration=%lld\n", "optimal (Hungarian)",
              static_cast<long long>(
                  migration_volume(h.vertex_sizes(), old_p, optimal)));
  return 0;
}

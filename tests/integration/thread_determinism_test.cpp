// Whole-pipeline thread-count determinism: the shared-memory execution
// layer must be invisible in results. partition_hypergraph with
// num_threads = 1, 2, 4 — across datasets, seeds, and the repartitioning
// model — and the direct k-way kernel return bit-identical partitions,
// and ranks x threads composes in the parallel partitioner without
// changing its answer (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/repartition_model.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/cut.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/partitioner.hpp"
#include "workload/datasets.hpp"

namespace hgr {
namespace {

Partition partition_with_threads(const Hypergraph& h, PartitionConfig cfg,
                                 Index threads) {
  cfg.num_threads = threads;
  return partition_hypergraph(h, cfg);
}

TEST(ThreadDeterminism, PartitionIdenticalAcrossThreadCounts) {
  for (const char* name : {"auto-like", "xyce680s-like"}) {
    const Hypergraph h = graph_to_hypergraph(make_dataset(name, 0.02, 5));
    for (const std::uint64_t seed : {1u, 17u}) {
      PartitionConfig cfg;
      cfg.num_parts = 4;
      cfg.epsilon = 0.05;
      cfg.seed = seed;
      const Partition t1 = partition_with_threads(h, cfg, 1);
      const Partition t2 = partition_with_threads(h, cfg, 2);
      const Partition t4 = partition_with_threads(h, cfg, 4);
      EXPECT_EQ(t1.assignment, t2.assignment) << name << " seed " << seed;
      EXPECT_EQ(t1.assignment, t4.assignment) << name << " seed " << seed;
    }
  }
}

TEST(ThreadDeterminism, DirectKwayIsThreadCountInvariant) {
  // The direct k-way kernel the parallel partitioner runs per rank, with
  // its arena carrying a 4-thread pool vs no pool at all.
  const Hypergraph h = graph_to_hypergraph(make_dataset("auto-like", 0.02, 9));
  PartitionConfig direct;
  direct.num_parts = 4;
  direct.seed = 3;
  ThreadPool pool(4);
  Workspace ws;
  ws.set_pool(&pool);
  EXPECT_EQ(direct_kway_partition(h, direct).assignment,
            direct_kway_partition(h, direct, &ws).assignment);
}

TEST(ThreadDeterminism, RepartitionModelIsThreadCountInvariant) {
  // The augmented hypergraph carries fixed partition vertices and hub nets
  // — the shapes that stress the degree cutoffs of the parallel matching.
  const Hypergraph h = graph_to_hypergraph(make_dataset("auto-like", 0.02, 7));
  PartitionConfig cfg;
  cfg.num_parts = 4;
  cfg.seed = 11;
  const Partition old_p = partition_hypergraph(h, cfg);
  const RepartitionModel model = build_repartition_model(h, old_p, 10);

  cfg.seed = 13;
  const Partition a = decode_augmented_partition(
      model, partition_with_threads(model.augmented, cfg, 1));
  const Partition b = decode_augmented_partition(
      model, partition_with_threads(model.augmented, cfg, 4));
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(connectivity_cut(h, a), connectivity_cut(h, b));
}

TEST(ThreadDeterminism, RanksAndThreadsCompose) {
  // 2 ranks x 2 threads must agree with 2 ranks x 1 thread: the rank-level
  // algorithm is unchanged, the thread pool only accelerates each rank's
  // local kernels.
  const Hypergraph h = graph_to_hypergraph(make_dataset("auto-like", 0.02, 3));
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 2;
  cfg.base.num_parts = 4;
  cfg.base.seed = 21;

  cfg.base.num_threads = 1;
  const ParallelPartitionResult serial = parallel_partition_hypergraph(h, cfg);
  cfg.base.num_threads = 2;
  const ParallelPartitionResult threaded =
      parallel_partition_hypergraph(h, cfg);
  EXPECT_EQ(serial.partition.assignment, threaded.partition.assignment);
}

}  // namespace
}  // namespace hgr

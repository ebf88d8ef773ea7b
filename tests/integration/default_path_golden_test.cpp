// Golden regression for the default partitioning paths: FNV-1a hashes of
// the exact assignments the library returns for a fixed grid of inputs.
// The hashes were recorded once and must never change by accident — a
// refactor or deletion that claims "bit-identical results" is held to that
// claim here. Covered paths: the serial partitioner (at 1 and 2 threads,
// which must agree), the 2-rank parallel partitioner with global and with
// local IPM matching (both run the direct k-way kernel per rank for their
// initial partition), and the two-tier repartitioner over three epochs of
// an AMR-like (weight perturbation, 2-rank full tier) and a drift-like
// (small structural churn, serial, incremental-eligible) scenario.
//
// A deliberate algorithm change that alters results must regenerate the
// table (the failure messages print every actual hash) and say so.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "core/incremental_repart.hpp"
#include "core/repartitioner.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/cut.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"
#include "workload/datasets.hpp"
#include "workload/perturb.hpp"

namespace hgr {
namespace {

using testing::fnv1a;

struct GoldenCase {
  const char* dataset;
  double scale;
  Index k;
  std::uint64_t seed;
  std::uint64_t serial;    // partition_hypergraph, threads 1 and 2
  std::uint64_t parallel;  // parallel_partition_hypergraph, 2 ranks
  std::uint64_t local;     // same, with local_matching = true
  std::uint64_t amr;       // tiered repart, weight perturbation, 3 epochs
  std::uint64_t drift;     // tiered repart, structural churn, 3 epochs
};

// The `serial` and `drift` columns were recorded from the library before
// the serial partitioner lost its alternative k-way methods, gain-bucket
// queue, post-pass and V-cycles. The `parallel`, `local` and `amr` columns
// were re-recorded when the direct k-way kernel (each rank's coarse
// partition) took the rank refiner's positive-gain, gain-sorted rule and
// the rank path's balance bound became ceil-aware.
constexpr GoldenCase kCases[] = {
    {"auto-like", 0.1, 4, 1,
     0xe0ea9a7f395d8cb5ull, 0x319e94273cdee497ull, 0x4d4baa95acf7b837ull,
     0x82760187444e1dc6ull, 0x91f238b9e1f60257ull},
    {"auto-like", 0.1, 4, 7,
     0x61e0c5a8cd3a74b5ull, 0x1c4c00d8850f05b5ull, 0x7b944f5e71d19996ull,
     0xa5407ed6c577ecc7ull, 0x153cdeaf5e7d7134ull},
    {"auto-like", 0.1, 16, 1,
     0xf91b03c9ee7f2365ull, 0x0d4b5db916ce944full, 0x8375f11bc1346af3ull,
     0xd314882c257b99d0ull, 0x1f6f9ae4db4490d2ull},
    {"auto-like", 0.1, 16, 7,
     0x122e9b8bf9552645ull, 0x9c908b830aae59efull, 0x57fa92dd510c4f33ull,
     0x3d5759db5d4c5aaeull, 0xf687fa2c85048c3full},
    {"xyce680s-like", 0.08, 4, 1,
     0xe1e1b6afc8311517ull, 0x86ea863f0e4bbed4ull, 0x96642517ed008ed4ull,
     0x941ee7db80031465ull, 0xb90b61c014b6c046ull},
    {"xyce680s-like", 0.08, 4, 7,
     0x2c43990364210016ull, 0x9771cfaaade7b395ull, 0x7f984796be83e777ull,
     0xae12a6aa77f6eca6ull, 0x28491ad6cdfb0d56ull},
    {"xyce680s-like", 0.08, 16, 1,
     0xe5c367f16512db74ull, 0x5a52ec1bf6826e6dull, 0xa5f94f17c51635a1ull,
     0x998139100da9e6c4ull, 0xf47e449f9c5c4591ull},
    {"xyce680s-like", 0.08, 16, 7,
     0x54edcbf8d9f10fb4ull, 0x50c7268cfc2608b0ull, 0x3dbd9c1efa3977b1ull,
     0xa4ef75c0fc04b79cull, 0xc3ef3d4ab635bbddull},
    {"cage14-like", 0.04, 4, 1,
     0xb381cc2ac857ec45ull, 0xe9742cbe1fe08ab5ull, 0x1675e448b23abca4ull,
     0x1c69a4d93c71a094ull, 0x5cb9619ff3fbf275ull},
    {"cage14-like", 0.04, 4, 7,
     0x0aa9ac5e8f181116ull, 0xe8f9abb2b34cb245ull, 0xf27c6192cdae4eb7ull,
     0x6df909a70d9c8146ull, 0xa4b0995c0374f275ull},
    {"cage14-like", 0.04, 16, 1,
     0x59fdffaf5987c2daull, 0x795f21357ecb6b0eull, 0xa8ff0469918441a0ull,
     0x3a826837fbea3f83ull, 0x423b9a1e9fc36ee2ull},
    {"cage14-like", 0.04, 16, 7,
     0x9ab621412861aa5full, 0x1e0d26af661c4badull, 0xbc878400b44cd423ull,
     0x5cd04376c03581bcull, 0x0355295b016d54efull},
};

PartitionConfig base_config(const GoldenCase& c) {
  PartitionConfig cfg;
  cfg.num_parts = c.k;
  cfg.seed = c.seed;
  return cfg;
}

/// The application epoch loop of the end-to-end benchmark in miniature:
/// static bootstrap, then three run_tiered_repartition epochs
/// (kHypergraphRepart, incremental kAuto). Hashes every epoch's answer.
std::uint64_t tiered_hash(const GoldenCase& c, bool structural) {
  Graph base = make_dataset(c.dataset, c.scale, c.seed);
  std::unique_ptr<EpochScenario> scenario;
  RepartitionerConfig rcfg;
  rcfg.partition = base_config(c);
  rcfg.partition.incremental = IncrementalMode::kAuto;
  if (structural) {
    StructuralPerturbOptions so;
    so.vertex_fraction = 0.005;
    scenario = std::make_unique<StructuralPerturbScenario>(std::move(base),
                                                           so, c.seed);
    rcfg.alpha = 100;
  } else {
    scenario = std::make_unique<WeightPerturbScenario>(
        std::move(base), WeightPerturbOptions{}, c.seed);
    rcfg.alpha = 10;
    rcfg.num_ranks = 2;
  }

  EpochDeltaTracker tracker;
  IncrementalRepartitioner inc;
  EpochProblem first = scenario->next_epoch();
  const Hypergraph h0 = graph_to_hypergraph(first.graph);
  tracker.observe(first.graph, first.to_base);
  const Partition p0 = partition_hypergraph(h0, rcfg.partition);
  inc.note_full(connectivity_cut(h0, p0));
  scenario->record_partition(p0);
  std::uint64_t hash = fnv1a(p0);

  for (int epoch = 0; epoch < 3; ++epoch) {
    EpochProblem problem = scenario->next_epoch();
    const Hypergraph h = graph_to_hypergraph(problem.graph);
    const EpochDelta delta = tracker.observe(problem.graph, problem.to_base);
    const GuardedRepartitionResult r = run_tiered_repartition(
        RepartAlgorithm::kHypergraphRepart, h, problem.graph,
        problem.old_partition, rcfg, inc, delta);
    EXPECT_FALSE(r.degraded) << r.error;
    hash = fnv1a(r.result.partition, hash);
    scenario->record_partition(r.result.partition);
  }
  return hash;
}

std::string label(const GoldenCase& c) {
  return std::string(c.dataset) + " k=" + std::to_string(c.k) +
         " seed=" + std::to_string(c.seed);
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << label(c); }

class DefaultPathGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(DefaultPathGolden, SerialPartitionAtOneAndTwoThreads) {
  const GoldenCase& c = GetParam();
  const Hypergraph h =
      graph_to_hypergraph(make_dataset(c.dataset, c.scale, c.seed));
  PartitionConfig cfg = base_config(c);
  EXPECT_EQ(fnv1a(partition_hypergraph(h, cfg)), c.serial) << label(c);
  cfg.num_threads = 2;
  EXPECT_EQ(fnv1a(partition_hypergraph(h, cfg)), c.serial) << label(c);
}

TEST_P(DefaultPathGolden, ParallelPartitionAtTwoRanks) {
  const GoldenCase& c = GetParam();
  const Hypergraph h =
      graph_to_hypergraph(make_dataset(c.dataset, c.scale, c.seed));
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 2;
  cfg.base = base_config(c);
  EXPECT_EQ(fnv1a(parallel_partition_hypergraph(h, cfg).partition),
            c.parallel)
      << label(c);
}

TEST_P(DefaultPathGolden, ParallelPartitionAtTwoRanksLocalMatching) {
  const GoldenCase& c = GetParam();
  const Hypergraph h =
      graph_to_hypergraph(make_dataset(c.dataset, c.scale, c.seed));
  ParallelPartitionConfig cfg;
  cfg.num_ranks = 2;
  cfg.local_matching = true;
  cfg.base = base_config(c);
  EXPECT_EQ(fnv1a(parallel_partition_hypergraph(h, cfg).partition), c.local)
      << label(c);
}

TEST_P(DefaultPathGolden, TieredRepartitionWeightPerturbation) {
  const GoldenCase& c = GetParam();
  EXPECT_EQ(tiered_hash(c, /*structural=*/false), c.amr) << label(c);
}

TEST_P(DefaultPathGolden, TieredRepartitionStructuralChurn) {
  const GoldenCase& c = GetParam();
  EXPECT_EQ(tiered_hash(c, /*structural=*/true), c.drift) << label(c);
}

INSTANTIATE_TEST_SUITE_P(Grid, DefaultPathGolden,
                         ::testing::ValuesIn(kCases));

}  // namespace
}  // namespace hgr

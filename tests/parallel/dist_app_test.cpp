// The paper's premise, measured: connectivity-1 cut == actual bytes on the
// wire for the modeled communication, and migration plans move exactly the
// data the model priced.
#include "parallel/dist_app.hpp"

#include <gtest/gtest.h>

#include <array>
#include <mutex>
#include <string>

#include "core/repartition_model.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/repartitioner.hpp"
#include "hypergraph/builder.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/cut.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"
#include "workload/generators.hpp"

namespace hgr {
namespace {

using testing::random_hypergraph;

TEST(DistApp, HaloWordsEqualConnectivityCut) {
  const Hypergraph h = random_hypergraph(60, 120, 5, 3, 3);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p = partition_hypergraph(h, cfg);
  std::vector<std::int64_t> values(60);
  for (Index v = 0; v < 60; ++v) values[static_cast<std::size_t>(v)] = v + 1;

  // num_ranks == k: every part is a rank, like the paper's runs.
  Comm comm(4);
  std::mutex m;
  Weight total_words = 0;
  std::int64_t checksum = 0;
  comm.run([&](RankContext& ctx) {
    const HaloStats stats = halo_exchange(ctx, h, p, values);
    const Weight all_words = static_cast<Weight>(
        ctx.allreduce_sum<std::int64_t>(stats.words_sent));
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      total_words = all_words;
      checksum = stats.reduction_checksum;
    }
  });
  // The headline identity: shipped words == connectivity-1 cut.
  EXPECT_EQ(total_words, connectivity_cut(h, p));
  // And the reduction checksum matches a serial recomputation.
  std::int64_t expect = 0;
  for (const NetId net : h.nets())
    for (const VertexId v : h.pins(net))
      expect += values[static_cast<std::size_t>(v.v)];
  EXPECT_EQ(checksum, expect);
}

TEST(DistApp, HaloCountsRuntimeBytesToo) {
  const Hypergraph h = random_hypergraph(40, 80, 4, 2, 5);
  PartitionConfig cfg;
  cfg.num_parts = 3;
  const Partition p = partition_hypergraph(h, cfg);
  std::vector<std::int64_t> values(40, 1);
  Comm comm(3);
  comm.run([&](RankContext& ctx) { halo_exchange(ctx, h, p, values); });
  if (connectivity_cut(h, p) > 0) {
    EXPECT_GT(comm.total_stats().bytes_sent, 0u);
  }
}

TEST(DistApp, MigrationMovesExactlyThePlannedData) {
  const Hypergraph h = random_hypergraph(50, 100, 4, 2, 7);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition old_p = partition_hypergraph(h, cfg);
  RepartitionerConfig rcfg;
  rcfg.partition = cfg;
  rcfg.partition.seed = 99;
  rcfg.alpha = 1000;  // push for quality: guarantees some movement
  const RepartitionResult r = hypergraph_repartition(h, old_p, rcfg);

  Comm comm(4);
  std::mutex m;
  Weight moved = 0;
  comm.run([&](RankContext& ctx) {
    PayloadStore store = make_payloads(ctx, h, old_p);
    validate_payloads(ctx, h, old_p, store);
    const MigrateStats stats = migrate(ctx, r.plan, h, store);
    validate_payloads(ctx, h, r.partition, store);
    const Weight all = static_cast<Weight>(
        ctx.allreduce_sum<std::int64_t>(stats.words_moved));
    if (ctx.rank() == 0) {
      std::lock_guard lock(m);
      moved = all;
    }
  });
  // Sizes >= 1 (make_payloads pads zero-size blobs to one word); with the
  // random sizes here all are >= 1 already, so words == plan volume.
  EXPECT_EQ(moved, r.plan.total_volume);
}

TEST(DistApp, FullEpochLoopOverRuntime) {
  // distribute -> iterate -> repartition -> migrate -> iterate again.
  const Graph g = make_grid3d(6, 6, 6, false);
  Hypergraph h = graph_to_hypergraph(g);
  PartitionConfig cfg;
  cfg.num_parts = 4;
  const Partition p0 = partition_hypergraph(h, cfg);

  // The computation adapts: one region's weights grow.
  for (Index v = 0; v < h.num_vertices() / 4; ++v)
    h.set_vertex_weight(VertexId{v}, 5);
  RepartitionerConfig rcfg;
  rcfg.partition = cfg;
  rcfg.alpha = 10;
  const RepartitionResult r = hypergraph_repartition(h, p0, rcfg);

  std::vector<std::int64_t> values(
      static_cast<std::size_t>(h.num_vertices()), 2);
  Comm comm(4);
  comm.run([&](RankContext& ctx) {
    PayloadStore store = make_payloads(ctx, h, p0);
    halo_exchange(ctx, h, p0, values);
    migrate(ctx, r.plan, h, store);
    validate_payloads(ctx, h, r.partition, store);
    const HaloStats after = halo_exchange(ctx, h, r.partition, values);
    const Weight words = static_cast<Weight>(
        ctx.allreduce_sum<std::int64_t>(after.words_sent));
    EXPECT_EQ(words, connectivity_cut(h, r.partition));
  });
}

TEST(DistApp, FewerRanksThanPartsStillCorrect) {
  const Hypergraph h = random_hypergraph(40, 80, 4, 2, 9);
  PartitionConfig cfg;
  cfg.num_parts = 6;
  const Partition p = partition_hypergraph(h, cfg);
  std::vector<std::int64_t> values(40, 3);
  Comm comm(2);  // parts fold onto 2 ranks
  comm.run([&](RankContext& ctx) {
    PayloadStore store = make_payloads(ctx, h, p);
    validate_payloads(ctx, h, p, store);
    halo_exchange(ctx, h, p, values);  // internal routing asserts fire if wrong
  });
}

/// What one halo call returned on each rank.
struct HaloRun {
  std::vector<Weight> words;               // words_sent, by rank
  std::vector<std::int64_t> checksums;     // reduction_checksum, by rank
};

HaloRun run_halo(const Hypergraph& h, const Partition& p,
                 const std::vector<std::int64_t>& values, int ranks) {
  HaloRun out;
  out.words.assign(static_cast<std::size_t>(ranks), -1);
  out.checksums.assign(static_cast<std::size_t>(ranks), 0);
  Comm comm(ranks);
  comm.run([&](RankContext& ctx) {
    const HaloStats stats = halo_exchange(ctx, h, p, values);
    const auto r = static_cast<std::size_t>(ctx.rank());
    out.words[r] = stats.words_sent;
    out.checksums[r] = stats.reduction_checksum;
  });
  return out;
}

/// Serial oracle for one rank's halo traffic: the sum of c_n over every
/// (net, part q) with q touched by the net, q not the net's root part (the
/// part of its first pin), and q owned by `rank`.
Weight oracle_words(const Hypergraph& h, const Partition& p, int rank,
                    int ranks) {
  Weight words = 0;
  for (const NetId net : h.nets()) {
    const PartId root = p[h.pins(net).front()];
    std::vector<bool> touched(static_cast<std::size_t>(p.k), false);
    for (const VertexId v : h.pins(net))
      touched[static_cast<std::size_t>(p[v].v)] = true;
    for (Index q = 0; q < p.k; ++q)
      if (touched[static_cast<std::size_t>(q)] && PartId{q} != root &&
          q % ranks == rank)
        words += h.net_cost(net);
  }
  return words;
}

/// Random instance: nets of 1..6 pins (duplicates collapse; single-pin
/// nets kept), costs in [0, 3] so some nets are free, values in [-3, 3] so
/// partials are zero or cancel to zero, and a uniformly random partition.
struct HaloInstance {
  Hypergraph h;
  Partition p;
  std::vector<std::int64_t> values;
};

HaloInstance random_halo_instance(Index k, std::uint64_t seed) {
  Rng rng(seed);
  const Index n = 20 + static_cast<Index>(rng.below(40));
  HypergraphBuilder b(n);
  b.keep_single_pin_nets(true);
  const Index nets = 10 + static_cast<Index>(rng.below(80));
  for (Index i = 0; i < nets; ++i) {
    std::vector<Index> pins(1 + rng.below(6));
    for (Index& v : pins) v = static_cast<Index>(rng.below(n));
    b.add_net(pins, rng.range(0, 3));
  }
  HaloInstance inst{b.finalize(), Partition(k, n), {}};
  for (const VertexId v : inst.p.vertices())
    inst.p[v] = PartId{static_cast<Index>(rng.below(k))};
  inst.values.resize(static_cast<std::size_t>(n));
  for (std::int64_t& x : inst.values) x = rng.range(-3, 3);
  return inst;
}

TEST(DistApp, HaloMatchesSerialOracleOnRandomInstances) {
  std::uint64_t seed = 1;
  for (const int ranks : {1, 2, 3, 5}) {
    for (const Index k : {2, 4, 7}) {
      for (int trial = 0; trial < 4; ++trial, ++seed) {
        const HaloInstance inst = random_halo_instance(k, seed);
        SCOPED_TRACE("ranks=" + std::to_string(ranks) + " k=" +
                     std::to_string(k) + " seed=" + std::to_string(seed));
        const HaloRun run = run_halo(inst.h, inst.p, inst.values, ranks);
        Weight total = 0;
        for (int r = 0; r < ranks; ++r) {
          const auto i = static_cast<std::size_t>(r);
          EXPECT_EQ(run.words[i], oracle_words(inst.h, inst.p, r, ranks));
          total += run.words[i];
        }
        EXPECT_EQ(total, connectivity_cut(inst.h, inst.p));
        std::int64_t expect = 0;
        for (const NetId net : inst.h.nets())
          for (const VertexId v : inst.h.pins(net))
            expect += inst.values[static_cast<std::size_t>(v.v)];
        for (const std::int64_t checksum : run.checksums)
          EXPECT_EQ(checksum, expect);
      }
    }
  }
}

TEST(DistApp, HaloHandlesSinglePinNetsAndZeroPartials) {
  // Net 0 is a single pin. Net 1 spans parts 0 and 1; part 1's running
  // partial is zero when its third pin arrives (the partial == 0 dedupe
  // path: a second part-1 frame would double the words). Net 2 is cut but
  // free (c = 0).
  HypergraphBuilder b(5);
  b.keep_single_pin_nets(true);
  b.add_net({3}, 2);
  b.add_net({0, 1, 2, 3}, 3);
  b.add_net({0, 4}, 0);
  const Hypergraph h = b.finalize();
  ASSERT_EQ(h.num_nets(), 3);
  Partition p(2, 5);
  p[VertexId{1}] = PartId{1};
  p[VertexId{2}] = PartId{1};
  p[VertexId{3}] = PartId{1};
  p[VertexId{4}] = PartId{1};
  const std::vector<std::int64_t> values{5, 4, -4, 1, 7};
  for (const int ranks : {1, 2, 3}) {
    const HaloRun run = run_halo(h, p, values, ranks);
    // Only part 1's owner ships: net 1's partial, to root part 0.
    const std::size_t sender = ranks == 1 ? 0 : 1;
    for (std::size_t r = 0; r < run.words.size(); ++r)
      EXPECT_EQ(run.words[r], r == sender ? 3 : 0);
    EXPECT_EQ(run.checksums[0], 1 + (5 + 4 - 4 + 1) + (5 + 7));
  }
}

/// A k=2 partition of a grid hypergraph, a boundary vertex of it (a
/// part-0 pin of a net rooted in part 1, so part 0 ships that net a
/// partial including it), and values that are all nonzero.
struct BoundaryCase {
  Hypergraph h;
  Partition p;
  VertexId boundary;
  std::vector<std::int64_t> values;
};

BoundaryCase boundary_case() {
  BoundaryCase bc{graph_to_hypergraph(make_grid3d(4, 4, 4, false)), {},
                  kInvalidVertex, {}};
  PartitionConfig cfg;
  cfg.num_parts = 2;
  bc.p = partition_hypergraph(bc.h, cfg);
  for (const NetId net : bc.h.nets()) {
    if (bc.p[bc.h.pins(net).front()] != PartId{1}) continue;
    for (const VertexId v : bc.h.pins(net))
      if (!bc.boundary.valid() && bc.p[v] == PartId{0}) bc.boundary = v;
  }
  bc.values.resize(static_cast<std::size_t>(bc.h.num_vertices()));
  for (std::size_t v = 0; v < bc.values.size(); ++v)
    bc.values[v] = static_cast<std::int64_t>(v) + 1;
  return bc;
}

/// The AssertionError message a 2-rank halo raises when rank r passes
/// parts[r] and values[r]; empty if no rank raised one.
std::string halo_failure(
    const Hypergraph& h, const std::array<Partition, 2>& parts,
    const std::array<std::vector<std::int64_t>, 2>& values) {
  ScopedAssertHandler guard;
  Comm comm(2);
  try {
    comm.run([&](RankContext& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      halo_exchange(ctx, h, parts[r], values[r]);
    });
  } catch (const AssertionError& e) {
    return e.what();
  }
  return "";
}

TEST(DistApp, HaloRejectsRankWithDivergentPartition) {
  // Rank 1 believes one boundary vertex sits in part 1: the frames it
  // sends or expects no longer match what rank 0 derives.
  const BoundaryCase bc = boundary_case();
  ASSERT_TRUE(bc.boundary.valid());
  Partition moved = bc.p;
  moved[bc.boundary] = PartId{1};
  EXPECT_NE(halo_failure(bc.h, {bc.p, moved}, {bc.values, bc.values}), "");
}

TEST(DistApp, HaloRejectsRankWithDivergentValues) {
  // Same partition everywhere, but rank 1's value at the boundary vertex
  // differs: the partial rank 0 ships for a net rooted in part 1 is not
  // the one rank 1 derives.
  const BoundaryCase bc = boundary_case();
  ASSERT_TRUE(bc.boundary.valid());
  std::vector<std::int64_t> skewed = bc.values;
  skewed[static_cast<std::size_t>(bc.boundary.v)] += 1;
  EXPECT_NE(halo_failure(bc.h, {bc.p, bc.p}, {bc.values, skewed})
                .find("halo partial corrupted in flight"),
            std::string::npos);
}

TEST(DistApp, HaloRootCountsFramesFromEachSource) {
  // Net {0, 1} is rooted in part 0 (rank 0); every other check passes, so
  // only the root's frame count can notice a lost or an extra frame.
  const Hypergraph h = testing::make_hypergraph(4, {{0, 1}, {2, 3}});
  const std::vector<std::int64_t> values{1, 2, 3, 4};
  Partition cut(2, 4, PartId{1});
  cut[VertexId{0}] = PartId{0};
  Partition internal(2, 4, PartId{1});
  internal[VertexId{0}] = PartId{0};
  internal[VertexId{1}] = PartId{0};
  // Rank 1 thinks the net is internal: the frame rank 0 expects never
  // comes.
  EXPECT_NE(halo_failure(h, {cut, internal}, {values, values})
                .find("halo frame missing"),
            std::string::npos);
  // Rank 1 thinks the net is cut: rank 0 gets a frame it does not expect.
  EXPECT_NE(halo_failure(h, {internal, cut}, {values, values})
                .find("unexpected halo frame"),
            std::string::npos);
}

}  // namespace
}  // namespace hgr

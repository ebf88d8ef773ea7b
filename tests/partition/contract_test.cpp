#include "partition/contract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/workspace.hpp"
#include "metrics/cut.hpp"
#include "partition/matching_ipm.hpp"
#include "test_util.hpp"

namespace hgr {
namespace {

using testing::make_hypergraph;
using testing::random_hypergraph;

IdVector<VertexId, VertexId> identity_match(Index n) {
  IdVector<VertexId, VertexId> m(n);
  for (const VertexId v : m.ids()) m[v] = v;
  return m;
}

TEST(Contract, IdentityMatchingKeepsSizes) {
  const Hypergraph h = make_hypergraph(4, {{0, 1}, {1, 2, 3}});
  const CoarseLevel level = contract(h, identity_match(4));
  EXPECT_EQ(level.coarse.num_vertices(), 4);
  EXPECT_EQ(level.coarse.num_nets(), 2);
  level.coarse.validate();
}

TEST(Contract, MergedPairSumsWeightsAndSizes) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({2, 3});
  b.set_vertex_weight(0, 3);
  b.set_vertex_weight(1, 4);
  b.set_vertex_size(0, 5);
  b.set_vertex_size(1, 6);
  const Hypergraph h = b.finalize();
  auto match = identity_match(4);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.num_vertices(), 3);
  const VertexId c01 = level.fine_to_coarse[VertexId{0}];
  EXPECT_EQ(level.fine_to_coarse[VertexId{1}], c01);
  EXPECT_EQ(level.coarse.vertex_weight(c01), 7);
  EXPECT_EQ(level.coarse.vertex_size(c01), 11);
}

TEST(Contract, InternalNetDisappears) {
  const Hypergraph h = make_hypergraph(3, {{0, 1}, {1, 2}});
  auto match = identity_match(3);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  const CoarseLevel level = contract(h, match);
  // Net {0,1} collapsed to one pin and vanished; {1,2} survives.
  EXPECT_EQ(level.coarse.num_nets(), 1);
  EXPECT_EQ(level.coarse.net_size(NetId{0}), 2);
}

TEST(Contract, IdenticalNetsMergeWithSummedCost) {
  HypergraphBuilder b(4);
  b.add_net({0, 2}, 3);
  b.add_net({1, 3}, 4);
  const Hypergraph h = b.finalize();
  auto match = identity_match(4);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  match[VertexId{2}] = VertexId{3};
  match[VertexId{3}] = VertexId{2};
  // Both nets map to {c01, c23}: they must merge into one of cost 7.
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.num_nets(), 1);
  EXPECT_EQ(level.coarse.net_cost(NetId{0}), 7);
}

TEST(Contract, FixedPartPropagates) {
  HypergraphBuilder b(4);
  b.add_net({0, 1});
  b.add_net({2, 3});
  b.set_fixed_part(0, PartId{2});
  const Hypergraph h = b.finalize();
  auto match = identity_match(4);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.fixed_part(level.fine_to_coarse[VertexId{0}]),
            PartId{2});
  EXPECT_EQ(level.coarse.fixed_part(level.fine_to_coarse[VertexId{2}]),
            kNoPart);
}

TEST(Contract, TotalWeightInvariant) {
  const Hypergraph h = random_hypergraph(80, 150, 5, 3, 5);
  Rng rng(6);
  const auto match = ipm_matching(h, 0, rng);
  const CoarseLevel level = contract(h, match);
  EXPECT_EQ(level.coarse.total_vertex_weight(), h.total_vertex_weight());
  level.coarse.validate();
}

TEST(Contract, CutPreservedUnderProjection) {
  // Partitioning the coarse hypergraph and projecting up must give the
  // same connectivity cut (nets that vanished were internal to a coarse
  // vertex and cannot be cut by a projected partition).
  const Hypergraph h = random_hypergraph(60, 120, 4, 4, 7);
  Rng rng(8);
  const auto match = ipm_matching(h, 0, rng);
  const CoarseLevel level = contract(h, match);

  const Partition coarse_p =
      testing::random_partition(level.coarse.num_vertices(), 3, 99);
  Partition fine_p(3, h.num_vertices());
  for (const VertexId v : fine_p.vertices())
    fine_p[v] = coarse_p[level.fine_to_coarse[v]];
  EXPECT_EQ(connectivity_cut(level.coarse, coarse_p),
            connectivity_cut(h, fine_p));
}

// Differential check of contraction against a naive oracle: a std::map from
// each sorted coarse pin list to the first net that produced it.
struct OracleLevel {
  IdVector<VertexId, VertexId> fine_to_coarse;
  std::vector<std::vector<VertexId>> nets;  // sorted coarse pin lists
  std::vector<Weight> costs;
  Index dropped = 0;  // nets reduced to fewer than 2 pins
  Index merged = 0;   // nets folded into an earlier identical one
};

OracleLevel naive_contract(const Hypergraph& h,
                           const IdVector<VertexId, VertexId>& match) {
  OracleLevel o;
  o.fine_to_coarse.assign(h.num_vertices(), kInvalidVertex);
  // The smaller endpoint of each pair names the coarse vertex, numbered in
  // ascending fine-id order.
  VertexId next{0};
  for (const VertexId v : h.vertices())
    if (match[v] >= v) o.fine_to_coarse[v] = next++;
  for (const VertexId v : h.vertices())
    if (match[v] < v) o.fine_to_coarse[v] = o.fine_to_coarse[match[v]];

  std::map<std::vector<VertexId>, std::size_t> first;
  for (const NetId net : h.nets()) {
    std::vector<VertexId> pins;
    for (const VertexId v : h.pins(net)) pins.push_back(o.fine_to_coarse[v]);
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) {
      ++o.dropped;
      continue;
    }
    const auto [it, inserted] = first.emplace(pins, o.nets.size());
    if (inserted) {
      o.nets.push_back(std::move(pins));
      o.costs.push_back(h.net_cost(net));
    } else {
      o.costs[it->second] += h.net_cost(net);
      ++o.merged;
    }
  }
  return o;
}

struct DiffInput {
  Hypergraph h;
  IdVector<VertexId, VertexId> match;
};

/// A random hypergraph with planted duplicates, plus a random matching.
/// Pins are handed to the raw constructor unsorted, so identical pin sets
/// also appear in different orders.
DiffInput planted_duplicates(Index n, Index base_nets, std::uint64_t seed) {
  Rng rng(seed);
  IdVector<VertexId, VertexId> match(n);
  std::vector<Index> order(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);
  for (const VertexId v : match.ids()) match[v] = v;
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    if (!rng.chance(0.7)) continue;
    const VertexId a{order[i]};
    const VertexId b{order[i + 1]};
    match[a] = b;
    match[b] = a;
  }

  std::vector<std::vector<Index>> nets;
  std::vector<Weight> costs;
  const auto add = [&](std::vector<Index> pins) {
    rng.shuffle(pins);
    nets.push_back(std::move(pins));
    costs.push_back(rng.range(0, 3));  // zero-cost nets included
  };
  const auto random_pins = [&](Index size) {
    std::vector<Index> pins;
    while (static_cast<Index>(pins.size()) < size) {
      const Index v = static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)));
      if (std::find(pins.begin(), pins.end(), v) == pins.end())
        pins.push_back(v);
    }
    return pins;
  };
  for (Index i = 0; i < base_nets; ++i) {
    switch (rng.below(6)) {
      case 0:  // the same pin set as an earlier net, in another order
        if (!nets.empty()) {
          add(nets[rng.below(nets.size())]);
          break;
        }
        [[fallthrough]];
      case 1:  // identical to an earlier net only after matching
        if (!nets.empty()) {
          std::vector<Index> pins = nets[rng.below(nets.size())];
          for (Index& v : pins) v = match[VertexId{v}].v;
          add(std::move(pins));
          break;
        }
        [[fallthrough]];
      case 2:  // single pin, or a matched pair that collapses to one pin
        if (rng.chance(0.5)) {
          add(random_pins(1));
        } else {
          const Index v = static_cast<Index>(rng.below(static_cast<std::uint64_t>(n)));
          add(match[VertexId{v}].v == v ? std::vector<Index>{v}
                                        : std::vector<Index>{v, match[VertexId{v}].v});
        }
        break;
      default:
        add(random_pins(static_cast<Index>(rng.range(2, 5))));
    }
  }

  std::vector<Index> offsets{0};
  std::vector<VertexId> pins;
  for (const std::vector<Index>& net : nets) {
    for (const Index v : net) pins.push_back(VertexId{v});
    offsets.push_back(static_cast<Index>(pins.size()));
  }
  std::vector<Weight> weights(static_cast<std::size_t>(n));
  for (Weight& w : weights) w = rng.range(1, 4);
  return {Hypergraph(std::move(offsets), std::move(pins), std::move(weights),
                     std::vector<Weight>(static_cast<std::size_t>(n), 1),
                     std::move(costs)),
          std::move(match)};
}

void expect_matches_oracle(const CoarseLevel& level, const OracleLevel& o) {
  EXPECT_EQ(level.fine_to_coarse, o.fine_to_coarse);
  ASSERT_EQ(level.coarse.num_nets(), static_cast<Index>(o.nets.size()));
  for (const NetId net : level.coarse.nets()) {
    const std::span<const VertexId> pins = level.coarse.pins(net);
    const std::vector<VertexId>& want = o.nets[static_cast<std::size_t>(net.v)];
    ASSERT_TRUE(std::equal(pins.begin(), pins.end(), want.begin(), want.end()))
        << "net " << net.v;
    EXPECT_EQ(level.coarse.net_cost(net),
              o.costs[static_cast<std::size_t>(net.v)])
        << "net " << net.v;
  }
}

void expect_identical(const Hypergraph& a, const Hypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  for (const VertexId v : a.vertices()) {
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v));
    EXPECT_EQ(a.vertex_size(v), b.vertex_size(v));
  }
  for (const NetId net : a.nets()) {
    const std::span<const VertexId> pa = a.pins(net);
    const std::span<const VertexId> pb = b.pins(net);
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()));
    EXPECT_EQ(a.net_cost(net), b.net_cost(net));
  }
}

/// Contracts at threads {1, 2, 4} through a pooled Workspace, twice per
/// arena (the second call reuses the first's capacity, as the next level
/// of a multilevel run would), checking every result against the oracle
/// and against the single-thread result.
void check_all_thread_counts(const DiffInput& in) {
  const OracleLevel o = naive_contract(in.h, in.match);
  std::optional<CoarseLevel> t1;
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    Workspace ws;
    ws.set_pool(&pool);
    for (int call = 0; call < 2; ++call) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                      << " call=" << call);
      CoarseLevel level = contract(in.h, in.match, &ws);
      expect_matches_oracle(level, o);
      if (!t1) {
        t1 = std::move(level);
      } else {
        EXPECT_EQ(level.fine_to_coarse, t1->fine_to_coarse);
        expect_identical(level.coarse, t1->coarse);
      }
    }
  }
}

TEST(ContractDifferential, PlantedDuplicatesMatchNaiveOracle) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    // ~6000 nets over 8192 slots: chains of several entries, every shard
    // populated at 4 threads.
    const DiffInput in = planted_duplicates(1500, 6000, seed);
    const OracleLevel o = naive_contract(in.h, in.match);
    // The planted cases really occur.
    EXPECT_GT(o.merged, 1000);
    EXPECT_GT(o.dropped, 500);
    check_all_thread_counts(in);
  }
}

TEST(ContractDifferential, TinyInputsMatchNaiveOracle) {
  // Fewer nets than threads: empty Phase A chunks and empty shards.
  for (const Index nets : {0, 1, 3}) {
    SCOPED_TRACE(::testing::Message() << "nets=" << nets);
    check_all_thread_counts(planted_duplicates(6, nets, 5));
  }
}

TEST(ContractDeathTest, IncompatibleFixedPairAborts) {
  HypergraphBuilder b(2);
  b.add_net({0, 1});
  b.set_fixed_part(0, PartId{0});
  b.set_fixed_part(1, PartId{1});
  const Hypergraph h = b.finalize();
  IdVector<VertexId, VertexId> match(2);
  match[VertexId{0}] = VertexId{1};
  match[VertexId{1}] = VertexId{0};
  EXPECT_DEATH(contract(h, match), "incompatible fixed");
}

}  // namespace
}  // namespace hgr

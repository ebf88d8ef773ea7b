#include "hypergraph/builder.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"

namespace hgr {
namespace {

TEST(HypergraphBuilder, DeduplicatesPinsWithinNet) {
  HypergraphBuilder b(3);
  b.add_net({0, 1, 1, 0, 2});
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.num_nets(), 1);
  EXPECT_EQ(h.net_size(NetId{0}), 3);
}

TEST(HypergraphBuilder, DropsSinglePinNetsByDefault) {
  HypergraphBuilder b(3);
  b.add_net({0});
  b.add_net({1, 1});  // collapses to a single pin
  b.add_net({1, 2});
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.num_nets(), 1);
  EXPECT_EQ(h.net_size(NetId{0}), 2);
}

TEST(HypergraphBuilder, KeepSinglePinNetsOption) {
  HypergraphBuilder b(2);
  b.keep_single_pin_nets(true);
  b.add_net({0});
  b.add_net({0, 1});
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.num_nets(), 2);
}

TEST(HypergraphBuilder, NetCostsPreserved) {
  HypergraphBuilder b(3);
  b.add_net({0, 1}, 5);
  b.add_net({1, 2}, 9);
  const Hypergraph h = b.finalize();
  EXPECT_EQ(h.net_cost(NetId{0}), 5);
  EXPECT_EQ(h.net_cost(NetId{1}), 9);
}

TEST(HypergraphBuilder, BulkWeightSetters) {
  HypergraphBuilder b(4);
  b.add_net({0, 1, 2, 3});
  b.set_all_vertex_weights(3);
  b.set_all_vertex_sizes(2);
  const Hypergraph h = b.finalize();
  for (Index v = 0; v < 4; ++v) {
    EXPECT_EQ(h.vertex_weight(VertexId{v}), 3);
    EXPECT_EQ(h.vertex_size(VertexId{v}), 2);
  }
}

TEST(HypergraphBuilder, FixedVerticesOnlyWhenSet) {
  {
    HypergraphBuilder b(2);
    b.add_net({0, 1});
    EXPECT_FALSE(b.finalize().has_fixed());
  }
  {
    HypergraphBuilder b(2);
    b.add_net({0, 1});
    b.set_fixed_part(0, PartId{1});
    const Hypergraph h = b.finalize();
    EXPECT_TRUE(h.has_fixed());
    EXPECT_EQ(h.fixed_part(VertexId{0}), PartId{1});
    EXPECT_EQ(h.fixed_part(VertexId{1}), kNoPart);
  }
}

TEST(HypergraphBuilder, FinalizeMatchesPerNetOracle) {
  // Random nets with repeated pins, empty and single-pin nets: finalize()
  // must keep nets in insertion order with sorted unique pins and their
  // costs, dropping those below the minimum size.
  Rng rng(11);
  for (const bool keep_single : {false, true}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Index n = 1 + static_cast<Index>(rng.below(25));
      HypergraphBuilder b(n);
      b.keep_single_pin_nets(keep_single);
      std::vector<std::set<Index>> want_pins;
      std::vector<Weight> want_costs;
      const int nets = static_cast<int>(rng.below(40));
      for (int i = 0; i < nets; ++i) {
        std::vector<Index> pins(rng.below(8));
        for (Index& v : pins) v = static_cast<Index>(rng.below(n));
        const Weight cost = rng.range(0, 5);
        EXPECT_EQ(b.add_net(pins, cost), i);
        const std::set<Index> unique(pins.begin(), pins.end());
        if (unique.size() >= (keep_single ? 1u : 2u)) {
          want_pins.push_back(unique);
          want_costs.push_back(cost);
        }
      }
      EXPECT_EQ(b.num_nets_added(), nets);
      const Hypergraph h = b.finalize();
      ASSERT_EQ(h.num_nets(), static_cast<Index>(want_pins.size()));
      for (const NetId net : h.nets()) {
        const auto i = static_cast<std::size_t>(net.v);
        std::vector<Index> got;
        for (const VertexId v : h.pins(net)) got.push_back(v.v);
        EXPECT_EQ(got, std::vector<Index>(want_pins[i].begin(),
                                          want_pins[i].end()));
        EXPECT_EQ(h.net_cost(net), want_costs[i]);
      }
    }
  }
}

TEST(GraphBuilder, MergesAndSymmetrizes) {
  GraphBuilder b(4);
  b.add_edge(2, 1, 1);
  b.add_edge(1, 2, 1);
  b.add_edge(0, 3, 4);
  const Graph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 2);
  g.validate();
}

TEST(GraphBuilder, EmptyGraphFinalizes) {
  GraphBuilder b(3);
  const Graph g = b.finalize();
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.num_vertices(), 3);
  g.validate();
}

}  // namespace
}  // namespace hgr

#include "graphpart/grefine.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"

namespace hgr {

namespace {

class GRefiner {
 public:
  GRefiner(const Graph& g, Partition& p, const GRefineOptions& opt)
      : g_(g), p_(p), opt_(opt), conn_(p.k, 0) {
    part_w_ = part_weights(g.vertex_weights(), p);
    max_w_ = max_part_weight(g.total_vertex_weight(), p.k, opt.epsilon);
  }

  bool balanced() const {
    for (const Weight w : part_w_)
      if (w > max_w_) return false;
    return true;
  }

  /// Migration component of moving v from its current part to q.
  Weight migration_gain(Index v, PartId q) const {
    if (opt_.old_partition == nullptr) return 0;
    const PartId home = (*opt_.old_partition)[VertexId{v}];
    const PartId from = p_[VertexId{v}];
    if (from == home && q != home) return -g_.vertex_size(v);
    if (from != home && q == home) return +g_.vertex_size(v);
    return 0;
  }

  /// Forced moves off overweight parts until Eq. 1 holds (or no progress).
  Index rebalance(Rng& rng) {
    Index total_moves = 0;
    for (Index round = 0; round < 4 * p_.k && !balanced(); ++round) {
      Index moves = 0;
      const std::vector<Index> order =
          random_permutation(g_.num_vertices(), rng);
      for (const Index v : order) {
        const PartId from = p_[VertexId{v}];
        if (part_w_[from] <= max_w_) continue;
        const auto [best, gain] = best_destination(v, /*forced=*/true);
        (void)gain;
        if (best == kNoPart) continue;
        move(v, best);
        ++moves;
        if (balanced()) break;
      }
      total_moves += moves;
      if (moves == 0) break;
    }
    return total_moves;
  }

  /// One greedy sweep; returns number of moves applied.
  Index sweep(Rng& rng) {
    Index moves = 0;
    const std::vector<Index> order =
        random_permutation(g_.num_vertices(), rng);
    for (const Index v : order) {
      const auto [best, gain] = best_destination(v, /*forced=*/false);
      if (best == kNoPart) continue;
      const bool improves_balance =
          part_w_[p_[VertexId{v}]] > part_w_[best] + g_.vertex_weight(v);
      if (gain > 0 || (gain == 0 && improves_balance)) {
        move(v, best);
        ++moves;
      }
    }
    return moves;
  }

 private:
  /// Best destination part for v and its composite gain. In forced mode the
  /// balance of the source is ignored (we are evacuating it) and the best
  /// non-positive gain is acceptable.
  std::pair<PartId, Weight> best_destination(Index v, bool forced) {
    const PartId from = p_[VertexId{v}];
    const auto nbrs = g_.neighbors(v);
    const auto ws = g_.edge_weights(v);

    // Connection weight to each adjacent part (stamped accumulation).
    touched_.clear();
    // The home part is always a candidate when repartitioning: returning a
    // vertex home earns its migration gain even across a non-boundary.
    if (opt_.old_partition != nullptr) {
      const PartId home = (*opt_.old_partition)[VertexId{v}];
      if (home != from) touched_.push_back(home);
    }
    Weight internal = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const PartId q = p_[VertexId{nbrs[i]}];
      if (q == from) {
        internal += ws[i];
        continue;
      }
      if (conn_[q] == 0) touched_.push_back(q);
      conn_[q] += ws[i];
    }

    PartId best = kNoPart;
    Weight best_gain = 0;
    bool have = false;
    const Weight wv = g_.vertex_weight(v);
    for (const PartId q : touched_) {
      const Weight ext = conn_[q];
      conn_[q] = 0;
      if (part_w_[q] + wv > max_w_) continue;
      const Weight gain =
          opt_.alpha * (ext - internal) + migration_gain(v, q);
      if (!have || gain > best_gain ||
          (gain == best_gain && part_w_[q] < part_w_[best])) {
        best = q;
        best_gain = gain;
        have = true;
      }
    }
    if (forced && best == kNoPart) {
      // Every adjacent part is full: fall back to the globally lightest
      // part so evacuation always makes progress.
      PartId lightest = kNoPart;
      for (const PartId q : p_.parts()) {
        if (q == from) continue;
        if (lightest == kNoPart || part_w_[q] < part_w_[lightest])
          lightest = q;
      }
      // Gain is not meaningful here; report 0.
      return {lightest, 0};
    }
    return {best, have ? best_gain : 0};
  }

  void move(Index v, PartId to) {
    const PartId from = p_[VertexId{v}];
    HGR_DASSERT(from != to);
    part_w_[from] -= g_.vertex_weight(v);
    part_w_[to] += g_.vertex_weight(v);
    p_[VertexId{v}] = to;
  }

  const Graph& g_;
  Partition& p_;
  const GRefineOptions& opt_;
  IdVector<PartId, Weight> part_w_;
  IdVector<PartId, Weight> conn_;
  std::vector<PartId> touched_;
  Weight max_w_ = 0;
};

}  // namespace

GRefineResult graph_kway_refine(const Graph& g, Partition& p,
                                const GRefineOptions& opt, Rng& rng) {
  GRefineResult result;
  result.initial_cut = edge_cut(g, p);
  if (p.k <= 1 || g.num_vertices() == 0) {
    result.final_cut = result.initial_cut;
    result.balanced = true;
    return result;
  }
  GRefiner refiner(g, p, opt);
  result.moves += refiner.rebalance(rng);
  for (Index pass = 0; pass < opt.max_passes; ++pass) {
    ++result.passes;
    const Index moves = refiner.sweep(rng);
    result.moves += moves;
    if (moves == 0) break;
  }
  result.balanced = refiner.balanced();
  result.final_cut = edge_cut(g, p);
  return result;
}

}  // namespace hgr

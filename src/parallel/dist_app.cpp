#include "parallel/dist_app.hpp"

#include <algorithm>
#include <span>

#include "common/assert.hpp"

namespace hgr {

PayloadStore make_payloads(const RankContext& ctx, const Hypergraph& h,
                           const Partition& p) {
  PayloadStore store;
  for (const VertexId v : h.vertices()) {
    if (part_owner(p[v], ctx.size()) != ctx.rank_id()) continue;
    std::vector<std::int64_t> blob(
        static_cast<std::size_t>(std::max<Weight>(1, h.vertex_size(v))));
    blob[0] = v.v;
    for (std::size_t i = 1; i < blob.size(); ++i)
      blob[i] =
          static_cast<std::int64_t>(v.v) * 31 + static_cast<std::int64_t>(i);
    store.emplace(to_raw(v), std::move(blob));
  }
  return store;
}

HaloStats halo_exchange(RankContext& ctx, const Hypergraph& h,
                        const Partition& p,
                        const std::vector<std::int64_t>& values) {
  HGR_ASSERT(static_cast<Index>(values.size()) == h.num_vertices());
  const int ranks = ctx.size();
  const RankId me = ctx.rank_id();
  IdVector<PartId, RankId> owner(p.k);
  for (const PartId q : p.parts()) owner[q] = part_owner(q, ranks);

  // One scan over the nets. A net whose pins all sit in its root part
  // (the part of its first pin), or whose cost is zero, ships nothing; a
  // cut net builds partials for its non-root parts and yields one frame
  // per such part. This rank records the frames it sends (part q owned
  // here) and the frames it must receive (root owned here), so the scan
  // is O(pins) and everything after it is O(cut).
  struct Contribution {
    NetId net;
    PartId part;
    std::int64_t partial;
  };
  std::vector<Contribution> sends;
  std::vector<Contribution> expected;
  FlatBuffer<std::int64_t> outgoing = ctx.make_buffer<std::int64_t>();
  HaloStats stats;

  std::vector<PartId> parts_touched;
  IdVector<PartId, std::int64_t> partial_of_part(p.k, 0);
  for (const NetId net : h.nets()) {
    const std::span<const VertexId> pins = h.pins(net);
    const PartId root = p[pins.front()];
    const Weight c = h.net_cost(net);
    if (c == 0 || std::all_of(pins.begin(), pins.end(), [&](VertexId v) {
          return p[v] == root;
        }))
      continue;

    parts_touched.clear();
    for (const VertexId v : pins) {
      const PartId q = p[v];
      if (q == root) continue;  // root's own contribution, no transfer
      if (partial_of_part[q] == 0 &&
          std::find(parts_touched.begin(), parts_touched.end(), q) ==
              parts_touched.end())
        parts_touched.push_back(q);
      partial_of_part[q] += values[static_cast<std::size_t>(v.v)];
    }
    const RankId root_owner = owner[root];
    for (const PartId q : parts_touched) {
      const std::int64_t partial = partial_of_part[q];
      partial_of_part[q] = 0;
      // Only the owner of part q sends; only the owner of the root receives.
      const RankId sender = owner[q];
      if (sender == me) {
        sends.push_back({net, q, partial});
        outgoing.count(to_raw(root_owner)) += 3 + static_cast<std::size_t>(c);
        stats.words_sent += c;
      }
      if (root_owner == me) expected.push_back({net, q, partial});
    }
  }

  // Message framing per contribution: [net, part, c_n, partial,
  // filler...(c_n-1 words)] — the partial reduction plus the data item's
  // remaining payload, modeling "the size of the data item that will be
  // communicated" (paper §3). Raw ids on the wire (comm boundary).
  outgoing.commit_counts();
  for (const Contribution& send : sends) {
    const Weight c = h.net_cost(send.net);
    const RankId dest = owner[p[h.pins(send.net).front()]];
    const std::span<std::int64_t> frame =
        outgoing.push_n(to_raw(dest), 3 + static_cast<std::size_t>(c));
    frame[0] = to_raw(send.net);
    frame[1] = to_raw(send.part);
    frame[2] = c;
    frame[3] = send.partial;
    std::fill(frame.begin() + 4, frame.end(), 0);  // payload
  }

  const FlatBuffer<std::int64_t> incoming = ctx.alltoallv(outgoing);

  // Root-side verification against the replicated recomputation: each
  // source's slot must hold exactly the frames expected from it, in the
  // sender's scan order, each well-formed, routed here, and carrying the
  // right partial (the runtime delivered the right bytes to the right
  // rank, none dropped or duplicated).
  std::vector<std::size_t> cursor(static_cast<std::size_t>(ranks), 0);
  for (const Contribution& e : expected) {
    const int source = to_raw(owner[e.part]);
    const std::span<const std::int64_t> stream = incoming.slot(source);
    std::size_t& i = cursor[static_cast<std::size_t>(source)];
    HGR_ASSERT_MSG(i + 4 <= stream.size(), "halo frame missing");
    const auto net = from_raw<NetId>(stream[i]);
    const auto q = from_raw<PartId>(stream[i + 1]);
    const auto c = static_cast<Weight>(stream[i + 2]);
    const std::int64_t partial = stream[i + 3];
    HGR_ASSERT_MSG(
        c >= 1 && static_cast<std::size_t>(c) <= stream.size() - i - 3,
        "halo frame overruns its slot");
    HGR_ASSERT(net.v >= 0 && net.v < h.num_nets());
    const PartId root = p[h.pins(net).front()];
    HGR_ASSERT_MSG(q.v >= 0 && q.v < p.k && q != root,
                   "halo frame names a bad part");
    HGR_ASSERT_MSG(owner[root] == me, "halo message routed to the wrong rank");
    HGR_ASSERT_MSG(net == e.net && q == e.part && c == h.net_cost(net),
                   "unexpected halo frame");
    HGR_ASSERT_MSG(partial == e.partial, "halo partial corrupted in flight");
    i += 3 + static_cast<std::size_t>(c);
  }
  for (int s = 0; s < ranks; ++s)
    HGR_ASSERT_MSG(
        cursor[static_cast<std::size_t>(s)] == incoming.slot(s).size(),
        "unexpected halo frame");

  // The checksum sums every net's reduction, i.e. each vertex's value once
  // per incident net. It is computed from replicated data, hence
  // rank-identical; reduce once as a lockstep check.
  std::int64_t checksum = 0;
  for (const VertexId v : h.vertices())
    checksum += h.vertex_degree(v) * values[static_cast<std::size_t>(v.v)];
  stats.reduction_checksum = ctx.allreduce_sum<std::int64_t>(checksum) /
                             ctx.size();
  return stats;
}

MigrateStats migrate(RankContext& ctx, const MigrationPlan& plan,
                     const Hypergraph& h, PayloadStore& store) {
  const int ranks = ctx.size();
  MigrateStats stats;
  // Count pass sizes each destination slice; the fill pass (which alone
  // mutates the store) writes [vertex, len, blob...] frames in place.
  FlatBuffer<std::int64_t> outgoing = ctx.make_buffer<std::int64_t>();
  for (int phase = 0; phase < 2; ++phase) {
    const bool fill = phase == 1;
    if (fill) outgoing.commit_counts();
    for (const MigrationPlan::Move& m : plan.moves) {
      const RankId src = part_owner(m.from, ranks);
      const RankId dst_rank = part_owner(m.to, ranks);
      if (src != ctx.rank_id()) continue;
      const auto it = store.find(to_raw(m.vertex));
      HGR_ASSERT_MSG(it != store.end(), "migrating a vertex we do not own");
      if (dst_rank == ctx.rank_id()) continue;  // part moved, rank unchanged
      const int dst = to_raw(dst_rank);  // comm boundary: raw slot index
      if (!fill) {
        outgoing.count(dst) += 2 + it->second.size();
        continue;
      }
      outgoing.push(dst, to_raw(m.vertex));
      outgoing.push(dst, static_cast<std::int64_t>(it->second.size()));
      std::span<std::int64_t> blob = outgoing.push_n(dst, it->second.size());
      std::copy(it->second.begin(), it->second.end(), blob.begin());
      stats.words_moved += static_cast<Weight>(it->second.size());
      ++stats.blobs_sent;
      store.erase(it);
    }
  }

  const FlatBuffer<std::int64_t> incoming = ctx.alltoallv(outgoing);
  for (int s = 0; s < ranks; ++s) {
    const std::span<const std::int64_t> stream = incoming.slot(s);
    std::size_t i = 0;
    while (i < stream.size()) {
      const auto v = static_cast<Index>(stream[i]);
      const auto len = static_cast<std::size_t>(stream[i + 1]);
      HGR_ASSERT(v >= 0 && v < h.num_vertices());
      HGR_ASSERT(i + 2 + len <= stream.size());
      std::vector<std::int64_t> blob(stream.begin() + static_cast<long>(i) + 2,
                                     stream.begin() + static_cast<long>(i) +
                                         2 + static_cast<long>(len));
      HGR_ASSERT_MSG(store.emplace(v, std::move(blob)).second,
                     "received a vertex we already own");
      ++stats.blobs_received;
      i += 2 + len;
    }
  }
  return stats;
}

void validate_payloads(const RankContext& ctx, const Hypergraph& h,
                       const Partition& p, const PayloadStore& store) {
  std::size_t expected = 0;
  for (const VertexId v : h.vertices()) {
    if (part_owner(p[v], ctx.size()) != ctx.rank_id()) continue;
    ++expected;
    const auto it = store.find(to_raw(v));
    HGR_ASSERT_MSG(it != store.end(), "missing payload for an owned vertex");
    HGR_ASSERT_MSG(it->second.size() ==
                       static_cast<std::size_t>(
                           std::max<Weight>(1, h.vertex_size(v))),
                   "payload length corrupted");
    HGR_ASSERT_MSG(it->second[0] == v.v, "payload tag corrupted");
  }
  HGR_ASSERT_MSG(store.size() == expected,
                 "rank holds payloads it should not own");
}

}  // namespace hgr

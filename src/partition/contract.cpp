#include "partition/contract.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/assert.hpp"
#include "common/csr_utils.hpp"
#include "common/thread_pool.hpp"
#include "partition/matching_ipm.hpp"

namespace hgr {

namespace {

std::uint64_t hash_pins(std::span<const VertexId> pins) {
  // FNV-1a over the sorted pin list, then a 64-bit finalizer (MurmurHash3's
  // fmix64): the dedup table keys on the top bits, which FNV's sparse
  // prime leaves badly mixed for the short lists most nets have.
  std::uint64_t h = 1469598103934665603ULL;
  for (const VertexId v : pins) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v.v));
    h *= 1099511628211ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

constexpr Index kNoEntry = -1;

/// One identity class of the dedup table: the pins, count and hash of its
/// first net, the class's summed cost, and the link to the next entry of
/// the same slot (an index into the same shard's entries).
struct DedupEntry {
  std::uint64_t hash;
  const VertexId* pins;
  Weight cost;
  Index count;
  Index net;  // fine id of the first occurrence
  Index next;
};

/// The flat identical-net table: 2^bits slots keyed by the top bits of a
/// net's hash, split into `shards` contiguous slot ranges.
struct DedupTable {
  int bits;
  int shards;

  std::size_t slots() const { return std::size_t{1} << bits; }
  std::size_t slot_of(std::uint64_t hash) const { return hash >> (64 - bits); }
  /// First slot of shard s: shard s owns [first_slot(s), first_slot(s + 1)).
  std::size_t first_slot(int s) const {
    const std::size_t u = static_cast<std::size_t>(shards);
    return (slots() * static_cast<std::size_t>(s) + u - 1) / u;
  }
  int shard_of(std::size_t slot) const {
    return static_cast<int>((slot * static_cast<std::size_t>(shards)) >> bits);
  }
};

}  // namespace

// Contraction in three phases, each on the pool carried by `ws`:
//
//   A (parallel over nets)   map + sort + dedup each pin list into the
//                            chunk's thread-local buffer; record per-net
//                            (count, offset, hash).
//   B (parallel over slots)  identical-net detection in a flat chained
//                            table: a power-of-two `head` array of entry
//                            indices, each entry holding its class's hash
//                            and pin count beside the chain link, so a
//                            chain walk calls std::equal only on a full
//                            hash and count match. Thread t owns a
//                            contiguous range of slots and walks every net
//                            in net order, taking only the nets that hash
//                            into its range: the first occurrence of every
//                            identity class becomes its entry, and the
//                            class's later nets add their costs to it,
//                            which only t writes. One serial O(m) pass in
//                            net order then numbers the first occurrences
//                            (the coarse net ids).
//   C (parallel over kept)   prefix-sum the kept counts and copy each kept
//                            pin list into its final CSR slot (disjoint
//                            ranges, frozen sources).
//
// Coarse nets come out in first-occurrence order with costs summed in net
// order, so the output is bit-identical at every thread count. All per-net
// and per-slot scratch is borrowed from `ws`, so a multilevel run
// allocates none of it per level after the first.
CoarseLevel contract(const Hypergraph& h,
                     IdSpan<VertexId, const VertexId> match, Workspace* ws) {
  const Index n = h.num_vertices();
  const Index m = h.num_nets();
  HGR_ASSERT(match.ssize() == n);

  CoarseLevel out;
  out.fine_to_coarse.assign(n, kInvalidVertex);

  // Coarse ids: the smaller endpoint of each pair is the representative.
  VertexId num_coarse{0};
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    HGR_ASSERT(u.v >= 0 && u.v < n && match[u] == v);
    if (u >= v) out.fine_to_coarse[v] = num_coarse++;
  }
  for (const VertexId v : h.vertices()) {
    const VertexId u = match[v];
    if (u < v) out.fine_to_coarse[v] = out.fine_to_coarse[u];
  }

  // Coarse vertex attributes (keyed by coarse vertex id).
  IdVector<VertexId, Weight> weights(num_coarse.v, 0);
  IdVector<VertexId, Weight> sizes(num_coarse.v, 0);
  IdVector<VertexId, PartId> fixed(num_coarse.v, kNoPart);
  bool any_fixed = false;
  for (const VertexId v : h.vertices()) {
    const VertexId c = out.fine_to_coarse[v];
    weights[c] += h.vertex_weight(v);
    sizes[c] += h.vertex_size(v);
    const PartId fv = h.fixed_part(v);
    if (fv != kNoPart) {
      HGR_ASSERT_MSG(fixed[c] == kNoPart || fixed[c] == fv,
                     "matching merged incompatible fixed vertices");
      fixed[c] = fv;
      any_fixed = true;
    }
  }

  ThreadPool* pool = ws != nullptr ? ws->pool() : nullptr;
  const int num_threads = pool_threads(pool);
  if (ws != nullptr) ws->reserve_threads(num_threads);

  // Phase A: per-thread pin buffers plus per-net (count, offset, hash).
  // The buffers are borrowed from each thread's sub-arena up front, on the
  // caller, so the parallel section itself never touches an arena.
  // One growable pin buffer per thread, not a message:
  std::vector<std::vector<VertexId>> bufs(  // hgr-lint: ragged-ok
      static_cast<std::size_t>(num_threads));
  if (ws != nullptr)
    for (int t = 0; t < num_threads; ++t)
      bufs[static_cast<std::size_t>(t)] = ws->for_thread(t).take<VertexId>();

  Borrowed<Index> net_count_b(ws);   // mapped pins per net (0 = dropped)
  Borrowed<Index> net_off_b(ws);     // offset in the owning thread's buffer
  Borrowed<std::uint64_t> net_hash_b(ws);
  net_count_b.get().assign(static_cast<std::size_t>(m), 0);
  net_off_b.get().assign(static_cast<std::size_t>(m), 0);
  net_hash_b.get().assign(static_cast<std::size_t>(m), 0);
  std::vector<Index>& net_count = net_count_b.get();
  std::vector<Index>& net_off = net_off_b.get();
  std::vector<std::uint64_t>& net_hash = net_hash_b.get();

  parallel_chunks(pool, m, [&](int t, Index begin, Index end) {
    // Grown as a local: the vector headers in `bufs` share cache lines, so
    // pushing through them from every thread would serialize the threads.
    std::vector<VertexId> buf = std::move(bufs[static_cast<std::size_t>(t)]);
    buf.clear();
    for (Index ni = begin; ni < end; ++ni) {
      const NetId net{ni};
      const Index start = static_cast<Index>(buf.size());
      for (const VertexId v : h.pins(net))
        buf.push_back(out.fine_to_coarse[v]);
      std::sort(buf.begin() + start, buf.end());
      buf.erase(std::unique(buf.begin() + start, buf.end()), buf.end());
      const Index count = static_cast<Index>(buf.size()) - start;
      if (count < 2) {
        buf.resize(static_cast<std::size_t>(start));
        continue;  // net_count stays 0: dropped
      }
      net_count[static_cast<std::size_t>(ni)] = count;
      net_off[static_cast<std::size_t>(ni)] = start;
      net_hash[static_cast<std::size_t>(ni)] = hash_pins(
          {buf.data() + start, static_cast<std::size_t>(count)});
    }
    bufs[static_cast<std::size_t>(t)] = std::move(buf);
  });

  // Phase B: the hash-sharded first-occurrence walk, one shard per
  // thread. Each shard's entries are borrowed up front, like the buffers.
  const DedupTable table{
      std::countr_zero(std::bit_ceil(
          std::max<std::uint64_t>(static_cast<std::uint64_t>(m), 2))),
      num_threads};
  Borrowed<Index> head_b(ws);  // first entry of each slot's chain
  std::vector<Index>& head = head_b.get();
  head.assign(table.slots(), kNoEntry);
  // One growable entry list per shard, not a message:
  std::vector<std::vector<DedupEntry>> entries(  // hgr-lint: ragged-ok
      static_cast<std::size_t>(num_threads));
  if (ws != nullptr)
    for (int t = 0; t < num_threads; ++t)
      entries[static_cast<std::size_t>(t)] =
          ws->for_thread(t).take<DedupEntry>();

  parallel_chunks(pool, num_threads, [&](int /*t*/, Index first, Index last) {
    for (int s = first; s < last; ++s) {
      const std::size_t lo = table.first_slot(s);
      const std::size_t hi = table.first_slot(s + 1);
      std::vector<DedupEntry> mine =
          std::move(entries[static_cast<std::size_t>(s)]);  // as in Phase A
      // Nets in net order, chunk by chunk: Phase A chunk c left its pins in
      // bufs[c].
      for (int c = 0; c < num_threads; ++c) {
        const VertexId* base = bufs[static_cast<std::size_t>(c)].data();
        const auto [begin, end] = ThreadPool::chunk(m, c, num_threads);
        for (Index ni = begin; ni < end; ++ni) {
          const Index count = net_count[static_cast<std::size_t>(ni)];
          if (count == 0) continue;
          const std::uint64_t hash = net_hash[static_cast<std::size_t>(ni)];
          const std::size_t slot = table.slot_of(hash);
          if (slot < lo || slot >= hi) continue;
          const VertexId* pins = base + net_off[static_cast<std::size_t>(ni)];
          const Weight cost = h.net_cost(NetId{ni});
          Index e = head[slot];
          while (e != kNoEntry) {
            const DedupEntry& x = mine[static_cast<std::size_t>(e)];
            if (x.hash == hash && x.count == count &&
                std::equal(pins, pins + count, x.pins))
              break;
            e = x.next;
          }
          if (e != kNoEntry) {
            mine[static_cast<std::size_t>(e)].cost += cost;
            continue;
          }
          mine.push_back({hash, pins, cost, count, ni, head[slot]});
          head[slot] = static_cast<Index>(mine.size()) - 1;
        }
      }
      entries[static_cast<std::size_t>(s)] = std::move(mine);
    }
  });

  // Number the first occurrences in net order. Each shard's entries are
  // already in net order, so one cursor per shard tells a class's first
  // net from its later ones.
  std::size_t num_kept = 0;
  for (const std::vector<DedupEntry>& mine : entries) num_kept += mine.size();
  Borrowed<const VertexId*> kept_pins_b(ws);
  std::vector<const VertexId*>& kept_pins = kept_pins_b.get();
  kept_pins.reserve(num_kept);
  std::vector<Index> coarse_net_counts;
  std::vector<Weight> coarse_net_costs;
  coarse_net_counts.reserve(num_kept);
  coarse_net_costs.reserve(num_kept);
  Borrowed<std::size_t> cursor_b(ws);
  std::vector<std::size_t>& cursor = cursor_b.get();
  cursor.assign(static_cast<std::size_t>(num_threads), 0);
  for (Index ni = 0; ni < m; ++ni) {
    if (net_count[static_cast<std::size_t>(ni)] == 0) continue;
    const std::size_t s = static_cast<std::size_t>(
        table.shard_of(table.slot_of(net_hash[static_cast<std::size_t>(ni)])));
    const std::vector<DedupEntry>& mine = entries[s];
    std::size_t& next = cursor[s];
    if (next == mine.size() || mine[next].net != ni) continue;  // merged
    kept_pins.push_back(mine[next].pins);
    coarse_net_counts.push_back(mine[next].count);
    coarse_net_costs.push_back(mine[next].cost);
    ++next;
  }

  // Phase C: prefix-sum the kept counts and copy pin lists into place.
  std::vector<Index> offsets = counts_to_offsets(std::move(coarse_net_counts));
  std::vector<VertexId> coarse_pins(
      static_cast<std::size_t>(offsets.back()));
  parallel_chunks(pool, static_cast<Index>(num_kept),
                  [&](int /*t*/, Index begin, Index end) {
    for (Index j = begin; j < end; ++j) {
      const std::size_t jj = static_cast<std::size_t>(j);
      const VertexId* pins = kept_pins[jj];
      std::copy(pins, pins + (offsets[jj + 1] - offsets[jj]),
                coarse_pins.begin() + offsets[jj]);
    }
  });

  if (ws != nullptr)
    for (int t = 0; t < num_threads; ++t) {
      const std::size_t tt = static_cast<std::size_t>(t);
      ws->for_thread(t).give(std::move(entries[tt]));
      ws->for_thread(t).give(std::move(bufs[tt]));
    }

  // hgr-lint: raw-ok (handing storage to the Hypergraph raw constructor)
  out.coarse = Hypergraph(std::move(offsets), std::move(coarse_pins),
                          std::move(weights.raw()), std::move(sizes.raw()),
                          std::move(coarse_net_costs),
                          any_fixed ? std::move(fixed.raw())
                                    : std::vector<PartId>{});
  return out;
}

}  // namespace hgr

// The block-style mini-app: the paper's epoch loop over the public API.
//
// Each epoch the application (1) takes the next epoch from a workload
// scenario and adapts its data to it, (2) asks the load balancer for a
// partition, (3) migrates the real payloads on a 2-rank communicator, and
// (4) runs alpha iterations of halo exchange. Every call is timed from
// outside; a traced run also records a span around each call and reads the
// library's phase tree, counters and comm telemetry around it.
//
// Two workloads stress opposite ends of the epoch:
//   amr-repart  every delta is too large for the O(delta) tier, so the full
//               rank-parallel V-cycle dominates the epoch;
//   drift-halo  small steady churn keeps the O(delta) tier answering, so
//               the epoch is almost all halo exchange and a partitioner
//               speed-up should show no change.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "core/incremental_repart.hpp"
#include "core/repartitioner.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/balance.hpp"
#include "metrics/cut.hpp"
#include "obs/trace.hpp"
#include "parallel/comm.hpp"
#include "parallel/comm_telemetry.hpp"
#include "parallel/dist_app.hpp"
#include "partition/partitioner.hpp"
#include "workload/datasets.hpp"
#include "workload/perturb.hpp"

namespace epochbench {

using namespace hgr;

namespace {

/// Application ranks: part p lives on rank p mod kAppRanks. Two, not one
/// per core: every halo iteration ends in a barrier, so with a rank on each
/// of four cores any host contention stalls all ranks, and drift-halo's
/// epoch_s varied by ~30% between runs of one seed (~5% with two ranks).
constexpr int kAppRanks = 2;
/// normalized_cost averages exactly this many epochs, so a faster build
/// that fits more epochs into the run reports the same cost; every run
/// measures at least this many.
constexpr std::size_t kCostEpochs = 80;
constexpr double kEpsilon = 0.05;

struct EpochWorkload {
  const char* name;
  const char* dataset;
  double scale;
  Index k;
  Weight alpha;
  int repart_ranks;     // 0: serial repartitioner
  Index repart_threads;
  bool structural;      // StructuralPerturbScenario, else WeightPerturb
  double churn;         // structural: vertex fraction deleted per epoch
};

// amr-repart's repartitioner runs on 2 ranks x 1 thread: with 2 x 2 the
// four busy threads leave no core free; over four runs of one seed epoch_s
// was 0.21-0.26 s on 2 x 2 and 0.19-0.23 s on 2 x 1. serve-mixed runs the
// ThreadPool kernels (2 threads) in its REPARTs.
constexpr EpochWorkload kAmrRepart{"amr-repart", "auto-like", 1.0, 16, 10,
                                   2,            1,           false, 0.0};
constexpr EpochWorkload kDriftHalo{"drift-halo", "auto-like", 1.0, 16, 100,
                                   0,            1,           true,  0.005};

/// Everything the application keeps across epochs.
struct App {
  std::unique_ptr<EpochScenario> scenario;
  EpochDeltaTracker tracker;
  IncrementalRepartitioner incremental;
  RepartitionerConfig rcfg;
  Comm comm{kAppRanks};
  std::vector<PayloadStore> stores{kAppRanks};
};

std::unique_ptr<App> set_up(const EpochWorkload& w, const Options& opt) {
  auto app = std::make_unique<App>();
  const double scale = opt.tiny ? w.scale * kTinyScale : w.scale;
  Graph base = make_dataset(w.dataset, scale, opt.seed);
  if (w.structural) {
    StructuralPerturbOptions so;
    so.vertex_fraction = w.churn;
    app->scenario = std::make_unique<StructuralPerturbScenario>(
        std::move(base), so, opt.seed);
  } else {
    app->scenario = std::make_unique<WeightPerturbScenario>(
        std::move(base), WeightPerturbOptions{}, opt.seed);
  }
  RepartitionerConfig& rcfg = app->rcfg;
  rcfg.partition.num_parts = w.k;
  rcfg.partition.epsilon = kEpsilon;
  rcfg.partition.seed = opt.seed;
  rcfg.partition.num_threads = w.repart_threads;
  rcfg.partition.incremental = IncrementalMode::kAuto;
  rcfg.alpha = w.alpha;
  rcfg.num_ranks = w.repart_ranks;

  // Static bootstrap epoch, then the initial data distribution.
  EpochProblem first = app->scenario->next_epoch();
  const Hypergraph h = graph_to_hypergraph(first.graph);
  app->tracker.observe(first.graph, first.to_base);
  const Partition p = partition_hypergraph(h, rcfg.partition);
  app->incremental.note_full(connectivity_cut(h, p));
  app->comm.run([&](RankContext& ctx) {
    app->stores[static_cast<std::size_t>(ctx.rank())] =
        make_payloads(ctx, h, p);
  });
  app->scenario->record_partition(p);
  return app;
}

/// Library observability read around a call (traced epochs only).
struct ObsMark {
  double coarsen = 0.0, initial = 0.0, refine = 0.0;
  std::map<std::string, std::uint64_t> counters;
  CommTelemetry comm;

  static ObsMark take() {
    ObsMark m;
    const obs::PhaseSnapshot tree = obs::global_registry().phase_tree();
    m.coarsen = phase_seconds(tree, "coarsen");
    m.initial = phase_seconds(tree, "initial");
    m.refine = phase_seconds(tree, "refine");
    m.counters = obs::global_registry().counters();
    m.comm = comm_telemetry_snapshot();
    return m;
  }
  double counter_delta(const ObsMark& before, const char* name) const {
    const auto get = [name](const ObsMark& m) -> double {
      const auto it = m.counters.find(name);
      return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return get(*this) - get(before);
  }
};

struct CommDelta {
  double bytes = 0.0;
  double collectives = 0.0;
  double wait_seconds_max = 0.0;  // max over ranks of recv + barrier wait
  double run_seconds = 0.0;
};

CommDelta comm_delta(const CommTelemetry& before, const CommTelemetry& after) {
  CommDelta d;
  d.run_seconds = after.run_seconds - before.run_seconds;
  for (std::size_t r = 0; r < after.ranks.size(); ++r) {
    const RankCommTelemetry& a = after.ranks[r];
    RankCommTelemetry b;
    if (r < before.ranks.size()) b = before.ranks[r];
    d.bytes += static_cast<double>(a.bytes_sent - b.bytes_sent);
    for (std::size_t kind = 0; kind < kNumCollectiveKinds; ++kind)
      d.collectives += static_cast<double>(a.collective_calls[kind] -
                                           b.collective_calls[kind]);
    const double wait = (a.recv_wait_seconds - b.recv_wait_seconds) +
                        (a.barrier_wait_seconds - b.barrier_wait_seconds);
    d.wait_seconds_max = std::max(d.wait_seconds_max, wait);
  }
  return d;
}

struct EpochSample {
  bool traced = false;
  // Wall seconds; epoch is build + repartition + migrate + halo.
  double repart = 0.0, halo = 0.0, epoch = 0.0;
  bool incremental = false;
  bool escalated = false;  // fast path tried, then the full tier answered
  bool failed = false;  // degraded or outside the balance bound
  double imbalance = 0.0;
  Weight halo_words = 0;     // per iteration, summed over ranks
  Weight migrate_words = 0;  // shipped + re-homed on the same rank
  double normalized = 0.0;   // halo_words + migrate_words / alpha
  // Traced epochs only.
  double coarsen = 0.0, initial = 0.0, refine = 0.0;
  double proposals = 0.0, applied = 0.0;
  double comm_bytes = 0.0, collectives = 0.0, wait_frac = 0.0;
};

/// The application's per-vertex quantity that nets reduce over.
std::vector<std::int64_t> halo_values(const std::vector<Index>& to_base,
                                      Index epoch) {
  std::vector<std::int64_t> values(to_base.size());
  for (std::size_t v = 0; v < to_base.size(); ++v)
    values[v] = static_cast<std::int64_t>(
                    (static_cast<std::uint64_t>(to_base[v]) * 2654435761ULL +
                     static_cast<std::uint64_t>(epoch)) %
                    1000) +
                1;
  return values;
}

EpochSample run_epoch(App& app, const EpochWorkload& w, const Options& opt,
                      SpanRecorder& rec, Index epoch, bool traced) {
  EpochSample s;
  s.traced = traced;
  const auto span = [&](const char* name, int parent) {
    return traced ? rec.begin(name, static_cast<std::uint64_t>(epoch), parent)
                  : -1;
  };
  const auto close = [&](int handle) {
    if (traced) rec.end(handle);
  };
  const int epoch_span = span("epoch", -1);
  const Clock::time_point t0 = Clock::now();

  // 1. workload: next epoch, its hypergraph and delta; the application
  // re-materializes its data on the adapted mesh under the old partition.
  int child = span("workload.build", epoch_span);
  EpochProblem problem = app.scenario->next_epoch();
  const Hypergraph h = graph_to_hypergraph(problem.graph);
  const EpochDelta delta = app.tracker.observe(problem.graph, problem.to_base);
  const std::vector<std::int64_t> values = halo_values(problem.to_base, epoch);
  app.comm.run([&](RankContext& ctx) {
    app.stores[static_cast<std::size_t>(ctx.rank())] =
        make_payloads(ctx, h, problem.old_partition);
  });
  close(child);

  // 2. core: the two-tier repartitioner.
  ObsMark before_repart;
  if (traced) before_repart = ObsMark::take();
  child = span("core.repart", epoch_span);
  const Clock::time_point t1 = Clock::now();
  GuardedRepartitionResult guarded = run_tiered_repartition(
      RepartAlgorithm::kHypergraphRepart, h, problem.graph,
      problem.old_partition, app.rcfg, app.incremental, delta);
  const Clock::time_point t2 = Clock::now();
  close(child);
  ObsMark after_repart;
  if (traced) after_repart = ObsMark::take();
  const Partition& next = guarded.result.partition;
  const MigrationPlan& plan = guarded.result.plan;

  // 3. parallel: migrate the payloads.
  child = span("parallel.migrate", epoch_span);
  std::vector<MigrateStats> moved(kAppRanks);
  app.comm.run([&](RankContext& ctx) {
    moved[static_cast<std::size_t>(ctx.rank())] =
        migrate(ctx, plan, h, app.stores[static_cast<std::size_t>(ctx.rank())]);
  });
  close(child);

  // 4. parallel: alpha iterations of halo exchange.
  child = span("parallel.halo", epoch_span);
  const Clock::time_point t3 = Clock::now();
  std::vector<Weight> first_words(kAppRanks, 0), total_words(kAppRanks, 0);
  std::vector<std::int64_t> checksum(kAppRanks, 0);
  app.comm.run([&](RankContext& ctx) {
    const auto r = static_cast<std::size_t>(ctx.rank());
    for (Weight i = 0; i < w.alpha; ++i) {
      const HaloStats hs = halo_exchange(ctx, h, next, values);
      if (i == 0) {
        first_words[r] = hs.words_sent;
        checksum[r] = hs.reduction_checksum;
      }
      total_words[r] += hs.words_sent;
    }
  });
  const Clock::time_point t4 = Clock::now();
  close(child);
  ObsMark after_halo;
  if (traced) after_halo = ObsMark::take();

  // check: payloads and the cost-model identities, outside epoch_s.
  child = span("check.validate", epoch_span);
  app.comm.run([&](RankContext& ctx) {
    validate_payloads(ctx, h, next,
                      app.stores[static_cast<std::size_t>(ctx.rank())]);
  });
  const std::string at = std::string(w.name) + " epoch " +
                         std::to_string(epoch) + ": ";
  Weight halo_words = 0, shipped = 0;
  for (int r = 0; r < kAppRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    require(total_words[i] == w.alpha * first_words[i],
            at + "halo words differ between iterations on rank " +
                std::to_string(r));
    require(checksum[i] == checksum[0],
            at + "halo reduction checksum differs across ranks");
    halo_words += first_words[i];
    shipped += moved[i].words_moved;
  }
  const Weight cut = connectivity_cut(h, next);
  require(halo_words == cut + opt.cut_offset,
          at + "identity violated: halo words per iteration " +
              std::to_string(halo_words) + " != connectivity cut " +
              std::to_string(cut + opt.cut_offset));
  std::int64_t expect_checksum = 0;
  for (const NetId net : h.nets())
    for (const VertexId v : h.pins(net))
      expect_checksum += values[static_cast<std::size_t>(v.v)];
  require(checksum[0] == expect_checksum,
          at + "halo reduction checksum != serial recomputation");
  // Moves between parts that share an owner rank stay on the rank.
  Weight rehomed = 0;
  for (const MigrationPlan::Move& m : plan.moves)
    if (part_owner(m.from, kAppRanks) == part_owner(m.to, kAppRanks))
      rehomed += m.size;
  const Weight migrate_words = shipped + rehomed;
  require(migrate_words == plan.total_volume,
          at + "identity violated: migrated words " +
              std::to_string(migrate_words) + " != plan.total_volume " +
              std::to_string(plan.total_volume));
  const RepartitionCost& cost = guarded.result.cost;
  require(cost.alpha == w.alpha, at + "reported cost has the wrong alpha");
  require(w.alpha * halo_words + migrate_words == cost.total(),
          at + "identity violated: alpha*halo_words + migrate_words " +
              std::to_string(w.alpha * halo_words + migrate_words) +
              " != cost.total() " + std::to_string(cost.total()));
  close(child);
  close(epoch_span);

  app.scenario->record_partition(next);

  s.repart = seconds_between(t1, t2);
  s.halo = seconds_between(t3, t4);
  s.epoch = seconds_between(t0, t4);
  s.incremental = guarded.tier == RepartTier::kIncremental;
  s.escalated = guarded.escalated;
  const auto vw = problem.graph.vertex_weights();
  const IdVector<PartId, Weight> pw = part_weights(vw, next);
  const Weight bound =
      max_part_weight(problem.graph.total_vertex_weight(), w.k, kEpsilon);
  s.failed = guarded.degraded ||
             *std::max_element(pw.raw().begin(), pw.raw().end()) > bound;
  s.imbalance = imbalance(vw, next);
  s.halo_words = halo_words;
  s.migrate_words = migrate_words;
  s.normalized = static_cast<double>(halo_words) +
                 static_cast<double>(migrate_words) /
                     static_cast<double>(w.alpha);
  if (traced) {
    s.coarsen = after_repart.coarsen - before_repart.coarsen;
    s.initial = after_repart.initial - before_repart.initial;
    s.refine = after_repart.refine - before_repart.refine;
    s.proposals =
        after_repart.counter_delta(before_repart, "refine.proposals") +
        after_repart.counter_delta(before_repart, "kway.proposals");
    s.applied =
        after_repart.counter_delta(before_repart, "refine.applied_moves") +
        after_repart.counter_delta(before_repart, "kway.moves");
    const CommDelta c = comm_delta(before_repart.comm, after_halo.comm);
    s.comm_bytes = c.bytes;
    s.collectives = c.collectives;
    s.wait_frac = c.run_seconds > 0.0 ? c.wait_seconds_max / c.run_seconds
                                      : 0.0;
  }
  return s;
}

const EpochWorkload& find_workload(const std::string& name) {
  if (name == kAmrRepart.name) return kAmrRepart;
  return kDriftHalo;
}

}  // namespace

RunResult run_epoch_workload(const Options& opt) {
  const EpochWorkload& w = find_workload(opt.workload);
  // Library assertions (validate_payloads, halo routing) throw instead of
  // aborting, so a violation fails the run with its message.
  ScopedAssertHandler assert_to_exception;

  std::vector<double> setup_seconds;
  std::unique_ptr<App> app;
  for (int i = 0; i < kSetupRepeats; ++i) {
    app.reset();
    const Clock::time_point t0 = Clock::now();
    app = set_up(w, opt);
    setup_seconds.push_back(seconds_between(t0, Clock::now()));
  }

  SpanRecorder rec(opt.trace);
  std::vector<EpochSample> samples;
  const Clock::time_point start = Clock::now();
  // Epoch 1 was the static bootstrap; every measured epoch repartitions.
  // A traced run traces every other epoch so the untraced ones give the
  // tracing overhead from the same run.
  for (Index epoch = 2; seconds_between(start, Clock::now()) < opt.seconds ||
                        samples.size() < kCostEpochs;
       ++epoch)
    samples.push_back(
        run_epoch(*app, w, opt, rec, epoch, opt.trace && epoch % 2 == 0));

  RunResult out;
  std::vector<double> epoch_s, repart_s, halo_s, traced_epoch_s,
      untraced_epoch_s, normalized, imbalance_v;
  double incremental = 0.0, escalations = 0.0;
  for (const EpochSample& s : samples) {
    ++out.attempted;
    if (s.failed) ++out.failed;
    epoch_s.push_back(s.epoch);
    repart_s.push_back(s.repart);
    halo_s.push_back(s.halo);
    (s.traced ? traced_epoch_s : untraced_epoch_s).push_back(s.epoch);
    if (normalized.size() < kCostEpochs) normalized.push_back(s.normalized);
    imbalance_v.push_back(s.imbalance);
    if (s.incremental) incremental += 1.0;
    if (s.escalated) escalations += 1.0;
  }
  const double n = static_cast<double>(samples.size());

  // End-to-end. The serve_* metrics are the latency of the application's
  // repartition request, a synchronous call here.
  auto& v = out.values;
  v["epoch_s"] = median(epoch_s);
  v["normalized_cost"] = mean(normalized);
  v["setup_s"] = median(setup_seconds);
  v["serve_p50_ms"] = 1e3 * median(repart_s);
  v["serve_p99_ms"] = 1e3 * quantile(repart_s, tail_quantile(repart_s.size()));
  v["serve_max_rps"] = 1.0 / median(repart_s);

  if (opt.trace) {
    // Layer times are span self times; the library's own counters, phase
    // tree and comm telemetry come from the traced epochs.
    const auto self = rec.self_seconds_by_name();
    const auto self_median = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : median(it->second);
    };
    std::vector<double> coarsen, initial, refine, comm_bytes, collectives,
        wait_frac;
    double proposals = 0.0, applied = 0.0, halo_words = 0.0,
           migrate_words = 0.0;
    for (const EpochSample& s : samples) {
      if (!s.traced) continue;
      coarsen.push_back(s.coarsen);
      initial.push_back(s.initial);
      refine.push_back(s.refine);
      comm_bytes.push_back(s.comm_bytes);
      collectives.push_back(s.collectives);
      wait_frac.push_back(s.wait_frac);
      proposals += s.proposals;
      applied += s.applied;
      halo_words += static_cast<double>(s.halo_words);
      migrate_words += static_cast<double>(s.migrate_words);
    }
    const double traced_n = static_cast<double>(coarsen.size());
    v["workload.build_s"] = self_median("workload.build");
    v["core.repart_s"] = self_median("core.repart");
    v["core.incremental_frac"] = incremental / n;
    v["core.escalations"] = escalations;
    v["core.epochs"] = n;
    v["partition.coarsen_s"] = mean(coarsen);
    v["partition.initial_s"] = mean(initial);
    v["partition.refine_s"] = mean(refine);
    v["partition.refine_move_ratio"] =
        proposals > 0.0 ? applied / proposals : 0.0;
    v["partition.imbalance"] = mean(imbalance_v);
    v["parallel.halo_s"] = self_median("parallel.halo");
    v["parallel.halo_words"] = halo_words / traced_n;
    v["parallel.migrate_s"] = self_median("parallel.migrate");
    v["parallel.migrate_words"] = migrate_words / traced_n;
    v["parallel.comm_bytes"] = mean(comm_bytes);
    v["parallel.collectives"] = mean(collectives);
    v["parallel.wait_frac"] = median(wait_frac);
    v["check.validate_s"] = self_median("check.validate");

    // Smallest share of an epoch span its children account for.
    const std::vector<Span>& spans = rec.spans();
    const std::vector<double> span_self = rec.self_seconds();
    double coverage = 1.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (spans[i].parent < 0 && spans[i].end > spans[i].start)
        coverage = std::min(
            coverage, 1.0 - span_self[i] / (spans[i].end - spans[i].start));
    v["obs.span_coverage_min"] = coverage;
    v["obs.trace_overhead_pct"] =
        100.0 * (median(traced_epoch_s) / median(untraced_epoch_s) - 1.0);
    if (!opt.trace_out.empty()) rec.write_json(opt.trace_out, opt.stamp);
  }

  char line[256];
  if (!w.structural) {
    std::snprintf(line, sizeof line,
                  "regime %s: core.repart_s/epoch_s = %.3f (intended >= 0.60)",
                  w.name, median(repart_s) / median(epoch_s));
  } else {
    std::snprintf(line, sizeof line,
                  "regime %s: core.incremental_frac = %.3f (intended >= 0.90), "
                  "parallel.halo_s/epoch_s = %.3f (intended >= 0.80)",
                  w.name, incremental / n, median(halo_s) / median(epoch_s));
  }
  out.notes.emplace_back(line);
  return out;
}

}  // namespace epochbench

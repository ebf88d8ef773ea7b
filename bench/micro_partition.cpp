// google-benchmark microbenchmarks of the partitioner kernels: IPM
// matching, contraction, FM refinement, greedy growing, model build, and
// the end-to-end partitioners.
//
// --json=FILE switches to structured perf-smoke mode instead of running
// google-benchmark: a fixed set of end-to-end trials (serial partition,
// repartition, parallel partition) whose timings, quality metrics, and
// comm telemetry are written as one hgr-bench-v1 document. CI runs this on
// two datasets and tools/bench_report.py aggregates the results into
// BENCH_partition.json. Other flags in that mode: --dataset= --scale=
// --k= --alpha= --trials= --seed= --ranks=.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "common/timer.hpp"
#include "core/repartition_model.hpp"
#include "core/repartitioner.hpp"
#include "graphpart/gcoarsen.hpp"
#include "graphpart/gpartitioner.hpp"
#include "hypergraph/convert.hpp"
#include "metrics/cut.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "parallel/par_partitioner.hpp"
#include "partition/contract.hpp"
#include "partition/initial.hpp"
#include "partition/matching_ipm.hpp"
#include "partition/partitioner.hpp"
#include "partition/refine_fm.hpp"
#include "workload/datasets.hpp"

namespace {

using namespace hgr;

const Graph& bench_graph() {
  static const Graph g = make_dataset("auto-like", 0.08, 3);
  return g;
}

const Hypergraph& bench_hypergraph() {
  static const Hypergraph h = graph_to_hypergraph(bench_graph());
  return h;
}

void BM_IpmMatching(benchmark::State& state) {
  const Hypergraph& h = bench_hypergraph();
  for (auto _ : state) {
    Rng rng(42);
    benchmark::DoNotOptimize(ipm_matching(h, 0, rng));
  }
  state.SetItemsProcessed(state.iterations() * h.num_vertices());
}
BENCHMARK(BM_IpmMatching);

void BM_Contract(benchmark::State& state) {
  const Hypergraph& h = bench_hypergraph();
  Rng rng(42);
  const auto match = ipm_matching(h, 0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(contract(h, match));
  }
  state.SetItemsProcessed(state.iterations() * h.num_pins());
}
BENCHMARK(BM_Contract);

void BM_GreedyGrowingBisection(benchmark::State& state) {
  const Hypergraph& h = bench_hypergraph();
  BisectionTargets t;
  t.target0 = h.total_vertex_weight() / 2;
  t.target1 = h.total_vertex_weight() - t.target0;
  t.epsilon = 0.05;
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(greedy_growing_bisection(h, t, rng));
  }
}
BENCHMARK(BM_GreedyGrowingBisection);

void BM_FmRefineBisection(benchmark::State& state) {
  const Hypergraph& h = bench_hypergraph();
  BisectionTargets t;
  t.target0 = h.total_vertex_weight() / 2;
  t.target1 = h.total_vertex_weight() - t.target0;
  t.epsilon = 0.05;
  PartitionConfig cfg;
  IdVector<VertexId, PartId> start(h.num_vertices());
  Rng init(9);
  for (auto& s : start) s = PartId{static_cast<Index>(init.below(2))};
  for (auto _ : state) {
    IdVector<VertexId, PartId> side = start;
    Rng rng(11);
    benchmark::DoNotOptimize(fm_refine_bisection(h, side, t, cfg, rng));
  }
}
BENCHMARK(BM_FmRefineBisection);

void BM_BuildRepartitionModel(benchmark::State& state) {
  const Hypergraph& h = bench_hypergraph();
  PartitionConfig cfg;
  cfg.num_parts = 16;
  const Partition old_p = partition_hypergraph(h, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_repartition_model(h, old_p, 100));
  }
}
BENCHMARK(BM_BuildRepartitionModel);

void BM_PartitionHypergraphK(benchmark::State& state) {
  const Hypergraph& h = bench_hypergraph();
  PartitionConfig cfg;
  cfg.num_parts = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_hypergraph(h, cfg));
  }
}
BENCHMARK(BM_PartitionHypergraphK)->Arg(2)->Arg(8)->Arg(32);

void BM_PartitionGraphK(benchmark::State& state) {
  const Graph& g = bench_graph();
  PartitionConfig cfg;
  cfg.num_parts = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_graph(g, cfg));
  }
}
BENCHMARK(BM_PartitionGraphK)->Arg(2)->Arg(8)->Arg(32);

void BM_HeavyEdgeMatching(benchmark::State& state) {
  const Graph& g = bench_graph();
  for (auto _ : state) {
    Rng rng(5);
    benchmark::DoNotOptimize(heavy_edge_matching(g, 0, rng));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_HeavyEdgeMatching);

void BM_ConnectivityCut(benchmark::State& state) {
  const Hypergraph& h = bench_hypergraph();
  PartitionConfig cfg;
  cfg.num_parts = 16;
  const Partition p = partition_hypergraph(h, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(connectivity_cut(h, p));
  }
  state.SetItemsProcessed(state.iterations() * h.num_pins());
}
BENCHMARK(BM_ConnectivityCut);

// The hot-path counter comparison behind obs::CachedCounter (see
// docs/OBSERVABILITY.md): counter() takes the registry mutex per bump,
// the cached handle is two relaxed loads + a relaxed fetch_add.
void BM_CounterBump(benchmark::State& state) {
  for (auto _ : state) {
    obs::counter("bench.counter_bump") += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterBump);

void BM_CachedCounterBump(benchmark::State& state) {
  static obs::CachedCounter counter("bench.cached_counter_bump");
  for (auto _ : state) {
    counter += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedCounterBump);

// Same comparison for the histogram hot path: record() through the registry
// lookup vs. the cached handle's lock-free bucket increment.
void BM_HistogramRecord(benchmark::State& state) {
  for (auto _ : state) {
    obs::histogram("bench.histogram_record").record(7);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_CachedHistogramRecord(benchmark::State& state) {
  static obs::CachedHistogram hist("bench.cached_histogram_record");
  std::int64_t v = 0;
  for (auto _ : state) {
    hist.record(v++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedHistogramRecord);

// --- structured perf-smoke mode (--json=FILE) ---

struct MicroOptions {
  std::string json_path;
  std::string dataset = "auto-like";
  double scale = 0.08;
  Index k = 16;
  Weight alpha = 100;
  Index trials = 3;
  std::uint64_t seed = 42;
  int ranks = 2;
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// ns per bump of `fn` over `iters` iterations.
template <typename Fn>
double time_bumps_ns(Fn&& fn, int iters) {
  WallTimer timer;
  for (int i = 0; i < iters; ++i) fn();
  return timer.seconds() * 1e9 / iters;
}

int run_structured(const MicroOptions& opt) {
  // Mix dataset/k/alpha into the seed chain (not just the trial index) so
  // sweeps over configurations use distinct RNG streams.
  std::uint64_t base_seed = derive_seed(opt.seed, fnv1a(opt.dataset));
  base_seed = derive_seed(base_seed, static_cast<std::uint64_t>(opt.k));
  base_seed = derive_seed(base_seed, static_cast<std::uint64_t>(opt.alpha));

  std::vector<double> partition_seconds, partition_cut;
  std::vector<double> repartition_seconds, repartition_cost;
  std::vector<double> parallel_seconds;

  for (Index trial = 0; trial < opt.trials; ++trial) {
    const std::uint64_t trial_seed =
        derive_seed(base_seed, static_cast<std::uint64_t>(trial));
    const Graph g =
        make_dataset(opt.dataset, opt.scale, derive_seed(trial_seed, 1));
    const Hypergraph h = graph_to_hypergraph(g);

    PartitionConfig pcfg;
    pcfg.num_parts = opt.k;
    pcfg.seed = derive_seed(trial_seed, 2);

    WallTimer timer;
    const Partition p = partition_hypergraph(h, pcfg);
    partition_seconds.push_back(timer.seconds());
    partition_cut.push_back(static_cast<double>(connectivity_cut(h, p)));

    // Repartition from an assignment produced by a different seed: a
    // worst-case-ish migration instance, deterministic per trial.
    PartitionConfig old_cfg = pcfg;
    old_cfg.seed = derive_seed(trial_seed, 3);
    const Partition old_p = partition_hypergraph(h, old_cfg);
    RepartitionerConfig rcfg;
    rcfg.partition = pcfg;
    rcfg.alpha = opt.alpha;
    const RepartitionResult r = hypergraph_repartition(h, old_p, rcfg);
    repartition_seconds.push_back(r.seconds);
    repartition_cost.push_back(r.cost.normalized_total());

    if (opt.ranks > 1) {
      ParallelPartitionConfig par_cfg;
      par_cfg.base = pcfg;
      par_cfg.base.seed = derive_seed(trial_seed, 4);
      par_cfg.num_ranks = opt.ranks;
      const ParallelPartitionResult pr =
          parallel_partition_hypergraph(h, par_cfg);
      parallel_seconds.push_back(pr.seconds);
    }
  }

  const double counter_ns =
      time_bumps_ns([] { obs::counter("bench.micro.counter") += 1; },
                    200000);
  static obs::CachedCounter cached("bench.micro.cached_counter");
  const double cached_ns = time_bumps_ns([] { cached += 1; }, 200000);

  // Observability overhead (acceptance: <1% on this bench): every
  // histogram record the instrumented trials performed, costed at the rate
  // of the path that produced it — fm.move_gain uses the batched local
  // accumulator (HistogramSnapshot::record + one merge per pass), all
  // other seams the cached atomic record — as a fraction of trial time.
  const auto hists = obs::global_registry().histograms();
  std::uint64_t histogram_records = 0;
  for (const auto& [name, snap] : hists) histogram_records += snap.count;
  const auto fm_it = hists.find("fm.move_gain");
  const std::uint64_t batched_records =
      fm_it != hists.end() ? fm_it->second.count : 0;
  const std::uint64_t direct_records = histogram_records - batched_records;
  static obs::CachedHistogram bench_hist("bench.micro.histogram");
  const double histogram_record_ns =
      time_bumps_ns([] { bench_hist.record(42); }, 200000);
  obs::HistogramSnapshot batch;
  std::int64_t batch_value = 0;
  const double batch_record_ns =
      time_bumps_ns([&] { batch.record(batch_value++); }, 200000);
  if (batch.count != 200000)
    std::fprintf(stderr, "warn: histogram batch timing miscount\n");
  double trial_seconds = 0.0;
  for (const double s : partition_seconds) trial_seconds += s;
  for (const double s : repartition_seconds) trial_seconds += s;
  for (const double s : parallel_seconds) trial_seconds += s;
  const double obs_ns =
      static_cast<double>(batched_records) * batch_record_ns +
      static_cast<double>(direct_records) * histogram_record_ns;
  const double obs_overhead_pct =
      trial_seconds > 0.0 ? obs_ns / (trial_seconds * 1e9) * 100.0 : 0.0;
  // Comm-latency tail (worst p99 across collective kinds) and
  // critical-path wait of the parallel trials (zero with --ranks=1).
  double comm_latency_p99_ns = 0.0;
  for (const auto& [name, snap] : hists) {
    if (name.rfind("comm.", 0) == 0 &&
        name.size() > 8 && name.compare(name.size() - 8, 8, ".call_ns") == 0)
      comm_latency_p99_ns = std::max(comm_latency_p99_ns,
                                     static_cast<double>(snap.p99()));
  }
  const obs::CriticalPathSummary cp = obs::latest_critical_path();
  const double epoch_wait_frac = cp.valid ? cp.wait_frac : 0.0;

  bench::BenchJson doc("micro_partition");
  doc.add_string("dataset", opt.dataset);
  char config[192];
  std::snprintf(config, sizeof(config),
                "{\"scale\":%.9g,\"k\":%lld,\"alpha\":%lld,\"trials\":%lld,"
                "\"seed\":%llu,\"ranks\":%d}",
                opt.scale, static_cast<long long>(opt.k),
                static_cast<long long>(opt.alpha),
                static_cast<long long>(opt.trials),
                static_cast<unsigned long long>(opt.seed), opt.ranks);
  doc.add_raw("config", config);
  std::string metrics = "{";
  metrics += "\"partition_seconds\":" +
             bench::TrialStats::of(partition_seconds).to_json();
  metrics +=
      ",\"partition_cut\":" + bench::TrialStats::of(partition_cut).to_json();
  metrics += ",\"repartition_seconds\":" +
             bench::TrialStats::of(repartition_seconds).to_json();
  metrics += ",\"repartition_normalized_cost\":" +
             bench::TrialStats::of(repartition_cost).to_json();
  metrics += ",\"parallel_partition_seconds\":" +
             bench::TrialStats::of(parallel_seconds).to_json();
  char counters[320];
  std::snprintf(counters, sizeof(counters),
                ",\"counter_bump_ns\":%.4g,\"cached_counter_bump_ns\":%.4g,"
                "\"histogram_record_ns\":%.4g,"
                "\"histogram_batch_record_ns\":%.4g,"
                "\"obs_overhead_pct\":%.4g,"
                "\"comm_latency_p99_ns\":%.6g,\"epoch_wait_frac\":%.6g}",
                counter_ns, cached_ns, histogram_record_ns, batch_record_ns,
                obs_overhead_pct, comm_latency_p99_ns, epoch_wait_frac);
  metrics += counters;
  doc.add_raw("metrics", metrics);
  if (!doc.write(opt.json_path)) {
    std::fprintf(stderr, "error: could not write %s\n",
                 opt.json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote bench json to %s\n", opt.json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  MicroOptions opt;
  bool structured = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--json") {
      opt.json_path = value;
      structured = true;
    } else if (key == "--dataset") {
      opt.dataset = value;
    } else if (key == "--scale") {
      opt.scale = std::stod(value);
    } else if (key == "--k") {
      opt.k = static_cast<Index>(std::stol(value));
    } else if (key == "--alpha") {
      opt.alpha = static_cast<Weight>(std::stoll(value));
    } else if (key == "--trials") {
      opt.trials = static_cast<Index>(std::stol(value));
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--ranks") {
      opt.ranks = static_cast<int>(std::stol(value));
    }
    // Unrecognized flags fall through to google-benchmark below.
  }
  if (structured) return run_structured(opt);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
